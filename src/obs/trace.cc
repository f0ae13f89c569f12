/**
 * @file
 * Tracer implementation and Chrome trace_event JSON serialization.
 */

#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "util/logging.hh"

namespace locsim {
namespace obs {

const char *
categoryName(Category cat)
{
    switch (cat) {
      case Category::Engine:
        return "engine";
      case Category::Net:
        return "net";
      case Category::Coher:
        return "coher";
      case Category::Proc:
        return "proc";
      case Category::Sampler:
        return "sampler";
    }
    return "unknown";
}

Args &
Args::add(const char *key, std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    if (!body_.empty())
        body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(buf);
    return *this;
}

Args &
Args::add(const char *key, std::int64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    if (!body_.empty())
        body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(buf);
    return *this;
}

Args &
Args::add(const char *key, double value)
{
    char buf[48];
    // %g never emits the JSON-invalid bare "nan"/"inf" for the finite
    // statistics we trace; keep it short and round-trippable enough.
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!body_.empty())
        body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(buf);
    return *this;
}

Args &
Args::add(const char *key, const char *value)
{
    if (!body_.empty())
        body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":\"");
    appendJsonEscaped(body_, value);
    body_.push_back('"');
    return *this;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"':
            out.append("\\\"");
            break;
          case '\\':
            out.append("\\\\");
            break;
          case '\n':
            out.append("\\n");
            break;
          case '\t':
            out.append("\\t");
            break;
          case '\r':
            out.append("\\r");
            break;
          default:
            if (u < 0x20 || u >= 0x80) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out.append(buf);
            } else {
                out.push_back(c);
            }
        }
    }
}

Tracer::Tracer(const TraceConfig &config) : config_(config)
{
}

int
Tracer::newTrack(std::string name)
{
    tracks_.push_back(std::move(name));
    return static_cast<int>(tracks_.size() - 1);
}

const char *
Tracer::intern(const std::string &name)
{
    for (const std::string &existing : interned_) {
        if (existing == name)
            return existing.c_str();
    }
    interned_.push_back(name);
    return interned_.back().c_str();
}

void
Tracer::counter(int track, sim::Tick ts, const char *name,
                double value)
{
    record({ts, 0, 0, track, 'C', Category::Sampler, name,
            std::move(Args().add("value", value)).str()});
}

void
Tracer::record(Event event)
{
    if (config_.max_events != 0 &&
        events_.size() >= config_.max_events) {
        ++dropped_;
        return;
    }
    LOCSIM_ASSERT(event.track >= 0 &&
                      static_cast<std::size_t>(event.track) <
                          tracks_.size(),
                  "trace event on unallocated track ", event.track);
    events_.push_back(std::move(event));
}

namespace {

void
writeEventJson(std::ostream &os, const Event &e, int pid, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << e.name << "\",\"cat\":\""
       << categoryName(e.cat) << "\",\"ph\":\"" << e.phase
       << "\",\"ts\":" << e.ts << ",\"pid\":" << pid
       << ",\"tid\":" << e.track;
    if (e.phase == 'X')
        os << ",\"dur\":" << e.dur;
    if (e.phase == 'b' || e.phase == 'e') {
        // Async spans match on (cat, id); scope the id to this shard.
        os << ",\"id\":" << e.id;
    }
    if (e.phase == 'C' || e.phase == 'b' || !e.args.empty())
        os << ",\"args\":{" << e.args << "}";
    os << "}";
}

void
writeMetadata(std::ostream &os, int pid, const char *kind,
              int tid, const std::string &name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    std::string escaped;
    appendJsonEscaped(escaped, name);
    os << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (tid >= 0)
        os << ",\"tid\":" << tid;
    os << ",\"args\":{\"name\":\"" << escaped << "\"}}";
}

} // namespace

void
Tracer::writeShard(std::ostream &os, int pid, bool &first) const
{
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        writeMetadata(os, pid, "thread_name", static_cast<int>(t),
                      tracks_[t], first);
    }
    for (const Event &e : events_)
        writeEventJson(os, e, pid, first);
}

void
Tracer::write(std::ostream &os) const
{
    writeMergedTrace(os, {this}, {"locsim"});
}

void
writeMergedTrace(std::ostream &os,
                 const std::vector<const Tracer *> &shards,
                 const std::vector<std::string> &shard_names)
{
    LOCSIM_ASSERT(shards.size() == shard_names.size(),
                  "one name per trace shard required");
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const int pid = static_cast<int>(i);
        writeMetadata(os, pid, "process_name", -1, shard_names[i],
                      first);
        shards[i]->writeShard(os, pid, first);
    }
    os << "\n]}\n";
}

} // namespace obs
} // namespace locsim
