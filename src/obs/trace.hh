/**
 * @file
 * Structured event tracing for the whole simulator.
 *
 * A Tracer collects compact timestamped events from every simulated
 * layer — network flit/credit movement and message lifetimes, router
 * allocation stalls, cache-controller protocol transitions, processor
 * context switches, and engine fast-forward spans — onto named tracks
 * and serializes them in the Chrome trace_event JSON format, loadable
 * in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Null-sink fast path: components hold a `Tracer *` that is null when
 * tracing is off, so the disabled cost is one predictable branch per
 * call site (argument formatting happens inside the branch). Tracing
 * is therefore compiled in unconditionally.
 *
 * One Tracer records one shard (one machine / one runner job).
 * writeMergedTrace() combines shards from a parallel sweep into a
 * single trace deterministically: shard order is the caller's
 * submission order and each shard becomes one trace "process".
 *
 * Time mapping: one simulation tick is rendered as one microsecond
 * ("ts"/"dur" are in us in the trace_event format), so Perfetto's
 * time axis reads directly in network cycles.
 */

#ifndef LOCSIM_OBS_TRACE_HH_
#define LOCSIM_OBS_TRACE_HH_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace locsim {
namespace obs {

/** Event source layer; becomes the trace_event "cat" field. */
enum class Category : std::uint8_t {
    Engine,  //!< simulation engine (run windows, fast-forward spans)
    Net,     //!< network fabric (messages, flits, stalls)
    Coher,   //!< cache-controller protocol transitions
    Proc,    //!< processor context switches
    Sampler, //!< periodic metrics counters
};

/** Stable category name used in the serialized trace. */
const char *categoryName(Category cat);

/** How much network detail to record. */
enum class TraceDetail : std::uint8_t {
    /** Message lifetimes and protocol/processor/engine events only. */
    Message,
    /** Additionally every flit forward and router allocation stall. */
    Flit,
};

/** Knobs for one trace shard. */
struct TraceConfig
{
    /** Master switch; when false no Tracer is created at all. */
    bool enabled = false;
    TraceDetail detail = TraceDetail::Message;
    /**
     * Retained-event cap per shard; once reached, further events are
     * counted in dropped() but not stored (bounded memory on long
     * runs). 0 means unlimited.
     */
    std::size_t max_events = 1u << 20;
};

/**
 * One recorded event. `name` must point at a string literal (or other
 * storage outliving the tracer); every call site traces fixed event
 * names, so this keeps the hot path allocation-free apart from args.
 */
struct Event
{
    sim::Tick ts = 0;
    sim::Tick dur = 0;       //!< Complete events only
    std::uint64_t id = 0;    //!< Async events only
    std::int32_t track = 0;
    char phase = 'i';        //!< trace_event "ph": i, X, b, e, C
    Category cat = Category::Engine;
    const char *name = "";
    /** Pre-rendered JSON object body for "args" (may be empty). */
    std::string args;
};

/**
 * Tiny builder for the "args" payload: renders a flat JSON object
 * body ("\"k\":v,...") without pulling in a JSON library.
 */
class Args
{
  public:
    Args &add(const char *key, std::uint64_t value);
    Args &add(const char *key, std::int64_t value);
    Args &add(const char *key, int value)
    {
        return add(key, static_cast<std::int64_t>(value));
    }
    Args &add(const char *key, unsigned value)
    {
        return add(key, static_cast<std::uint64_t>(value));
    }
    Args &add(const char *key, double value);
    /** String values are JSON-escaped. */
    Args &add(const char *key, const char *value);

    std::string str() && { return std::move(body_); }

  private:
    std::string body_;
};

/**
 * Append @p s to @p out with JSON string escaping (no quotes). The
 * output is ASCII: control characters and bytes at or above 0x80 are
 * written as \u00XX.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

/** One shard of trace events plus its track names. */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &config = {});

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const TraceConfig &config() const { return config_; }

    /** Record flit-level detail? Call sites gate chatty events on this. */
    bool flitDetail() const
    {
        return config_.detail == TraceDetail::Flit;
    }

    /**
     * Allocate a track (a Perfetto "thread") with a stable name, e.g.
     * "net.12" or "engine". Returns the track id for event calls.
     */
    int newTrack(std::string name);

    /**
     * Copy @p name into tracer-owned storage and return a pointer that
     * stays valid for the tracer's lifetime. Use for Event names that
     * are not string literals (e.g. sampler probe names, whose owner
     * may be destroyed before the trace is written).
     */
    const char *intern(const std::string &name);

    /** Instant event (ph "i"). */
    void
    instant(int track, sim::Tick ts, const char *name, Category cat,
            std::string args = {})
    {
        record({ts, 0, 0, track, 'i', cat, name, std::move(args)});
    }

    /** Complete event (ph "X") spanning [ts, ts + dur). */
    void
    complete(int track, sim::Tick ts, sim::Tick dur, const char *name,
             Category cat, std::string args = {})
    {
        record({ts, dur, 0, track, 'X', cat, name, std::move(args)});
    }

    /** Async span begin (ph "b"); pair with asyncEnd via @p id. */
    void
    asyncBegin(int track, sim::Tick ts, std::uint64_t id,
               const char *name, Category cat, std::string args = {})
    {
        record({ts, 0, id, track, 'b', cat, name, std::move(args)});
    }

    /** Async span end (ph "e"). */
    void
    asyncEnd(int track, sim::Tick ts, std::uint64_t id,
             const char *name, Category cat, std::string args = {})
    {
        record({ts, 0, id, track, 'e', cat, name, std::move(args)});
    }

    /** Counter sample (ph "C"); renders as a time-series track. */
    void counter(int track, sim::Tick ts, const char *name,
                 double value);

    const std::vector<Event> &events() const { return events_; }
    const std::vector<std::string> &trackNames() const
    {
        return tracks_;
    }

    /** Events discarded after max_events was reached. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Serialize this shard as a self-contained trace
     * ({"traceEvents":[...]}) with pid 0.
     */
    void write(std::ostream &os) const;

  private:
    friend void writeMergedTrace(
        std::ostream &os, const std::vector<const Tracer *> &shards,
        const std::vector<std::string> &shard_names);

    void record(Event event);

    /** Emit this shard's events as pid @p pid (no envelope). */
    void writeShard(std::ostream &os, int pid, bool &first) const;

    TraceConfig config_;
    std::vector<Event> events_;
    std::vector<std::string> tracks_;
    /** intern() storage; deque so element addresses never move. */
    std::deque<std::string> interned_;
    std::uint64_t dropped_ = 0;
};

/**
 * Merge shards into one trace: shard i becomes pid i, named
 * @p shard_names[i]. Output is a deterministic function of the shard
 * list (no timestamps or ids are rewritten), so a parallel sweep that
 * collects shards in submission order produces identical traces for
 * any worker-thread count.
 */
void writeMergedTrace(std::ostream &os,
                      const std::vector<const Tracer *> &shards,
                      const std::vector<std::string> &shard_names);

} // namespace obs
} // namespace locsim

#endif // LOCSIM_OBS_TRACE_HH_
