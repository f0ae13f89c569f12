/**
 * @file
 * OptionParser implementation.
 */

#include "util/options.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>

#include "util/logging.hh"

namespace locsim {
namespace util {

OptionParser::OptionParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
OptionParser::addString(const std::string &name, const std::string &help,
                        const std::string &default_value)
{
    options_[name] = Option{Kind::String, help, default_value};
}

void
OptionParser::addInt(const std::string &name, const std::string &help,
                     long long default_value)
{
    options_[name] =
        Option{Kind::Int, help, std::to_string(default_value)};
}

void
OptionParser::addDouble(const std::string &name, const std::string &help,
                        double default_value)
{
    std::ostringstream oss;
    oss << default_value;
    options_[name] = Option{Kind::Double, help, oss.str()};
}

void
OptionParser::addFlag(const std::string &name, const std::string &help)
{
    options_[name] = Option{Kind::Flag, help, "0"};
}

std::vector<std::string>
OptionParser::parse(int argc, const char *const *argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end()) {
            std::fputs(usage().c_str(), stderr);
            LOCSIM_FATAL("unknown option --", name);
        }
        Option &opt = it->second;
        if (opt.kind == Kind::Flag) {
            if (have_value)
                LOCSIM_FATAL("flag --", name, " takes no value");
            opt.value.assign(1, '1');
            opt.parsed = true;
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc)
                LOCSIM_FATAL("option --", name, " requires a value");
            value = argv[++i];
        }
        if (opt.kind == Kind::Int) {
            char *end = nullptr;
            errno = 0;
            (void)std::strtoll(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                LOCSIM_FATAL("option --", name,
                             " expects an integer, got '", value, "'");
            if (errno == ERANGE)
                LOCSIM_FATAL("option --", name,
                             " is out of range, got '", value, "'");
        } else if (opt.kind == Kind::Double) {
            char *end = nullptr;
            (void)std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                LOCSIM_FATAL("option --", name,
                             " expects a number, got '", value, "'");
        }
        opt.value = value;
        opt.parsed = true;
    }
    return positional;
}

bool
OptionParser::wasSet(const std::string &name) const
{
    auto it = options_.find(name);
    LOCSIM_ASSERT(it != options_.end(), "option --", name,
                  " was never registered");
    return it->second.parsed;
}

const OptionParser::Option &
OptionParser::find(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    LOCSIM_ASSERT(it != options_.end(), "option --", name,
                  " was never registered");
    LOCSIM_ASSERT(it->second.kind == kind, "option --", name,
                  " accessed with the wrong type");
    return it->second;
}

std::string
OptionParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

long long
OptionParser::getInt(const std::string &name) const
{
    return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr,
                        10);
}

int
OptionParser::getInt32(const std::string &name) const
{
    const long long value = getInt(name);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
        LOCSIM_FATAL("--", name, " is out of range, got ", value);
    }
    return static_cast<int>(value);
}

std::uint64_t
OptionParser::getUint64(const std::string &name, std::uint64_t min) const
{
    const long long value = getInt(name);
    if (value < 0 || static_cast<std::uint64_t>(value) < min)
        LOCSIM_FATAL("--", name, " must be >= ", min, ", got ", value);
    return static_cast<std::uint64_t>(value);
}

double
OptionParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

bool
OptionParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

std::string
OptionParser::usage() const
{
    std::ostringstream oss;
    oss << program_ << " - " << summary_ << "\n\noptions:\n";
    for (const auto &[name, opt] : options_) {
        oss << "  --" << name;
        switch (opt.kind) {
          case Kind::String:
            oss << " <string>";
            break;
          case Kind::Int:
            oss << " <int>";
            break;
          case Kind::Double:
            oss << " <num>";
            break;
          case Kind::Flag:
            break;
        }
        oss << "\n      " << opt.help;
        if (opt.kind != Kind::Flag)
            oss << " (default: " << opt.value << ")";
        oss << "\n";
    }
    oss << "  --help\n      show this message\n";
    return oss.str();
}

void
addObservabilityOptions(OptionParser &parser)
{
    parser.addString("log-level",
                     "verbosity: silent, warn, inform, or debug",
                     logLevelName(logLevel()));
    parser.addString("trace-out",
                     "write a Chrome trace_event JSON trace here "
                     "(empty: tracing off)",
                     "");
    parser.addString("trace-detail",
                     "trace granularity: message or flit", "message");
    parser.addInt("sample-period",
                  "metrics sample cadence in network cycles "
                  "(0: sampler off)",
                  0);
    parser.addString("run-report",
                     "write a JSON run manifest here (config, build, "
                     "counters, phase profile; empty: off)",
                     "");
}

void
requireWritableParent(const std::string &path, const std::string &flag)
{
    namespace fs = std::filesystem;
    const fs::path parent = fs::path(path).parent_path();
    if (parent.empty())
        return; // current directory
    std::error_code ec;
    if (!fs::is_directory(parent, ec)) {
        LOCSIM_FATAL(flag, " path '", path,
                     "': parent directory '", parent.string(),
                     "' does not exist");
    }
}

ObservabilityOptions
applyObservabilityOptions(const OptionParser &parser)
{
    setLogLevel(parseLogLevel(parser.getString("log-level")));

    ObservabilityOptions obs;
    obs.trace_out = parser.getString("trace-out");
    const std::string detail = parser.getString("trace-detail");
    if (detail == "flit") {
        obs.flit_detail = true;
    } else if (detail != "message") {
        LOCSIM_FATAL("unknown --trace-detail '", detail,
                     "' (expected message or flit)");
    }
    obs.sample_period = parser.getInt("sample-period");
    if (obs.sample_period < 0)
        LOCSIM_FATAL("--sample-period must be >= 0");
    obs.run_report = parser.getString("run-report");
    // Output paths fail now (a typo'd directory would otherwise be
    // discovered only when the artifact is written, after the run).
    if (!obs.trace_out.empty())
        requireWritableParent(obs.trace_out, "--trace-out");
    if (!obs.run_report.empty())
        requireWritableParent(obs.run_report, "--run-report");
    return obs;
}

int
envPositiveInt(const char *name, int fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(env, &end, 10);
    if (*end != '\0' || errno == ERANGE || parsed < 1 ||
        parsed > std::numeric_limits<int>::max()) {
        LOCSIM_FATAL(name, " must be a positive integer, got '", env,
                     "'");
    }
    return static_cast<int>(parsed);
}

} // namespace util
} // namespace locsim
