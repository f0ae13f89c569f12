/**
 * @file
 * A tiny command-line option parser for the examples and bench
 * harnesses. Supports --name value, --name=value, and boolean flags,
 * with typed accessors, defaults, and an auto-generated usage string.
 */

#ifndef LOCSIM_UTIL_OPTIONS_HH_
#define LOCSIM_UTIL_OPTIONS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace locsim {
namespace util {

/** Declarative command-line option set. */
class OptionParser
{
  public:
    /** @param program short program name, @param summary one-liner. */
    OptionParser(std::string program, std::string summary);

    /** Register a string option. */
    void addString(const std::string &name, const std::string &help,
                   const std::string &default_value);

    /** Register an integer option. */
    void addInt(const std::string &name, const std::string &help,
                long long default_value);

    /** Register a floating-point option. */
    void addDouble(const std::string &name, const std::string &help,
                   double default_value);

    /** Register a boolean flag (default false; presence sets true). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Unknown options or malformed values produce a usage
     * message and a fatal error. "--help" prints usage and exits 0.
     *
     * @return leftover positional arguments.
     */
    std::vector<std::string> parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;
    long long getInt(const std::string &name) const;
    /**
     * getInt() narrowed to int: a value outside int's range is fatal
     * rather than silently wrapped (--radix 4294967300 is not 4).
     */
    int getInt32(const std::string &name) const;
    /**
     * getInt() as an unsigned 64-bit count (cycles, seeds, budgets):
     * a negative value or one below @p min is fatal rather than
     * wrapped (--cycles -1 is not 2^64-1).
     */
    std::uint64_t getUint64(const std::string &name,
                            std::uint64_t min = 0) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /**
     * True iff @p name appeared on the command line (vs. holding its
     * default). Lets callers distinguish "--threads 0" (invalid) from
     * the default 0 meaning "auto".
     */
    bool wasSet(const std::string &name) const;

    /** Render the usage/help text. */
    std::string usage() const;

  private:
    enum class Kind { String, Int, Double, Flag };

    struct Option
    {
        Kind kind;
        std::string help;
        std::string value; // current (default or parsed) textual value
        bool parsed = false; // appeared on the command line
    };

    const Option &find(const std::string &name, Kind kind) const;

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
};

/**
 * The shared observability options, parsed out of an OptionParser by
 * applyObservabilityOptions(). Plain types only so util stays at the
 * bottom of the library stack; callers map these onto
 * machine::MachineConfig / obs::TraceConfig.
 */
struct ObservabilityOptions
{
    /** --trace-out: trace JSON path; empty means tracing off. */
    std::string trace_out;
    /** --trace-detail=flit: record per-flit events and stalls. */
    bool flit_detail = false;
    /** --sample-period: metrics cadence in ticks; 0 disables. */
    long long sample_period = 0;
    /** --run-report: JSON run-manifest path; empty means off. */
    std::string run_report;
};

/**
 * Register --log-level, --trace-out, --trace-detail, --sample-period,
 * and --run-report on @p parser (one shared definition so every
 * binary spells them identically).
 */
void addObservabilityOptions(OptionParser &parser);

/**
 * Read back the options registered by addObservabilityOptions() and
 * apply --log-level globally (setLogLevel). Call after parse().
 * Output paths (--trace-out, --run-report) are validated here: a
 * missing parent directory is fatal at parse time, before any
 * simulation time is spent.
 */
ObservabilityOptions
applyObservabilityOptions(const OptionParser &parser);

/**
 * Fatal unless @p path could be created: its parent directory must
 * exist. Used for output artifacts (--trace-out, --run-report) so
 * typos fail before the run, not after; @p flag names the offender.
 */
void requireWritableParent(const std::string &path,
                           const std::string &flag);

/**
 * Read a positive-integer environment knob (LOCSIM_THREADS,
 * LOCSIM_SHARDS). Unset or empty returns @p fallback; any other value
 * that is not a positive int ("0", "2x", "abc") is fatal, so a typo
 * fails before any simulation instead of silently meaning something
 * else.
 */
int envPositiveInt(const char *name, int fallback);

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_OPTIONS_HH_
