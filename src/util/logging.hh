/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs, aborts the process), fatal() is for user
 * errors (bad configuration, exits cleanly with an error code), warn()
 * and inform() report conditions that do not stop the run.
 */

#ifndef LOCSIM_UTIL_LOGGING_HH_
#define LOCSIM_UTIL_LOGGING_HH_

#include <sstream>
#include <string>

namespace locsim {
namespace util {

/** Verbosity levels for status messages. */
enum class LogLevel {
    Silent,  //!< suppress everything except panic/fatal
    Warn,    //!< warnings only
    Inform,  //!< warnings and informational messages
    Debug,   //!< everything, including debug traces
};

/** Set the global verbosity threshold for warn/inform/debug messages. */
void setLogLevel(LogLevel level);

/** Get the current global verbosity threshold. */
LogLevel logLevel();

/**
 * Parse a level name ("silent", "warn", "inform", "debug"); fatal on
 * anything else. Used by the shared --log-level command-line option.
 */
LogLevel parseLogLevel(const std::string &name);

/** Stable lower-case name of a level. */
const char *logLevelName(LogLevel level);

namespace detail {

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

} // namespace detail

/**
 * Report an internal invariant violation and abort.
 *
 * Use for conditions that can only arise from a bug in locsim itself,
 * never from user input.
 */
#define LOCSIM_PANIC(...)                                                 \
    ::locsim::util::detail::panicImpl(                                    \
        __FILE__, __LINE__, ::locsim::util::detail::concat(__VA_ARGS__))

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit with a non-zero status.
 */
#define LOCSIM_FATAL(...)                                                 \
    ::locsim::util::detail::fatalImpl(                                    \
        __FILE__, __LINE__, ::locsim::util::detail::concat(__VA_ARGS__))

/** Warn about suspicious but survivable conditions. */
#define LOCSIM_WARN(...)                                                  \
    ::locsim::util::detail::warnImpl(                                     \
        ::locsim::util::detail::concat(__VA_ARGS__))

/** Emit a normal informational status message. */
#define LOCSIM_INFORM(...)                                                \
    ::locsim::util::detail::informImpl(                                   \
        ::locsim::util::detail::concat(__VA_ARGS__))

/** Emit a debug trace message (only at LogLevel::Debug). */
#define LOCSIM_DEBUG(...)                                                 \
    ::locsim::util::detail::debugImpl(                                    \
        ::locsim::util::detail::concat(__VA_ARGS__))

/**
 * Assert an invariant with a formatted message; active in all build
 * types (model and protocol invariants are cheap relative to the work
 * they guard). The test is hinted false and the failure path, which
 * builds the message, is a cold out-of-line lambda, so a check costs
 * its caller one compare and branch rather than inlined formatting.
 */
#define LOCSIM_ASSERT(cond, ...)                                          \
    do {                                                                  \
        if (__builtin_expect(!(cond), 0)) {                               \
            [&]() __attribute__((cold, noinline, noreturn)) {             \
                LOCSIM_PANIC("assertion failed: " #cond " ",              \
                             __VA_ARGS__);                                \
            }();                                                          \
        }                                                                 \
    } while (0)

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_LOGGING_HH_
