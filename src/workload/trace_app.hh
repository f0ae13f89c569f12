/**
 * @file
 * Trace-driven threads: replay a recorded memory-operation trace
 * through the processor model instead of a synthetic generator. This
 * is how a downstream user runs *their* application's reference
 * stream against the machine and the model.
 *
 * Trace text format, one operation per line:
 *
 *     <kind> <home> <line> <compute>
 *
 * where kind is L (load), S (store), or P (prefetch); home is the
 * node the word lives on; line is the cache-line index at that home;
 * and compute is the useful work in processor cycles preceding the
 * operation. '#' starts a comment; blank lines are ignored.
 *
 * Example:
 *
 *     # stream one line, then update a flag
 *     L 3 17 8
 *     S 0 2  4
 */

#ifndef LOCSIM_WORKLOAD_TRACE_APP_HH_
#define LOCSIM_WORKLOAD_TRACE_APP_HH_

#include <iosfwd>
#include <string>
#include <vector>

#include "proc/program.hh"

namespace locsim {
namespace workload {

/**
 * Parse a trace from a stream.
 *
 * @throws never; malformed input is a user error reported via
 *         LOCSIM_FATAL with the offending line number.
 */
std::vector<proc::Op> parseTrace(std::istream &input);

/** Parse a trace from a file path (fatal if unreadable). */
std::vector<proc::Op> loadTraceFile(const std::string &path);

/**
 * A thread that replays a fixed op sequence, looping forever (the
 * measurement harness decides when to stop).
 */
class TraceProgram : public proc::ThreadProgram
{
  public:
    /** @param ops the trace; must be non-empty. */
    explicit TraceProgram(std::vector<proc::Op> ops);

    proc::Op start() override;
    proc::Op next(std::uint64_t previous_result) override;

    /** Full passes over the trace completed. */
    std::uint64_t loops() const { return loops_; }

    void
    saveState(util::Serializer &s) const override
    {
        s.put<std::uint64_t>(pos_);
        s.put(loops_);
    }

    void
    loadState(util::Deserializer &d) override
    {
        pos_ = d.getBelow<std::uint64_t>(ops_.size());
        loops_ = d.get<std::uint64_t>();
    }

  private:
    std::vector<proc::Op> ops_;
    std::size_t pos_ = 0;
    std::uint64_t loops_ = 0;
};

} // namespace workload
} // namespace locsim

#endif // LOCSIM_WORKLOAD_TRACE_APP_HH_
