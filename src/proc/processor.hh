/**
 * @file
 * A Sparcle-like block-multithreaded processor model (Section 3.1):
 * p hardware contexts, each running one thread; on a cache miss the
 * processor switches to the next runnable context, paying an 11-cycle
 * switch penalty. With a single context the processor simply stalls
 * (Figure 1); with several it overlaps misses with other contexts'
 * work (Figure 2).
 */

#ifndef LOCSIM_PROC_PROCESSOR_HH_
#define LOCSIM_PROC_PROCESSOR_HH_

#include <cstdint>
#include <vector>

#include "coher/controller.hh"
#include "obs/trace.hh"
#include "proc/program.hh"
#include "sim/engine.hh"
#include "stats/stats.hh"

namespace locsim {
namespace proc {

/** Processor configuration. */
struct ProcessorConfig
{
    /** Hardware contexts (Sparcle provides four). */
    int contexts = 1;
    /** Context switch penalty in processor cycles (Sparcle: 11). */
    std::uint32_t switch_cycles = 11;
};

/** Per-processor statistics. */
struct ProcessorStats
{
    /** Cycles spent on useful thread work. */
    stats::Counter work_cycles;
    /** Cycles idle with every context blocked on memory. */
    stats::Counter idle_cycles;
    /** Cycles spent switching contexts. */
    stats::Counter switch_cycles;
    /** Context switches performed. */
    stats::Counter switches;
    /** Memory operations issued (hits and misses). */
    stats::Counter ops;

    void
    saveState(util::Serializer &s) const
    {
        work_cycles.saveState(s);
        idle_cycles.saveState(s);
        switch_cycles.saveState(s);
        switches.saveState(s);
        ops.saveState(s);
    }

    void
    loadState(util::Deserializer &d)
    {
        work_cycles.loadState(d);
        idle_cycles.loadState(d);
        switch_cycles.loadState(d);
        switches.loadState(d);
        ops.loadState(d);
    }
};

/** The processor model for one node. */
class Processor : public sim::Clocked, public coher::MemClient
{
  public:
    /**
     * @param controller this node's memory controller. The processor
     *        registers itself as the controller's MemClient.
     * @param config processor knobs.
     * @param programs one thread program per context (not owned; must
     *        outlive the processor).
     */
    Processor(coher::CacheController &controller,
              const ProcessorConfig &config,
              std::vector<ThreadProgram *> programs);

    void tick(sim::Tick now) override;

    /** Memory completion from the controller: unblock the context. */
    void memComplete(const coher::MemResponse &resp) override;

    /**
     * The processor only marks time when every context is blocked on
     * memory and no switch is in flight; any other state does work on
     * each tick.
     */
    bool busy() const override
    {
        return switch_remaining_ > 0 || !allBlocked();
    }

    /**
     * Skipped ticks are exactly the cycles tick() would have spent in
     * the all-blocked idle branch; credit them so utilization
     * accounting is independent of the stepping mode.
     */
    void skipIdle(sim::Tick ticks) override
    {
        stats_.idle_cycles.inc(static_cast<std::uint64_t>(ticks));
    }

    const ProcessorStats &stats() const { return stats_; }

    /** Zero all statistics (e.g. after a warmup period). */
    void resetStats() { stats_ = ProcessorStats{}; }

    /**
     * Attach a tracer (nullptr to detach; not owned): emits one
     * "ctx_switch" span per context switch on @p track, with the
     * switch penalty rendered in engine ticks via
     * @p ticks_per_cycle (the processor's clock period).
     */
    void
    setTracer(obs::Tracer *tracer, int track,
              sim::Tick ticks_per_cycle)
    {
        tracer_ = tracer;
        trace_track_ = track;
        trace_ticks_per_cycle_ = ticks_per_cycle;
    }

    /** True if every context is blocked on memory. */
    bool allBlocked() const;

    /**
     * Resident bytes of processor + program state (footprint
     * accounting; includes the owned contexts' programs).
     */
    std::size_t
    memoryBytes() const
    {
        std::size_t bytes =
            sizeof(*this) + contexts_.capacity() * sizeof(Context);
        for (const Context &ctx : contexts_)
            bytes += ctx.program->memoryBytes();
        return bytes;
    }

    /**
     * Serialize dynamic state: per-context run state and current op,
     * the active context, switch progress, and statistics. Program
     * pointers are reconstructed at machine build time; the programs
     * themselves checkpoint separately (ThreadProgram::saveState).
     */
    void saveState(util::Serializer &s) const;

    /**
     * Inverse of saveState(). Throws std::runtime_error on a context
     * count other than this processor's, a context state past
     * ReadyToResume, an op kind past Prefetch (loadOp), an active
     * context outside [0, contexts), and a truncated section.
     */
    void loadState(util::Deserializer &d);

  private:
    enum class CtxState : std::uint8_t {
        Computing,     //!< burning compute cycles
        ReadyToIssue,  //!< compute done; memory op pending issue
        WaitingMem,    //!< memory transaction outstanding
        ReadyToResume, //!< memory completed; awaiting the pipeline
    };

    struct Context
    {
        ThreadProgram *program = nullptr;
        CtxState state = CtxState::Computing;
        std::uint32_t compute_remaining = 0;
        Op op;
        std::uint64_t resume_value = 0;
    };

    /** Load the context's next op after a completed operation. */
    void advance(Context &ctx, std::uint64_t result);

    /** Issue the active context's pending op (fast path or miss). */
    void issue(int ctx_index);

    /** Find another runnable context (round-robin); -1 if none. */
    int findRunnable(int after) const;

    /** Begin switching to @p target. */
    void startSwitch(int target);

    bool runnable(const Context &ctx) const;

    coher::CacheController &controller_;
    ProcessorConfig config_;
    std::vector<Context> contexts_;

    int active_ = 0;
    std::uint32_t switch_remaining_ = 0;

    ProcessorStats stats_;

    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
    sim::Tick trace_ticks_per_cycle_ = 1;
    /** Engine time of the current tick (for trace timestamps). */
    sim::Tick now_ = 0;
};

} // namespace proc
} // namespace locsim

#endif // LOCSIM_PROC_PROCESSOR_HH_
