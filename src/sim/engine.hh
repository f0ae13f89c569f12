/**
 * @file
 * The cycle-driven simulation engine.
 *
 * The engine advances a global tick counter; clocked components
 * register with a clock period (in ticks) and phase offset and have
 * their tick() method invoked on matching ticks. Latched
 * communication goes through Rotatable objects registered with the
 * engine (the fabric's cross-shard WakeOutbox), which it rotates at
 * the end of every tick so that values staged in cycle t are visible
 * in cycle t+1.
 *
 * In the Alewife-like machine, network switches run at period 1 and
 * processors/controllers at period `ratio` (default 2), mirroring the
 * paper's "network switches are clocked twice as fast as processors".
 *
 * Activity tracking (StepMode::Activity, the default):
 *  - each clocked entry carries a precomputed next-due tick, so firing
 *    a component is a single compare instead of a per-entry modulo;
 *  - when every component reports idle via Clocked::busy(), the engine
 *    fast-forwards time to the earliest Clocked::nextWake() (or the
 *    end of the run), crediting skipped cycles via Clocked::skipIdle()
 *    so time-based statistics (e.g. processor idle cycles) stay exact.
 *    idleTarget() is that rule, shared with the lockstep driver.
 *
 * StepMode::Reference disables both optimizations (modulo scan, never
 * skip) and is kept as the oracle for the equivalence tests: both
 * modes must produce tick-for-tick identical simulation results.
 */

#ifndef LOCSIM_SIM_ENGINE_HH_
#define LOCSIM_SIM_ENGINE_HH_

#include <functional>
#include <vector>

#include "sim/types.hh"

namespace locsim {

namespace obs {
class PhaseSlot;
class Tracer;
}

namespace sim {

/**
 * Latched state the engine rotates at the end of every tick, after
 * every component has ticked. rotate() makes values staged this cycle
 * visible next cycle and must be a no-op when nothing was staged.
 * Values staged outside a tick do not block a quiescence skip on
 * their own: a component whose progress depends on them must report
 * busy() until they have rotated.
 */
class Rotatable
{
  public:
    virtual ~Rotatable() = default;

    /** Publish this cycle's staged values. */
    virtual void rotate() = 0;
};

/** Interface for components driven by the engine's clock. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle of this component's clock. */
    virtual void tick(Tick now) = 0;

    /**
     * Activity report: true if this component has (or may have) work
     * to do on its upcoming ticks. The engine only skips ticks while
     * every registered component reports idle, so a conservative
     * "always busy" default is safe for components that do not
     * implement the protocol.
     */
    virtual bool busy() const { return true; }

    /**
     * Credit @p ticks skipped component ticks. Called instead of
     * tick() when the engine fast-forwards over a globally quiescent
     * stretch; implementations must account exactly what an idle
     * tick() would have (e.g. idle-cycle counters) and nothing else.
     */
    virtual void skipIdle(Tick ticks) { (void)ticks; }

    /**
     * Earliest tick at which this component, idle now, has timed work
     * (e.g. a completion falling due); kTickNever when it has none.
     * Fast-forward never jumps past it, so a component may sleep
     * through a fixed latency without reporting busy().
     */
    virtual Tick nextWake() const { return kTickNever; }
};

/**
 * Drives a set of Clocked components and Rotatable latches.
 *
 * Not copyable; registered components and latches must outlive the
 * engine or be removed before destruction (the engine does not own
 * them).
 */
class Engine
{
  public:
    /** Stepping strategy; see the file comment. */
    enum class StepMode {
        Activity,  //!< next-due scheduling, quiescence skipping
        Reference, //!< poll everything every tick (equivalence oracle)
    };

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register a clocked component.
     *
     * @param component the component; not owned.
     * @param period clock period in ticks (>= 1).
     * @param offset phase offset in ticks (< period).
     */
    void addClocked(Clocked *component, Tick period = 1,
                    Tick offset = 0);

    /** Register a latch to be rotated at the end of every tick. */
    void addRotatable(Rotatable *latch);

    /** Select the stepping strategy (results are identical in both). */
    void setStepMode(StepMode mode) { mode_ = mode; }
    StepMode stepMode() const { return mode_; }

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Advance the simulation by @p ticks cycles. */
    void run(Tick ticks);

    /**
     * Advance until @p done returns true (checked once per tick,
     * before that tick executes) or @p max_ticks elapse.
     *
     * Note: while the machine is globally quiescent the engine only
     * re-evaluates the predicate at component wakeups; a predicate
     * that depends on nothing but now() may therefore be observed
     * later (never earlier) than in Reference mode. Predicates over
     * component state are unaffected: that state cannot change while
     * every component is idle.
     *
     * @return true if the predicate fired, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Tick max_ticks);

    /** Ticks elided by quiescence fast-forwarding (diagnostics). */
    Tick skippedTicks() const { return skipped_ticks_; }

    /**
     * @name Lockstep stepping (machine driver interface)
     *
     * The lockstep driver (sim::runLockstep) advances one engine per
     * shard over one shared timeline by splitting a tick into its two
     * phases: beginTick() ticks the due clocked components at now();
     * finishTick() rotates the registered latches and advances now().
     * The split is safe to run concurrently across engines because
     * latching makes intra-cycle tick order irrelevant, and rotation
     * only touches latches owned by (registered with) this engine.
     * run() is exactly a loop of beginTick()+finishTick() with an
     * idleTarget() jump between iterations.
     */
    ///@{
    /** Phase A: tick the due clocked components. */
    void beginTick();

    /** Phase B: rotate every registered latch, ++now(). */
    void finishTick();

    /**
     * The quiescence rule: the tick time may jump to because nothing
     * can happen before it, capped at @p end (> now()). Returns now()
     * — step, do not jump — in Reference mode, while any component
     * reports busy(), or when a component's nextWake() is due now;
     * otherwise min(@p end, earliest nextWake()).
     */
    Tick idleTarget(Tick end) const;

    /**
     * Jump now() to @p target (> now()), crediting skipped component
     * ticks via skipIdle(). @p target must not exceed idleTarget().
     */
    void jumpIdleTo(Tick target);

    /**
     * Emit the "run" trace span run() would have produced for the
     * window [@p start, now()). The lockstep driver bypasses run(),
     * so it closes each shard's window explicitly.
     */
    void
    emitRunSpan(Tick start, Tick skipped_before)
    {
        traceRun(start, skipped_before);
    }
    ///@}

    /**
     * Restore the timeline from a checkpoint: set now()/skippedTicks()
     * and recompute every registered component's next-due tick exactly
     * as if the components had been registered at this time (same
     * formula as addClocked). Components derive their nextWake() from
     * their own serialized state, so nothing needs re-arming.
     */
    void restoreTime(Tick now, Tick skipped);

    /**
     * Attach a structured tracer (nullptr to detach; not owned). The
     * engine emits a "run" span per run()/runUntil() call and a
     * "fast_forward" span per quiescence skip on @p track.
     */
    void
    setTracer(obs::Tracer *tracer, int track)
    {
        tracer_ = tracer;
        trace_track_ = track;
    }

    /**
     * Attach a phase-profiler slot (nullptr to detach; not owned).
     * beginTick() records Phase::EngineDispatch (inclusive of the
     * component ticks it dispatches), finishTick() LinkRotation, and
     * jumpIdleTo() Quiescence. With a null slot each scope costs one
     * predictable branch — the same discipline as the tracer.
     */
    void setProfiler(obs::PhaseSlot *slot) { profile_slot_ = slot; }

  private:
    void stepOneTick()
    {
        beginTick();
        finishTick();
    }

    /** Trace one completed run window (no-op without a tracer). */
    void traceRun(Tick start, Tick skipped_before);

    struct ClockedEntry
    {
        Clocked *component;
        Tick period;
        Tick offset;
        Tick next_due;
    };

    Tick now_ = 0;
    StepMode mode_ = StepMode::Activity;
    std::vector<ClockedEntry> clocked_;
    std::vector<Rotatable *> rotatables_;
    Tick skipped_ticks_ = 0;
    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
    obs::PhaseSlot *profile_slot_ = nullptr;
};

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_ENGINE_HH_
