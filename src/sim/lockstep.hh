/**
 * @file
 * The conservative lockstep driver over a set of engines sharing one
 * timeline: the shard engines of one sharded machine.
 *
 * Each engine is advanced by one lane thread; a spin barrier
 * synchronizes three times per step: after lane 0 publishes the
 * decision (step / quiescence-skip / done), after phase A (component
 * ticks) completes fabric-wide, and after rotation
 * completes fabric-wide. Latched channels give one network cycle of
 * conservative lookahead, which is what makes phase A safe to run
 * concurrently across engines (see docs/SHARDING.md).
 *
 * Serial work that must observe whole-fabric state mid-tick (the
 * metrics sampler) hooks in through LockstepSerial: lane 0 invokes it
 * between the phase-A barrier and its own rotation, the same point in
 * the cycle where an engine-registered sampler fires sequentially.
 */

#ifndef LOCSIM_SIM_LOCKSTEP_HH_
#define LOCSIM_SIM_LOCKSTEP_HH_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "obs/profiler.hh"
#include "sim/barrier.hh"
#include "sim/engine.hh"
#include "sim/types.hh"

namespace locsim {
namespace sim {

/**
 * Serial-point hook for runLockstep(). All three methods run on lane
 * 0 only, while every other lane is either parked at a barrier
 * (serialDue) or rotating channels the hook must not read
 * (serialTick), so implementations may touch whole-fabric state but
 * must not touch channels.
 */
class LockstepSerial
{
  public:
    /** Any serial work due at @p now? (Read at decision time.) */
    virtual bool serialDue(Tick now) const = 0;

    /** Perform the serial work due at @p now (between the phases). */
    virtual void serialTick(Tick now) = 0;

    /** Credit serial work elided by a quiescence jump to @p target. */
    virtual void serialSkip(Tick target) = 0;

  protected:
    ~LockstepSerial() = default;
};

/**
 * Advance @p engines together by @p ticks shared-timeline ticks.
 *
 * Mirrors Engine::run()'s loop on the shared timeline: try a
 * quiescence jump (activity mode, every engine idle, next wakeups
 * strictly in the future), else step one tick in barrier-separated
 * phases. Emission of per-engine "run" trace spans is left to the
 * caller (snapshot skippedTicks() before, emitRunSpan() after).
 *
 * @param pool runner::ThreadPool (templated to keep sim independent
 *        of runner); must have at least engines.size()-1 workers.
 * @param reference step every tick (the Reference-mode oracle).
 * @param serial optional serial-point hook; may be null.
 * @param profiler optional phase profiler; when set, each lane
 *        records Phase::BarrierWait on its shard's slot around every
 *        barrier arrival — the per-shard barrier-wait share is the
 *        run manifest's imbalance signal.
 */
template <typename Pool>
void
runLockstep(const std::vector<std::unique_ptr<Engine>> &engines,
            Pool &pool,
            Tick ticks, bool reference, LockstepSerial *serial,
            obs::Profiler *profiler = nullptr)
{
    const int shards = static_cast<int>(engines.size());
    const Tick start = engines.front()->now();
    const Tick end = start + ticks;

    // One control word, written by lane 0 while every other lane
    // waits at the decision barrier, read by all lanes after it.
    struct Control
    {
        enum class Op { Step, Skip, Done };
        Op op = Op::Step;
        Tick now = 0;
        Tick target = 0;
        bool sample = false;
    };
    Control ctl;
    SpinBarrier barrier(shards);

    // Choose the next move on the shared timeline. Runs only while
    // the other lanes are parked at the decision barrier, so it may
    // read every engine freely.
    auto decide = [&] {
        const Tick now = engines.front()->now();
        ctl.now = now;
        if (now >= end) {
            ctl.op = Control::Op::Done;
            return;
        }
        ctl.sample = serial != nullptr && serial->serialDue(now);
        ctl.op = Control::Op::Step;
        if (reference)
            return;
        for (const auto &engine : engines) {
            if (!engine->allIdle())
                return;
        }
        Tick target = end;
        for (const auto &engine : engines) {
            const Tick next_event = engine->nextEventTick();
            if (next_event == kTickNever)
                continue;
            if (next_event <= now)
                return;
            target = std::min(target, next_event);
        }
        if (target <= now)
            return;
        ctl.op = Control::Op::Skip;
        ctl.target = target;
    };

    auto lane = [&](int s) {
        Engine &engine = *engines[static_cast<std::size_t>(s)];
        obs::PhaseSlot *slot =
            profiler != nullptr ? &profiler->slot(s, 0) : nullptr;
        for (;;) {
            if (s == 0)
                decide();
            {
                obs::ScopedPhase wait(slot, obs::Phase::BarrierWait);
                barrier.arrive(); // decision published
            }
            if (ctl.op == Control::Op::Done)
                break;
            if (ctl.op == Control::Op::Skip) {
                engine.jumpIdleTo(ctl.target);
                if (s == 0 && serial != nullptr)
                    serial->serialSkip(ctl.target);
                obs::ScopedPhase wait(slot, obs::Phase::BarrierWait);
                barrier.arrive(); // all shards at ctl.target
                continue;
            }
            engine.beginTick();
            {
                obs::ScopedPhase wait(slot, obs::Phase::BarrierWait);
                barrier.arrive(); // phase A complete fabric-wide
            }
            if (s == 0 && ctl.sample) {
                // Serial work between the phases: every component has
                // run this tick, no channel has rotated yet — the same
                // point in the cycle where an engine-registered
                // sampler fires sequentially (it is always the last
                // Clocked added). Concurrent finishTick() on other
                // lanes only rotates channels, which the hook may not
                // read.
                serial->serialTick(ctl.now);
            }
            engine.finishTick();
            {
                obs::ScopedPhase wait(slot, obs::Phase::BarrierWait);
                barrier.arrive(); // rotation complete fabric-wide
            }
        }
    };

    pool.parallelRegion(shards, lane);
}

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_LOCKSTEP_HH_
