/**
 * @file
 * The conservative lockstep driver: the one loop that advances a
 * machine, over its shard engines sharing one timeline (a single
 * engine when the machine has one shard).
 *
 * Each engine is advanced by one lane thread; with several lanes a
 * spin barrier synchronizes three times per step: after lane 0
 * publishes the decision (step / quiescence-skip / done), after phase
 * A (component ticks) completes fabric-wide, and after rotation
 * completes fabric-wide. Direct deposit into consumer rings, with
 * wake bits published at rotation, gives one network cycle of
 * conservative lookahead, which is what makes phase A safe to run
 * concurrently across engines (see docs/SHARDING.md). A single lane
 * runs inline on the caller and never touches the barrier.
 *
 * Serial work that must observe whole-fabric state mid-tick (the
 * metrics sampler) hooks in through LockstepSerial: lane 0 invokes it
 * between the phase-A barrier and its own rotation, after every
 * component of the tick has run.
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
 * 0 only, while every other lane is parked at a barrier (serialDue),
 * rotating its wake outbox (serialTick) or crediting idle ticks
 * (serialSkip), so implementations may read whole-fabric state but
 * must not touch latches.
 */
class LockstepSerial
{
  public:
    /** Any serial work due at @p now? (Read at decision time.) */
    virtual bool serialDue(Tick now) const = 0;

    /** Perform the serial work due at @p now (between the phases). */
    virtual void serialTick(Tick now) = 0;

    /**
     * Perform the serial work a quiescence jump to @p target elides:
     * everything due below @p target.
     */
    virtual void serialSkip(Tick target) = 0;

  protected:
    ~LockstepSerial() = default;
};

/**
 * Advance @p engines together by @p ticks shared-timeline ticks.
 *
 * Mirrors Engine::run()'s loop on the shared timeline: jump to the
 * minimum Engine::idleTarget() over the engines when it lies past
 * now(), else step one tick in barrier-separated phases. Emission of
 * per-engine "run" trace spans is left to the caller (snapshot
 * skippedTicks() before, emitRunSpan() after).
 *
 * @param pool runner::ThreadPool (templated to keep sim independent
 *        of runner) with at least engines.size()-1 workers; unused,
 *        and may be null, for a single engine, whose lane runs inline.
 * @param serial optional serial-point hook; may be null.
 * @param profiler optional phase profiler; when set and there are
 *        several lanes, each lane records Phase::BarrierWait on its
 *        shard's slot around every barrier arrival — the per-shard
 *        barrier-wait share is the run manifest's imbalance signal.
 */
template <typename Pool>
void
runLockstep(const std::vector<std::unique_ptr<Engine>> &engines,
            Pool *pool, Tick ticks, LockstepSerial *serial,
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
        Tick target = end;
        for (const auto &engine : engines) {
            target = std::min(target, engine->idleTarget(end));
            if (target == now)
                break;
        }
        ctl.op = target > now ? Control::Op::Skip : Control::Op::Step;
        ctl.target = target;
    };

    auto lane = [&](int s) {
        Engine &engine = *engines[static_cast<std::size_t>(s)];
        obs::PhaseSlot *slot =
            profiler != nullptr ? &profiler->slot(s, 0) : nullptr;
        auto arrive = [&] {
            if (shards == 1)
                return;
            obs::ScopedPhase wait(slot, obs::Phase::BarrierWait);
            barrier.arrive();
        };
        for (;;) {
            if (s == 0)
                decide();
            arrive(); // decision published
            if (ctl.op == Control::Op::Done)
                break;
            if (ctl.op == Control::Op::Skip) {
                // Synthesized samples first, so their trace counters
                // precede the engine's fast_forward span.
                if (s == 0 && serial != nullptr)
                    serial->serialSkip(ctl.target);
                engine.jumpIdleTo(ctl.target);
                arrive(); // all shards at ctl.target
                continue;
            }
            engine.beginTick();
            arrive(); // phase A complete fabric-wide
            if (s == 0 && ctl.sample) {
                // Serial work between the phases: every component has
                // run this tick, no latch has rotated yet. Concurrent
                // finishTick() on other lanes only delivers wake bits,
                // which the hook may not read.
                serial->serialTick(ctl.now);
            }
            engine.finishTick();
            arrive(); // rotation complete fabric-wide
        }
    };

    if (shards == 1)
        lane(0);
    else
        pool->parallelRegion(shards, lane);
}

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_LOCKSTEP_HH_
