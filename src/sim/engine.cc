/**
 * @file
 * Engine implementation.
 */

#include "sim/engine.hh"

#include <algorithm>

#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace locsim {
namespace sim {

void
Engine::addClocked(Clocked *component, Tick period, Tick offset)
{
    LOCSIM_ASSERT(component != nullptr, "null clocked component");
    LOCSIM_ASSERT(period >= 1, "clock period must be >= 1");
    LOCSIM_ASSERT(offset < period, "clock offset must be < period");
    // First due tick >= now_ with next_due == offset (mod period).
    Tick next_due = offset;
    if (now_ > offset) {
        next_due =
            offset + ((now_ - offset + period - 1) / period) * period;
    }
    clocked_.push_back({component, period, offset, next_due});
}

void
Engine::addRotatable(Rotatable *latch)
{
    LOCSIM_ASSERT(latch != nullptr, "null latch");
    rotatables_.push_back(latch);
}

void
Engine::beginTick()
{
    // Inclusive of the component ticks dispatched below: RouterScan /
    // Coherence scopes recorded by components nest inside this one.
    obs::ScopedPhase profile(profile_slot_,
                             obs::Phase::EngineDispatch);

    if (mode_ == StepMode::Reference) {
        for (auto &entry : clocked_) {
            if ((now_ + entry.period - entry.offset) % entry.period ==
                0) {
                entry.component->tick(now_);
                entry.next_due = now_ + entry.period;
            }
        }
    } else {
        for (auto &entry : clocked_) {
            if (now_ == entry.next_due) {
                entry.component->tick(now_);
                entry.next_due += entry.period;
            }
        }
    }
}

void
Engine::finishTick()
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::LinkRotation);

    // A latch with nothing staged is invariant under rotate(), so
    // rotating all of them every tick is exact in both step modes.
    for (Rotatable *latch : rotatables_)
        latch->rotate();
    ++now_;
}

Tick
Engine::idleTarget(Tick end) const
{
    if (mode_ == StepMode::Reference)
        return now_;
    Tick target = end;
    for (const auto &entry : clocked_) {
        if (entry.component->busy())
            return now_;
        target = std::min(target, entry.component->nextWake());
    }
    // A wake due now (or overdue) means stepping normally.
    return std::max(target, now_);
}

void
Engine::jumpIdleTo(Tick target)
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::Quiescence);

    LOCSIM_ASSERT(target > now_, "jumpIdleTo must move time forward");
    for (auto &entry : clocked_) {
        if (entry.next_due < target) {
            const Tick skipped =
                (target - entry.next_due + entry.period - 1) /
                entry.period;
            entry.component->skipIdle(skipped);
            entry.next_due += skipped * entry.period;
        }
    }
    skipped_ticks_ += target - now_;
    if (tracer_ != nullptr) {
        tracer_->complete(trace_track_, now_, target - now_,
                          "fast_forward", obs::Category::Engine);
    }
    now_ = target;
}

void
Engine::traceRun(Tick start, Tick skipped_before)
{
    if (tracer_ == nullptr || now_ == start)
        return;
    tracer_->complete(
        trace_track_, start, now_ - start, "run",
        obs::Category::Engine,
        std::move(obs::Args().add("skipped_ticks",
                                  skipped_ticks_ - skipped_before))
            .str());
}

void
Engine::restoreTime(Tick now, Tick skipped)
{
    now_ = now;
    skipped_ticks_ = skipped;
    for (auto &entry : clocked_) {
        Tick next_due = entry.offset;
        if (now_ > entry.offset) {
            next_due = entry.offset +
                       ((now_ - entry.offset + entry.period - 1) /
                        entry.period) *
                           entry.period;
        }
        entry.next_due = next_due;
    }
}

void
Engine::run(Tick ticks)
{
    const Tick start = now_;
    const Tick skipped_before = skipped_ticks_;
    const Tick end = now_ + ticks;
    while (now_ < end) {
        const Tick target = idleTarget(end);
        if (target > now_) {
            jumpIdleTo(target);
            if (now_ >= end)
                break;
        }
        stepOneTick();
    }
    traceRun(start, skipped_before);
}

bool
Engine::runUntil(const std::function<bool()> &done, Tick max_ticks)
{
    const Tick start = now_;
    const Tick skipped_before = skipped_ticks_;
    const Tick end = now_ + max_ticks;
    while (now_ < end) {
        if (done()) {
            traceRun(start, skipped_before);
            return true;
        }
        const Tick target = idleTarget(end);
        if (target > now_) {
            jumpIdleTo(target);
            if (now_ >= end)
                break;
        }
        stepOneTick();
    }
    traceRun(start, skipped_before);
    return done();
}

} // namespace sim
} // namespace locsim
