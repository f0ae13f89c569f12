/**
 * @file
 * Unit tests for the simulation kernel: engine clock domains, latch
 * rotation, component wakeups and quiescence fast-forward, and
 * two-phase ordering guarantees.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/engine.hh"

namespace locsim {
namespace sim {
namespace {

/**
 * A latched FIFO for the engine tests: values pushed in cycle t
 * become visible after the end-of-tick rotation, i.e. in cycle t+1.
 */
class LatchedFifo : public Rotatable
{
  public:
    void push(int value) { staged_.push_back(value); }
    bool empty() const { return visible_.empty(); }
    bool staged() const { return !staged_.empty(); }
    int front() const { return visible_.front(); }

    int
    pop()
    {
        const int value = visible_.front();
        visible_.pop_front();
        return value;
    }

    void
    rotate() override
    {
        visible_.insert(visible_.end(), staged_.begin(), staged_.end());
        staged_.clear();
    }

  private:
    std::deque<int> visible_;
    std::deque<int> staged_;
};

/**
 * Owns a LatchedFifo's pending work: busy while values are staged, so
 * the engine steps (and rotates) instead of skipping over them.
 */
class FifoOwner : public Clocked
{
  public:
    explicit FifoOwner(const LatchedFifo &fifo) : fifo_(fifo) {}
    void tick(Tick) override {}
    bool busy() const override { return fifo_.staged(); }

  private:
    const LatchedFifo &fifo_;
};

/** Records the ticks at which it was clocked. */
class TickRecorder : public Clocked
{
  public:
    void tick(Tick now) override { ticks.push_back(now); }
    std::vector<Tick> ticks;
};

TEST(Engine, PeriodAndOffsetRespected)
{
    Engine engine;
    TickRecorder fast, slow, offset;
    engine.addClocked(&fast, 1);
    engine.addClocked(&slow, 2);
    engine.addClocked(&offset, 2, 1);
    engine.run(6);
    EXPECT_EQ(fast.ticks, (std::vector<Tick>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(slow.ticks, (std::vector<Tick>{0, 2, 4}));
    EXPECT_EQ(offset.ticks, (std::vector<Tick>{1, 3, 5}));
    EXPECT_EQ(engine.now(), 6u);
}

TEST(Engine, RunUntilPredicate)
{
    Engine engine;
    TickRecorder counter;
    engine.addClocked(&counter, 1);
    const bool hit = engine.runUntil(
        [&] { return counter.ticks.size() >= 10; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(engine.now(), 10u);
}

TEST(Engine, RunUntilTimesOut)
{
    Engine engine;
    const bool hit = engine.runUntil([] { return false; }, 50);
    EXPECT_FALSE(hit);
    EXPECT_EQ(engine.now(), 50u);
}

/** Idle component with one timed wakeup; records its ticks. */
class Sleeper : public Clocked
{
  public:
    explicit Sleeper(Tick wake) : wake_(wake) {}

    void
    tick(Tick now) override
    {
        ticks.push_back(now);
        if (now >= wake_)
            wake_ = kTickNever;
    }

    bool busy() const override { return false; }
    Tick nextWake() const override { return wake_; }

    std::vector<Tick> ticks;

  private:
    Tick wake_;
};

TEST(Engine, FastForwardStopsAtEarliestNextWake)
{
    Engine engine;
    Sleeper late(40), early(25);
    engine.addClocked(&late, 1);
    engine.addClocked(&early, 1);
    EXPECT_EQ(engine.idleTarget(100), 25u);
    EXPECT_EQ(engine.idleTarget(20), 20u); // capped at the window end
    engine.run(100);
    // Skips land on each wakeup in turn, then run out the window.
    EXPECT_EQ(early.ticks, (std::vector<Tick>{25, 40}));
    EXPECT_EQ(late.ticks, (std::vector<Tick>{25, 40}));
    EXPECT_EQ(engine.idleTarget(kTickNever), kTickNever);
    EXPECT_EQ(engine.skippedTicks(), 98u);
}

/** The quiescence rule steps (returns now()) unless a jump is safe. */
TEST(Engine, IdleTargetStepsWhenBusyDueOrReference)
{
    Engine engine;
    Sleeper due_now(0), later(30);
    engine.addClocked(&later, 1);
    EXPECT_EQ(engine.idleTarget(100), 30u);
    engine.addClocked(&due_now, 1);
    EXPECT_EQ(engine.idleTarget(100), 0u); // a wake due now
    engine.run(1);
    EXPECT_EQ(engine.idleTarget(100), 30u);
    engine.setStepMode(Engine::StepMode::Reference);
    EXPECT_EQ(engine.idleTarget(100), 1u); // Reference never jumps
    engine.setStepMode(Engine::StepMode::Activity);

    struct AlwaysBusy : Clocked
    {
        void tick(Tick) override {}
    } busy; // Clocked's default busy() is true
    engine.addClocked(&busy, 1);
    EXPECT_EQ(engine.idleTarget(100), 1u);
}

/**
 * Two components exchanging values through latches must behave
 * identically regardless of registration order — the latch
 * guarantees cycle t pushes are seen at cycle t+1.
 */
class PingPong : public Clocked
{
  public:
    PingPong(LatchedFifo &in, LatchedFifo &out) : in_(in), out_(out) {}

    void
    tick(Tick) override
    {
        while (!in_.empty())
            received.push_back(in_.pop());
        out_.push(static_cast<int>(sent++));
    }

    std::vector<int> received;
    std::size_t sent = 0;

  private:
    LatchedFifo &in_;
    LatchedFifo &out_;
};

TEST(Engine, ChannelLatchingMakesOrderIrrelevant)
{
    auto run = [](bool a_first) {
        Engine engine;
        LatchedFifo ab, ba;
        engine.addRotatable(&ab);
        engine.addRotatable(&ba);
        PingPong a(ba, ab), b(ab, ba);
        if (a_first) {
            engine.addClocked(&a, 1);
            engine.addClocked(&b, 1);
        } else {
            engine.addClocked(&b, 1);
            engine.addClocked(&a, 1);
        }
        engine.run(10);
        return std::make_pair(a.received, b.received);
    };
    const auto forward = run(true);
    const auto backward = run(false);
    EXPECT_EQ(forward.first, backward.first);
    EXPECT_EQ(forward.second, backward.second);
    // Value sent at cycle t arrives at cycle t+1: 9 values seen.
    EXPECT_EQ(forward.first.size(), 9u);
    EXPECT_EQ(forward.first.front(), 0);
}

TEST(Engine, ReferenceModeMatchesActivityTickSchedule)
{
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        TickRecorder fast, slow, offset, slower;
        engine.addClocked(&fast, 1);
        engine.addClocked(&slow, 2);
        engine.addClocked(&offset, 2, 1);
        engine.addClocked(&slower, 3, 2);
        engine.run(13);
        return std::vector<std::vector<Tick>>{
            fast.ticks, slow.ticks, offset.ticks, slower.ticks};
    };
    EXPECT_EQ(run(Engine::StepMode::Activity),
              run(Engine::StepMode::Reference));
}

/**
 * Does three ticks of work, naps through nextWake() for a while, then
 * works again — the quiescence pattern the fast-forward path must
 * handle: idle ticks are credited, work ticks land on the same cycles
 * as in reference mode.
 */
class BurstWorker : public Clocked
{
  public:
    void
    tick(Tick now) override
    {
        if (work_remaining == 0 && now >= wake_at) {
            wake_at = kTickNever;
            work_remaining = 3;
        }
        if (work_remaining == 0) {
            ++idle_ticks; // what an idle poll would have cost
            return;
        }
        work_ticks.push_back(now);
        if (--work_remaining == 0 && naps_left > 0) {
            --naps_left;
            wake_at = now + 16;
        }
    }

    bool busy() const override { return work_remaining > 0; }

    Tick nextWake() const override { return wake_at; }

    void skipIdle(Tick ticks) override { idle_ticks += ticks; }

    std::vector<Tick> work_ticks;
    Tick idle_ticks = 0;
    int work_remaining = 3;
    int naps_left = 2;
    Tick wake_at = kTickNever;
};

TEST(Engine, FastForwardMatchesReferenceAndCreditsIdleTicks)
{
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        BurstWorker worker;
        engine.addClocked(&worker, 1);
        engine.run(64);
        EXPECT_EQ(engine.now(), 64u);
        return std::make_pair(worker.work_ticks, worker.idle_ticks);
    };
    const auto activity = run(Engine::StepMode::Activity);
    const auto reference = run(Engine::StepMode::Reference);
    EXPECT_EQ(activity.first, reference.first);
    EXPECT_EQ(activity.second, reference.second);
    // Sanity: work resumed exactly one tick after each 16-tick nap.
    EXPECT_EQ(activity.first,
              (std::vector<Tick>{0, 1, 2, 18, 19, 20, 36, 37, 38}));
}

TEST(Engine, FastForwardSkipsTicksWhileQuiescent)
{
    Engine engine;
    BurstWorker worker;
    engine.addClocked(&worker, 1);
    engine.run(64);
    EXPECT_GT(engine.skippedTicks(), 0u);
    // Skipped plus stepped ticks account for the whole run.
    EXPECT_EQ(worker.work_ticks.size() + worker.idle_ticks, 64u);
}

TEST(Engine, FastForwardCreditsSlowClockCorrectly)
{
    // A period-4 offset-1 component sleeping through a skip must be
    // credited one skipIdle tick per *due* cycle, not per engine tick.
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        BurstWorker worker;
        engine.addClocked(&worker, 4, 1);
        engine.run(100);
        return std::make_pair(worker.work_ticks, worker.idle_ticks);
    };
    const auto activity = run(Engine::StepMode::Activity);
    const auto reference = run(Engine::StepMode::Reference);
    EXPECT_EQ(activity.first, reference.first);
    EXPECT_EQ(activity.second, reference.second);
}

TEST(Engine, ManualChannelPushRotatesBeforeAnySkip)
{
    // A value staged by hand, outside the tick loop, must become
    // visible after exactly one tick even if the machine is otherwise
    // quiescent: its owner reports the staged value as work, so the
    // engine steps and rotates before it skips.
    Engine engine;
    LatchedFifo fifo;
    engine.addRotatable(&fifo);
    FifoOwner owner(fifo);
    engine.addClocked(&owner, 1);
    BurstWorker worker;
    worker.work_remaining = 0; // idle from the start
    worker.naps_left = 0;
    engine.addClocked(&worker, 1);
    fifo.push(7);
    engine.run(5);
    EXPECT_EQ(engine.now(), 5u);
    ASSERT_FALSE(fifo.empty());
    EXPECT_EQ(fifo.front(), 7);
    EXPECT_EQ(worker.idle_ticks, 5u);
    EXPECT_EQ(engine.skippedTicks(), 4u);
}

TEST(Engine, ChannelRegisteredDirtyRotatesOnFirstTick)
{
    // Registration after a manual push must still rotate on schedule.
    Engine engine;
    LatchedFifo fifo;
    FifoOwner owner(fifo);
    engine.addClocked(&owner, 1);
    fifo.push(3);
    engine.addRotatable(&fifo);
    engine.run(1);
    ASSERT_FALSE(fifo.empty());
    EXPECT_EQ(fifo.front(), 3);
}

} // namespace
} // namespace sim
} // namespace locsim
