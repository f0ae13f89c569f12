/**
 * @file
 * Deposit-protocol tests.
 *
 * Links carry no storage: a producer writes each flit straight into
 * the consumer's ring at its own write cursor and stages one wake bit;
 * a freed slot stages one credit bit upstream. These tests pin the
 * protocol's contract at the fabric's edges: every path (injection,
 * neighbor, ejection, credit return, and a link between shards) holds
 * a deposit invisible for exactly one cycle; the ring-overflow check
 * catches a forged credit; and credits left staged across a
 * quiescence skip change nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "net/router.hh"
#include "sim/engine.hh"
#include "util/serialize.hh"

namespace locsim {
namespace net {
namespace {

/** A single-flit message from @p src to @p dst. */
Message
oneFlit(sim::NodeId src, sim::NodeId dst)
{
    Message msg;
    msg.src = src;
    msg.dst = dst;
    msg.flits = 1;
    return msg;
}

/** In-transit counts as one comparable tuple (shard-independent). */
std::vector<std::uint64_t>
transit(const Network &network)
{
    const TransitCounts t = network.inTransit();
    return {t.inject, t.neighbor, t.eject, t.credits};
}

/**
 * One flit over one hop, sampled after every cycle: it sits on each
 * link (injection, neighbor, ejection) for exactly one cycle, each
 * freed slot's credit is staged for exactly one cycle, and the
 * delivery lands at the zero-load latency B + h + 1 = 3. Reference
 * stepping keeps the engine from skipping the idle tick 4.
 */
TEST(Deposit, EveryPathHoldsADepositForExactlyOneCycle)
{
    sim::Engine engine;
    engine.setStepMode(sim::Engine::StepMode::Reference);
    NetworkConfig config;
    config.radix = 4;
    Network network(engine, config);
    engine.addClocked(&network, 1);
    const sim::NodeId dst = network.topology().neighbor(0, 0, 1);
    const MessageId id = network.send(oneFlit(0, dst));

    // {inject, neighbor, eject, credits} after each tick. The
    // injection credit goes straight to the co-sharded endpoint's
    // bank, so it never shows as a staged credit.
    const std::vector<std::vector<std::uint64_t>> expected = {
        {1, 0, 0, 0}, // tick 0: endpoint deposited into router 0
        {0, 1, 0, 0}, // tick 1: router 0 latched and forwarded
        {0, 0, 1, 1}, // tick 2: router 1 forwarded to ejection and
                      //         returned router 0's credit
        {0, 0, 0, 1}, // tick 3: endpoint popped and returned the
                      //         ejection credit; router 0 latched its
        {0, 0, 0, 0}, // tick 4: router 1 latched the last credit
    };
    for (std::size_t t = 0; t < expected.size(); ++t) {
        engine.run(1);
        EXPECT_EQ(transit(network), expected[t]) << "after tick " << t;
        if (t == 2) {
            EXPECT_EQ(network.pendingAt(dst), 0u)
                << "ejected a flit the cycle it was deposited";
        }
    }
    const MessageRecord *rec = network.record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delivered - rec->inject_start, 3u);
    EXPECT_EQ(network.pendingAt(dst), 1u);
}

/**
 * Drive a sharded fabric through the lockstep phases by hand (every
 * shard's tick, then every shard's rotation), which is what the
 * threaded driver does between its barriers.
 */
void
stepLockstep(const std::vector<sim::Engine *> &engines)
{
    for (sim::Engine *engine : engines)
        engine->beginTick();
    for (sim::Engine *engine : engines)
        engine->finishTick();
}

/**
 * At K = 2 a link between the shards still delivers after exactly one
 * cycle: the deposit is staged in the producer shard's outbox, handed
 * over at rotation, and latched at the consumer's next cycle — the
 * same timeline as the sequential fabric, so the latency and the
 * fabric state match it tick for tick.
 */
TEST(Deposit, CrossShardLinkDeliversAfterOneCycle)
{
    NetworkConfig config;
    config.radix = 4;
    sim::Engine e0, e1;
    const std::vector<sim::Engine *> engines{&e0, &e1};
    Network sharded(config, engines,
                    ShardPlan::contiguous(16, 2)); // rows 0-1 | 2-3
    e0.addClocked(sharded.shardClocked(0), 1);
    e1.addClocked(sharded.shardClocked(1), 1);

    sim::Engine seq_engine;
    seq_engine.setStepMode(sim::Engine::StepMode::Reference);
    Network sequential(seq_engine, config);
    seq_engine.addClocked(&sequential, 1);

    // Node 4 (row 1) to node 8 (row 2): one +y hop across the cut.
    const sim::NodeId src = 4;
    const sim::NodeId dst = sharded.topology().neighbor(src, 1, 1);
    ASSERT_NE(sharded.shardPlan().shardOf(src),
              sharded.shardPlan().shardOf(dst));
    const MessageId id = sharded.send(oneFlit(src, dst));
    sequential.send(oneFlit(src, dst));

    for (int t = 0; t < 5; ++t) {
        stepLockstep(engines);
        seq_engine.run(1);
        const TransitCounts c = sharded.inTransit();
        EXPECT_EQ(c.cross_shard, t == 1 ? 1u : 0u)
            << "after tick " << t;
        EXPECT_EQ(transit(sharded), transit(sequential))
            << "after tick " << t;
    }
    const MessageRecord *rec = sharded.record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delivered - rec->inject_start, 3u);

    util::Serializer a, b;
    sharded.saveState(a);
    sequential.saveState(b);
    EXPECT_EQ(a.buffer(), b.buffer());
}

/**
 * Two routers of a 4-node ring wired by hand: router 0's +x output
 * deposits into router 1's -x input, whose credits return to router 0.
 * Router 1 latches its arrivals but never ticks, so nothing drains its
 * ring and router 0 runs purely on the credits it holds.
 */
class TwoRouters
{
  public:
    explicit TwoRouters(int buffer_depth) : topo_(4, 1, true)
    {
        config_.buffer_depth = buffer_depth;
        const std::size_t cap = Router::vcRingCapacity(config_);
        for (int r = 0; r < 2; ++r) {
            Slab &slab = slabs_[r];
            slab.inputs.resize(kUnits);
            slab.outputs.resize(kPorts);
            slab.slots.resize(kUnits * cap);
            Router::RouterSlices slices;
            slices.inputs = slab.inputs.data();
            slices.outputs = slab.outputs.data();
            slices.vc_slots = slab.slots.data();
            slices.flit_wake_staged = &slab.words[0];
            slices.flit_wake = &slab.words[1];
            slices.credit_wake_staged = &slab.words[2];
            slices.credit_wake = &slab.words[3];
            slices.buffered = &slab.words[4];
            routers_[r] = std::make_unique<Router>(
                topo_, static_cast<sim::NodeId>(r), config_, slices,
                nullptr);
        }
        const int out = Router::portFor(0, +1);
        const int in = Router::portFor(0, -1);
        Router::Downstream down;
        down.units = &slabs_[1].inputs[static_cast<std::size_t>(
            in * config_.vcs)];
        down.wake = &slabs_[1].words[0];
        down.shift = static_cast<std::uint8_t>(in * config_.vcs);
        down.vc_mask = 0xff;
        routers_[0]->connectOutput(out, down);
        Router::Upstream up;
        up.word = &slabs_[0].words[2];
        up.shift = static_cast<std::uint8_t>(out * config_.vcs);
        routers_[1]->connectInput(in, up);
        Router::Upstream bank;
        bank.word = &banked_;
        bank.counter = true;
        routers_[0]->connectInput(routers_[0]->localPort(), bank);
    }

    /** Inject a one-flit packet for node 1 into router 0 (one per
     *  cycle, like the endpoint). */
    void
    inject()
    {
        const int unit =
            routers_[0]->unitBit(routers_[0]->localPort(), 0);
        Router::InputVc &ring =
            slabs_[0].inputs[static_cast<std::size_t>(unit)];
        Flit &flit = ring.slots[inject_cursor_++ & ring.mask];
        flit = Flit{};
        flit.msg = inject_cursor_;
        flit.src = 0;
        flit.dst = 1;
        flit.head = true;
        flit.tail = true;
        routers_[0]->stageFlitBits(1u << unit);
    }

    /** One cycle of router 0 (router 1 stays stalled). */
    void
    tick()
    {
        routers_[1]->latchWakes();
        routers_[0]->latchWakes();
        if (routers_[0]->busy())
            routers_[0]->tick(now_);
        ++now_;
    }

    /** Stage a credit nobody freed on router 0's +x output, VC 0. */
    void
    forgeCredit()
    {
        routers_[0]->stageCreditBits(
            1u << routers_[0]->unitBit(Router::portFor(0, +1), 0));
    }

    /** Flits latched or deposited into router 1's -x VC 0 ring. */
    std::uint32_t
    deposited() const
    {
        const Router::OutputPort &out = slabs_[0].outputs[
            static_cast<std::size_t>(Router::portFor(0, +1))];
        return out.cursor[0];
    }

  private:
    static constexpr std::size_t kPorts = 3;
    static constexpr std::size_t kUnits = kPorts * 2;

    struct Slab
    {
        std::vector<Router::InputVc> inputs;
        std::vector<Router::OutputPort> outputs;
        std::vector<Flit> slots;
        std::uint32_t words[5] = {};
    };

    TorusTopology topo_;
    RouterConfig config_;
    Slab slabs_[2];
    std::unique_ptr<Router> routers_[2];
    std::uint32_t banked_ = 0;
    std::uint32_t inject_cursor_ = 0;
    sim::Tick now_ = 0;
};

TEST(Deposit, CreditsBoundDepositsToTheRing)
{
    // Honest credits: two slots, two deposits, then the third flit
    // waits forever on a stalled consumer.
    TwoRouters pair(2);
    for (int i = 0; i < 3; ++i) {
        pair.inject();
        pair.tick();
    }
    for (int i = 0; i < 5; ++i)
        pair.tick();
    EXPECT_EQ(pair.deposited(), 2u);
}

TEST(DepositDeathTest, ForgedCreditTripsTheRingOverflowCheck)
{
    EXPECT_DEATH(
        {
            TwoRouters pair(2);
            for (int i = 0; i < 3; ++i) {
                pair.inject();
                pair.tick();
            }
            // Both slots hold undrained flits; a forged credit lets
            // router 0 deposit a third over the consumer's head.
            pair.forgeCredit();
            for (int i = 0; i < 3; ++i)
                pair.tick();
        },
        "ring overflow: credit protocol violated");
}

TEST(DepositDeathTest, CreditBeyondBufferDepthTripsTheOverflowCheck)
{
    EXPECT_DEATH(
        {
            TwoRouters pair(2);
            pair.forgeCredit(); // router 0 already holds full credit
            pair.tick();
        },
        "credit overflow");
}

/**
 * A fabric whose last delivery left its ejection credit staged is
 * idle (credits are not in-flight work), so the activity engine skips
 * the quiet stretch with that credit still unlatched. Reference
 * stepping latches it on the very next cycle instead. Once the next
 * message has crossed the same path, both must be in byte-identical
 * fabric state (each with only that message's own last credit
 * staged).
 */
TEST(Deposit, QuiescenceSkipWithStagedCreditMatchesReference)
{
    auto run = [](sim::Engine::StepMode mode, bool check_skip) {
        sim::Engine engine;
        engine.setStepMode(mode);
        NetworkConfig config;
        config.radix = 4;
        Network network(engine, config);
        engine.addClocked(&network, 1);
        const sim::NodeId dst = network.topology().neighbor(0, 0, 1);
        network.send(oneFlit(0, dst));
        // The second message is sent long after the first lands, on
        // the same path, so it reuses the credit left staged.
        engine.events().schedule(
            200, [&] { network.send(oneFlit(0, dst)); });
        engine.run(4); // delivered at tick 3: credit staged
        if (check_skip) {
            EXPECT_TRUE(network.idle());
            EXPECT_EQ(network.inTransit().credits, 1u);
        }
        engine.run(200); // second message delivered at tick 203
        if (check_skip) {
            EXPECT_GT(engine.skippedTicks(), 0u);
        } else {
            EXPECT_EQ(engine.skippedTicks(), 0u);
        }
        EXPECT_EQ(network.stats().messages_delivered, 2u);
        util::Serializer s;
        network.saveState(s);
        return s.buffer();
    };
    EXPECT_EQ(run(sim::Engine::StepMode::Activity, true),
              run(sim::Engine::StepMode::Reference, false));
}

} // namespace
} // namespace net
} // namespace locsim
