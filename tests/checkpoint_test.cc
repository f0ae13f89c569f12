/**
 * @file
 * Checkpoint/restore tests: saving a machine mid-run and restoring it
 * into a fresh (or a used) machine must be invisible — extending the restored run
 * produces bit-for-bit the same measurements as never having stopped.
 * This is the property that lets the simulation cache extend a cached
 * run instead of recomputing it from cycle zero.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
#include "workload/comm_graph.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace machine {
namespace {

MachineConfig
smallConfig()
{
    MachineConfig config;
    config.radix = 4;
    config.dims = 2; // 16 nodes
    return config;
}

workload::Mapping
identityMapping(const MachineConfig &config)
{
    std::uint32_t n = 1;
    for (int d = 0; d < config.dims; ++d)
        n *= static_cast<std::uint32_t>(config.radix);
    return workload::Mapping::identity(n);
}

/** Field-by-field bitwise comparison of two measurements via their
 *  serialized images (doubles compare by bit pattern, so NaN-safe and
 *  strict). */
::testing::AssertionResult
bitIdentical(const Measurement &a, const Measurement &b)
{
    util::Serializer sa, sb;
    saveMeasurement(sa, a);
    saveMeasurement(sb, b);
    if (sa.buffer() == sb.buffer())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "measurements differ: transactions " << a.transactions
           << " vs " << b.transactions << ", messages " << a.messages
           << " vs " << b.messages << ", txn_latency "
           << a.txn_latency << " vs " << b.txn_latency
           << ", iterations " << a.iterations << " vs "
           << b.iterations;
}

/**
 * The core property, parameterized over the machine configuration:
 *
 *   D (oracle):  advance(pre); measure(w); Md2 = measure(w)
 *   E (saver):   advance(pre); measure(w); save checkpoint
 *   F (resumer): fresh machine; restore; Mf = measure(w)
 *
 * Mf must equal Md2 bit for bit. The odd pre/window lengths land the
 * save point mid-transaction, with flits in router buffers and
 * completions pending, so the full state actually round-trips.
 *
 * Restore schedules nothing into the engine: each controller's
 * nextWake() comes from its restored completion heap alone, so it
 * must match the saver's node for node.
 *
 * @return true if some controller had a completion wakeup pending
 *         (nextWake() != kTickNever) when the image was saved.
 */
bool
expectRestoreExtendsBitIdentically(const MachineConfig &config,
                                   std::uint64_t pre,
                                   std::uint64_t window)
{
    const workload::Mapping mapping = identityMapping(config);

    Machine oracle(config, mapping);
    oracle.advance(pre);
    oracle.measure(window);
    const Measurement expected = oracle.measure(window);

    Machine saver(config, mapping);
    saver.advance(pre);
    saver.measure(window);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    Machine resumer(config, mapping);
    resumer.restoreCheckpoint(image);
    bool wake_pending = false;
    for (sim::NodeId node = 0; node < mapping.size(); ++node) {
        const sim::Tick wake = saver.controller(node).nextWake();
        wake_pending |= wake != sim::kTickNever;
        EXPECT_EQ(resumer.controller(node).nextWake(), wake)
            << "node " << node;
    }
    const Measurement resumed = resumer.measure(window);

    EXPECT_TRUE(bitIdentical(resumed, expected));
    EXPECT_EQ(resumed.violations, 0u);
    return wake_pending;
}

TEST(Checkpoint, RestoreThenExtendMatchesStraightRun)
{
    expectRestoreExtendsBitIdentically(smallConfig(), 501, 1503);
}

TEST(Checkpoint, MultithreadedMachineRoundTrips)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
    expectRestoreExtendsBitIdentically(config, 777, 1111);
}

TEST(Checkpoint, UniformWorkloadRngRoundTrips)
{
    // The uniform-random workload carries live RNG streams; a restore
    // that loses or resets them diverges immediately.
    MachineConfig config = smallConfig();
    config.workload = WorkloadKind::UniformRandom;
    config.uniform_app.seed = 99;
    // This save point also holds a pending completion, so the restore
    // path that rebuilds wakeups from the heap alone is exercised in
    // activity stepping.
    EXPECT_TRUE(expectRestoreExtendsBitIdentically(config, 601, 1201));
}

TEST(Checkpoint, ReferenceSteppingRoundTrips)
{
    MachineConfig config = smallConfig();
    config.reference_stepping = true;
    expectRestoreExtendsBitIdentically(config, 333, 901);
}

TEST(Checkpoint, PrefetchingWorkloadRoundTrips)
{
    // Prefetches create reply-less transactions (wants_reply ==
    // false) whose MSHRs must survive the round trip.
    MachineConfig config = smallConfig();
    config.app.prefetch_depth = 2;
    expectRestoreExtendsBitIdentically(config, 455, 1357);
}

/**
 * Checkpoints are shard-count invariant in both directions: the image
 * a 4-shard machine writes mid-run is byte-identical to the image the
 * sequential machine writes at the same tick, and restoring it into
 * machines with other shard counts then extending matches an
 * uninterrupted sequential run bit for bit. The odd save point lands
 * mid-transaction, so cross-shard flits are in flight and migrating
 * message records may be sitting in the parity mailboxes.
 */
void
expectShardedImageRestoresAtAnyShardCount(MachineConfig config)
{
    config.shards = 1;
    const workload::Mapping mapping = identityMapping(config);

    Machine oracle(config, mapping); // sequential, uninterrupted
    oracle.advance(701);
    const Measurement expected = oracle.measure(1203);

    Machine seq_saver(config, mapping);
    seq_saver.advance(701);
    const std::vector<std::uint8_t> seq_image =
        seq_saver.saveCheckpoint();

    MachineConfig sharded = config;
    sharded.shards = 4;
    Machine saver(sharded, mapping);
    saver.advance(701);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();
    EXPECT_EQ(image, seq_image)
        << "4-shard image differs from the sequential image";

    for (int restore_shards : {1, 2}) {
        MachineConfig restore_config = config;
        restore_config.shards = restore_shards;
        Machine resumer(restore_config, mapping);
        resumer.restoreCheckpoint(image);
        const Measurement resumed = resumer.measure(1203);
        EXPECT_TRUE(bitIdentical(resumed, expected))
            << "restored at " << restore_shards << " shards";
        EXPECT_EQ(resumed.violations, 0u);
    }
}

TEST(Checkpoint, ShardedImageRestoresAtAnyShardCount)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
    expectShardedImageRestoresAtAnyShardCount(config);

    // The neighbour loop over a non-torus communication graph.
    MachineConfig graph = smallConfig();
    graph.workload = WorkloadKind::Graph;
    graph.graph = std::make_shared<workload::CommGraph>(
        workload::CommGraph::randomPeers(16, 3, 5));
    expectShardedImageRestoresAtAnyShardCount(graph);
}

TEST(Checkpoint, SaveLoadSaveIsByteStable)
{
    // Restoring and immediately re-saving must reproduce the image
    // byte for byte: nothing in the state is lost, reordered, or
    // regenerated differently.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine first(config, mapping);
    first.advance(1234);
    const std::vector<std::uint8_t> image = first.saveCheckpoint();

    Machine second(config, mapping);
    second.restoreCheckpoint(image);
    EXPECT_EQ(second.saveCheckpoint(), image);

    // The image carries state, not padding: a dense cache section
    // alone would be ~73.7 KB per node.
    EXPECT_LT(image.size(), std::size_t{mapping.size()} * 8 * 1024);
}

/**
 * LSCK bytes are pinned, not just self-consistent: 8x8 machines saved
 * mid-traffic must hash to fixed digests. These are version 6 images:
 * each is the version 5 image of the same machine with the fields
 * version 6 rebuilds on load (credits, write cursors, record hop
 * distances, the in-flight and pending counts) and the unread
 * statistics cut out, at 1, 2 and 4 shards. Across the save
 * points, flits are in transit on neighbor, injection, ejection and
 * (at 2 and 4 shards) cross-shard links, and credits are in flight, so
 * the staged words the images carry, with cross-shard bits folded in,
 * are pinned where the most links cross shards too. Each image also
 * restores at another shard count and re-saves to the same digest.
 */
TEST(Checkpoint, MidTrafficImagesMatchPinnedDigests)
{
    struct Point
    {
        std::uint64_t cycles;
        const char *sha256;
    };
    const Point points[] = {
        {1201,
         "719950630ef50df2d223a30eb0cd0e12dd2a25697095601a867b12a524e2e349"},
        {2502,
         "2680323ee38b573d048ef1fdfd2f67586e369254b8ed37e7d0a635d9d76c0850"},
        {3703,
         "bdf4d12ad1f663bb5ac766407267a83932fd6048ccac28ae494a1f76776a6f8e"},
    };
    MachineConfig config;
    config.contexts = 4;
    const workload::Mapping mapping = identityMapping(config);
    net::TransitCounts seen;
    for (int shards : {1, 2, 4}) {
        config.shards = shards;
        for (const Point &p : points) {
            Machine machine(config, mapping);
            machine.advance(p.cycles);
            const std::vector<std::uint8_t> image =
                machine.saveCheckpoint();
            EXPECT_EQ(util::Sha256::hashHex(image), p.sha256)
                << "at " << shards << " shards after " << p.cycles
                << " cycles";

            const net::TransitCounts t = machine.network().inTransit();
            seen.neighbor += t.neighbor;
            seen.cross_shard += t.cross_shard;
            seen.inject += t.inject;
            seen.eject += t.eject;
            seen.credits += t.credits;

            MachineConfig other = config;
            other.shards = shards == 4 ? 1 : 2 * shards;
            Machine restored(other, mapping);
            restored.restoreCheckpoint(image);
            EXPECT_EQ(util::Sha256::hashHex(restored.saveCheckpoint()),
                      p.sha256)
                << "restored at " << other.shards << " shards";
        }
    }
    EXPECT_GT(seen.neighbor, 0u);
    EXPECT_GT(seen.cross_shard, 0u);
    EXPECT_GT(seen.inject, 0u);
    EXPECT_GT(seen.eject, 0u);
    EXPECT_GT(seen.credits, 0u);
}

/**
 * A machine restores over itself after it has run, even after a
 * restore that threw part-way, because every loader overwrites all of
 * its component's state: the image re-saves byte for byte, and the
 * machine then continues exactly as a straight run does. Window
 * images rely on this (Machine::measure restores one over the warm
 * machine, and falls back to the warm-up image over a failed one).
 */
TEST(Checkpoint, RestoresOverAnAdvancedMachine)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
    const workload::Mapping mapping = identityMapping(config);
    for (int shards : {1, 2}) {
        SCOPED_TRACE(std::to_string(shards) + " shards");
        config.shards = shards;
        Machine straight(config, mapping);
        straight.advance(701);
        const std::vector<std::uint8_t> image = straight.saveCheckpoint();
        const Measurement expected = straight.measure(1203);

        // Ahead of the image: later clock, other traffic in flight.
        Machine machine(config, mapping);
        machine.advance(1900);
        machine.restoreCheckpoint(image);
        EXPECT_EQ(machine.saveCheckpoint(), image);
        EXPECT_TRUE(bitIdentical(machine.measure(1203), expected));

        // One byte short fails in the last section, after every other
        // component has loaded.
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.end() - 1);
        EXPECT_THROW(machine.restoreCheckpoint(cut), std::runtime_error);
        machine.restoreCheckpoint(image);
        EXPECT_EQ(machine.saveCheckpoint(), image);
        EXPECT_TRUE(bitIdentical(machine.measure(1203), expected));
    }
}

TEST(Checkpoint, RestoredMachineContinuesCoherently)
{
    // Beyond statistics: the restored machine keeps satisfying the
    // workload's built-in coherence check over a long extension.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(2000);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    Machine resumer(config, mapping);
    resumer.restoreCheckpoint(image);
    const Measurement m = resumer.measure(5000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.transactions, 0u);
    EXPECT_GT(m.iterations, 0u);
}

TEST(Checkpoint, RejectsCorruptImages)
{
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(100);
    std::vector<std::uint8_t> image = saver.saveCheckpoint();

    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> truncated(
            image.begin(), image.begin() + image.size() / 2);
        EXPECT_THROW(fresh.restoreCheckpoint(truncated),
                     std::runtime_error);
    }
    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> bad_magic = image;
        bad_magic[0] ^= 0xff;
        EXPECT_THROW(fresh.restoreCheckpoint(bad_magic),
                     std::runtime_error);
    }
    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> trailing = image;
        trailing.push_back(0);
        EXPECT_THROW(fresh.restoreCheckpoint(trailing),
                     std::runtime_error);
    }
}

/**
 * Offsets of the network messages in @p image, found by their shape
 * (saveMessage's layout): an id whose source bits are its src and
 * whose sequence is set, two distinct endpoints on a 16-node machine,
 * 12 flits, and a class other than Generic.
 */
std::vector<std::size_t>
messageOffsets(const std::vector<std::uint8_t> &image)
{
    // id, src, dst, flits, four payload words, submit tick, class
    constexpr std::size_t kSize = 61;
    std::vector<std::size_t> found;
    for (std::size_t at = 0; at + kSize <= image.size(); ++at) {
        util::Deserializer d(image.data() + at, kSize);
        const auto id = d.get<std::uint64_t>();
        const auto src = d.get<sim::NodeId>();
        const auto dst = d.get<sim::NodeId>();
        const auto flits = d.get<std::uint32_t>();
        const std::uint8_t cls = image[at + kSize - 1];
        if (src < 16 && dst < 16 && src != dst && flits == 12 &&
            id >> net::kMessageIdSrcShift == src &&
            (id & 0xffffff) != 0 && cls >= 1 && cls < 5)
            found.push_back(at);
    }
    return found;
}

TEST(Checkpoint, RejectsAProtocolTypePastTheLast)
{
    // Every copy of each message in flight (queue entries and their
    // records alike) gets the same type byte, the low byte of payload
    // word 3, so only the type can make the image fail.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);
    Machine saver(config, mapping);
    saver.advance(701);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();
    const std::vector<std::size_t> messages = messageOffsets(image);
    ASSERT_FALSE(messages.empty());
    auto withType = [&](int type) {
        std::vector<std::uint8_t> bytes = image;
        for (std::size_t at : messages)
            bytes[at + 44] = static_cast<std::uint8_t>(type);
        return bytes;
    };
    const int last = static_cast<int>(coher::kLastMsgType);

    Machine machine(config, mapping);
    machine.restoreCheckpoint(withType(last));
    EXPECT_EQ(machine.saveCheckpoint(), withType(last));
    EXPECT_THROW(machine.restoreCheckpoint(withType(last + 1)),
                 std::runtime_error);
    EXPECT_THROW(machine.restoreCheckpoint(withType(255)),
                 std::runtime_error);
}

TEST(Measurement, SerializationRoundTripsBitExactly)
{
    Measurement m;
    m.window = 4096.0;
    m.transactions = 123456;
    m.messages = 654321;
    m.txn_latency = 1.0 / 3.0; // not exactly representable in decimal
    m.message_latency = 17.25;
    m.utilization = 0.087312991;
    m.hit_rate = 0.999999999999;
    m.iterations = 42;
    m.attribution[1].count = 7;
    m.attribution[1].contention = 3.5e-17;

    util::Serializer s;
    saveMeasurement(s, m);
    util::Deserializer d(s.buffer());
    const Measurement out = loadMeasurement(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_TRUE(bitIdentical(out, m));
}

} // namespace
} // namespace machine
} // namespace locsim
