/**
 * @file
 * Checkpoint/restore tests: saving a machine mid-run and restoring it
 * into a fresh machine must be invisible — extending the restored run
 * produces bit-for-bit the same measurements as never having stopped.
 * This is the property that lets the simulation cache extend a cached
 * run instead of recomputing it from cycle zero.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "machine/machine.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
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
 */
void
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
    const Measurement resumed = resumer.measure(window);

    EXPECT_TRUE(bitIdentical(resumed, expected));
    EXPECT_EQ(resumed.violations, 0u);
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
    expectRestoreExtendsBitIdentically(config, 601, 1201);
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
TEST(Checkpoint, ShardedImageRestoresAtAnyShardCount)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
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
}

/**
 * LSCK bytes are pinned, not just self-consistent: 8x8 machines saved
 * mid-traffic must hash to digests recorded from the latched-link
 * fabric that direct deposit replaced. Across the save points, flits
 * are in transit on neighbor, injection, ejection and (at 2 shards)
 * cross-shard links, and credits are in flight — the states whose
 * records the deposit protocol re-derives from producer cursors and
 * consumer rings. Each image also restores at the other shard count
 * and re-saves to the same digest.
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
         "cb87038cf3dd99a43a2c4775f27bfcff7b3d497e9155947dc18b99eef873c4ef"},
        {2502,
         "c58099c712c9f97ee91c377ce3f74428ed1caef94e6feb022cd9c04b34814623"},
        {3703,
         "4c7207bbb4616c259145ef69d751b77263d7a49da85d3624d4b6c4f265f8c613"},
    };
    MachineConfig config;
    config.contexts = 4;
    const workload::Mapping mapping = identityMapping(config);
    net::TransitCounts seen;
    for (int shards : {1, 2}) {
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
            other.shards = 3 - shards;
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
