/**
 * @file
 * Simulation cache tests: key canonicalization (equal configs hash
 * equal, any behavioral field change rehashes), the content-addressed
 * store's lookup/store/remove cycle, hit/miss accounting, and the
 * within-process singleflight guarantee (concurrent requests for one
 * key run the computation once).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/key.hh"
#include "cache/store.hh"
#include "machine/machine.hh"
#include "util/serialize.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace cache {
namespace {

namespace fs = std::filesystem;

machine::MachineConfig
baseConfig()
{
    machine::MachineConfig config;
    config.radix = 4;
    config.dims = 2;
    return config;
}

workload::Mapping
baseMapping()
{
    return workload::Mapping::identity(16);
}

std::string
baseKey()
{
    return simKey(baseConfig(), baseMapping(), 100, 200);
}

/** Unique fresh directory under the system temp dir. */
fs::path
freshDir(const std::string &tag)
{
    static std::atomic<int> serial{0};
    const fs::path dir = fs::temp_directory_path() /
                         ("locsim_cache_test_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(serial++));
    fs::remove_all(dir);
    return dir;
}

TEST(SimKey, IsDeterministic)
{
    EXPECT_EQ(baseKey(), baseKey());
    // SHA-256 hex: 64 lowercase hex digits, usable as a filename.
    const std::string key = baseKey();
    EXPECT_EQ(key.size(), 64u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

/**
 * Pin the exact key bytes across refactors: data-layout work (pool
 * handles, SoA slabs, packed structs) must not leak into the
 * serialized identity of an experiment, or every cached result
 * silently invalidates. If this test fails, either the serialization
 * genuinely changed (bump kCacheSchemaVersion and re-pin) or an
 * internal representation leaked into simKey (fix that instead).
 */
TEST(SimKey, StableAcrossDataLayoutRefactors)
{
    EXPECT_EQ(baseKey(),
              "35804cd4d43305880290992ef1bab0085002e92c"
              "3bd42068f672c8ca8e842b5e");
}

TEST(SimKey, ChangesWithEveryBehavioralField)
{
    const std::string base = baseKey();
    const auto mapping = baseMapping();

    auto keyOf = [&](const machine::MachineConfig &c) {
        return simKey(c, mapping, 100, 200);
    };

    std::vector<std::string> keys;
    {
        auto c = baseConfig();
        c.wraparound = false;
        keys.push_back(keyOf(c));
    }
    {
        auto c = baseConfig();
        c.contexts = 2;
        keys.push_back(keyOf(c));
    }
    {
        auto c = baseConfig();
        c.processor.switch_cycles = 7;
        keys.push_back(keyOf(c));
    }
    {
        auto c = baseConfig();
        c.protocol.mem_latency = 99;
        keys.push_back(keyOf(c));
    }
    {
        auto c = baseConfig();
        c.router.buffer_depth = 3;
        keys.push_back(keyOf(c));
    }
    {
        auto c = baseConfig();
        c.reference_stepping = !c.reference_stepping;
        keys.push_back(keyOf(c));
    }
    // Different mapping, warmup, and window.
    keys.push_back(simKey(baseConfig(),
                          workload::Mapping::random(16, 3), 100, 200));
    keys.push_back(simKey(baseConfig(), mapping, 101, 200));
    keys.push_back(simKey(baseConfig(), mapping, 100, 201));

    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_NE(keys[i], base) << "variant " << i;
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j])
                << "variants " << i << " and " << j;
    }
}

/**
 * Execution knobs must never enter the key: MachineConfig::shards
 * partitions execution without changing results (and the runner
 * thread count never reaches simKey at all), so sequential and
 * sharded runs of one experiment share a single cache entry.
 */
TEST(SimKey, IndependentOfShardCount)
{
    const std::string base = baseKey();
    for (int shards : {1, 2, 4}) {
        auto config = baseConfig();
        config.shards = shards;
        EXPECT_EQ(simKey(config, baseMapping(), 100, 200), base)
            << shards << " shards";
    }
}

/**
 * The warm-cache consequence, both ways: a payload computed
 * sequentially is a hit for a sharded run and vice versa, and either
 * payload equals what the other mode actually computes (sharded
 * execution is bit-identical, so serving either result for the other
 * is correct).
 */
TEST(SimCache, WarmAcrossShardCounts)
{
    auto compute = [](int shards) {
        auto config = baseConfig();
        config.shards = shards;
        machine::Machine machine(config, baseMapping());
        util::Serializer s;
        machine::saveMeasurement(s, machine.run(100, 200));
        return s.takeBuffer();
    };
    const std::string key = baseKey();

    {
        // Sequential warms; the 4-shard run must hit.
        const fs::path dir = freshDir("warm-seq-then-sharded");
        SimCache store(dir);
        const auto seq =
            store.getOrRun(key, [&] { return compute(1); });
        bool recomputed = false;
        const auto sharded = store.getOrRun(key, [&] {
            recomputed = true;
            return compute(4);
        });
        EXPECT_FALSE(recomputed) << "sharded run missed a warm cache";
        EXPECT_EQ(sharded, seq);
        EXPECT_EQ(compute(4), seq)
            << "sharded payload differs from the cached sequential one";
        fs::remove_all(dir);
    }
    {
        // Sharded warms; the sequential run must hit.
        const fs::path dir = freshDir("warm-sharded-then-seq");
        SimCache store(dir);
        const auto sharded =
            store.getOrRun(key, [&] { return compute(4); });
        bool recomputed = false;
        const auto seq = store.getOrRun(key, [&] {
            recomputed = true;
            return compute(1);
        });
        EXPECT_FALSE(recomputed)
            << "sequential run missed a shard-warmed cache";
        EXPECT_EQ(seq, sharded);
        fs::remove_all(dir);
    }
}

TEST(SimCache, StoreThenLookupRoundTrips)
{
    const fs::path dir = freshDir("roundtrip");
    SimCache store(dir);
    const std::string key = baseKey();

    EXPECT_FALSE(store.lookup(key).has_value());
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    const auto got =
        store.getOrRun(key, [&] { return payload; });
    EXPECT_EQ(got, payload);

    // Now on disk: a second store instance sees it.
    SimCache reopened(dir);
    const auto found = reopened.lookup(key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, payload);

    fs::remove_all(dir);
}

TEST(SimCache, CountsHitsAndMisses)
{
    const fs::path dir = freshDir("counters");
    SimCache store(dir);
    const std::string key = baseKey();
    int computations = 0;
    auto compute = [&] {
        ++computations;
        return std::vector<std::uint8_t>{42};
    };

    store.getOrRun(key, compute);
    store.getOrRun(key, compute);
    store.getOrRun(key, compute);

    EXPECT_EQ(computations, 1);
    const CacheStats s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 2u);

    fs::remove_all(dir);
}

TEST(SimCache, RemoveDropsTheEntry)
{
    const fs::path dir = freshDir("remove");
    SimCache store(dir);
    const std::string key = baseKey();
    store.getOrRun(key, [] {
        return std::vector<std::uint8_t>{9};
    });
    ASSERT_TRUE(store.lookup(key).has_value());
    store.remove(key);
    EXPECT_FALSE(store.lookup(key).has_value());
    fs::remove_all(dir);
}

TEST(SimCache, SingleflightComputesOnce)
{
    const fs::path dir = freshDir("singleflight");
    SimCache store(dir);
    const std::string key = baseKey();

    constexpr int kThreads = 8;
    std::atomic<int> computations{0};
    std::vector<std::thread> threads;
    std::vector<std::vector<std::uint8_t>> results(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = store.getOrRun(key, [&] {
                ++computations;
                // Let the other threads pile up on the in-flight
                // entry so the dedup path actually executes.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return std::vector<std::uint8_t>{7, 7, 7};
            });
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(computations.load(), 1);
    for (const auto &r : results)
        EXPECT_EQ(r, (std::vector<std::uint8_t>{7, 7, 7}));
    const CacheStats s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits + s.dedup_hits,
              static_cast<std::uint64_t>(kThreads - 1));

    fs::remove_all(dir);
}

TEST(SimCache, FailedComputationPropagatesAndRetries)
{
    const fs::path dir = freshDir("failure");
    SimCache store(dir);
    const std::string key = baseKey();

    EXPECT_THROW(
        store.getOrRun(
            key,
            []() -> std::vector<std::uint8_t> {
                throw std::runtime_error("compute failed");
            }),
        std::runtime_error);
    // The failure must not poison the key.
    const auto got = store.getOrRun(key, [] {
        return std::vector<std::uint8_t>{5};
    });
    EXPECT_EQ(got, (std::vector<std::uint8_t>{5}));

    fs::remove_all(dir);
}

TEST(SimCache, RejectsUnwritableDirectory)
{
    // A path *under a regular file* can never become a directory.
    const fs::path file = freshDir("blocker");
    {
        std::ofstream os(file);
        os << "not a directory";
    }
    EXPECT_THROW(SimCache(file / "sub"), std::runtime_error);
    fs::remove(file);
}

} // namespace
} // namespace cache
} // namespace locsim
