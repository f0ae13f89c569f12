/**
 * @file
 * Tests for the host-side introspection layer: phase-profiler
 * transparency (profiling must not change simulated results or
 * checkpoint bytes), nesting and attribution invariants, the counter
 * registry, run-manifest JSON validity and its determinism contract
 * (everything nondeterministic lives under "profile"), early output-
 * path validation, and build-info provenance.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "obs/build_info.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "util/options.hh"
#include "util/serialize.hh"
#include "workload/mapping.hh"

#include "json_checker.hh"

namespace locsim {
namespace obs {
namespace {

using locsim::testing::JsonChecker;

std::vector<std::uint8_t>
measurementBytes(const machine::Measurement &m)
{
    util::Serializer s;
    machine::saveMeasurement(s, m);
    return s.takeBuffer();
}

/**
 * Run one small machine, optionally profiled, and return the
 * serialized measurement plus a post-run checkpoint.
 */
struct RunArtifacts
{
    std::vector<std::uint8_t> measurement;
    std::vector<std::uint8_t> checkpoint;
};

RunArtifacts
runSmallMachine(Profiler *profiler, int shards)
{
    machine::MachineConfig config;
    config.contexts = 2;
    config.shards = shards;
    config.profiler = profiler;
    machine::Machine machine(config,
                             workload::Mapping::random(64, 7));
    RunArtifacts out;
    out.measurement = measurementBytes(machine.run(500, 1500));
    out.checkpoint = machine.saveCheckpoint();
    return out;
}

TEST(Profiler, ProfiledRunIsByteIdenticalToUnprofiled)
{
    const RunArtifacts plain = runSmallMachine(nullptr, 1);
    Profiler profiler(1, 1);
    const RunArtifacts profiled = runSmallMachine(&profiler, 1);
    EXPECT_EQ(plain.measurement, profiled.measurement);
    EXPECT_EQ(plain.checkpoint, profiled.checkpoint);
    // And the profiler actually saw the run.
    EXPECT_GT(profiler.totals().totalNs(), 0u);
}

TEST(Profiler, ShardedProfiledRunMatchesSequential)
{
    const RunArtifacts sequential = runSmallMachine(nullptr, 1);
    Profiler profiler(4, 1);
    const RunArtifacts sharded = runSmallMachine(&profiler, 4);
    EXPECT_EQ(sequential.measurement, sharded.measurement);
    // Barrier waits only exist under lockstep; every shard arrives.
    const auto barrier = static_cast<std::size_t>(Phase::BarrierWait);
    for (int s = 0; s < 4; ++s) {
        EXPECT_GT(profiler.shardTotals(s).count[barrier], 0u)
            << "shard " << s << " never hit the lockstep barrier";
    }
}

TEST(Profiler, NestingChildrenDoNotExceedEngineDispatch)
{
    Profiler profiler(1, 1);
    (void)runSmallMachine(&profiler, 1);
    const PhaseTotals t = profiler.totals();
    const auto ns = [&](Phase p) {
        return t.ns[static_cast<std::size_t>(p)];
    };
    // EngineDispatch spans the clocked scan that dispatches the
    // router and coherence ticks, so it is inclusive of both.
    EXPECT_GE(ns(Phase::EngineDispatch),
              ns(Phase::RouterScan) + ns(Phase::Coherence));
    EXPECT_GT(ns(Phase::EngineDispatch), 0u);
    EXPECT_GT(ns(Phase::RouterScan), 0u);
}

TEST(Profiler, CheckpointPhasesAttributedToSaveRestore)
{
    Profiler profiler(1, 1);
    machine::MachineConfig config;
    config.profiler = &profiler;
    const workload::Mapping mapping = workload::Mapping::random(64, 7);
    machine::Machine machine(config, mapping);
    machine.advance(200);
    const auto bytes = machine.saveCheckpoint();
    // Restore on a second machine so each phase is counted once.
    machine::Machine restored(config, mapping);
    restored.restoreCheckpoint(bytes);
    const PhaseTotals t = profiler.totals();
    EXPECT_EQ(t.count[static_cast<std::size_t>(Phase::CheckpointSave)],
              1u);
    EXPECT_EQ(
        t.count[static_cast<std::size_t>(Phase::CheckpointRestore)],
        1u);
}

TEST(Profiler, SlotIndicesClampIntoGrid)
{
    Profiler profiler(2, 3);
    EXPECT_EQ(&profiler.slot(-1, -5), &profiler.slot(0, 0));
    EXPECT_EQ(&profiler.slot(99, 99), &profiler.slot(1, 2));
    EXPECT_EQ(&profiler.hostSlot(), &profiler.slot(0, 0));
}

TEST(Profiler, ScopedPhaseOverNullSlotRecordsNothing)
{
    Profiler profiler(1, 1);
    {
        ScopedPhase scope(nullptr, Phase::RouterScan);
    }
    EXPECT_EQ(profiler.totals().totalNs(), 0u);
    {
        ScopedPhase scope(&profiler.slot(0, 0), Phase::RouterScan);
    }
    EXPECT_EQ(profiler.totals()
                  .count[static_cast<std::size_t>(Phase::RouterScan)],
              1u);
}

TEST(Counters, AddSetSnapshotReset)
{
    CounterRegistry registry;
    registry.add("b.second", 2);
    registry.add("a.first", 1);
    registry.add("a.first", 3);
    registry.set("c.third", 10);
    registry.set("c.third", 7);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "a.first"); // sorted by name
    EXPECT_EQ(snap[0].second, 4u);
    EXPECT_EQ(snap[1].first, "b.second");
    EXPECT_EQ(snap[1].second, 2u);
    EXPECT_EQ(snap[2].second, 7u);
    registry.reset();
    EXPECT_TRUE(registry.snapshot().empty());
}

TEST(Counters, MachineRunPublishesFabricCounters)
{
    CounterRegistry::process().reset();
    {
        machine::MachineConfig config;
        // Explicitly sequential: LOCSIM_SHARDS must not shard it.
        config.shards = 1;
        machine::Machine machine(config,
                                 workload::Mapping::random(64, 7));
        machine.advance(500);
    }
    bool found = false;
    bool found_footprint = false;
    for (const auto &[name, value] :
         CounterRegistry::process().snapshot()) {
        if (name == "net.remote_wakes") {
            found = true;
            // Sequential execution never crosses shard boundaries.
            EXPECT_EQ(value, 0u);
        }
        if (name == "mem.bytes_per_node") {
            found_footprint = true;
            // Every node owns at least a controller and queues; a
            // zero value means the accounting broke. The upper bound
            // guards the compaction: this run measures 11,946 B per
            // node, and the ceiling is that plus 25% (endpoint queues
            // holding message copies again would cost 16,026 B).
            EXPECT_GT(value, 1000u);
            EXPECT_LT(value, 15000u);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(found_footprint);
}

/** Render a manifest for a tiny profiled run. */
std::string
renderManifest(bool with_profiler)
{
    CounterRegistry::process().reset();
    auto profiler = std::make_unique<Profiler>(1, 1);
    (void)runSmallMachine(with_profiler ? profiler.get() : nullptr, 1);
    RunReport report("profiler_test");
    report.setArgv(std::vector<std::string>{"profiler_test",
                                            "--window", "1500"});
    report.addConfig("mapping", "random");
    report.addConfig("contexts", static_cast<long long>(2));
    report.addConfig("quick", false);
    report.addConfig("ratio", 0.5);
    report.addSimulation("random.p2", "0123abc");
    report.setCounters(CounterRegistry::process().snapshot());
    report.setProfile(with_profiler ? profiler.get() : nullptr, 1.25);
    std::ostringstream os;
    report.write(os);
    return os.str();
}

TEST(RunReport, EmitsValidJsonWithRequiredSections)
{
    for (const bool profiled : {false, true}) {
        const std::string text = renderManifest(profiled);
        EXPECT_TRUE(JsonChecker(text).valid()) << text;
        for (const char *key :
             {"\"schema\": \"locsim-run-report-v1\"", "\"tool\":",
              "\"argv\":", "\"build\":", "\"git_sha\":", "\"host\":",
              "\"config\":", "\"simulations\":", "\"counters\":",
              "\"profile\":", "\"sim.skipped_ticks\"",
              "\"net.remote_wakes\""}) {
            EXPECT_NE(text.find(key), std::string::npos)
                << "missing " << key << " in:\n"
                << text;
        }
        EXPECT_NE(
            text.find(profiled ? "\"enabled\": true"
                               : "\"enabled\": false"),
            std::string::npos);
        if (profiled) {
            for (const char *key :
                 {"\"phases\":", "\"shards\":", "\"lanes\":",
                  "\"imbalance\":", "\"barrier_wait_share\":",
                  "\"engine_dispatch\"", "\"router_scan\""}) {
                EXPECT_NE(text.find(key), std::string::npos)
                    << "missing " << key;
            }
        }
    }
}

/**
 * Remove the top-level "profile" object (string-aware balanced-brace
 * scan) — the remainder is the manifest's deterministic core.
 */
std::string
stripProfile(const std::string &text)
{
    const std::size_t start = text.find("\"profile\":");
    if (start == std::string::npos)
        return text;
    std::size_t i = text.find('{', start);
    if (i == std::string::npos)
        return text;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            break;
    }
    return text.substr(0, start) + text.substr(i + 1);
}

TEST(RunReport, DeterministicExceptProfileSubtree)
{
    const std::string first = renderManifest(true);
    const std::string second = renderManifest(true);
    // Wall-clock fields make full manifests differ...
    // ...but everything outside "profile" is byte-stable.
    EXPECT_EQ(stripProfile(first), stripProfile(second));
    // The strip really removed the nondeterministic fields.
    EXPECT_EQ(stripProfile(first).find("wall_seconds"),
              std::string::npos);
}

TEST(Options, MissingParentDirectoryIsFatalEarly)
{
    EXPECT_EXIT(util::requireWritableParent(
                    "/nonexistent-locsim-dir/report.json",
                    "--run-report"),
                ::testing::ExitedWithCode(1),
                "parent directory");
    // A bare filename (current directory) is fine.
    util::requireWritableParent("report.json", "--run-report");
}

TEST(BuildInfo, FieldsAreNonEmpty)
{
    EXPECT_FALSE(std::string(buildGitSha()).empty());
    EXPECT_FALSE(std::string(buildCompiler()).empty());
    EXPECT_FALSE(std::string(buildType()).empty());
    std::ostringstream os;
    printBuildInfo(os);
    EXPECT_NE(os.str().find("git_sha"), std::string::npos);
    EXPECT_NE(os.str().find("compiler"), std::string::npos);
}

} // namespace
} // namespace obs
} // namespace locsim
