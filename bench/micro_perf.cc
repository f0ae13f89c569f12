/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths: the
 * combined-model solvers, locality sweeps, the flit-level network
 * simulator, the coherence protocol, and the full machine. These
 * track the cost of the tools themselves (simulator cycles/second,
 * model solves/second), not paper results.
 *
 * `--json PATH` (or `--json=PATH`) additionally writes a compact
 * machine-readable summary — one entry per benchmark with its ns/op —
 * for CI trend tracking and the before/after tables in
 * docs/PERFORMANCE.md. All regular google-benchmark flags still work.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "util/alloc_count.hh"

#include "cache/key.hh"
#include "cache/prefix.hh"
#include "cache/store.hh"
#include "machine/machine.hh"
#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "model/locality.hh"
#include "net/network.hh"
#include "net/traffic.hh"
#include "obs/build_info.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "workload/mapping.hh"

using namespace locsim;

/*
 * Heap-allocation accounting: util/alloc_count.hh replaces the global
 * allocation operators with counting wrappers (one relaxed atomic
 * increment per allocation), so benchmarks can report allocs_per_op
 * alongside ns/op (the number the arena work in src/util/arena.hh
 * targets). The steady-state allocation test (tests/alloc_test.cc)
 * uses the same hooks.
 */
using locsim::util::heapAllocCount;

namespace {

/*
 * --profile / --run-report state (set in main before benchmarks run).
 * The network benchmarks attach a fresh profiler per run when enabled,
 * so the table and manifest reflect the *last* run (the 16x16
 * network) — the configuration whose phase split the docs discuss.
 */
bool g_profile_enabled = false;
std::unique_ptr<obs::Profiler> g_net_profiler;
std::string g_net_profile_title;

/** Attach an allocs_per_op counter covering the timed loop. */
void
reportAllocs(benchmark::State &state, std::uint64_t before)
{
    const std::uint64_t after = heapAllocCount();
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(after - before) /
        static_cast<double>(state.iterations()));
}

/** Process peak RSS in bytes (Linux ru_maxrss is KiB). */
std::uint64_t
peakRssBytes()
{
    struct rusage usage
    {
    };
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

/**
 * Attach the large-radix footprint counters: bytes_per_node is the
 * machine's deterministic explicit accounting (the same number the
 * run manifests publish as mem.bytes_per_node), so the baseline can
 * gate it; peak_rss_mb is the process high-water mark, informational
 * only — it is cumulative across every benchmark that ran before this
 * one and varies with the host allocator.
 */
void
reportFootprint(benchmark::State &state,
                const machine::Machine &machine, std::uint32_t nodes)
{
    state.counters["bytes_per_node"] = benchmark::Counter(
        static_cast<double>(machine.memoryBytes() / nodes));
    state.counters["peak_rss_mb"] = benchmark::Counter(
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
}

void
BM_CombinedModelBisection(benchmark::State &state)
{
    const model::StudyConfig config = model::alewifeStudy(
        2, static_cast<double>(state.range(0)), true);
    model::LocalityAnalysis analysis(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis.predict(model::Mapping::Random));
    }
}
BENCHMARK(BM_CombinedModelBisection)->Arg(1000)->Arg(1000000);

void
BM_CombinedModelQuadratic(benchmark::State &state)
{
    model::StudyConfig config = model::alewifeStudy(2, 4096, false);
    model::LocalityAnalysis analysis(config);
    model::CombinedModel combined(
        analysis.nodeModel(), analysis.networkModel(),
        analysis.mappingDistance(model::Mapping::Random), false);
    for (auto _ : state)
        benchmark::DoNotOptimize(combined.solveQuadratic());
}
BENCHMARK(BM_CombinedModelQuadratic);

void
BM_ExpectedGainSweep(benchmark::State &state)
{
    const model::StudyConfig base = model::alewifeStudy(1, 64, false);
    const std::vector<double> sizes{10,   100,    1000,
                                    10000, 100000, 1000000};
    for (auto _ : state)
        benchmark::DoNotOptimize(sweepExpectedGain(base, sizes));
}
BENCHMARK(BM_ExpectedGainSweep);

void
BM_NetworkSimCycles(benchmark::State &state, int radix)
{
    sim::Engine engine;
    net::NetworkConfig config;
    config.radix = radix;
    config.dims = 2;
    net::Network network(engine, config);
    engine.addClocked(&network, 1);
    if (g_profile_enabled) {
        g_net_profiler = std::make_unique<obs::Profiler>(1, 1);
        g_net_profile_title =
            "BM_NetworkSimCycles (radix " + std::to_string(radix) +
            ")";
        engine.setProfiler(&g_net_profiler->slot(0, 0));
        network.setProfiler(g_net_profiler.get(), 0);
    }
    net::TrafficConfig traffic;
    traffic.injection_rate = 0.02;
    net::TrafficGenerator gen(network, traffic);
    engine.addClocked(&gen, 1);
    // Reach allocation steady state before counting: pools, rings and
    // link arenas grow to a high-water mark, after which the hot path
    // recycles storage and allocs_per_op reads zero (the CI alloc
    // smoke step enforces it for the uncongested 8x8 configuration).
    // Warm until a full window passes without touching the allocator
    // (bounded; the saturated 16x16 configuration never goes quiet).
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t before = heapAllocCount();
        engine.run(2000);
        if (heapAllocCount() == before)
            break;
    }
    const std::uint64_t allocs = heapAllocCount();
    for (auto _ : state)
        engine.run(100);
    reportAllocs(state, allocs);
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK_CAPTURE(BM_NetworkSimCycles, 8x8, 8)
    ->Name("BM_NetworkSimCycles")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_NetworkSimCycles, 16x16, 16)
    ->Name("BM_NetworkSimCycles/16x16")
    ->Unit(benchmark::kMicrosecond);

void
BM_TorusRouting(benchmark::State &state)
{
    net::TorusTopology topo(16, 3);
    util::Rng rng(1);
    for (auto _ : state) {
        const auto a = static_cast<sim::NodeId>(
            rng.nextBounded(topo.nodeCount()));
        auto b = static_cast<sim::NodeId>(
            rng.nextBounded(topo.nodeCount() - 1));
        if (b >= a)
            ++b;
        sim::NodeId at = a;
        while (at != b) {
            const net::HopStep step = topo.nextHop(at, b);
            at = topo.neighbor(at, step.dim, step.dir);
        }
        benchmark::DoNotOptimize(at);
    }
}
BENCHMARK(BM_TorusRouting);

void
BM_FullMachineCycles(benchmark::State &state, int radix, int contexts,
                     int shards)
{
    machine::MachineConfig config;
    config.radix = radix;
    config.contexts = contexts;
    config.shards = shards;
    const std::uint32_t nodes =
        static_cast<std::uint32_t>(radix) *
        static_cast<std::uint32_t>(radix);
    machine::Machine machine(config,
                             workload::Mapping::random(nodes, 9));
    machine.advance(1000); // warm the caches/directories
    // Then warm to allocation steady state (see BM_NetworkSimCycles).
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t before = heapAllocCount();
        machine.advance(1000);
        if (heapAllocCount() == before)
            break;
    }
    const std::uint64_t allocs = heapAllocCount();
    for (auto _ : state)
        machine.advance(100); // 200 network cycles
    reportAllocs(state, allocs);
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK_CAPTURE(BM_FullMachineCycles, 1, 8, 1, 1)
    ->Name("BM_FullMachineCycles/1")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FullMachineCycles, 4, 8, 4, 1)
    ->Name("BM_FullMachineCycles/4")
    ->Unit(benchmark::kMicrosecond);
// The sharded-execution headline: one 16x16 machine, sequentially and
// split over 2/4 lockstep shards. Results are bit-identical; only the
// wall clock moves (and only when cores are available — see
// docs/SHARDING.md for when K > 1 loses).
BENCHMARK_CAPTURE(BM_FullMachineCycles, 16x16, 16, 1, 1)
    ->Name("BM_FullMachineCycles/16x16")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FullMachineCycles, 16x16s2, 16, 1, 2)
    ->Name("BM_FullMachineCycles/16x16/shards:2")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FullMachineCycles, 16x16s4, 16, 1, 4)
    ->Name("BM_FullMachineCycles/16x16/shards:4")
    ->Unit(benchmark::kMicrosecond);

/**
 * Build-and-tear-down cost of a full 64-node machine: the allocation
 * count here is what the network arena (routers, flit rings, credit
 * pipes from chained slabs) is meant to shrink.
 */
void
BM_MachineConstruction(benchmark::State &state)
{
    machine::MachineConfig config;
    const workload::Mapping mapping = workload::Mapping::random(64, 9);
    const std::uint64_t allocs = heapAllocCount();
    for (auto _ : state) {
        machine::Machine machine(config, mapping);
        benchmark::DoNotOptimize(&machine);
    }
    reportAllocs(state, allocs);
}
BENCHMARK(BM_MachineConstruction)->Unit(benchmark::kMicrosecond);

/*
 * The large-radix scaling tier: 48x48 (2304 nodes) and 64x64 (4096
 * nodes) machines, far past the paper's 64-node validation platform.
 * These exist to keep the compact per-node representation honest —
 * bytes_per_node is gated by compare_bench.py against BENCH_seed.json
 * alongside ns/op, so a representation change that bloats resident
 * state fails CI even if it is not slower.
 */

/**
 * Full construct-and-tear-down at large radix. Above the parallel-
 * construction threshold (64x64) this also times the threaded build
 * path that sequential BM_MachineConstruction never exercises.
 */
void
BM_LargeRadixConstruction(benchmark::State &state, int radix)
{
    machine::MachineConfig config;
    config.radix = radix;
    const auto nodes = static_cast<std::uint32_t>(radix) *
                       static_cast<std::uint32_t>(radix);
    const workload::Mapping mapping =
        workload::Mapping::random(nodes, 9);
    const std::uint64_t allocs = heapAllocCount();
    for (auto _ : state) {
        machine::Machine machine(config, mapping);
        benchmark::DoNotOptimize(&machine);
    }
    reportAllocs(state, allocs);
    // Footprint of a cold machine (pre-traffic): the number a fresh
    // construction commits to before any line is touched.
    machine::Machine machine(config, mapping);
    reportFootprint(state, machine, nodes);
}
BENCHMARK_CAPTURE(BM_LargeRadixConstruction, 48x48, 48)
    ->Name("BM_LargeRadixConstruction/48x48")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LargeRadixConstruction, 64x64, 64)
    ->Name("BM_LargeRadixConstruction/64x64")
    ->Unit(benchmark::kMillisecond);

/**
 * Simulated cycles per second at large radix, after a short warmup.
 * The warmup is deliberately brief (full allocation steady state at
 * 4096 nodes would dominate the whole micro_perf run), so the
 * reported allocs_per_op depends on how many iterations the harness
 * chose — the baseline gates ns/op and bytes_per_node only. The
 * bytes_per_node here is the *warm* footprint: caches and directories
 * have absorbed real traffic.
 */
void
BM_LargeRadixSimCycles(benchmark::State &state, int radix)
{
    machine::MachineConfig config;
    config.radix = radix;
    const auto nodes = static_cast<std::uint32_t>(radix) *
                       static_cast<std::uint32_t>(radix);
    machine::Machine machine(config,
                             workload::Mapping::random(nodes, 9));
    machine.advance(500); // brief warm: touch caches/directories
    for (auto _ : state)
        machine.advance(50); // 100 network cycles
    state.SetItemsProcessed(state.iterations() * 100);
    reportFootprint(state, machine, nodes);
}
// Iteration counts are pinned (not harness-chosen): the machine's
// warm footprint depends on how many cycles ran before the counter
// is read, so a floating count would make the gated bytes_per_node
// wobble with host speed.
BENCHMARK_CAPTURE(BM_LargeRadixSimCycles, 48x48, 48)
    ->Name("BM_LargeRadixSimCycles/48x48")
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LargeRadixSimCycles, 64x64, 64)
    ->Name("BM_LargeRadixSimCycles/64x64")
    ->Iterations(4)
    ->Unit(benchmark::kMillisecond);

/**
 * Same machine with message-level tracing enabled: measures the cost
 * of recording (the null-sink cost when tracing is off is covered by
 * BM_FullMachineCycles). The event cap is raised so typical runs
 * measure the record path, not the cheaper post-cap drop path, while
 * still bounding memory if benchmark iterations run long.
 */
/**
 * Cost of one LSCK checkpoint round trip: serialize a warmed machine,
 * construct a fresh twin, and restore the image into it. This is the
 * fixed overhead the prefix cache pays per restored sweep point, so
 * the "is restore cheaper than re-simulating the warmup" break-even
 * the docs quote comes from these numbers. The fresh-machine
 * construction is included deliberately — restoreCheckpoint requires
 * one, so it is part of the real price of a restore.
 */
void
BM_CheckpointRoundtrip(benchmark::State &state, int radix)
{
    machine::MachineConfig config;
    config.radix = radix;
    const auto nodes = static_cast<std::uint32_t>(radix) *
                       static_cast<std::uint32_t>(radix);
    const workload::Mapping mapping =
        workload::Mapping::random(nodes, 9);
    machine::Machine machine(config, mapping);
    machine.advance(2000); // a realistic mid-warmup state
    state.counters["image_bytes"] = benchmark::Counter(
        static_cast<double>(machine.saveCheckpoint().size()));
    const std::uint64_t allocs = heapAllocCount();
    for (auto _ : state) {
        const std::vector<std::uint8_t> image =
            machine.saveCheckpoint();
        machine::Machine restored(config, mapping);
        restored.restoreCheckpoint(image);
        benchmark::DoNotOptimize(&restored);
    }
    reportAllocs(state, allocs);
}
BENCHMARK_CAPTURE(BM_CheckpointRoundtrip, 8x8, 8)
    ->Name("BM_CheckpointRoundtrip/8x8")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CheckpointRoundtrip, 16x16, 16)
    ->Name("BM_CheckpointRoundtrip/16x16")
    ->Unit(benchmark::kMicrosecond);

/**
 * A cold three-window sweep over one shared warmup, exactly as the
 * figure harnesses run it: each point goes through the result cache
 * (always missing — the cache directory is fresh per iteration), and
 * misses simulate either through the prefix planner (warmup runs
 * once, later windows restore) or from clock zero. The ratio
 * noprefix/prefix is the headline aggregate cold-sweep speedup
 * compare_bench.py gates against BENCH_seed.json.
 */
void
BM_PrefixSweep(benchmark::State &state, bool use_prefix)
{
    namespace fs = std::filesystem;
    machine::MachineConfig config; // the 64-node validation machine
    const workload::Mapping mapping =
        workload::Mapping::random(64, 9);
    constexpr std::uint64_t kWarmup = 8000;
    const std::uint64_t windows[] = {200, 400, 600, 800, 1000};
    std::uint64_t serial = 0;
    for (auto _ : state) {
        state.PauseTiming();
        const fs::path dir =
            fs::temp_directory_path() /
            ("locsim_prefix_sweep_" + std::to_string(::getpid()) +
             "_" + std::to_string(serial++));
        fs::remove_all(dir);
        state.ResumeTiming();
        {
            cache::SimCache store(dir.string());
            std::optional<cache::PrefixPlanner> planner;
            if (use_prefix)
                planner.emplace(store);
            for (const std::uint64_t window : windows) {
                const auto payload = store.getOrRun(
                    cache::simKey(config, mapping, kWarmup, window),
                    [&] {
                        machine::Measurement m;
                        if (planner.has_value()) {
                            const auto machine = planner->warmMachine(
                                config, mapping, kWarmup);
                            m = machine->measure(window);
                        } else {
                            machine::Machine machine(config, mapping);
                            m = machine.run(kWarmup, window);
                        }
                        util::Serializer s;
                        machine::saveMeasurement(s, m);
                        return s.takeBuffer();
                    });
                benchmark::DoNotOptimize(payload.data());
            }
        }
        state.PauseTiming();
        fs::remove_all(dir);
        state.ResumeTiming();
    }
    // One item per sweep point, so items/second compares directly
    // between the prefix and noprefix variants.
    state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK_CAPTURE(BM_PrefixSweep, prefix, true)
    ->Name("BM_PrefixSweep/prefix")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PrefixSweep, noprefix, false)
    ->Name("BM_PrefixSweep/noprefix")
    ->Unit(benchmark::kMillisecond);

void
BM_FullMachineCyclesTraced(benchmark::State &state)
{
    machine::MachineConfig config;
    config.contexts = static_cast<int>(state.range(0));
    config.trace.enabled = true;
    config.trace.max_events = 1u << 24;
    machine::Machine machine(
        config, workload::Mapping::random(64, 9));
    machine.advance(1000); // warm the caches/directories
    for (auto _ : state)
        machine.advance(100); // 200 network cycles
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FullMachineCyclesTraced)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void
BM_MappingDistance(benchmark::State &state)
{
    net::TorusTopology topo(8, 2);
    const workload::Mapping mapping = workload::Mapping::random(64, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapping.averageNeighborDistance(topo));
    }
}
BENCHMARK(BM_MappingDistance);

/**
 * Console reporter that also records (name, ns/op, iterations) for
 * every per-iteration run it prints.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Entry
    {
        std::string name;
        double ns_per_op = 0.0;
        std::int64_t iterations = 0;
        double allocs_per_op = -1.0;  //!< <0 = not measured
        double bytes_per_node = -1.0; //!< <0 = not measured
        double peak_rss_mb = -1.0;    //!< <0 = not measured
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration)
                continue; // skip mean/median/stddev aggregates
            Entry entry;
            entry.name = run.benchmark_name();
            entry.iterations =
                static_cast<std::int64_t>(run.iterations);
            if (run.iterations > 0) {
                entry.ns_per_op =
                    run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
            }
            const auto it = run.counters.find("allocs_per_op");
            if (it != run.counters.end())
                entry.allocs_per_op = it->second.value;
            const auto bytes = run.counters.find("bytes_per_node");
            if (bytes != run.counters.end())
                entry.bytes_per_node = bytes->second.value;
            const auto rss = run.counters.find("peak_rss_mb");
            if (rss != run.counters.end())
                entry.peak_rss_mb = rss->second.value;
            entries.push_back(std::move(entry));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<Entry> entries;
};

bool
writeJson(const std::string &path,
          const std::vector<CollectingReporter::Entry> &entries)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "micro_perf: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(file, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        std::string name;
        obs::appendJsonEscaped(name, e.name);
        std::fprintf(file,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.6g, "
                     "\"iterations\": %lld",
                     name.c_str(), e.ns_per_op,
                     static_cast<long long>(e.iterations));
        if (e.allocs_per_op >= 0.0)
            std::fprintf(file, ", \"allocs_per_op\": %.6g",
                         e.allocs_per_op);
        if (e.bytes_per_node >= 0.0)
            std::fprintf(file, ", \"bytes_per_node\": %.6g",
                         e.bytes_per_node);
        if (e.peak_rss_mb >= 0.0)
            std::fprintf(file, ", \"peak_rss_mb\": %.6g",
                         e.peak_rss_mb);
        std::fprintf(file, "}%s\n",
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(file, "  ]\n}\n");
    std::fclose(file);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own flags (--json, --profile, --run-report,
    // --build-info) before google-benchmark sees argv.
    std::string json_path;
    std::string report_path;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
            continue;
        }
        if (arg == "--run-report" && i + 1 < argc) {
            report_path = argv[++i];
            continue;
        }
        if (arg.rfind("--run-report=", 0) == 0) {
            report_path = arg.substr(13);
            continue;
        }
        if (arg == "--profile") {
            g_profile_enabled = true;
            continue;
        }
        if (arg == "--build-info") {
            obs::printBuildInfo(std::cout);
            return 0;
        }
        args.push_back(argv[i]);
    }
    if (!report_path.empty()) {
        util::requireWritableParent(report_path, "--run-report");
        g_profile_enabled = true; // the manifest carries the profile
    }
    const auto start_time = std::chrono::steady_clock::now();
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               args.data()))
        return 1;

    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!json_path.empty() && !writeJson(json_path, reporter.entries))
        return 1;

    if (g_profile_enabled && g_net_profiler != nullptr)
        obs::writeProfileTable(std::cout, *g_net_profiler,
                               g_net_profile_title);

    if (!report_path.empty()) {
        obs::RunReport report("micro_perf");
        report.setArgv(argc, argv);
        report.addConfig("json", json_path);
        report.addConfig("benchmarks",
                         static_cast<long long>(
                             reporter.entries.size()));
        auto &registry = obs::CounterRegistry::process();
        registry.set("host.heap_allocs", heapAllocCount());
        report.setCounters(registry.snapshot());
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_time)
                .count();
        report.setProfile(g_net_profiler.get(), wall);
        report.writeFile(report_path);
        std::fprintf(stderr, "micro_perf: wrote run manifest to %s\n",
                     report_path.c_str());
    }
    return 0;
}
