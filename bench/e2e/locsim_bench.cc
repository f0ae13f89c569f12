/**
 * @file
 * locsim_bench: one pass of one end-to-end benchmark workload.
 *
 * A workload is a fixed batch of simulation jobs submitted at once
 * (this is a batch simulator, so throughput means simulated work
 * completed per host second at a stated input size). One invocation
 * runs one pass of one workload in a fresh process and prints one JSON
 * object on stdout: every result's digest, the pass's end-to-end
 * metrics and its per-layer split. bench/e2e/run.py runs the passes,
 * checks the digests against the goldens and reports medians; see
 * bench/e2e/README.md for the workloads and metrics.
 *
 * The driver reaches the library only through public calls and times
 * those calls from outside, with spans kept in memory (a few hundred
 * per pass, two clock reads each, so they stay on in every pass). With
 * --trace-out the pass is a traced pass: it also attaches the
 * library's phase profiler for the host.* split and writes the spans
 * as Chrome trace JSON. Untraced passes attach no profiler, so the
 * end-to-end numbers carry no profiling cost.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/key.hh"
#include "cache/prefix.hh"
#include "cache/store.hh"
#include "machine/calibration.hh"
#include "machine/machine.hh"
#include "model/network_model.hh"
#include "net/network.hh"
#include "net/traffic.hh"
#include "obs/build_info.hh"
#include "obs/profiler.hh"
#include "runner/runner.hh"
#include "sim/engine.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
#include "util/simd.hh"
#include "workload/mapping.hh"

using namespace locsim;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload definitions. Cycle counts are processor cycles for machine
// workloads and network cycles for open_loop_net; --smoke divides
// every one of them by ten.

constexpr int kGridRadix = 8;
constexpr int kGridContexts[] = {1, 2, 4};
constexpr std::uint64_t kGridWarmup = 6000;
constexpr std::uint64_t kGridWindow = 10000;

// A 32x32 machine (~24 MB resident) already overflows every L2; larger
// radixes would only lengthen a pass and leave a benchmark run fewer
// passes to take its median over.
constexpr int kScalingRadixes[] = {16, 32};
constexpr std::uint64_t kScalingWarmup = 1000;
constexpr std::uint64_t kScalingWindow = 3000;
/**
 * Lockstep shards per scaling cell. Every barrier waits for the slowest
 * shard, so a shard whose CPU a co-tenant slows stalls all of them; two
 * shards keep the lockstep layer busy at half the exposure of four.
 */
constexpr int kScalingShards = 2;

constexpr std::uint64_t kPrefixWarmup = 6000;
const std::vector<std::uint64_t> kPrefixColdWindows = {500, 1000, 2000};
const std::vector<std::uint64_t> kPrefixExtendWindows = {750, 1500};

constexpr int kNetRadix = 16;
// The simulated 16x16 fabric saturates near r = 0.015 (rho ~ 0.36):
// past it source queues grow without bound and delivered falls below
// offered. These rates stay clear of that knee, where T_m, and so the
// model error, also swings most from one traffic seed to the next.
constexpr double kNetRates[] = {0.004, 0.006, 0.008, 0.010};
/**
 * Independent traffic streams per rate. Each (rate, stream) cell is one
 * engine on one thread, and the runner spreads the cells over its
 * workers, so a pass's time averages over every CPU it may use instead
 * of riding on whichever one a lone thread landed on.
 */
constexpr int kNetStreams = 4;
constexpr std::uint32_t kNetFlits = 12;
constexpr std::uint64_t kNetCycles = 5000;

const char *const kWorkloads[] = {"validation_grid", "scaling_sweep",
                                  "prefix_sweep", "open_loop_net"};

/** Span names whose time counts as set-up (setup_s). */
const char *const kSetupSpans[] = {"inputs", "machine.ctor", "net.ctor",
                                   "cache.open", "cache.plan"};

[[noreturn]] void
fail(const std::string &message)
{
    std::cerr << "locsim_bench: " << message << "\n";
    std::exit(2);
}

/** Workers: min(4, the CPUs this process may run on). */
int
benchThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::clamp(CPU_COUNT(&set), 1, 4);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 12345;
    int threads = benchThreads();
    bool smoke = false;
    std::string cache_dir;
    std::string trace_out;
    bool record_golden = false;
};

int
scalingShards(const Options &opt)
{
    return std::min(kScalingShards, opt.threads);
}

std::uint64_t
parseCount(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (text[0] == '\0' || text[0] == '-' || *end != '\0' || errno != 0)
        fail(flag + " expects a non-negative integer, got '" + text +
             "'");
    return value;
}

void
usage()
{
    std::cout
        << "usage: locsim_bench --workload NAME [--seed N] [--smoke]\n"
           "                    [--cache-dir DIR] [--trace-out FILE]\n"
           "       locsim_bench --record-golden [--seed N]"
           "   (golden JSON on stdout)\n"
           "       locsim_bench --build-info\n"
           "workloads: validation_grid scaling_sweep prefix_sweep "
           "open_loop_net\n"
           "threads: min(4, available CPUs); scaling_sweep shards: "
           "min(2, threads)\n";
}

void
printBuildInfo()
{
    obs::printBuildInfo(std::cout);
    std::cout << "simd: "
              << util::simd::levelName(util::simd::activeLevel()) << "\n"
              << "threads: " << benchThreads() << "\n";
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fail(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseCount(arg, value());
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--cache-dir") {
            opt.cache_dir = value();
        } else if (arg == "--trace-out") {
            opt.trace_out = value();
        } else if (arg == "--record-golden") {
            opt.record_golden = true;
        } else if (arg == "--build-info") {
            printBuildInfo();
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            fail("unknown argument '" + arg + "' (see --help)");
        }
    }
    if (opt.record_golden)
        return opt;
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  opt.workload) == std::end(kWorkloads))
        fail("--workload must name one of the four workloads, got '" +
             opt.workload + "'");
    if (opt.workload == "prefix_sweep" && opt.cache_dir.empty())
        fail("prefix_sweep needs --cache-dir (a fresh directory)");
    return opt;
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and cell id, kept in memory and
// written as Chrome trace JSON by traced passes.

struct Span
{
    const char *name = "";
    int parent = -1;
    int cell = -1;
    int tid = 0;
    double start = 0.0; //!< seconds since the pass began
    double end = 0.0;
    double count = 0.0; //!< a count taken at the same boundary
};

class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    int
    open(const char *name, int cell)
    {
        const double start = now();
        std::vector<int> &stack = threadStack();
        std::lock_guard<std::mutex> lock(mutex_);
        Span span;
        span.name = name;
        // A span opened on a pool worker with nothing open parents to
        // the region that submitted the work.
        span.parent = stack.empty() ? root_ : stack.back();
        span.cell = cell;
        span.tid = threadId();
        span.start = start;
        span.end = start;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(span);
        stack.push_back(id);
        return id;
    }

    void
    close(int id, double count)
    {
        const double end = now();
        threadStack().pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = end;
        span.count = count;
    }

    /** Parent for spans opened on threads with no open span. */
    void
    setRoot(int id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        root_ = id;
    }

    /** Seconds since the log was created (the pass's time origin). */
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    /** All spans; call only once every thread has finished. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    static std::vector<int> &
    threadStack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    static int
    threadId()
    {
        static std::atomic<int> next{0};
        thread_local const int id = next.fetch_add(1);
        return id;
    }

    Clock::time_point epoch_;
    std::mutex mutex_; //!< guards spans_ and root_
    std::vector<Span> spans_;
    int root_ = -1;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, int cell = -1)
        : log_(log), id_(log.open(name, cell))
    {
    }

    ~ScopedSpan() { log_.close(id_, count_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }
    void setCount(double count) { count_ = count; }

  private:
    SpanLog &log_;
    int id_;
    double count_ = 0.0;
};

template <typename Fn>
auto
timed(SpanLog &log, const char *name, int cell, Fn &&fn)
{
    ScopedSpan span(log, name, cell);
    return fn();
}

/** Per-name span time: total duration and self time (minus children). */
struct SpanTotals
{
    double total = 0.0;
    double self = 0.0;
};

std::map<std::string, SpanTotals>
summarizeSpans(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)]
                .push_back(static_cast<int>(i));
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        // Children on worker threads overlap each other, so self time
        // subtracts the union of their intervals, clipped to the span.
        std::vector<std::pair<double, double>> covered;
        for (int c : children[i]) {
            const Span &child = spans[static_cast<std::size_t>(c)];
            covered.emplace_back(std::max(child.start, span.start),
                                 std::min(child.end, span.end));
        }
        std::sort(covered.begin(), covered.end());
        double union_s = 0.0;
        double reach = span.start;
        for (const auto &[lo, hi] : covered) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                union_s += hi - from;
                reach = hi;
            }
        }
        SpanTotals &totals = out[span.name];
        totals.total += span.end - span.start;
        totals.self += span.end - span.start - union_s;
    }
    return out;
}

// ---------------------------------------------------------------------
// Cells: one simulated result each.

/** One machine simulation of a workload. */
struct MachineJob
{
    /** Golden key; it names the seed only when the mapping uses it. */
    std::string id;
    machine::MachineConfig config;
    const workload::Mapping *mapping = nullptr;
    std::uint64_t warmup = 0;
    std::uint64_t window = 0;
};

/** What a pass reports about one simulated result. */
struct CellResult
{
    std::string id;
    std::string digest; //!< SHA-256 of the result bytes
    /** Non-empty when the cell threw or broke coherence. */
    std::string error;
    /** False for replayed results (counted once, on first delivery). */
    bool counted = true;
    double node_cycles = 0.0; //!< delivered node x network cycles
    /**
     * Node x network cycles this pass simulated for the result: less
     * than node_cycles when the warmup was restored from a prefix
     * image, 0 when the result came from the cache.
     */
    double simulated_node_cycles = 0.0;
    double err_pct = -1.0; //!< |model - sim| / sim in %; < 0: none

    bool coherent = false; //!< has a coherence layer (machine cells)
    machine::Measurement m;
    double rho = 0.0, t_m = 0.0, t_ser = 0.0, t_hop = 0.0, t_cont = 0.0;
    double messages = 0.0, transactions = 0.0;

    double skipped_ticks = 0.0, alloc_stalls = 0.0, remote_wakes = 0.0;
    double bytes_per_node = 0.0;
};

std::uint64_t
scaled(std::uint64_t cycles, bool smoke)
{
    return smoke ? cycles / 10 : cycles;
}

/** Node x network cycles of @p cycles processor cycles of a machine. */
double
nodeCycles(const machine::MachineConfig &config, std::uint64_t cycles)
{
    return std::pow(config.radix, config.dims) * config.net_clock_ratio *
           static_cast<double>(cycles);
}

std::string
machineCellId(int radix, int contexts, const std::string &mapping,
              std::uint64_t warmup, std::uint64_t window)
{
    return "m" + std::to_string(radix) + "/p" +
           std::to_string(contexts) + "/" + mapping + "/" +
           std::to_string(warmup) + "+" + std::to_string(window);
}

std::string
mappingId(const std::string &name, std::uint64_t seed)
{
    return name == "random" ? "random." + std::to_string(seed) : name;
}

void
describeAttribution(
    CellResult &out,
    const std::array<net::ClassAttribution, net::kMessageClassCount>
        &attribution)
{
    double count = 0.0, ser = 0.0, hops = 0.0, cont = 0.0;
    for (const net::ClassAttribution &a : attribution) {
        count += static_cast<double>(a.count);
        ser += a.serialization;
        hops += a.hops;
        cont += a.contention;
    }
    if (count > 0.0) {
        out.t_ser = ser / count;
        out.t_hop = hops / count;
        out.t_cont = cont / count;
    }
}

/** Digest and simulated-side fields of a finished machine cell. */
void
describeMeasurement(CellResult &out, const MachineJob &job,
                    const machine::Measurement &m)
{
    util::Serializer s;
    machine::saveMeasurement(s, m);
    out.digest = util::Sha256::hashHex(s.buffer());
    out.coherent = true;
    out.m = m;
    out.rho = m.utilization;
    out.t_m = m.message_latency;
    out.messages = static_cast<double>(m.messages);
    out.transactions = static_cast<double>(m.transactions);
    describeAttribution(out, m.attribution);
    out.node_cycles = nodeCycles(job.config, job.warmup + job.window);
    out.simulated_node_cycles = out.node_cycles;
    if (m.violations != 0)
        out.error = "coherence violations: " +
                    std::to_string(m.violations);
}

/** Host-side counters read off a live machine. */
void
readMachine(CellResult &out, machine::Machine &m)
{
    const double nodes = m.network().topology().nodeCount();
    out.bytes_per_node = static_cast<double>(m.memoryBytes()) / nodes;
    out.skipped_ticks = static_cast<double>(m.engine().skippedTicks());
    out.alloc_stalls = static_cast<double>(m.network().totalAllocStalls());
    out.remote_wakes = static_cast<double>(m.network().totalRemoteWakes());
}

/** Everything one pass collects. */
struct Pass
{
    Pass(const Options &o, obs::Profiler *p) : opt(o), profiler(p) {}

    const Options &opt;
    obs::Profiler *profiler; //!< null on untraced passes
    SpanLog log;
    std::vector<CellResult> cells;
    /** Node x network cycles simulated to produce prefix images. */
    double prefix_node_cycles = 0.0;
    /** Workload-specific layer metrics (cache, checkpoint sizes). */
    std::map<std::string, double> layer;
};

/** The configs of the Section 3 validation grid, at one window. */
std::vector<MachineJob>
validationJobs(const std::vector<workload::NamedMapping> &family,
               std::uint64_t seed, std::uint64_t warmup,
               std::uint64_t window)
{
    std::vector<MachineJob> jobs;
    for (int contexts : kGridContexts) {
        for (const workload::NamedMapping &named : family) {
            MachineJob job;
            job.config.radix = kGridRadix;
            job.config.contexts = contexts;
            job.mapping = &named.mapping;
            job.warmup = warmup;
            job.window = window;
            job.id = machineCellId(kGridRadix, contexts,
                                   mappingId(named.name, seed), warmup,
                                   window);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::vector<workload::NamedMapping>
validationFamily(std::uint64_t seed)
{
    const net::TorusTopology topo(kGridRadix, 2);
    return workload::experimentMappings(topo, seed);
}

/** Scaling cells own their mappings; jobs point into `mappings`. */
struct ScalingInputs
{
    std::vector<workload::Mapping> mappings;
    std::vector<MachineJob> jobs;
};

ScalingInputs
scalingInputs(std::uint64_t seed, bool smoke)
{
    ScalingInputs in;
    for (int radix : kScalingRadixes) {
        const auto nodes = static_cast<std::uint32_t>(radix * radix);
        in.mappings.push_back(workload::Mapping::identity(nodes));
        in.mappings.push_back(workload::Mapping::random(nodes, seed));
    }
    std::size_t next = 0;
    for (int radix : kScalingRadixes) {
        for (const char *name : {"identity", "random"}) {
            MachineJob job;
            job.config.radix = radix;
            job.mapping = &in.mappings[next++];
            job.warmup = scaled(kScalingWarmup, smoke);
            job.window = scaled(kScalingWindow, smoke);
            job.id = machineCellId(radix, 1, mappingId(name, seed),
                                   job.warmup, job.window);
            in.jobs.push_back(std::move(job));
        }
    }
    return in;
}

/** Construct, warm and measure one machine the straight way. */
CellResult
runStraight(Pass &pass, const MachineJob &job, int cell, int shards)
{
    ScopedSpan span(pass.log, "cell", cell);
    CellResult out;
    out.id = job.id;
    try {
        machine::MachineConfig config = job.config;
        config.shards = shards;
        config.profiler = pass.profiler;
        const auto m = timed(pass.log, "machine.ctor", cell, [&] {
            return std::make_unique<machine::Machine>(config,
                                                      *job.mapping);
        });
        timed(pass.log, "machine.advance", cell,
              [&] { m->advance(job.warmup); });
        const machine::Measurement meas =
            timed(pass.log, "machine.measure", cell,
                  [&] { return m->measure(job.window); });
        readMachine(out, *m);
        describeMeasurement(out, job, meas);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

/** runner::parallelMap with a region span the cell spans hang off. */
template <typename Fn>
std::vector<CellResult>
mapCells(Pass &pass, std::size_t count, Fn &&fn)
{
    ScopedSpan region(pass.log, "runner.parallelMap");
    pass.log.setRoot(region.id());
    auto results =
        runner::parallelMap(count, std::forward<Fn>(fn), pass.opt.threads);
    pass.log.setRoot(-1);
    return results;
}

/**
 * True when the measurement meets the calibration's preconditions,
 * which the library asserts (aborting). Smoke-sized windows can
 * miss them: a handful of transactions gives g < c or a negative T_f.
 */
bool
calibratable(const CellResult &cell)
{
    const machine::Measurement &m = cell.m;
    return cell.coherent && m.transactions > 0 && m.message_rate > 0.0 &&
           m.txn_rate > 0.0 && m.critical_messages > 0.0 &&
           m.messages_per_txn >= m.critical_messages &&
           m.fitted_fixed_overhead >= 0.0;
}

/** r_m error of the model calibrated from the cell's own measurement. */
void
predictRate(Pass &pass, CellResult &cell, int contexts, int index)
{
    if (!calibratable(cell))
        return;
    const model::Prediction pred =
        timed(pass.log, "model.predict", index, [&] {
            return machine::predictFromMeasurement(cell.m, contexts,
                                                   cell.m.avg_hops);
        });
    cell.err_pct = 100.0 *
                   std::fabs(pred.injection_rate - cell.m.message_rate) /
                   cell.m.message_rate;
}

// ---------------------------------------------------------------------
// The four workloads.

void
runValidationGrid(Pass &pass)
{
    const bool smoke = pass.opt.smoke;
    const std::vector<workload::NamedMapping> family =
        timed(pass.log, "inputs", -1,
              [&] { return validationFamily(pass.opt.seed); });
    const std::vector<MachineJob> cells =
        validationJobs(family, pass.opt.seed, scaled(kGridWarmup, smoke),
                       scaled(kGridWindow, smoke));
    pass.cells = mapCells(pass, cells.size(), [&](std::size_t i) {
        return runStraight(pass, cells[i], static_cast<int>(i), 1);
    });
    for (std::size_t i = 0; i < cells.size(); ++i)
        predictRate(pass, pass.cells[i], cells[i].config.contexts,
                    static_cast<int>(i));
}

void
runScalingSweep(Pass &pass)
{
    const ScalingInputs in = timed(pass.log, "inputs", -1, [&] {
        return scalingInputs(pass.opt.seed, pass.opt.smoke);
    });
    for (std::size_t i = 0; i < in.jobs.size(); ++i) {
        pass.cells.push_back(runStraight(pass, in.jobs[i],
                                         static_cast<int>(i),
                                         scalingShards(pass.opt)));
    }
    // Locality gain r_t(identity) / r_t(random), against the model
    // calibrated from the identity run at both distances (the
    // scaling_check methodology); the error lands on the random cell.
    for (std::size_t i = 0; i + 1 < pass.cells.size(); i += 2) {
        const CellResult &ideal = pass.cells[i];
        CellResult &random = pass.cells[i + 1];
        if (!calibratable(ideal) || !calibratable(random))
            continue;
        const auto [p_ideal, p_random] =
            timed(pass.log, "model.predict", static_cast<int>(i), [&] {
                return std::make_pair(
                    machine::predictFromMeasurement(ideal.m, 1,
                                                    ideal.m.avg_hops),
                    machine::predictFromMeasurement(ideal.m, 1,
                                                    random.m.avg_hops));
            });
        const double gain_sim = ideal.m.txn_rate / random.m.txn_rate;
        const double gain_model = p_ideal.txn_rate / p_random.txn_rate;
        random.err_pct =
            100.0 * std::fabs(gain_model - gain_sim) / gain_sim;
    }
}

/** Bytes this process has passed through read(2) so far (Linux rchar). */
std::uint64_t
bytesReadSoFar()
{
    std::ifstream io("/proc/self/io");
    std::string field;
    std::uint64_t value = 0;
    while (io >> field >> value) {
        if (field == "rchar:")
            return value;
    }
    throw std::runtime_error("cannot read rchar from /proc/self/io");
}

void
runPrefixSweep(Pass &pass)
{
    namespace fs = std::filesystem;
    const bool smoke = pass.opt.smoke;
    const fs::path dir = pass.opt.cache_dir;
    std::error_code ec;
    if (fs::exists(dir, ec) && !fs::is_empty(dir, ec))
        fail("--cache-dir must be fresh (missing or empty): " +
             dir.string());

    // Set-up: every phase's jobs with their result keys, the cache, and
    // the planner's list of the prefixes a cold sweep must produce.
    struct Phase
    {
        std::vector<MachineJob> jobs;
        std::vector<std::string> keys;
        bool replay = false;
    };
    const std::vector<workload::NamedMapping> family =
        timed(pass.log, "inputs", -1,
              [&] { return validationFamily(pass.opt.seed); });
    const std::vector<Phase> phases = timed(pass.log, "inputs", -1, [&] {
        std::vector<std::uint64_t> all = kPrefixColdWindows;
        all.insert(all.end(), kPrefixExtendWindows.begin(),
                   kPrefixExtendWindows.end());
        std::vector<Phase> out;
        for (const auto &[windows, replay] :
             {std::make_pair(kPrefixColdWindows, false),
              std::make_pair(kPrefixExtendWindows, false),
              std::make_pair(all, true)}) {
            // Window-major, so the first 27 jobs produce the 27 prefixes
            // in parallel and every later job restores one.
            Phase phase;
            phase.replay = replay;
            for (std::uint64_t window : windows) {
                for (MachineJob &job : validationJobs(
                         family, pass.opt.seed, scaled(kPrefixWarmup, smoke),
                         scaled(window, smoke))) {
                    job.config.shards = 1;
                    phase.keys.push_back(cache::simKey(
                        job.config, *job.mapping, job.warmup, job.window));
                    phase.jobs.push_back(std::move(job));
                }
            }
            out.push_back(std::move(phase));
        }
        return out;
    });
    auto store = timed(pass.log, "cache.open", -1, [&] {
        return std::make_unique<cache::SimCache>(dir.string());
    });
    if (pass.profiler != nullptr)
        store->setProfileSlot(&pass.profiler->hostSlot());
    const cache::PrefixPlanner planner(*store, cache::PrefixOptions{});
    const std::size_t planned = timed(pass.log, "cache.plan", -1, [&] {
        std::vector<cache::PrefixPoint> points;
        for (const Phase &phase : phases) {
            for (const MachineJob &job : phase.jobs)
                points.push_back({&job.config, job.mapping, job.warmup});
        }
        return planner.distinctPrefixes(points).size();
    });

    std::map<std::string, std::string> first_digest;
    // Cached results and prefix images are the only files the sweep
    // reads, so the process's read(2) count over it is what it read
    // from the cache.
    const std::uint64_t read_before = bytesReadSoFar();
    int next_cell = 0;
    for (const Phase &phase : phases) {
        const std::vector<MachineJob> &jobs = phase.jobs;
        const int base = next_cell;
        next_cell += static_cast<int>(jobs.size());
        std::vector<CellResult> results =
            mapCells(pass, jobs.size(), [&](std::size_t i) {
                const MachineJob &job = jobs[i];
                const int cell = base + static_cast<int>(i);
                ScopedSpan span(pass.log, "cell", cell);
                CellResult out;
                out.id = job.id;
                try {
                    machine::MachineConfig config = job.config;
                    config.profiler = pass.profiler;
                    const std::string &key = phase.keys[i];
                    bool computed = false;
                    ScopedSpan get(pass.log, "cache.getOrRun", cell);
                    const std::vector<std::uint8_t> payload =
                        store->getOrRun(key, [&] {
                            computed = true;
                            const auto m = timed(
                                pass.log, "cache.prefix_warm", cell, [&] {
                                    return planner.warmMachine(
                                        config, *job.mapping, job.warmup);
                                });
                            const machine::Measurement meas = timed(
                                pass.log, "machine.measure", cell,
                                [&] { return m->measure(job.window); });
                            readMachine(out, *m);
                            util::Serializer s;
                            machine::saveMeasurement(s, meas);
                            return s.takeBuffer();
                        });
                    get.setCount(static_cast<double>(payload.size()));
                    util::Deserializer d(payload);
                    const machine::Measurement meas =
                        machine::loadMeasurement(d);
                    if (!d.atEnd())
                        throw std::runtime_error(
                            "trailing bytes in a cached result");
                    describeMeasurement(out, job, meas);
                    // The warmups simulated for prefix images are
                    // counted once, below.
                    out.simulated_node_cycles =
                        computed ? nodeCycles(job.config, job.window) : 0.0;
                } catch (const std::exception &e) {
                    out.error = e.what();
                }
                return out;
            });
        for (std::size_t i = 0; i < results.size(); ++i) {
            CellResult &cell = results[i];
            if (phase.replay) {
                // A replayed result is the one first delivered, served
                // from disk: same bytes, and counted only once.
                cell.counted = false;
                const auto it = first_digest.find(cell.id);
                if (cell.error.empty() &&
                    (it == first_digest.end() || it->second != cell.digest))
                    cell.error = "replayed result differs from the "
                                 "computed one";
            } else {
                first_digest[cell.id] = cell.digest;
                predictRate(pass, cell, jobs[i].config.contexts,
                            base + static_cast<int>(i));
            }
            pass.cells.push_back(std::move(cell));
        }
    }
    const std::uint64_t bytes_read = bytesReadSoFar() - read_before;

    const cache::CacheStats stats = store->stats();
    // Each prefix miss simulated a whole warmup (no rungs below it).
    pass.prefix_node_cycles =
        static_cast<double>(stats.prefix_misses) *
        nodeCycles(phases.front().jobs.front().config,
                   scaled(kPrefixWarmup, smoke));
    if (stats.prefix_stores != planned) {
        // The planner's contract: a cold sweep stores each planned
        // prefix exactly once, however many workers ask for it.
        CellResult plan;
        plan.id = "prefix_sweep/plan";
        plan.counted = false;
        plan.error = "stored " + std::to_string(stats.prefix_stores) +
                     " prefix images, planned " + std::to_string(planned);
        pass.cells.push_back(std::move(plan));
    }
    std::uint64_t written = 0, ckpt_bytes = 0, ckpt_files = 0;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        written += entry.file_size();
        if (entry.path().extension() == ".ckpt") {
            ckpt_bytes += entry.file_size();
            ++ckpt_files;
        }
    }
    const double image = ckpt_files > 0 ? static_cast<double>(ckpt_bytes) /
                                              static_cast<double>(ckpt_files)
                                        : 0.0;
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    pass.layer["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0;
    pass.layer["cache.prefix_hits"] = static_cast<double>(stats.prefix_hits);
    pass.layer["cache.prefix_stores"] =
        static_cast<double>(stats.prefix_stores);
    pass.layer["cache.bytes_written"] = static_cast<double>(written);
    pass.layer["cache.bytes_read"] = static_cast<double>(bytes_read);
    pass.layer["machine.ckpt_bytes_per_node"] =
        image / (kGridRadix * kGridRadix);
}

/**
 * One open-loop cell: Bernoulli uniform traffic on a torus at @p rate,
 * from traffic stream @p stream of the pass's seed.
 */
CellResult
runOpenLoopCell(Pass &pass, double rate, int stream, int cell)
{
    // The golden recorder runs this same code: one engine on one
    // thread is already the plain path.
    SpanLog &log = pass.log;
    ScopedSpan span(log, "cell", cell);
    const std::uint64_t seed = pass.opt.seed;
    const std::uint64_t cycles = scaled(kNetCycles, pass.opt.smoke);
    const std::uint64_t warmup = cycles / 4;
    CellResult out;
    char rate_text[32];
    std::snprintf(rate_text, sizeof rate_text, "%g", rate);
    out.id = "net" + std::to_string(kNetRadix) + "/rate" + rate_text +
             "/seed" + std::to_string(seed) + "." + std::to_string(stream) +
             "/" + std::to_string(warmup) + "+" + std::to_string(cycles);
    try {
        sim::Engine engine;
        net::NetworkConfig config;
        config.radix = kNetRadix;
        config.dims = 2;
        const auto network = timed(log, "net.ctor", cell, [&] {
            return std::make_unique<net::Network>(engine, config);
        });
        engine.addClocked(network.get(), 1);
        if (pass.profiler != nullptr) {
            engine.setProfiler(&pass.profiler->slot(0, 0));
            network->setProfiler(pass.profiler, 0);
        }
        net::TrafficConfig traffic;
        traffic.injection_rate = rate;
        traffic.message_flits = kNetFlits;
        traffic.seed = seed * kNetStreams + static_cast<std::uint64_t>(stream);
        net::TrafficGenerator gen(*network, traffic);
        engine.addClocked(&gen, 1);

        timed(log, "engine.run", cell, [&] { engine.run(warmup); });
        network->resetStats();
        timed(log, "engine.run", cell, [&] { engine.run(cycles); });

        const net::NetworkStats &stats = network->stats();
        util::Serializer s;
        stats.saveState(s);
        out.digest = util::Sha256::hashHex(s.buffer());
        const double nodes = kNetRadix * kNetRadix;
        out.node_cycles = nodes * static_cast<double>(warmup + cycles);
        out.simulated_node_cycles = out.node_cycles;
        out.rho = network->channelUtilization();
        out.t_m = stats.latency.mean();
        out.messages = static_cast<double>(stats.messages_delivered);
        describeAttribution(out, stats.attribution);
        out.skipped_ticks = static_cast<double>(engine.skippedTicks());
        out.alloc_stalls = static_cast<double>(network->totalAllocStalls());
        if (stats.messages_delivered == 0)
            throw std::runtime_error("no message delivered");

        // Section 2.4's network model at the measured distance.
        const model::Prediction pred = timed(log, "model.predict", cell, [&] {
            model::NetworkParams params;
            params.dims = 2;
            params.message_flits = kNetFlits;
            params.node_channel_contention = false;
            const model::TorusNetworkModel net_model(params);
            model::Prediction p;
            p.message_latency =
                net_model.messageLatency(rate, stats.hops.mean() / 2.0);
            return p;
        });
        out.err_pct = 100.0 * std::fabs(pred.message_latency - out.t_m) /
                      out.t_m;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

void
runOpenLoopNet(Pass &pass)
{
    constexpr std::size_t kCells = std::size(kNetRates) * kNetStreams;
    pass.cells = mapCells(pass, kCells, [&](std::size_t i) {
        return runOpenLoopCell(pass, kNetRates[i / kNetStreams],
                               static_cast<int>(i % kNetStreams),
                               static_cast<int>(i));
    });
}

// ---------------------------------------------------------------------
// Metrics.

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct HostTimes
{
    double wall = 0.0;
    double cpu = 0.0;
    double peak_rss_mb = 0.0;
};

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Phase seconds by the profiler's own names (absent phases read 0). */
std::map<std::string, double>
phaseSeconds(const obs::PhaseTotals &totals)
{
    std::map<std::string, double> out;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        out[obs::phaseName(static_cast<obs::Phase>(p))] =
            static_cast<double>(totals.ns[static_cast<std::size_t>(p)]) *
            1e-9;
    }
    return out;
}

std::map<std::string, double>
passMetrics(const Pass &pass, const HostTimes &host)
{
    std::map<std::string, double> out = pass.layer;
    const std::vector<Span> &spans = pass.log.spans();
    const std::map<std::string, SpanTotals> totals = summarizeSpans(spans);
    auto total = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total;
    };

    // End to end.
    double setup = 0.0;
    for (const char *name : kSetupSpans)
        setup += total(name);
    double node_cycles = 0.0, simulated = pass.prefix_node_cycles;
    double err_sum = 0.0;
    int errs = 0;
    for (const CellResult &c : pass.cells) {
        if (c.counted)
            node_cycles += c.node_cycles;
        simulated += c.simulated_node_cycles;
        if (c.err_pct >= 0.0) {
            err_sum += c.err_pct;
            ++errs;
        }
    }
    out["wall_s"] = host.wall;
    out["cpu_s"] = host.cpu;
    out["setup_s"] = setup;
    out["peak_rss_mb"] = host.peak_rss_mb;
    out["node_cycles"] = node_cycles;
    out["node_cycles_per_s"] = host.wall > 0 ? node_cycles / host.wall : 0;
    out["model_err_pct"] = errs > 0 ? err_sum / errs : 0.0;

    // Runner: per-cell time, and how long cells queued behind a pool.
    std::vector<double> cell_s;
    double queue_wait = 0.0, busy = 0.0, capacity = 0.0;
    for (const Span &span : spans) {
        const std::string name = span.name;
        const double duration = span.end - span.start;
        if (name == "runner.parallelMap")
            capacity += pass.opt.threads * duration;
        if (name != "cell")
            continue;
        cell_s.push_back(duration);
        if (span.parent >= 0) {
            const Span &parent = spans[static_cast<std::size_t>(span.parent)];
            if (std::string(parent.name) == "runner.parallelMap") {
                queue_wait += span.start - parent.start;
                busy += duration;
            }
        }
    }
    out["runner.cell_s_p50"] = median(cell_s);
    out["runner.cell_s_max"] =
        cell_s.empty() ? 0.0 : *std::max_element(cell_s.begin(), cell_s.end());
    out["runner.queue_wait_s"] = queue_wait;
    out["runner.busy_share"] = capacity > 0 ? busy / capacity : 0.0;

    // Machine and cache calls, timed from outside.
    out["machine.construct_s"] = total("machine.ctor");
    out["machine.advance_s"] = total("machine.advance");
    out["machine.measure_s"] = total("machine.measure");
    const auto get = totals.find("cache.getOrRun");
    out["cache.get_self_s"] = get == totals.end() ? 0.0 : get->second.self;
    out["cache.prefix_warm_s"] = total("cache.prefix_warm");
    for (const char *name :
         {"machine.ckpt_bytes_per_node", "cache.hit_ratio",
          "cache.prefix_hits", "cache.prefix_stores", "cache.bytes_written",
          "cache.bytes_read"})
        out.emplace(name, 0.0);
    out["model.predict_s"] = total("model.predict");

    // Simulated side and host counters, over results first delivered.
    double bytes_per_node = 0.0, skipped = 0.0, stalls = 0.0, wakes = 0.0;
    double rho = 0.0, t_m = 0.0, t_ser = 0.0, t_hop = 0.0, t_cont = 0.0;
    double messages = 0.0, transactions = 0.0, hit = 0.0;
    int counted = 0, coherent = 0;
    for (const CellResult &c : pass.cells) {
        if (!c.counted || !c.error.empty())
            continue;
        ++counted;
        bytes_per_node = std::max(bytes_per_node, c.bytes_per_node);
        skipped += c.skipped_ticks;
        stalls += c.alloc_stalls;
        wakes += c.remote_wakes;
        rho += c.rho;
        t_m += c.t_m;
        t_ser += c.t_ser;
        t_hop += c.t_hop;
        t_cont += c.t_cont;
        messages += c.messages;
        transactions += c.transactions;
        if (c.coherent) {
            hit += c.m.hit_rate;
            ++coherent;
        }
    }
    const double n = counted > 0 ? counted : 1.0;
    out["machine.bytes_per_node"] = bytes_per_node;
    out["sim.skipped_ticks"] = skipped;
    out["net.alloc_stalls"] = stalls;
    out["net.remote_wakes"] = wakes;
    out["coher.hit_rate"] = coherent > 0 ? hit / coherent : 0.0;
    out["sim.rho"] = rho / n;
    out["sim.T_m"] = t_m / n;
    out["sim.T_ser"] = t_ser / n;
    out["sim.T_hop"] = t_hop / n;
    out["sim.T_cont"] = t_cont / n;
    out["sim.messages"] = messages;
    out["sim.transactions"] = transactions;

    if (pass.profiler == nullptr)
        return out;

    // The library's own phase split (traced passes only). Dispatch
    // includes the router scans and coherence ticks it runs, and the
    // scan includes the vector kernel, so both report self time.
    std::map<std::string, double> ph = phaseSeconds(pass.profiler->totals());
    out["host.engine_self_s"] = std::max(
        0.0, ph["engine_dispatch"] - ph["router_scan"] - ph["coherence"]);
    out["host.router_scan_s"] =
        std::max(0.0, ph["router_scan"] - ph["router_kernel"]);
    out["host.router_kernel_s"] = ph["router_kernel"];
    out["host.link_rotation_s"] = ph["link_rotation"];
    out["host.quiescence_s"] = ph["quiescence"];
    out["host.coherence_s"] = ph["coherence"];
    out["host.barrier_wait_s"] = ph["barrier_wait"];
    out["machine.ckpt_save_s"] = ph["checkpoint_save"];
    out["machine.ckpt_restore_s"] = ph["checkpoint_restore"];
    out["net.ns_per_node_cycle"] =
        simulated > 0
            ? (ph["router_scan"] + ph["link_rotation"]) * 1e9 / simulated
            : 0.0;

    // Shard balance: thread time per shard, barrier waits included.
    const int shards = pass.profiler->shards();
    double barrier_share = 0.0, imbalance = 0.0;
    if (shards > 1) {
        std::vector<double> busy_by_shard;
        double thread_time = 0.0;
        for (int s = 0; s < shards; ++s) {
            std::map<std::string, double> sp =
                phaseSeconds(pass.profiler->shardTotals(s));
            const double shard_busy =
                sp["engine_dispatch"] + sp["link_rotation"] + sp["quiescence"];
            busy_by_shard.push_back(shard_busy);
            thread_time += shard_busy + sp["barrier_wait"];
        }
        double mean = 0.0;
        for (double b : busy_by_shard)
            mean += b / shards;
        barrier_share =
            thread_time > 0 ? ph["barrier_wait"] / thread_time : 0.0;
        imbalance = mean > 0 ? *std::max_element(busy_by_shard.begin(),
                                                 busy_by_shard.end()) /
                                   mean
                             : 0.0;
    }
    out["host.barrier_share"] = barrier_share;
    out["host.shard_imbalance"] = imbalance;
    return out;
}

// ---------------------------------------------------------------------
// Output.

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
writeResult(std::ostream &os, const Pass &pass,
            const std::map<std::string, double> &metrics)
{
    os << "{\"workload\": " << jsonString(pass.opt.workload)
       << ", \"seed\": " << pass.opt.seed
       << ", \"threads\": " << pass.opt.threads
       << ", \"smoke\": " << (pass.opt.smoke ? "true" : "false")
       << ", \"traced\": " << (pass.profiler != nullptr ? "true" : "false")
       << ", \"build_type\": " << jsonString(obs::buildType())
       << ", \"cells\": [";
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const CellResult &c = pass.cells[i];
        os << (i > 0 ? ", " : "") << "{\"id\": " << jsonString(c.id)
           << ", \"digest\": " << jsonString(c.digest)
           << ", \"error\": " << jsonString(c.error)
           << ", \"model_err_pct\": " << jsonNumber(c.err_pct) << "}";
    }
    os << "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        os << (first ? "" : ", ") << jsonString(name) << ": "
           << jsonNumber(value);
        first = false;
    }
    os << "}}\n";
}

/** The spans as Chrome trace_event JSON (chrome://tracing, Perfetto). */
void
writeChromeTrace(const Pass &pass,
                 const std::map<std::string, double> &metrics)
{
    std::ofstream os(pass.opt.trace_out);
    if (!os)
        fail("cannot write --trace-out file '" + pass.opt.trace_out + "'");
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    const std::vector<Span> &spans = pass.log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i > 0 ? "," : "") << "\n{\"name\": " << jsonString(s.name)
           << ", \"cat\": \"locsim_bench\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << s.tid
           << ", \"ts\": " << jsonNumber(s.start * 1e6)
           << ", \"dur\": " << jsonNumber((s.end - s.start) * 1e6)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"cell\": " << s.cell
           << ", \"count\": " << jsonNumber(s.count) << "}}";
    }
    os << "\n], \"otherData\": {\"workload\": "
       << jsonString(pass.opt.workload) << ", \"seed\": " << pass.opt.seed;
    for (const auto &[name, value] : metrics)
        os << ", " << jsonString(name) << ": " << jsonNumber(value);
    os << "}}\n";
    if (!os)
        fail("failed writing --trace-out file '" + pass.opt.trace_out + "'");
}

int
runPass(const Options &opt)
{
    std::unique_ptr<obs::Profiler> profiler;
    if (!opt.trace_out.empty()) {
        const int shards =
            opt.workload == "scaling_sweep" ? scalingShards(opt) : 1;
        profiler = std::make_unique<obs::Profiler>(shards, 1);
    }
    Pass pass(opt, profiler.get());
    const double cpu_start = cpuSeconds();
    if (opt.workload == "validation_grid")
        runValidationGrid(pass);
    else if (opt.workload == "scaling_sweep")
        runScalingSweep(pass);
    else if (opt.workload == "prefix_sweep")
        runPrefixSweep(pass);
    else
        runOpenLoopNet(pass);
    HostTimes host;
    host.wall = pass.log.now();
    host.cpu = cpuSeconds() - cpu_start;
    host.peak_rss_mb = peakRssMb();

    const std::map<std::string, double> metrics = passMetrics(pass, host);
    if (!opt.trace_out.empty())
        writeChromeTrace(pass, metrics);
    writeResult(std::cout, pass, metrics);
    return 0;
}

// ---------------------------------------------------------------------
// Goldens: every cell of every workload, full size and smoke size,
// through the plain path (one thread, one shard, no cache).

std::string
plainDigest(const MachineJob &job)
{
    machine::MachineConfig config = job.config;
    config.shards = 1;
    machine::Machine m(config, *job.mapping);
    const machine::Measurement meas = m.run(job.warmup, job.window);
    util::Serializer s;
    machine::saveMeasurement(s, meas);
    return util::Sha256::hashHex(s.buffer());
}

int
recordGolden(const Options &opt)
{
    std::map<std::string, std::string> digests;
    const std::vector<workload::NamedMapping> family =
        validationFamily(opt.seed);
    for (bool smoke : {false, true}) {
        std::vector<MachineJob> jobs =
            validationJobs(family, opt.seed, scaled(kGridWarmup, smoke),
                           scaled(kGridWindow, smoke));
        std::vector<std::uint64_t> windows = kPrefixColdWindows;
        windows.insert(windows.end(), kPrefixExtendWindows.begin(),
                       kPrefixExtendWindows.end());
        for (std::uint64_t window : windows) {
            for (MachineJob &job :
                 validationJobs(family, opt.seed, scaled(kPrefixWarmup, smoke),
                                scaled(window, smoke)))
                jobs.push_back(std::move(job));
        }
        const ScalingInputs scaling = scalingInputs(opt.seed, smoke);
        jobs.insert(jobs.end(), scaling.jobs.begin(), scaling.jobs.end());
        for (const MachineJob &job : jobs) {
            digests[job.id] = plainDigest(job);
            std::cerr << "golden " << job.id << "\n";
        }
        Options net_opt = opt;
        net_opt.smoke = smoke;
        Pass net_pass(net_opt, nullptr);
        for (double rate : kNetRates) {
            for (int stream = 0; stream < kNetStreams; ++stream) {
                const CellResult cell =
                    runOpenLoopCell(net_pass, rate, stream, 0);
                if (!cell.error.empty())
                    fail("golden cell " + cell.id + " failed: " + cell.error);
                digests[cell.id] = cell.digest;
            }
        }
    }
    std::ostream &os = std::cout;
    os << "{\n  \"seed\": " << opt.seed
       << ",\n  \"path\": \"plain: Machine::run per cell, one thread, one "
          "shard, no cache\",\n  \"build_type\": "
       << jsonString(obs::buildType()) << ",\n  \"cells\": {";
    bool first = true;
    for (const auto &[id, digest] : digests) {
        os << (first ? "" : ",") << "\n    " << jsonString(id) << ": "
           << jsonString(digest);
        first = false;
    }
    os << "\n  }\n}\n" << std::flush;
    if (!os)
        fail("failed writing the golden digests");
    std::cerr << "recorded " << digests.size() << " golden digests\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        return opt.record_golden ? recordGolden(opt) : runPass(opt);
    } catch (const std::exception &e) {
        fail(e.what());
    }
}
