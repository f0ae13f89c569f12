/**
 * @file
 * Machine implementation, including the sharded lockstep driver.
 */

#include "machine/machine.hh"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string>

#include "obs/counters.hh"
#include "sim/barrier.hh"
#include "util/logging.hh"

namespace locsim {
namespace machine {

namespace {

/**
 * Resolve MachineConfig::shards against the machine size: explicit
 * values are validated (fatal on nonsense), 0 consults LOCSIM_SHARDS
 * (clamped to the node count so small test machines still run under
 * an env-forced shard count), default 1.
 */
int
resolveShards(const MachineConfig &config, sim::NodeId nodes)
{
    const int node_count = static_cast<int>(nodes);
    if (config.shards != 0) {
        if (config.shards < 1)
            LOCSIM_FATAL("shards must be positive, got ",
                         config.shards);
        if (config.shards > node_count)
            LOCSIM_FATAL("shards (", config.shards,
                         ") exceeds the node count (", node_count,
                         "); each shard needs at least one node");
        return config.shards;
    }
    if (const char *env = std::getenv("LOCSIM_SHARDS")) {
        const int parsed = std::atoi(env);
        if (parsed >= 1)
            return std::min(parsed, node_count);
    }
    return 1;
}

} // namespace

int
Machine::resolveShardCount(const MachineConfig &config,
                           sim::NodeId nodes)
{
    return resolveShards(config, nodes);
}

Machine::Machine(const MachineConfig &config,
                 const workload::Mapping &mapping)
    : Machine(config, mapping, nullptr)
{
}

Machine::Machine(const MachineConfig &config,
                 const workload::Mapping &mapping,
                 const BatchContext *batch)
    : config_(config), mapping_(mapping)
{
    LOCSIM_ASSERT(config.contexts >= 1 &&
                      config.contexts <=
                          static_cast<int>(workload::kMaxInstances),
                  "context count out of range");
    LOCSIM_ASSERT(config.net_clock_ratio >= 1, "bad clock ratio");

    sim::NodeId nodes = 1;
    for (int d = 0; d < config.dims; ++d)
        nodes *= static_cast<sim::NodeId>(config.radix);

    if (batch != nullptr) {
        batched_ = true;
        lane_ = batch->lane;
        engines_ = batch->engines;
        shards_ = static_cast<int>(engines_.size());
        LOCSIM_ASSERT(resolveShards(config, nodes) == shards_,
                      "batch engine count does not match the lane's "
                      "resolved shard count");
        LOCSIM_ASSERT(!config.trace.enabled,
                      "batched machines cannot trace");
    } else {
        shards_ = resolveShards(config, nodes);
        for (int s = 0; s < shards_; ++s) {
            owned_engines_.push_back(std::make_unique<sim::Engine>());
            engines_.push_back(owned_engines_.back().get());
        }
    }
    if (config.reference_stepping) {
        for (sim::Engine *engine : engines_)
            engine->setStepMode(sim::Engine::StepMode::Reference);
    }

    net::NetworkConfig net_config;
    net_config.radix = config.radix;
    net_config.dims = config.dims;
    net_config.wraparound = config.wraparound;
    net_config.router = config.router;
    const net::ShardPlan plan =
        net::ShardPlan::contiguous(nodes, shards_);
    network_ =
        std::make_unique<net::Network>(net_config, engines_, plan);

    const net::TorusTopology &topo = network_->topology();
    LOCSIM_ASSERT(mapping_.size() == topo.nodeCount(),
                  "mapping size must match the machine size");

    proc::ProcessorConfig proc_config = config.processor;
    proc_config.contexts = config.contexts;

    // Pass 1: build node components into pre-sized slots. Building a
    // node only reads shared state (engine/network/topology/mapping
    // references, config), so large machines fan the construction out
    // over a thread pool; the slot indexing makes the result identical
    // to sequential construction.
    controllers_.resize(nodes);
    processors_.resize(nodes);
    programs_.resize(static_cast<std::size_t>(nodes) *
                     static_cast<std::size_t>(config.contexts));
    const auto buildNode = [&](sim::NodeId node) {
        sim::Engine &shard_engine =
            *engines_[static_cast<std::size_t>(plan.shardOf(node))];
        controllers_[node] = std::make_unique<coher::CacheController>(
            shard_engine, *network_, node, config.protocol,
            config.net_clock_ratio);

        std::vector<proc::ThreadProgram *> node_programs;
        const std::uint32_t thread = mapping_.threadAt(node);
        for (int ctx = 0; ctx < config.contexts; ++ctx) {
            const auto instance = static_cast<std::uint32_t>(ctx);
            const std::size_t slot =
                static_cast<std::size_t>(node) *
                    static_cast<std::size_t>(config.contexts) +
                static_cast<std::size_t>(ctx);
            switch (config.workload) {
              case WorkloadKind::TorusNeighbor:
                programs_[slot] =
                    std::make_unique<workload::TorusNeighborProgram>(
                        topo, mapping_, instance, thread, config.app);
                break;
              case WorkloadKind::UniformRandom:
                programs_[slot] =
                    std::make_unique<workload::UniformRemoteProgram>(
                        topo, mapping_, instance, thread,
                        config.uniform_app);
                break;
              case WorkloadKind::Graph:
                LOCSIM_ASSERT(config.graph != nullptr,
                              "Graph workload needs a CommGraph");
                programs_[slot] =
                    std::make_unique<workload::GraphNeighborProgram>(
                        *config.graph, mapping_, instance, thread,
                        config.app);
                break;
            }
            node_programs.push_back(programs_[slot].get());
        }
        processors_[node] = std::make_unique<proc::Processor>(
            *controllers_[node], proc_config, node_programs);
    };

    // Spinning up a build pool costs more than building a small
    // machine outright; only large radixes take the parallel path.
    constexpr sim::NodeId kParallelBuildNodes = 1024;
    if (nodes >= kParallelBuildNodes) {
        runner::ThreadPool build_pool;
        const int lanes = build_pool.threadCount() + 1;
        build_pool.parallelRegion(lanes, [&](int lane) {
            const auto first = static_cast<sim::NodeId>(
                (static_cast<std::uint64_t>(nodes) *
                 static_cast<std::uint64_t>(lane)) /
                static_cast<std::uint64_t>(lanes));
            const auto last = static_cast<sim::NodeId>(
                (static_cast<std::uint64_t>(nodes) *
                 static_cast<std::uint64_t>(lane + 1)) /
                static_cast<std::uint64_t>(lanes));
            for (sim::NodeId node = first; node < last; ++node)
                buildNode(node);
        });
    } else {
        for (sim::NodeId node = 0; node < nodes; ++node)
            buildNode(node);
    }

    // Pass 2 — registration, strictly sequential. Per shard: the
    // fabric slice first (period 1), then that shard's node
    // components. Registration order is the intra-tick call order and
    // must be the same whatever the shard count or build path:
    // network, then controller/processor in node order.
    for (int s = 0; s < shards_; ++s) {
        sim::Engine &shard_engine = *engines_[s];
        if (shards_ == 1)
            shard_engine.addClocked(network_.get(), 1);
        else
            shard_engine.addClocked(network_->shardClocked(s), 1);

        for (sim::NodeId node = plan.first(s); node < plan.last(s);
             ++node) {
            shard_engine.addClocked(controllers_[node].get(),
                                    config.net_clock_ratio);
            shard_engine.addClocked(processors_[node].get(),
                                    config.net_clock_ratio);
        }
    }

    if (shards_ > 1 && !batched_)
        shard_pool_ =
            std::make_unique<runner::ThreadPool>(shards_ - 1);

    if (config.profiler != nullptr) {
        // Shared phases (dispatch, rotation, quiescence) belong to
        // the shard, not the lane: a solo machine owns its engines and
        // wires them here; batched lanes share engines, which the
        // MachineBatch wires once itself. Per-component phases
        // (router scan, coherence) carry this machine's lane so
        // batched lanes stay separable.
        if (!batched_) {
            for (int s = 0; s < shards_; ++s) {
                engines_[static_cast<std::size_t>(s)]->setProfiler(
                    &config.profiler->slot(s, 0));
            }
        }
        network_->setProfiler(config.profiler, lane_);
        for (int s = 0; s < shards_; ++s) {
            for (sim::NodeId node = plan.first(s); node < plan.last(s);
                 ++node) {
                controllers_[node]->setProfiler(
                    &config.profiler->slot(s, lane_));
            }
        }
    }

    if (config.trace.enabled) {
        // One tracer shard per simulation shard so emission stays
        // thread-local; with one shard this produces exactly the old
        // single-tracer track order.
        shard_tracers_.reserve(static_cast<std::size_t>(shards_));
        coher_bridges_.reserve(nodes);
        for (int s = 0; s < shards_; ++s) {
            auto tracer = std::make_shared<obs::Tracer>(config.trace);
            engines_[s]->setTracer(tracer.get(),
                                   tracer->newTrack("engine"));
            network_->setShardTracer(s, tracer.get());
            for (sim::NodeId node = plan.first(s);
                 node < plan.last(s); ++node) {
                coher_bridges_.push_back(
                    std::make_unique<coher::ObsTracerBridge>(
                        *tracer,
                        tracer->newTrack("coher." +
                                         std::to_string(node))));
                controllers_[node]->setTracer(
                    coher_bridges_.back().get());
                processors_[node]->setTracer(
                    tracer.get(),
                    tracer->newTrack("proc." + std::to_string(node)),
                    config.net_clock_ratio);
            }
            shard_tracers_.push_back(std::move(tracer));
        }
        tracer_ = shard_tracers_.front();
    }

    if (config.sample_period > 0) {
        sampler_ =
            std::make_unique<obs::MetricsSampler>(config.sample_period);
        net::Network *net = network_.get();
        const double node_count = static_cast<double>(nodes);
        const double channels =
            node_count * 2.0 * static_cast<double>(config.dims);
        sampler_->addGauge("buffered_flits", [net] {
            return static_cast<double>(net->bufferedFlits());
        });
        // rho: flit-hops per channel per cycle over the sample window.
        sampler_->addRate(
            "rho",
            [net] {
                return static_cast<double>(
                    net->totalNeighborFlitHops());
            },
            1.0 / channels);
        // r_m: messages submitted per node per network cycle.
        sampler_->addRate(
            "r_m",
            [net] {
                return static_cast<double>(
                    net->stats().messages_sent);
            },
            1.0 / node_count);
        sampler_->addRate("alloc_stalls", [net] {
            return static_cast<double>(net->totalAllocStalls());
        });
        // T_m: mean network latency of messages delivered during the
        // sample window.
        sampler_->addMean(
            "T_m", [net] { return net->stats().latency.sum(); },
            [net] {
                return static_cast<double>(
                    net->stats().latency.count());
            });
        if (tracer_ != nullptr)
            sampler_->attachTracer(tracer_.get());
        if (shards_ == 1) {
            engines_.front()->addClocked(sampler_.get(),
                                         config.sample_period);
        }
        // With several shards the driver ticks the sampler itself at
        // the serial point of each window (it probes whole-fabric
        // state); next_sample_due_ starts at 0 like the sampler's own
        // schedule.
    }
}

Machine::~Machine()
{
    // Publish execution diagnostics into the process counter registry
    // on teardown (off every hot path). Batched lanes share engines,
    // so their skipped-tick totals are published once by the
    // MachineBatch instead.
    obs::CounterRegistry &counters = obs::CounterRegistry::process();
    if (!batched_) {
        sim::Tick skipped = 0;
        for (const sim::Engine *engine : engines_)
            skipped += engine->skippedTicks();
        counters.add("sim.skipped_ticks",
                     static_cast<std::uint64_t>(skipped));
    }
    counters.add("net.alloc_stalls", network_->totalAllocStalls());
    counters.add("net.remote_wakes", network_->totalRemoteWakes());
    if (!controllers_.empty()) {
        counters.set("mem.bytes_per_node",
                     static_cast<std::uint64_t>(memoryBytes()) /
                         controllers_.size());
    }
}

std::size_t
Machine::memoryBytes() const
{
    std::size_t bytes = network_->memoryBytes();
    for (const auto &controller : controllers_)
        bytes += controller->memoryBytes();
    for (const auto &processor : processors_)
        bytes += processor->memoryBytes();
    return bytes;
}

double
Machine::mappingDistance() const
{
    return mapping_.averageNeighborDistance(network_->topology());
}

coher::CacheController &
Machine::controller(sim::NodeId node)
{
    return *controllers_[node];
}

const workload::TorusNeighborProgram &
Machine::program(sim::NodeId node, int context) const
{
    const auto *program =
        dynamic_cast<const workload::TorusNeighborProgram *>(
            programs_[node * static_cast<sim::NodeId>(
                                 config_.contexts) +
                      static_cast<sim::NodeId>(context)]
                .get());
    LOCSIM_ASSERT(program != nullptr,
                  "program() requires the torus-neighbour workload");
    return *program;
}

void
Machine::resetStats()
{
    network_->resetStats();
    for (auto &controller : controllers_)
        controller->stats() = coher::ControllerStats{};
    for (auto &processor : processors_)
        processor->resetStats();
    // After the network counters so the rate windows re-prime from
    // the post-reset values.
    if (sampler_ != nullptr)
        sampler_->clearSamples();
}

void
Machine::writeTrace(std::ostream &os) const
{
    LOCSIM_ASSERT(tracer_ != nullptr,
                  "writeTrace requires config.trace.enabled");
    if (shards_ == 1) {
        tracer_->write(os);
        return;
    }
    std::vector<const obs::Tracer *> shards;
    std::vector<std::string> names;
    for (int s = 0; s < shards_; ++s) {
        shards.push_back(shard_tracers_[static_cast<std::size_t>(s)]
                             .get());
        names.push_back("shard" + std::to_string(s));
    }
    obs::writeMergedTrace(os, shards, names);
}

Measurement
Machine::run(std::uint64_t warmup, std::uint64_t window)
{
    advance(warmup);
    return measure(window);
}

void
Machine::runTicks(sim::Tick ticks)
{
    if (batched_) {
        LOCSIM_FATAL(
            "batched machine driven directly; lanes share engines, "
            "so run/advance/measure must go through the MachineBatch");
    }
    if (shards_ == 1) {
        engines_.front()->run(ticks);
        return;
    }
    if (ticks == 0)
        return;
    runSharded(ticks);
}

bool
Machine::serialSampleDue(sim::Tick now) const
{
    return sampler_ != nullptr && now == next_sample_due_;
}

void
Machine::serialSampleTick(sim::Tick now)
{
    LOCSIM_ASSERT(serialSampleDue(now), "sampler tick when not due");
    sampler_->tick(next_sample_due_);
    next_sample_due_ += sampler_->period();
}

void
Machine::serialSampleSkip(sim::Tick target)
{
    if (sampler_ == nullptr || next_sample_due_ >= target)
        return;
    // Credit samples skipped by a quiescence jump, with the same
    // arithmetic Engine::jumpIdleTo applies to registered components.
    const sim::Tick period = sampler_->period();
    const sim::Tick skipped =
        (target - next_sample_due_ + period - 1) / period;
    sampler_->skipIdle(skipped);
    next_sample_due_ += skipped * period;
}

void
Machine::runSharded(sim::Tick ticks)
{
    const int shards = shards_;
    const sim::Tick start = engines_.front()->now();

    std::vector<sim::Tick> &skipped_before = shard_skipped_scratch_;
    skipped_before.resize(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
        skipped_before[static_cast<std::size_t>(s)] =
            engines_[static_cast<std::size_t>(s)]->skippedTicks();

    sim::runLockstep(engines_, *shard_pool_, ticks,
                     config_.reference_stepping, this,
                     config_.profiler);

    for (int s = 0; s < shards; ++s)
        engines_[static_cast<std::size_t>(s)]->emitRunSpan(
            start, skipped_before[static_cast<std::size_t>(s)]);
}

void
Machine::advance(std::uint64_t cycles)
{
    runTicks(cycles * config_.net_clock_ratio);
}

Measurement
Machine::measure(std::uint64_t window)
{
    beginMeasurement();
    runTicks(window * config_.net_clock_ratio);
    return collectMeasurement();
}

void
Machine::beginMeasurement()
{
    resetStats();
    measure_start_ = engines_.front()->now();
}

Measurement
Machine::collectMeasurement() const
{
    const std::uint64_t ratio = config_.net_clock_ratio;
    const sim::Tick elapsed_ticks =
        engines_.front()->now() - measure_start_;
    // runTicks advances exactly window * ratio ticks, so the window
    // in processor cycles is recoverable from the timeline.
    const std::uint64_t window = elapsed_ticks / ratio;
    const double elapsed = static_cast<double>(elapsed_ticks);

    Measurement m;
    m.window = elapsed;

    const double nodes =
        static_cast<double>(network_->topology().nodeCount());

    stats::Accumulator txn_latency, critical;
    std::uint64_t txns = 0, hits = 0, accesses = 0;
    for (const auto &controller : controllers_) {
        const coher::ControllerStats &cs = controller->stats();
        txns += cs.transactions.value();
        txn_latency.merge(cs.txn_latency);
        critical.merge(cs.critical_messages);
        hits += cs.hits.value();
        accesses += cs.loads.value() + cs.stores.value();
    }
    std::uint64_t idle_cycles = 0, switch_cycles = 0;
    for (const auto &processor : processors_) {
        idle_cycles += processor->stats().idle_cycles.value();
        switch_cycles += processor->stats().switch_cycles.value();
    }
    // Busy processor cycles: everything except memory stalls and
    // context switches. This is the effective per-transaction run
    // length the application model calls T_r (it includes issue and
    // resume overhead and hit service, which are useful work from
    // the model's perspective).
    const std::uint64_t total_proc_cycles =
        window * network_->topology().nodeCount();
    const std::uint64_t busy_cycles =
        total_proc_cycles - idle_cycles - switch_cycles;

    const net::NetworkStats &ns = network_->stats();
    m.transactions = txns;
    m.messages = ns.messages_sent;

    if (txns > 0) {
        m.inter_txn_time = elapsed * nodes / static_cast<double>(txns);
        m.txn_rate = 1.0 / m.inter_txn_time;
        m.txn_latency = txn_latency.mean();
        m.messages_per_txn =
            static_cast<double>(m.messages) / static_cast<double>(txns);
        m.critical_messages = critical.mean();
        m.run_length = static_cast<double>(busy_cycles) *
                       static_cast<double>(ratio) /
                       static_cast<double>(txns);
        m.switch_overhead = static_cast<double>(switch_cycles) *
                            static_cast<double>(ratio) /
                            static_cast<double>(txns);
    }
    if (m.messages > 0) {
        m.inter_message_time =
            elapsed * nodes / static_cast<double>(m.messages);
        m.message_rate = 1.0 / m.inter_message_time;
        m.message_latency = ns.latency.mean();
        m.message_latency_p50 = ns.latency_hist.quantile(0.5);
        m.message_latency_p95 = ns.latency_hist.quantile(0.95);
        m.source_queue_wait = ns.source_queue.mean();
        m.avg_hops = ns.hops.mean();
    }
    m.utilization = network_->channelUtilization();
    m.fitted_fixed_overhead =
        m.txn_latency - m.critical_messages * m.message_latency;
    if (accesses > 0) {
        m.hit_rate =
            static_cast<double>(hits) / static_cast<double>(accesses);
    }

    m.avg_flits = ns.flits.mean();
    m.attribution = ns.attribution;

    std::uint64_t iterations = 0, violations = 0;
    for (const auto &program : programs_) {
        if (const auto *torus =
                dynamic_cast<const workload::TorusNeighborProgram *>(
                    program.get())) {
            iterations += torus->iterations();
            violations += torus->violations();
        } else if (const auto *graph_app = dynamic_cast<
                       const workload::GraphNeighborProgram *>(
                       program.get())) {
            iterations += graph_app->iterations();
            violations += graph_app->violations();
        }
    }
    m.iterations = iterations;
    m.violations = violations;
    return m;
}

namespace {

/** Checkpoint framing: magic + layout version. Bump the version on
 *  any change to the serialized layout of any component. Version 2:
 *  shard-independent images (per-node message sequence numbers in the
 *  network endpoint block, no transport block). Version 3: drop the
 *  skipped-ticks field — it is an execution-strategy diagnostic (a
 *  batched lane skips less than the same run solo), and serializing
 *  it made otherwise-identical images differ. */
constexpr std::uint32_t kCheckpointMagic = 0x4b43534c; // "LSCK"
constexpr std::uint32_t kCheckpointVersion = 3;

} // namespace

std::uint32_t
checkpointFormatVersion()
{
    return kCheckpointVersion;
}

std::vector<std::uint8_t>
Machine::saveCheckpoint() const
{
    obs::ScopedPhase profile(
        config_.profiler != nullptr
            ? &config_.profiler->slot(0, lane_)
            : nullptr,
        obs::Phase::CheckpointSave);

    LOCSIM_ASSERT(tracer_ == nullptr && sampler_ == nullptr,
                  "cannot checkpoint with tracing or sampling on");

    util::Serializer s;
    s.put(kCheckpointMagic);
    s.put(kCheckpointVersion);
    s.put(engines_.front()->now());
    network_->saveState(s);
    for (const auto &controller : controllers_)
        controller->saveState(s);
    for (const auto &processor : processors_)
        processor->saveState(s);
    for (const auto &program : programs_)
        program->saveState(s);
    return s.takeBuffer();
}

sim::Tick
Machine::parseCheckpointHeader(util::Deserializer &d)
{
    if (d.get<std::uint32_t>() != kCheckpointMagic)
        throw std::runtime_error("checkpoint: bad magic");
    if (d.get<std::uint32_t>() != kCheckpointVersion)
        throw std::runtime_error("checkpoint: version mismatch");
    return d.get<sim::Tick>();
}

void
Machine::restoreComponents(util::Deserializer &d)
{
    network_->loadState(d);
    for (auto &controller : controllers_)
        controller->loadState(d);
    for (auto &processor : processors_)
        processor->loadState(d);
    for (auto &program : programs_)
        program->loadState(d);
    if (!d.atEnd())
        throw std::runtime_error("checkpoint: trailing bytes");
}

void
Machine::restoreCheckpoint(const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedPhase profile(
        config_.profiler != nullptr
            ? &config_.profiler->slot(0, lane_)
            : nullptr,
        obs::Phase::CheckpointRestore);

    LOCSIM_ASSERT(tracer_ == nullptr && sampler_ == nullptr,
                  "cannot restore with tracing or sampling on");
    LOCSIM_ASSERT(engines_.front()->now() == 0,
                  "restoreCheckpoint requires a fresh machine");
    LOCSIM_ASSERT(!batched_,
                  "restore batched lanes through the MachineBatch");

    util::Deserializer d(bytes);
    const sim::Tick now = parseCheckpointHeader(d);
    // Time first: controllers re-arm their completion wakeups during
    // loadState, and restoreTime requires an empty event queue. Every
    // shard engine shares the one timeline. The skipped-ticks
    // diagnostic restarts at zero: it describes this run, not the
    // saved one.
    for (sim::Engine *engine : engines_)
        engine->restoreTime(now, 0);
    restoreComponents(d);
}

void
saveMeasurement(util::Serializer &s, const Measurement &m)
{
    s.putDouble(m.window);
    s.put(m.transactions);
    s.put(m.messages);
    s.putDouble(m.inter_txn_time);
    s.putDouble(m.txn_latency);
    s.putDouble(m.txn_rate);
    s.putDouble(m.inter_message_time);
    s.putDouble(m.message_latency);
    s.putDouble(m.message_latency_p50);
    s.putDouble(m.message_latency_p95);
    s.putDouble(m.message_rate);
    s.putDouble(m.source_queue_wait);
    s.putDouble(m.avg_hops);
    s.putDouble(m.utilization);
    s.putDouble(m.avg_flits);
    s.putDouble(m.messages_per_txn);
    s.putDouble(m.critical_messages);
    s.putDouble(m.run_length);
    s.putDouble(m.switch_overhead);
    s.putDouble(m.fitted_fixed_overhead);
    s.putDouble(m.hit_rate);
    s.put(m.iterations);
    s.put(m.violations);
    for (const net::ClassAttribution &attr : m.attribution) {
        s.put(attr.count);
        s.putDouble(attr.latency);
        s.putDouble(attr.serialization);
        s.putDouble(attr.hops);
        s.putDouble(attr.contention);
        s.putDouble(attr.stalls);
    }
}

Measurement
loadMeasurement(util::Deserializer &d)
{
    Measurement m;
    m.window = d.getDouble();
    m.transactions = d.get<std::uint64_t>();
    m.messages = d.get<std::uint64_t>();
    m.inter_txn_time = d.getDouble();
    m.txn_latency = d.getDouble();
    m.txn_rate = d.getDouble();
    m.inter_message_time = d.getDouble();
    m.message_latency = d.getDouble();
    m.message_latency_p50 = d.getDouble();
    m.message_latency_p95 = d.getDouble();
    m.message_rate = d.getDouble();
    m.source_queue_wait = d.getDouble();
    m.avg_hops = d.getDouble();
    m.utilization = d.getDouble();
    m.avg_flits = d.getDouble();
    m.messages_per_txn = d.getDouble();
    m.critical_messages = d.getDouble();
    m.run_length = d.getDouble();
    m.switch_overhead = d.getDouble();
    m.fitted_fixed_overhead = d.getDouble();
    m.hit_rate = d.getDouble();
    m.iterations = d.get<std::uint64_t>();
    m.violations = d.get<std::uint64_t>();
    for (net::ClassAttribution &attr : m.attribution) {
        attr.count = d.get<std::uint64_t>();
        attr.latency = d.getDouble();
        attr.serialization = d.getDouble();
        attr.hops = d.getDouble();
        attr.contention = d.getDouble();
        attr.stalls = d.getDouble();
    }
    return m;
}

} // namespace machine
} // namespace locsim
