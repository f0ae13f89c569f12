/**
 * @file
 * Machine implementation.
 */

#include "machine/machine.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/counters.hh"
#include "sim/lockstep.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace locsim {
namespace machine {

int
Machine::resolveShardCount(const MachineConfig &config,
                           sim::NodeId nodes)
{
    // Explicit values are validated; 0 consults LOCSIM_SHARDS,
    // clamped to the node count so small test machines still run
    // under an env-forced shard count.
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
    return std::min(util::envPositiveInt("LOCSIM_SHARDS", 1),
                    node_count);
}

Machine::Machine(const MachineConfig &config,
                 const workload::Mapping &mapping)
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

    shards_ = resolveShardCount(config, nodes);
    std::vector<sim::Engine *> shard_engines;
    for (int s = 0; s < shards_; ++s) {
        engines_.push_back(std::make_unique<sim::Engine>());
        shard_engines.push_back(engines_.back().get());
        if (config.reference_stepping)
            engines_.back()->setStepMode(
                sim::Engine::StepMode::Reference);
    }

    net::NetworkConfig net_config;
    net_config.radix = config.radix;
    net_config.dims = config.dims;
    net_config.wraparound = config.wraparound;
    net_config.router = config.router;
    const net::ShardPlan plan =
        net::ShardPlan::contiguous(nodes, shards_);
    network_ = std::make_unique<net::Network>(net_config,
                                              shard_engines, plan);

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
                    std::make_unique<workload::NeighborProgram>(
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
                    std::make_unique<workload::NeighborProgram>(
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
        shard_engine.addClocked(network_->shardClocked(s), 1);

        for (sim::NodeId node = plan.first(s); node < plan.last(s);
             ++node) {
            shard_engine.addClocked(controllers_[node].get(),
                                    config.net_clock_ratio);
            shard_engine.addClocked(processors_[node].get(),
                                    config.net_clock_ratio);
        }
    }

    if (shards_ > 1)
        shard_pool_ =
            std::make_unique<runner::ThreadPool>(shards_ - 1);

    if (config.profiler != nullptr) {
        // Every phase lands on its shard's slot: engine dispatch,
        // rotation and quiescence, router scans, coherence ticks.
        network_->setProfiler(config.profiler, 0);
        for (int s = 0; s < shards_; ++s) {
            obs::PhaseSlot *slot = &config.profiler->slot(s, 0);
            engines_[static_cast<std::size_t>(s)]->setProfiler(slot);
            for (sim::NodeId node = plan.first(s); node < plan.last(s);
                 ++node)
                controllers_[node]->setProfiler(slot);
        }
    }

    if (config.trace.enabled) {
        // One tracer shard per simulation shard so emission stays
        // thread-local; with one shard this produces exactly the old
        // single-tracer track order.
        shard_tracers_.reserve(static_cast<std::size_t>(shards_));
        for (int s = 0; s < shards_; ++s) {
            auto tracer = std::make_shared<obs::Tracer>(config.trace);
            engines_[s]->setTracer(tracer.get(),
                                   tracer->newTrack("engine"));
            network_->setShardTracer(s, tracer.get());
            for (sim::NodeId node = plan.first(s);
                 node < plan.last(s); ++node) {
                controllers_[node]->setTracer(
                    tracer.get(),
                    tracer->newTrack("coher." + std::to_string(node)));
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
            static_cast<double>(net->neighborChannels());
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
    }
}

Machine::~Machine()
{
    // Publish execution diagnostics into the process counter registry
    // on teardown (off every hot path).
    obs::CounterRegistry &counters = obs::CounterRegistry::process();
    sim::Tick skipped = 0;
    for (const auto &engine : engines_)
        skipped += engine->skippedTicks();
    counters.add("sim.skipped_ticks",
                 static_cast<std::uint64_t>(skipped));
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

coher::CacheController &
Machine::controller(sim::NodeId node)
{
    return *controllers_[node];
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
    if (ticks == 0)
        return;
    const sim::Tick start = engines_.front()->now();

    std::vector<sim::Tick> &skipped_before = shard_skipped_scratch_;
    skipped_before.resize(engines_.size());
    for (std::size_t s = 0; s < engines_.size(); ++s)
        skipped_before[s] = engines_[s]->skippedTicks();

    // The sampler runs at the lockstep serial point: it probes
    // whole-fabric state, after every component of the tick.
    sim::runLockstep(engines_, shard_pool_.get(), ticks, sampler_.get(),
                     config_.profiler);

    for (std::size_t s = 0; s < engines_.size(); ++s)
        engines_[s]->emitRunSpan(start, skipped_before[s]);
}

void
Machine::advance(std::uint64_t cycles)
{
    window_images_.reset();
    runTicks(cycles * config_.net_clock_ratio);
}

Measurement
Machine::measure(std::uint64_t window)
{
    // A window image holds the statistics of its first `resumed`
    // cycles, reset at the warm-up like the ones resetStats() clears.
    const std::unique_ptr<WindowImages> images =
        std::move(window_images_);
    const std::uint64_t resumed =
        images != nullptr ? images->resume(*this, window) : 0;
    LOCSIM_ASSERT(resumed <= window, "resumed past the window");
    if (resumed == 0)
        resetStats();
    const std::uint64_t ratio = config_.net_clock_ratio;
    runTicks((window - resumed) * ratio);
    if (images != nullptr && resumed < window)
        images->store(window, saveCheckpoint());
    const sim::Tick elapsed_ticks = window * ratio;
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
        iterations += program->iterations();
        violations += program->violations();
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
 *  skipped-ticks field — it is an execution-strategy diagnostic, and
 *  serializing it made otherwise-identical images differ. Version 4:
 *  sparse cache sections (record count, then one entry per non-default
 *  set) — the dense 4,096-record section was ~97% of every image.
 *  Version 5: a native network section (per node, the router's rings,
 *  staged words and output VCs, then the endpoint) in place of the
 *  link and credit records of the latched-link fabric. Version 6:
 *  nothing the loader can rebuild (credits, write cursors, record
 *  hop distances, in-flight and pending counts) and no statistic
 *  nothing reads. */
constexpr std::uint32_t kCheckpointMagic = 0x4b43534c; // "LSCK"
constexpr std::uint32_t kCheckpointVersion = 6;

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
            ? &config_.profiler->slot(0, 0)
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

void
Machine::restoreCheckpoint(const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedPhase profile(
        config_.profiler != nullptr
            ? &config_.profiler->slot(0, 0)
            : nullptr,
        obs::Phase::CheckpointRestore);

    LOCSIM_ASSERT(tracer_ == nullptr && sampler_ == nullptr,
                  "cannot restore with tracing or sampling on");

    util::Deserializer d(bytes);
    if (d.get<std::uint32_t>() != kCheckpointMagic)
        d.fail("checkpoint with a bad magic");
    if (d.get<std::uint32_t>() != kCheckpointVersion)
        d.fail("checkpoint version mismatch");
    const sim::Tick now = d.get<sim::Tick>();
    // Every shard engine shares the one timeline; controllers' wakeups
    // (nextWake) come from their restored completion heaps. The
    // skipped-ticks diagnostic restarts at zero: it describes this
    // run, not the saved one.
    for (const auto &engine : engines_)
        engine->restoreTime(now, 0);
    network_->loadState(d, coher::checkProtoPayload);
    for (auto &controller : controllers_)
        controller->loadState(d);
    for (auto &processor : processors_)
        processor->loadState(d);
    for (auto &program : programs_)
        program->loadState(d);
    if (!d.atEnd())
        d.fail("checkpoint trailing bytes");
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
