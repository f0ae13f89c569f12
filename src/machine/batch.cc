/**
 * @file
 * MachineBatch implementation.
 */

#include "machine/batch.hh"

#include <stdexcept>

#include "obs/counters.hh"
#include "util/logging.hh"

namespace locsim {
namespace machine {

namespace {

sim::NodeId
nodeCountFor(const MachineConfig &config)
{
    sim::NodeId nodes = 1;
    for (int d = 0; d < config.dims; ++d)
        nodes *= static_cast<sim::NodeId>(config.radix);
    return nodes;
}

/**
 * Everything that shapes the shared engines must be uniform across
 * the batch; anything else (workload, mapping,
 * contexts, sampling) may vary per lane. Mirrors the --shards
 * validation style: nonsense is fatal with a message naming the
 * offending lane.
 */
void
validateSpecs(const std::vector<BatchLaneSpec> &specs)
{
    if (specs.empty())
        LOCSIM_FATAL("batch needs at least one lane");
    const MachineConfig &head = specs.front().config;
    const int shards =
        Machine::resolveShardCount(head, nodeCountFor(head));
    for (std::size_t l = 0; l < specs.size(); ++l) {
        const MachineConfig &c = specs[l].config;
        if (c.radix != head.radix || c.dims != head.dims ||
            c.wraparound != head.wraparound) {
            LOCSIM_FATAL(
                "batch lanes must share one topology shape: lane ", l,
                " is ", c.radix, "^", c.dims,
                (c.wraparound ? " torus" : " mesh"), ", lane 0 is ",
                head.radix, "^", head.dims,
                (head.wraparound ? " torus" : " mesh"));
        }
        if (c.net_clock_ratio != head.net_clock_ratio) {
            LOCSIM_FATAL("batch lanes must share one network clock "
                         "ratio: lane ",
                         l, " has ", c.net_clock_ratio, ", lane 0 has ",
                         head.net_clock_ratio);
        }
        if (c.router.vcs != head.router.vcs ||
            c.router.buffer_depth != head.router.buffer_depth) {
            LOCSIM_FATAL("batch lanes must share one router "
                         "configuration (vcs, buffer depth): lane ",
                         l, " differs from lane 0");
        }
        if (c.reference_stepping != head.reference_stepping) {
            LOCSIM_FATAL("batch lanes must share one stepping mode: "
                         "lane ",
                         l, " differs from lane 0");
        }
        if (Machine::resolveShardCount(c, nodeCountFor(c)) != shards) {
            LOCSIM_FATAL("batch lanes must resolve to one shard "
                         "count: lane ",
                         l, " differs from lane 0 (", shards, ")");
        }
        if (c.trace.enabled) {
            LOCSIM_FATAL("tracing is incompatible with batched "
                         "execution (tracers are per engine, and "
                         "batch lanes share engines): lane ",
                         l);
        }
    }
}

} // namespace

MachineBatch::MachineBatch(const std::vector<BatchLaneSpec> &specs)
{
    validateSpecs(specs);
    const MachineConfig &head = specs.front().config;
    const sim::NodeId nodes = nodeCountFor(head);
    const int shards = Machine::resolveShardCount(head, nodes);
    const int lanes = static_cast<int>(specs.size());
    reference_ = head.reference_stepping;
    ratio_ = head.net_clock_ratio;

    for (int s = 0; s < shards; ++s) {
        owned_engines_.push_back(std::make_unique<sim::Engine>());
        engines_.push_back(owned_engines_.back().get());
    }
    if (shards > 1)
        shard_pool_ =
            std::make_unique<runner::ThreadPool>(shards - 1);

    // Lanes share engines, so the shared phases (dispatch, rotation,
    // quiescence, barrier waits) are wired once from the head lane's
    // profiler; per-lane machines attach only their own components.
    profiler_ = head.profiler;
    if (profiler_ != nullptr) {
        for (int s = 0; s < shards; ++s)
            engines_[static_cast<std::size_t>(s)]->setProfiler(
                &profiler_->slot(s, 0));
    }

    BatchContext context;
    context.engines = engines_;
    machines_.reserve(specs.size());
    for (int l = 0; l < lanes; ++l) {
        context.lane = l;
        machines_.push_back(std::make_unique<Machine>(
            specs[static_cast<std::size_t>(l)].config,
            specs[static_cast<std::size_t>(l)].mapping, &context));
    }
}

MachineBatch::~MachineBatch()
{
    // The lanes' shared engines: skipped ticks are published once for
    // the whole batch (the per-lane Machine dtors skip them).
    sim::Tick skipped = 0;
    for (const sim::Engine *engine : engines_)
        skipped += engine->skippedTicks();
    obs::CounterRegistry::process().add(
        "sim.skipped_ticks", static_cast<std::uint64_t>(skipped));
    // Machines must release the shared engines before they do.
    machines_.clear();
}

void
MachineBatch::runTicks(sim::Tick ticks)
{
    if (engines_.size() == 1) {
        // The batched hot loop for the common case: one engine whose
        // clocked list spans every lane.
        engines_.front()->run(ticks);
        return;
    }
    if (ticks == 0)
        return;
    // Trace spans need not be emitted around the lockstep window:
    // batched lanes cannot trace.
    sim::runLockstep(engines_, *shard_pool_, ticks, reference_, this,
                     profiler_);
}

bool
MachineBatch::serialDue(sim::Tick now) const
{
    for (const auto &machine : machines_) {
        if (machine->serialSampleDue(now))
            return true;
    }
    return false;
}

void
MachineBatch::serialTick(sim::Tick now)
{
    for (auto &machine : machines_) {
        if (machine->serialSampleDue(now))
            machine->serialSampleTick(now);
    }
}

void
MachineBatch::serialSkip(sim::Tick target)
{
    for (auto &machine : machines_)
        machine->serialSampleSkip(target);
}

void
MachineBatch::advance(std::uint64_t cycles)
{
    runTicks(cycles * ratio_);
}

std::vector<Measurement>
MachineBatch::measure(std::uint64_t window)
{
    for (auto &machine : machines_)
        machine->beginMeasurement();
    runTicks(window * ratio_);
    std::vector<Measurement> results;
    results.reserve(machines_.size());
    for (const auto &machine : machines_)
        results.push_back(machine->collectMeasurement());
    return results;
}

std::vector<Measurement>
MachineBatch::run(std::uint64_t warmup, std::uint64_t window)
{
    advance(warmup);
    return measure(window);
}

void
MachineBatch::restoreCheckpoints(
    const std::vector<std::vector<std::uint8_t>> &images)
{
    LOCSIM_ASSERT(images.size() == machines_.size(),
                  "one checkpoint image per lane");
    LOCSIM_ASSERT(engines_.front()->now() == 0,
                  "restoreCheckpoints requires a fresh batch");
    for (const auto &machine : machines_) {
        LOCSIM_ASSERT(machine->sampler_ == nullptr,
                      "cannot restore with sampling on");
    }

    // Parse every header first: the shared timeline can only be
    // restored to one position.
    std::vector<util::Deserializer> streams;
    streams.reserve(images.size());
    sim::Tick now = 0;
    for (std::size_t l = 0; l < images.size(); ++l) {
        streams.emplace_back(images[l]);
        const sim::Tick lane_now =
            Machine::parseCheckpointHeader(streams.back());
        if (l == 0) {
            now = lane_now;
        } else if (lane_now != now) {
            throw std::runtime_error(
                "checkpoint: lane images disagree on the timeline "
                "position");
        }
    }
    // Timeline once per shared engine, before ANY lane's controllers
    // re-arm their event-queue wakeups during component restore.
    for (sim::Engine *engine : engines_)
        engine->restoreTime(now, 0);
    for (std::size_t l = 0; l < images.size(); ++l)
        machines_[l]->restoreComponents(streams[l]);
}

} // namespace machine
} // namespace locsim
