/**
 * @file
 * Canonical key-byte construction.
 */

#include "cache/key.hh"

#include "util/serialize.hh"
#include "util/sha256.hh"

namespace locsim {
namespace cache {

namespace {

void
putGraph(util::Serializer &s, const workload::CommGraph &graph)
{
    s.put(graph.vertexCount());
    for (std::uint32_t v = 0; v < graph.vertexCount(); ++v) {
        const auto &edges = graph.neighbors(v);
        s.put<std::uint64_t>(edges.size());
        // Adjacency lists preserve insertion order, which is part of
        // graph construction and therefore deterministic per config.
        for (const auto &edge : edges) {
            s.put(edge.peer);
            s.putDouble(edge.weight);
        }
    }
}

/**
 * Serialize every config/mapping field that shapes the simulated
 * trajectory — the shared core of simKey (which appends the cycle
 * budget) and prefixKey (which appends the checkpoint format version
 * and the prefix clock). Late-binding fields (see the whitelist in
 * key.hh) are deliberately absent from this function, so any field
 * added to MachineConfig must be added either here or to that
 * whitelist; tests/prefix_test.cc trips when neither happened.
 */
void
putBehavioralConfig(util::Serializer &s,
                    const machine::MachineConfig &config,
                    const workload::Mapping &mapping)
{
    // Machine geometry and clocks.
    s.put(config.radix);
    s.put(config.dims);
    s.put(config.wraparound);
    s.put(config.contexts);
    s.put(config.net_clock_ratio);

    // Processor.
    s.put(config.processor.contexts);
    s.put(config.processor.switch_cycles);

    // Coherence protocol.
    s.put(config.protocol.control_flits);
    s.put(config.protocol.data_flits);
    s.put(config.protocol.occupancy);
    s.put(config.protocol.mem_latency);
    s.put(config.protocol.hit_latency);
    s.put(config.protocol.cache_bytes);
    s.put(config.protocol.dir_pointers);
    s.put(config.protocol.overflow_trap_cycles);

    // Router.
    s.put(config.router.vcs);
    s.put(config.router.buffer_depth);

    // Stepping mode is result-invariant by contract, but the contract
    // is enforced by tests, not construction — keep the modes in
    // separate cache entries so a regression in one cannot poison
    // results attributed to the other.
    s.put(config.reference_stepping);

    // Deliberately absent: MachineConfig::shards (and the runner
    // thread count). They partition execution, not the simulated
    // machine — results are bit-identical for every value, so every
    // shard count must find the same entry (cache_test asserts this).

    // Workload.
    s.put(config.workload);
    s.put(config.app.compute_cycles);
    // The slot of the deleted TorusAppConfig::verify flag (coherence
    // checking is now always on); kept so existing keys stay valid.
    s.put(true);
    s.put(config.app.prefetch_depth);
    s.put(config.uniform_app.compute_cycles);
    s.put(config.uniform_app.loads_per_store);
    s.put(config.uniform_app.seed);
    if (config.workload == machine::WorkloadKind::Graph &&
        config.graph != nullptr) {
        putGraph(s, *config.graph);
    }

    // Thread placement.
    s.put(mapping.size());
    for (std::uint32_t t = 0; t < mapping.size(); ++t)
        s.put(mapping.node(t));
}

} // namespace

std::string
simKey(const machine::MachineConfig &config,
       const workload::Mapping &mapping, std::uint64_t warmup,
       std::uint64_t window)
{
    util::Serializer s;
    s.put(kCacheSchemaVersion);
    putBehavioralConfig(s, config, mapping);

    // Cycle budget.
    s.put(warmup);
    s.put(window);

    return util::Sha256::hashHex(s.buffer());
}

std::string
prefixKey(const machine::MachineConfig &config,
          const workload::Mapping &mapping, std::uint64_t clock)
{
    util::Serializer s;
    s.put(kCacheSchemaVersion);
    s.put(kPrefixSchemaVersion);
    // The payload is a checkpoint image: a serialized-layout change
    // must retire stored prefixes even when behavior is unchanged.
    s.put(machine::checkpointFormatVersion());
    putBehavioralConfig(s, config, mapping);
    s.put(clock);
    return util::Sha256::hashHex(s.buffer());
}

} // namespace cache
} // namespace locsim
