/**
 * @file
 * Neighbour-loop application implementation.
 */

#include "workload/torus_app.hh"

#include <algorithm>

#include "util/logging.hh"

namespace locsim {
namespace workload {

coher::Addr
stateWordAddr(const Mapping &mapping, std::uint32_t instance,
              std::uint32_t thread)
{
    LOCSIM_ASSERT(instance < kMaxInstances, "instance out of range");
    const sim::NodeId home = mapping.node(thread);
    const std::uint32_t line = thread * kMaxInstances + instance;
    return coher::makeAddr(home, line);
}

namespace {

std::vector<std::uint32_t>
torusNeighbors(const net::TorusTopology &topo, std::uint32_t thread)
{
    std::vector<std::uint32_t> neighbors;
    for (int dim = 0; dim < topo.dims(); ++dim) {
        for (int dir : {+1, -1}) {
            const sim::NodeId nbr = topo.neighbor(thread, dim, dir);
            if (nbr != sim::kNodeNone)
                neighbors.push_back(nbr);
        }
    }
    return neighbors;
}

std::vector<std::uint32_t>
graphNeighbors(const CommGraph &graph, const Mapping &mapping,
               std::uint32_t thread)
{
    LOCSIM_ASSERT(graph.vertexCount() == mapping.size(),
                  "graph and mapping sizes must match");
    std::vector<std::uint32_t> neighbors;
    for (const CommGraph::Edge &edge : graph.neighbors(thread))
        neighbors.push_back(edge.peer);
    return neighbors;
}

} // namespace

NeighborProgram::NeighborProgram(const net::TorusTopology &topo,
                                 const Mapping &mapping,
                                 std::uint32_t instance,
                                 std::uint32_t thread,
                                 const TorusAppConfig &config)
    : NeighborProgram(torusNeighbors(topo, thread), mapping, instance,
                      thread, config)
{
}

NeighborProgram::NeighborProgram(const CommGraph &graph,
                                 const Mapping &mapping,
                                 std::uint32_t instance,
                                 std::uint32_t thread,
                                 const TorusAppConfig &config)
    : NeighborProgram(graphNeighbors(graph, mapping, thread), mapping,
                      instance, thread, config)
{
}

NeighborProgram::NeighborProgram(
    const std::vector<std::uint32_t> &neighbors, const Mapping &mapping,
    std::uint32_t instance, std::uint32_t thread,
    const TorusAppConfig &config)
    : config_(config), thread_(thread),
      own_addr_(stateWordAddr(mapping, instance, thread))
{
    LOCSIM_ASSERT(!neighbors.empty(),
                  "thread ", thread, " has no neighbours");
    for (std::uint32_t nbr : neighbors)
        neighbor_addrs_.push_back(stateWordAddr(mapping, instance, nbr));
    last_seen_.assign(neighbor_addrs_.size(), 0);

    // Build the per-iteration op sequence: before load i, prefetch
    // neighbour i+1 (for the first prefetch_depth loads), then the
    // store of the thread's own word.
    const auto count = static_cast<std::uint32_t>(neighbors.size());
    const std::uint32_t depth =
        std::min<std::uint32_t>(config_.prefetch_depth, count - 1);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (i < depth) {
            sequence_.push_back(
                {proc::Op::Kind::Prefetch, i + 1});
        }
        sequence_.push_back({proc::Op::Kind::Load, i});
    }
    if (depth >= 1) {
        // Also prefetch the next iteration's first neighbour so the
        // store's stall hides that miss too.
        sequence_.push_back({proc::Op::Kind::Prefetch, 0});
    }
    sequence_.push_back({proc::Op::Kind::Store, 0});
}

proc::Op
NeighborProgram::makeOp() const
{
    const Step &step = sequence_[pos_];
    proc::Op op;
    op.kind = step.kind;
    switch (step.kind) {
      case proc::Op::Kind::Prefetch:
        op.addr = neighbor_addrs_[step.neighbor];
        op.compute_cycles = 0; // overlap, not work
        break;
      case proc::Op::Kind::Load:
        op.addr = neighbor_addrs_[step.neighbor];
        op.compute_cycles = config_.compute_cycles;
        break;
      case proc::Op::Kind::Store:
        op.addr = own_addr_;
        op.compute_cycles = config_.compute_cycles;
        // Encode (iteration, thread) so readers can verify
        // monotonicity per writer.
        op.store_value = ((iteration_ + 1) << 16) | thread_;
        break;
    }
    return op;
}

proc::Op
NeighborProgram::start()
{
    return makeOp();
}

proc::Op
NeighborProgram::next(std::uint64_t previous_result)
{
    const Step &completed = sequence_[pos_];
    if (completed.kind == proc::Op::Kind::Load) {
        // A neighbour's counter must never regress: coherence must
        // serve a copy at least as fresh as any seen before.
        const std::uint64_t counter = previous_result >> 16;
        if (counter < (last_seen_[completed.neighbor] >> 16))
            ++violations_;
        last_seen_[completed.neighbor] = previous_result;
    }
    ++pos_;
    if (pos_ == sequence_.size()) {
        // The store completed; one full iteration done.
        pos_ = 0;
        ++iteration_;
    }
    return makeOp();
}

} // namespace workload
} // namespace locsim
