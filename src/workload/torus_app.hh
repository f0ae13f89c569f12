/**
 * @file
 * The paper's synthetic validation application (Section 3.2): each
 * thread keeps one state word in local memory and loops forever,
 * reading each torus-graph neighbour's state word, doing a trivial
 * computation, and writing a new value to its own word. Threads never
 * synchronize; all communication flows through cache coherence. The
 * same loop runs over any CommGraph (Section 1.1 defines locality by
 * an application's communication graph): only the neighbour list
 * changes.
 *
 * Multiple independent application instances run side by side, one
 * per hardware context, with exactly one thread of each instance on
 * every node; instances share nothing.
 *
 * The state words carry per-thread iteration counters, which lets the
 * program verify coherence end to end on every load: a value read
 * from a neighbour must never be smaller than one read previously (a
 * writer's counter only grows, so any regression means a stale copy
 * was served).
 */

#ifndef LOCSIM_WORKLOAD_TORUS_APP_HH_
#define LOCSIM_WORKLOAD_TORUS_APP_HH_

#include <cstdint>
#include <vector>

#include "coher/protocol.hh"
#include "net/topology.hh"
#include "proc/program.hh"
#include "workload/comm_graph.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace workload {

/** Maximum concurrent application instances (hardware contexts). */
inline constexpr std::uint32_t kMaxInstances = 8;

/**
 * Global address of the state word of (instance, thread) under a
 * mapping: homed at the node running the thread, in a line of its
 * own (distinct cache sets for distinct threads, so the workload's
 * footprint is conflict-free in a 64 KB cache, as on Alewife).
 */
coher::Addr stateWordAddr(const Mapping &mapping,
                          std::uint32_t instance,
                          std::uint32_t thread);

/** Configuration for one application instance set. */
struct TorusAppConfig
{
    /** Useful work before each memory operation, processor cycles. */
    std::uint32_t compute_cycles = 8;
    /**
     * Software prefetching: before loading neighbour i, issue a
     * non-blocking prefetch for neighbour i+1 (for the first
     * `prefetch_depth` loads of each iteration), overlapping the
     * next miss with the current one. 0 disables prefetching (the
     * paper's baseline). This realizes the "data prefetching"
     * mechanism of Section 2.1 in the simulator: it raises the
     * average number of outstanding transactions without additional
     * hardware contexts.
     */
    std::uint32_t prefetch_depth = 0;
};

/** One thread of the synthetic application. */
class NeighborProgram : public proc::ThreadProgram
{
  public:
    /**
     * The paper's loop: neighbours are the torus neighbours in
     * (dimension, +1, -1) order; a mesh's boundary threads skip the
     * missing edges and read fewer words.
     *
     * @param topo the application's communication graph (the same
     *        torus shape as the machine).
     * @param mapping thread placement (shared by all instances).
     * @param instance which independent application instance.
     * @param thread this thread's id in the graph.
     */
    NeighborProgram(const net::TorusTopology &topo,
                    const Mapping &mapping, std::uint32_t instance,
                    std::uint32_t thread, const TorusAppConfig &config);

    /**
     * The loop over any communication graph: neighbours are
     * @p thread's peers in adjacency order. This is what a downstream
     * user runs to evaluate placement for their own application's
     * communication pattern.
     */
    NeighborProgram(const CommGraph &graph, const Mapping &mapping,
                    std::uint32_t instance, std::uint32_t thread,
                    const TorusAppConfig &config);

    proc::Op start() override;
    proc::Op next(std::uint64_t previous_result) override;

    std::uint64_t iterations() const override { return iteration_; }
    std::uint64_t violations() const override { return violations_; }

    void
    saveState(util::Serializer &s) const override
    {
        s.put(pos_);
        s.put(iteration_);
        s.put(violations_);
        for (std::uint64_t seen : last_seen_)
            s.put(seen);
    }

    void
    loadState(util::Deserializer &d) override
    {
        pos_ = d.getBelow<std::uint32_t>(sequence_.size());
        iteration_ = d.get<std::uint64_t>();
        violations_ = d.get<std::uint64_t>();
        for (std::uint64_t &seen : last_seen_)
            seen = d.get<std::uint64_t>();
    }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) +
               neighbor_addrs_.capacity() * sizeof(coher::Addr) +
               last_seen_.capacity() * sizeof(std::uint64_t) +
               sequence_.capacity() * sizeof(Step);
    }

  private:
    NeighborProgram(const std::vector<std::uint32_t> &neighbors,
                    const Mapping &mapping, std::uint32_t instance,
                    std::uint32_t thread, const TorusAppConfig &config);

    proc::Op makeOp() const;

    TorusAppConfig config_;
    std::uint32_t thread_;
    coher::Addr own_addr_;
    std::vector<coher::Addr> neighbor_addrs_;
    /** Last value seen from each neighbour (coherence check). */
    std::vector<std::uint64_t> last_seen_;

    /** One step of the precomputed per-iteration op sequence. */
    struct Step
    {
        proc::Op::Kind kind;
        /** Neighbour index for loads/prefetches; unused for stores. */
        std::uint32_t neighbor = 0;
    };
    std::vector<Step> sequence_;

    /** Position within sequence_. */
    std::uint32_t pos_ = 0;
    std::uint64_t iteration_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace workload
} // namespace locsim

#endif // LOCSIM_WORKLOAD_TORUS_APP_HH_
