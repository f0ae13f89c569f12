/**
 * @file
 * k-ary n-dimensional torus (and mesh) topology.
 *
 * The paper's machines are organized as k-ary n-dimensional tori with
 * separate unidirectional channels in both directions of every ring
 * (Section 3.1); the physical Alewife machine was a mesh (no
 * wraparound). This class provides the coordinate arithmetic for
 * both variants, used by the flit-level simulator (routing) and the
 * analytical model (distance statistics, Equation 17).
 */

#ifndef LOCSIM_NET_TOPOLOGY_HH_
#define LOCSIM_NET_TOPOLOGY_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace locsim {
namespace net {

/** A per-dimension routing step: direction and wrap flag. */
struct HopStep
{
    int dim;        //!< dimension to move in
    int dir;        //!< +1 or -1 along the ring
    bool wraps;     //!< true if this hop traverses the wrap-around link
};

/**
 * Torus coordinate math for a k-ary n-dimensional network.
 *
 * Node ids are mixed-radix encodings: id = sum coord[d] * k^d.
 */
class TorusTopology
{
  public:
    /**
     * @param radix nodes per ring (k >= 2)
     * @param dims number of dimensions (n >= 1)
     * @param wraparound true for a torus (the paper's networks),
     *        false for a mesh (no edge-to-edge links, as in the
     *        physical Alewife machine)
     */
    TorusTopology(int radix, int dims, bool wraparound = true);

    int radix() const { return radix_; }
    int dims() const { return dims_; }

    /** True for a torus, false for a mesh. */
    bool wraparound() const { return wraparound_; }

    /** Total number of nodes, k^n. */
    sim::NodeId nodeCount() const { return node_count_; }

    /** Coordinate of @p node in dimension @p dim. */
    int coord(sim::NodeId node, int dim) const;

    /** All coordinates of @p node. */
    std::vector<int> coords(sim::NodeId node) const;

    /** Node id for a coordinate vector. */
    sim::NodeId nodeAt(const std::vector<int> &coords) const;

    /**
     * Shortest signed offset from @p from to @p to along one
     * dimension. On a torus this is the value in (-k/2, k/2] whose
     * traversal reaches @p to, with ties (|offset| == k/2) resolving
     * to the positive direction so routing decisions are consistent
     * hop to hop; on a mesh it is simply to - from.
     */
    int ringOffset(int from, int to) const;

    /** Minimal hop distance between two nodes (torus metric). */
    int distance(sim::NodeId a, sim::NodeId b) const;

    /**
     * The next e-cube hop from @p at toward @p dst: lowest unresolved
     * dimension first, shortest way around the ring.
     *
     * @pre at != dst.
     */
    HopStep nextHop(sim::NodeId at, sim::NodeId dst) const;

    /**
     * Neighbor of @p node one step along @p dim in direction @p dir.
     * On a mesh, stepping off the edge returns sim::kNodeNone.
     */
    sim::NodeId neighbor(sim::NodeId node, int dim, int dir) const;

    /**
     * Expected distance of a uniformly random message that never
     * targets its own source (paper Equation 17):
     *   d = n * k^(n+1) / (4 * (k^n - 1))   for even k.
     *
     * For odd radix the per-ring average differs; this method computes
     * the exact expectation for any k by enumeration of ring offsets.
     */
    double averageRandomDistance() const;

  private:
    int radix_;
    int dims_;
    bool wraparound_;
    sim::NodeId node_count_;
    std::vector<sim::NodeId> stride_; // k^d for each dimension
};

/**
 * Closed form of paper Equation 17 (valid for even radix):
 * d = n * k^(n+1) / (4 * (k^n - 1)).
 */
double randomMappingDistance(int radix, int dims);

/**
 * Machine-size form used in the paper's sweeps: given total processor
 * count N and dimension n, assume a square torus with radix
 * k = N^(1/n) and return the Equation 17 distance. N need not be a
 * perfect power; the (possibly fractional) radix is used directly,
 * matching how the paper plots continuous machine-size axes.
 */
double randomMappingDistanceForSize(double processors, int dims);

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_TOPOLOGY_HH_
