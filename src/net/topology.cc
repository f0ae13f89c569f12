/**
 * @file
 * TorusTopology implementation.
 */

#include "net/topology.hh"

#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace locsim {
namespace net {

TorusTopology::TorusTopology(int radix, int dims, bool wraparound)
    : radix_(radix), dims_(dims), wraparound_(wraparound)
{
    LOCSIM_ASSERT(radix >= 2, "torus radix must be >= 2, got ", radix);
    LOCSIM_ASSERT(dims >= 1, "torus dims must be >= 1, got ", dims);

    stride_.resize(static_cast<std::size_t>(dims_));
    sim::NodeId stride = 1;
    for (int d = 0; d < dims_; ++d) {
        stride_[static_cast<std::size_t>(d)] = stride;
        const sim::NodeId next = stride * static_cast<sim::NodeId>(radix_);
        LOCSIM_ASSERT(next / static_cast<sim::NodeId>(radix_) == stride,
                      "torus too large for NodeId");
        stride = next;
    }
    node_count_ = stride;
}

int
TorusTopology::coord(sim::NodeId node, int dim) const
{
    LOCSIM_ASSERT(node < node_count_, "node id out of range");
    LOCSIM_ASSERT(dim >= 0 && dim < dims_, "dimension out of range");
    return static_cast<int>(
        (node / stride_[static_cast<std::size_t>(dim)]) %
        static_cast<sim::NodeId>(radix_));
}

std::vector<int>
TorusTopology::coords(sim::NodeId node) const
{
    std::vector<int> out(static_cast<std::size_t>(dims_));
    for (int d = 0; d < dims_; ++d)
        out[static_cast<std::size_t>(d)] = coord(node, d);
    return out;
}

sim::NodeId
TorusTopology::nodeAt(const std::vector<int> &coords) const
{
    LOCSIM_ASSERT(coords.size() == static_cast<std::size_t>(dims_),
                  "coordinate arity mismatch");
    sim::NodeId id = 0;
    for (int d = 0; d < dims_; ++d) {
        const int c = coords[static_cast<std::size_t>(d)];
        LOCSIM_ASSERT(c >= 0 && c < radix_, "coordinate out of range: ",
                      c);
        id += static_cast<sim::NodeId>(c) *
              stride_[static_cast<std::size_t>(d)];
    }
    return id;
}

int
TorusTopology::ringOffset(int from, int to) const
{
    if (!wraparound_)
        return to - from;
    int delta = (to - from) % radix_;
    if (delta < 0)
        delta += radix_;
    // delta in [0, k); map to (-k/2, k/2], ties to positive.
    if (delta * 2 > radix_)
        delta -= radix_;
    return delta;
}

int
TorusTopology::distance(sim::NodeId a, sim::NodeId b) const
{
    int total = 0;
    for (int d = 0; d < dims_; ++d)
        total += std::abs(ringOffset(coord(a, d), coord(b, d)));
    return total;
}

HopStep
TorusTopology::nextHop(sim::NodeId at, sim::NodeId dst) const
{
    LOCSIM_ASSERT(at != dst, "nextHop called at destination");
    for (int d = 0; d < dims_; ++d) {
        const int here = coord(at, d);
        const int there = coord(dst, d);
        const int offset = ringOffset(here, there);
        if (offset == 0)
            continue;
        HopStep step;
        step.dim = d;
        step.dir = offset > 0 ? 1 : -1;
        const int next = here + step.dir;
        step.wraps =
            wraparound_ && (next < 0 || next >= radix_);
        return step;
    }
    LOCSIM_PANIC("nextHop: nodes ", at, " and ", dst,
                 " identical in all dimensions");
}

sim::NodeId
TorusTopology::neighbor(sim::NodeId node, int dim, int dir) const
{
    LOCSIM_ASSERT(dir == 1 || dir == -1, "dir must be +/-1");
    std::vector<int> c = coords(node);
    int &x = c[static_cast<std::size_t>(dim)];
    const int next = x + dir;
    if (!wraparound_ && (next < 0 || next >= radix_))
        return sim::kNodeNone;
    x = (next + radix_) % radix_;
    return nodeAt(c);
}

double
TorusTopology::averageRandomDistance() const
{
    // Exact expectation for uniform src/dst pairs with src != dst.
    const double k = static_cast<double>(radix_);
    const double n = static_cast<double>(dims_);
    const double total_nodes = static_cast<double>(node_count_);
    double per_dim_mean;
    if (wraparound_) {
        // Torus: by symmetry each coordinate delta is uniform over
        // [0, k); sum the shortest-way distances.
        double per_dim_sum = 0.0;
        for (int delta = 0; delta < radix_; ++delta) {
            int off = delta;
            if (off * 2 > radix_)
                off -= radix_;
            per_dim_sum += std::abs(off);
        }
        per_dim_mean = per_dim_sum / k;
    } else {
        // Mesh: E|i - j| over uniform i, j in [0, k) is
        // (k^2 - 1) / (3k).
        per_dim_mean = (k * k - 1.0) / (3.0 * k);
    }
    // E[dist over all pairs incl. self] = n * per_dim_mean;
    // excluding self-messages rescales by k^n / (k^n - 1).
    return n * per_dim_mean * total_nodes / (total_nodes - 1.0);
}

double
randomMappingDistance(int radix, int dims)
{
    LOCSIM_ASSERT(radix >= 2 && dims >= 1, "bad torus parameters");
    const double k = radix;
    const double n = dims;
    const double kn = std::pow(k, n);
    return n * std::pow(k, n + 1.0) / (4.0 * (kn - 1.0));
}

double
randomMappingDistanceForSize(double processors, int dims)
{
    LOCSIM_ASSERT(processors > 1.0, "need more than one processor");
    LOCSIM_ASSERT(dims >= 1, "bad dimension count");
    const double n = dims;
    const double k = std::pow(processors, 1.0 / n);
    return n * std::pow(k, n + 1.0) / (4.0 * (processors - 1.0));
}

} // namespace net
} // namespace locsim
