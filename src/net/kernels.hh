/**
 * @file
 * Lane-vector kernel for the router hot path.
 *
 * The start-of-cycle latch is the one data-parallel pass left in the
 * fabric's per-cycle fixed cost: wake |= staged, staged = 0 per router
 * word, plus the busy test (buffered | wakes) != 0, for a shard's
 * contiguous node range. It is compiled at scalar, SSE2 and AVX2
 * levels in one binary (the AVX2 body carries a gnu::target
 * attribute) and selected by the util::simd::Level the caller
 * resolved at construction. All levels compute bit-identical results.
 *
 * Concurrency contract: shard node ranges share cache lines at their
 * boundaries, so the caller peels the range to absolute multiples of
 * the group size; partial boundary groups (which may share a vector
 * with another shard's nodes) take the scalar path in the caller.
 */

#ifndef LOCSIM_NET_KERNELS_HH_
#define LOCSIM_NET_KERNELS_HH_

#include <cstddef>
#include <cstdint>

#include "util/simd.hh"

namespace locsim {
namespace net {
namespace kernels {

/**
 * Latch staged router wakes and evaluate busy flags for the absolute
 * node range [first, last): wake |= exchange(staged, 0) for both wake
 * pairs, then busy = (buffered | flit_wake | credit_wake) != 0.
 * @p first and @p last must be multiples of 8 (the caller peels
 * boundary nodes scalar); busy bits land in @p busy_bytes, one byte
 * per group of 8 nodes, indexed by (node - first) / 8, bit (node % 8).
 */
void routerLatchBusy(std::uint32_t *flit_staged,
                     std::uint32_t *flit_wake,
                     std::uint32_t *credit_staged,
                     std::uint32_t *credit_wake,
                     const std::uint32_t *buffered, std::size_t first,
                     std::size_t last, std::uint8_t *busy_bytes,
                     util::simd::Level level);

} // namespace kernels
} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_KERNELS_HH_
