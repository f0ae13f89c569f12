/**
 * @file
 * A direct-mapped write-back cache with MSI line states, modeled
 * after Alewife's 64-kilobyte unified cache with 16-byte lines
 * (Section 3.1).
 *
 * The cache stores one 64-bit verification word per line (the
 * synthetic application's state word) so protocol correctness can be
 * checked end to end.
 *
 * Storage is sparse: the workload touches a handful of sets per node,
 * so line records are materialized on first touch in a flat map keyed
 * by set index instead of a dense 4096-set array (128KB per node at
 * the default geometry). A touched set's record is never dropped —
 * invalidation leaves the stale tag/data residue in place exactly as
 * the dense array did. Checkpoints are sparse too: saveState emits
 * only the records that differ from the default, in ascending set
 * order, so an image carries cache state, not padding.
 */

#ifndef LOCSIM_COHER_CACHE_HH_
#define LOCSIM_COHER_CACHE_HH_

#include <cstdint>
#include <optional>

#include "coher/protocol.hh"
#include "util/flat_map.hh"
#include "util/serialize.hh"

namespace locsim {
namespace coher {

/** MSI stable states of a cached line. */
enum class CacheState : std::uint8_t {
    Invalid,
    Shared,
    Modified,
};

/** Result of probing the cache for an address. */
struct CacheLookup
{
    CacheState state = CacheState::Invalid;
    std::uint64_t data = 0;
};

/** A line evicted to make room for a fill. */
struct Eviction
{
    Addr addr = 0;
    CacheState state = CacheState::Invalid;
    std::uint64_t data = 0;
};

/** Direct-mapped write-back cache. */
class Cache
{
  public:
    /**
     * @param cache_bytes total capacity; must be a multiple of the
     *        line size.
     */
    explicit Cache(std::uint32_t cache_bytes);

    /** Number of sets (lines) in the cache. */
    std::uint32_t sets() const { return sets_; }

    /** Probe for an address without changing state. */
    CacheLookup lookup(Addr addr) const;

    /** Current state of the line holding @p addr (Invalid if absent). */
    CacheState state(Addr addr) const { return lookup(addr).state; }

    /**
     * Install a line in the given state, returning the line displaced
     * from the set, if any (the controller must write back Modified
     * victims).
     */
    std::optional<Eviction> fill(Addr addr, CacheState state,
                                 std::uint64_t data);

    /**
     * Update the state of a resident line (e.g. Shared -> Modified on
     * an upgrade grant, Modified -> Shared on a Fetch).
     *
     * @pre the line is resident.
     */
    void setState(Addr addr, CacheState state);

    /** Write the verification word of a resident Modified line. */
    void writeData(Addr addr, std::uint64_t data);

    /** Invalidate a line if resident (idempotent). */
    void invalidate(Addr addr);

    /** Count of resident (non-invalid) lines. */
    std::uint32_t residentLines() const;

    /** Resident bytes of cache storage (footprint accounting). */
    std::size_t memoryBytes() const { return lines_.memoryBytes(); }

    /**
     * Serialize the set count (the geometry check), the number of
     * stored records, then one {u32 set, bool valid, u64 addr, u8
     * state, u64 data} entry per set whose record differs from the
     * default, in strictly ascending set order.
     */
    void saveState(util::Serializer &s) const;

    /**
     * Restore a section written by saveState. Throws
     * std::runtime_error on a geometry mismatch, a record count above
     * the set count, a set index out of range or not above the
     * previous one, a state beyond Modified, a record equal to the
     * default (never stored), or truncated input.
     */
    void loadState(util::Deserializer &d);

  private:
    struct Line
    {
        Addr addr = 0; // line-aligned address (acts as the tag)
        std::uint64_t data = 0;
        CacheState state = CacheState::Invalid;
        bool valid = false;
    };

    /** True for the record of a never-touched set (all zero). */
    static bool isDefault(const Line &line);

    std::uint32_t setIndex(Addr addr) const;

    std::uint32_t sets_ = 0;
    /** Touched sets only, keyed by set index; records never erased. */
    util::FlatMap<std::uint32_t, Line> lines_;
};

} // namespace coher
} // namespace locsim

#endif // LOCSIM_COHER_CACHE_HH_
