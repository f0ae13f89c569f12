/**
 * @file
 * The limited-pointer directory kept at each line's home node.
 *
 * Tracks which nodes hold each home line and in what state, plus the
 * backing memory word used for end-to-end verification. Transient
 * (busy) bookkeeping lives in the controller; the directory itself
 * stores only stable sharing state.
 *
 * Representation (large-radix compaction): entries live in a chunked
 * pool indexed by a flat hash map keyed by line, so references stay
 * valid while new entries materialize. Each entry stores a short
 * insertion-ordered pointer prefix inline; sets that outgrow it spill
 * to an overflow slot holding the full insertion-ordered list plus a
 * bitmap membership accelerator (fixed words covering node ids below
 * 1024, grown lazily above). Insertion order is authoritative in both
 * forms: it determines Inv send order and checkpoint bytes, so a
 * pure-bitmap sharer set (ascending iteration) would change observable
 * simulation state. See DESIGN.md.
 */

#ifndef LOCSIM_COHER_DIRECTORY_HH_
#define LOCSIM_COHER_DIRECTORY_HH_

#include <array>
#include <cstdint>
#include <span>

#include "coher/protocol.hh"
#include "util/flat_map.hh"
#include "util/pool.hh"
#include "util/serialize.hh"

namespace locsim {
namespace coher {

/** Stable directory states for one home line. */
enum class DirState : std::uint8_t {
    Uncached,   //!< no remote copies; memory is current
    Shared,     //!< one or more read copies; memory is current
    Exclusive,  //!< one Modified copy at `owner`; memory is stale
};

/** Sharer pointers stored inline in a DirEntry before spilling. */
inline constexpr std::uint32_t kInlineSharers = 6;

/**
 * Directory entry for one home line. Trivially copyable; the sharer
 * set is the inline pointer prefix while `overflow_slot` is unset,
 * and an overflow slot owned by the Directory afterwards. Mutate the
 * sharer set only through the Directory's accessors.
 */
struct DirEntry
{
    std::uint64_t memory = 0; //!< backing memory word
    sim::NodeId owner = sim::kNodeNone; //!< valid when Exclusive
    std::uint32_t sharer_count = 0; //!< sharers recorded (any form)
    /** Insertion-ordered pointer prefix (valid while not spilled). */
    std::array<sim::NodeId, kInlineSharers> inline_sharers{};
    /** Overflow slot in the owning Directory, or kNoOverflow. */
    std::uint32_t overflow_slot = 0xffffffffu;
    DirState state = DirState::Uncached;
};

/** Per-node directory + memory for the lines homed there. */
class Directory
{
  public:
    static constexpr std::uint32_t kNoOverflow = 0xffffffffu;

    explicit Directory(sim::NodeId home) : home_(home) {}

    /** The node this directory belongs to. */
    sim::NodeId home() const { return home_; }

    /**
     * Access (and create on demand) the entry for a line. The
     * reference stays valid across later entry() calls (pooled
     * storage never relocates).
     *
     * @pre homeOf(addr) == home().
     */
    DirEntry &entry(Addr addr);

    /**
     * Read-only lookup; returns nullptr for never-touched lines.
     *
     * @pre homeOf(addr) == home().
     */
    const DirEntry *find(Addr addr) const;

    /** Add a sharer if absent (appends to the insertion order). */
    void addSharer(DirEntry &entry, sim::NodeId node);

    /** Remove a sharer if present (preserves relative order). */
    void removeSharer(DirEntry &entry, sim::NodeId node);

    /** True if @p node is recorded as a sharer. */
    bool isSharer(const DirEntry &entry, sim::NodeId node) const;

    /** Drop every sharer (releases any overflow slot). */
    void clearSharers(DirEntry &entry);

    /**
     * The sharer set in insertion order. Invalidated by any sharer
     * mutation on the same entry.
     */
    std::span<const sim::NodeId> sharers(const DirEntry &entry) const;

    /** Number of entries materialized (diagnostics). */
    std::size_t entryCount() const { return index_.size(); }

    /** Resident bytes of directory storage (footprint accounting). */
    std::size_t memoryBytes() const;

    /**
     * Serialize entries sorted by address so the byte stream is
     * independent of map iteration order. Sharer sets keep their
     * insertion order — it determines Inv send order, so it is part
     * of the simulation state. The byte layout is identical to the
     * historical full-map representation (LSCK stability).
     */
    void saveState(util::Serializer &s) const;

    /**
     * Restore entries written by saveState() on a machine of @p nodes
     * nodes. Throws std::runtime_error on lines out of order,
     * repeated, unaligned or homed at another node, a state past
     * Exclusive, a sharer listed twice, and a sharer or owner id at
     * or past @p nodes (an owner may be kNodeNone).
     */
    void loadState(util::Deserializer &d, sim::NodeId nodes);

  private:
    /** A spilled sharer set: full insertion order plus a bitmap. */
    struct OverflowSet
    {
        std::vector<sim::NodeId> order; //!< authoritative order
        std::vector<std::uint64_t> bits; //!< membership accelerator
    };

    /** Entries come and stay a handful per node; keep chunks small. */
    using EntryPool = util::Pool<DirEntry, 4>;

    /** Move an inline entry's sharers into a fresh overflow slot. */
    void spill(DirEntry &entry);

    sim::NodeId home_;
    EntryPool entries_;
    util::FlatMap<Addr, EntryPool::Handle> index_;
    std::vector<OverflowSet> overflow_;
    std::vector<std::uint32_t> overflow_free_;
};

} // namespace coher
} // namespace locsim

#endif // LOCSIM_COHER_DIRECTORY_HH_
