/**
 * @file
 * Directory implementation.
 */

#include "coher/directory.hh"

#include <algorithm>

#include "util/logging.hh"

namespace locsim {
namespace coher {

namespace {

/** Bitmap words pre-sized on spill: covers node ids below 1024. */
constexpr std::size_t kFixedBitmapWords = 16;

void
bitSet(std::vector<std::uint64_t> &bits, sim::NodeId node)
{
    const std::size_t word = node >> 6;
    if (word >= bits.size())
        bits.resize(word + 1, 0);
    bits[word] |= std::uint64_t{1} << (node & 63);
}

void
bitClear(std::vector<std::uint64_t> &bits, sim::NodeId node)
{
    const std::size_t word = node >> 6;
    if (word < bits.size())
        bits[word] &= ~(std::uint64_t{1} << (node & 63));
}

bool
bitTest(const std::vector<std::uint64_t> &bits, sim::NodeId node)
{
    const std::size_t word = node >> 6;
    return word < bits.size() &&
           (bits[word] >> (node & 63)) & std::uint64_t{1};
}

} // namespace

DirEntry &
Directory::entry(Addr addr)
{
    LOCSIM_ASSERT(homeOf(addr) == home_,
                  "directory access for a line homed elsewhere: node ",
                  home_, " asked about home ", homeOf(addr));
    const Addr line = lineOf(addr);
    if (EntryPool::Handle *h = index_.find(line))
        return entries_.get(*h);
    const EntryPool::Handle h = entries_.alloc();
    DirEntry &e = entries_.get(h);
    e = DirEntry{}; // pool recycles without destroy
    index_.insert(line, h);
    return e;
}

const DirEntry *
Directory::find(Addr addr) const
{
    LOCSIM_ASSERT(homeOf(addr) == home_,
                  "directory lookup for a line homed elsewhere: node ",
                  home_, " asked about home ", homeOf(addr));
    const EntryPool::Handle *h = index_.find(lineOf(addr));
    return h ? &entries_.get(*h) : nullptr;
}

void
Directory::addSharer(DirEntry &entry, sim::NodeId node)
{
    if (isSharer(entry, node))
        return;
    if (entry.overflow_slot == kNoOverflow) {
        if (entry.sharer_count < kInlineSharers) {
            entry.inline_sharers[entry.sharer_count++] = node;
            return;
        }
        spill(entry);
    }
    OverflowSet &o = overflow_[entry.overflow_slot];
    o.order.push_back(node);
    bitSet(o.bits, node);
    ++entry.sharer_count;
}

void
Directory::removeSharer(DirEntry &entry, sim::NodeId node)
{
    if (entry.overflow_slot != kNoOverflow) {
        // A spilled set never shrinks back inline: the slot is
        // released on clearSharers(). Iteration order is the `order`
        // list either way, so the forms are indistinguishable.
        OverflowSet &o = overflow_[entry.overflow_slot];
        auto it = std::find(o.order.begin(), o.order.end(), node);
        if (it == o.order.end())
            return;
        o.order.erase(it);
        bitClear(o.bits, node);
        --entry.sharer_count;
        return;
    }
    for (std::uint32_t i = 0; i < entry.sharer_count; ++i) {
        if (entry.inline_sharers[i] != node)
            continue;
        for (std::uint32_t j = i + 1; j < entry.sharer_count; ++j)
            entry.inline_sharers[j - 1] = entry.inline_sharers[j];
        --entry.sharer_count;
        return;
    }
}

bool
Directory::isSharer(const DirEntry &entry, sim::NodeId node) const
{
    if (entry.overflow_slot != kNoOverflow)
        return bitTest(overflow_[entry.overflow_slot].bits, node);
    for (std::uint32_t i = 0; i < entry.sharer_count; ++i) {
        if (entry.inline_sharers[i] == node)
            return true;
    }
    return false;
}

void
Directory::clearSharers(DirEntry &entry)
{
    if (entry.overflow_slot != kNoOverflow) {
        OverflowSet &o = overflow_[entry.overflow_slot];
        o.order.clear();
        std::fill(o.bits.begin(), o.bits.end(), 0);
        overflow_free_.push_back(entry.overflow_slot);
        entry.overflow_slot = kNoOverflow;
    }
    entry.sharer_count = 0;
}

std::span<const sim::NodeId>
Directory::sharers(const DirEntry &entry) const
{
    if (entry.overflow_slot != kNoOverflow) {
        const OverflowSet &o = overflow_[entry.overflow_slot];
        return {o.order.data(), o.order.size()};
    }
    return {entry.inline_sharers.data(), entry.sharer_count};
}

void
Directory::spill(DirEntry &entry)
{
    std::uint32_t slot;
    if (!overflow_free_.empty()) {
        slot = overflow_free_.back();
        overflow_free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(overflow_.size());
        overflow_.emplace_back();
    }
    OverflowSet &o = overflow_[slot];
    o.order.assign(entry.inline_sharers.begin(),
                   entry.inline_sharers.begin() + entry.sharer_count);
    if (o.bits.size() < kFixedBitmapWords)
        o.bits.resize(kFixedBitmapWords, 0);
    for (sim::NodeId node : o.order)
        bitSet(o.bits, node);
    entry.overflow_slot = slot;
}

std::size_t
Directory::memoryBytes() const
{
    std::size_t bytes = entries_.memoryBytes() + index_.memoryBytes() +
                        overflow_.capacity() * sizeof(OverflowSet) +
                        overflow_free_.capacity() *
                            sizeof(std::uint32_t);
    for (const OverflowSet &o : overflow_) {
        bytes += o.order.capacity() * sizeof(sim::NodeId) +
                 o.bits.capacity() * sizeof(std::uint64_t);
    }
    return bytes;
}

void
Directory::saveState(util::Serializer &s) const
{
    std::vector<Addr> keys;
    keys.reserve(index_.size());
    index_.forEach(
        [&](Addr key, EntryPool::Handle) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    s.put<std::uint64_t>(keys.size());
    for (Addr key : keys) {
        const DirEntry &entry = entries_.get(*index_.find(key));
        s.put(key);
        s.put(entry.state);
        s.put<std::uint32_t>(entry.sharer_count);
        for (sim::NodeId sharer : sharers(entry))
            s.put(sharer);
        s.put(entry.owner);
        s.put(entry.memory);
    }
}

void
Directory::loadState(util::Deserializer &d, sim::NodeId nodes)
{
    entries_.clear();
    index_.clear();
    overflow_.clear();
    overflow_free_.clear();
    Addr key = 0;
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n; ++i) {
        d.getAfter(key, i == 0);
        if (homeOf(key) != home_ || lineOf(key) != key)
            d.fail("directory entry for a line homed elsewhere or "
                   "unaligned");
        DirEntry &entry = this->entry(key);
        entry.state = d.getEnum(DirState::Exclusive);
        const auto sharer_count = d.get<std::uint32_t>();
        for (std::uint32_t j = 0; j < sharer_count; ++j) {
            // A sharer id sizes the overflow bitmap.
            const auto sharer = d.getBelow<sim::NodeId>(nodes);
            if (isSharer(entry, sharer))
                d.fail("directory sharer listed twice");
            addSharer(entry, sharer);
        }
        entry.owner = d.getBelowOr(nodes, sim::kNodeNone);
        entry.memory = d.get<std::uint64_t>();
    }
}

} // namespace coher
} // namespace locsim
