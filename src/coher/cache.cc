/**
 * @file
 * Cache implementation.
 */

#include "coher/cache.hh"

#include "util/logging.hh"

namespace locsim {
namespace coher {

Cache::Cache(std::uint32_t cache_bytes)
{
    LOCSIM_ASSERT(cache_bytes >= kLineBytes &&
                      cache_bytes % kLineBytes == 0,
                  "cache size must be a positive multiple of the line "
                  "size, got ",
                  cache_bytes);
    sets_ = cache_bytes / kLineBytes;
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    // Direct-mapped, indexed by the node-local line offset (the low
    // half of the address); lines at the same local offset on
    // different homes conflict, as in a physically indexed cache.
    return lineIndexOf(addr) % sets_;
}

CacheLookup
Cache::lookup(Addr addr) const
{
    const Line *line = lines_.find(setIndex(addr));
    if (!line || !line->valid || line->addr != lineOf(addr))
        return {};
    return {line->state, line->data};
}

std::optional<Eviction>
Cache::fill(Addr addr, CacheState state, std::uint64_t data)
{
    LOCSIM_ASSERT(state != CacheState::Invalid,
                  "cannot fill a line Invalid");
    const std::uint32_t set = setIndex(addr);
    Line *lp = lines_.find(set);
    if (!lp)
        lp = &lines_.insert(set, Line{});
    Line &line = *lp;
    std::optional<Eviction> evicted;
    if (line.valid && line.addr != lineOf(addr)) {
        evicted = Eviction{line.addr, line.state, line.data};
    }
    line.valid = true;
    line.addr = lineOf(addr);
    line.state = state;
    line.data = data;
    return evicted;
}

void
Cache::setState(Addr addr, CacheState state)
{
    Line *line = lines_.find(setIndex(addr));
    LOCSIM_ASSERT(line && line->valid && line->addr == lineOf(addr),
                  "setState on a non-resident line");
    if (state == CacheState::Invalid) {
        line->valid = false;
        line->state = CacheState::Invalid;
    } else {
        line->state = state;
    }
}

void
Cache::writeData(Addr addr, std::uint64_t data)
{
    Line *line = lines_.find(setIndex(addr));
    LOCSIM_ASSERT(line && line->valid && line->addr == lineOf(addr) &&
                      line->state == CacheState::Modified,
                  "writeData requires a resident Modified line");
    line->data = data;
}

void
Cache::invalidate(Addr addr)
{
    Line *line = lines_.find(setIndex(addr));
    if (line && line->valid && line->addr == lineOf(addr)) {
        line->valid = false;
        line->state = CacheState::Invalid;
    }
}

std::uint32_t
Cache::residentLines() const
{
    std::uint32_t count = 0;
    lines_.forEach([&](std::uint32_t, const Line &line) {
        count += line.valid ? 1 : 0;
    });
    return count;
}

bool
Cache::isDefault(const Line &line)
{
    return !line.valid && line.addr == 0 && line.data == 0 &&
           line.state == CacheState::Invalid;
}

void
Cache::saveState(util::Serializer &s) const
{
    s.put<std::uint64_t>(sets_);
    std::uint32_t stored = 0;
    lines_.forEach([&](std::uint32_t, const Line &line) {
        stored += isDefault(line) ? 0 : 1;
    });
    s.put(stored);
    // Probe sets in ascending order until every stored record is out:
    // canonical order without collecting and sorting keys per node.
    for (std::uint32_t set = 0; stored > 0; ++set) {
        const Line *line = lines_.find(set);
        if (!line || isDefault(*line))
            continue;
        s.put(set);
        s.put(line->valid);
        s.put(line->addr);
        s.put(line->state);
        s.put(line->data);
        --stored;
    }
}

void
Cache::loadState(util::Deserializer &d)
{
    if (d.get<std::uint64_t>() != sets_)
        d.fail("cache geometry mismatch");
    const auto stored = d.getBelow<std::uint32_t>(std::uint64_t{sets_} + 1);
    lines_.clear();
    std::uint32_t set = 0;
    for (std::uint32_t i = 0; i < stored; ++i) {
        if (d.getAfter(set, i == 0) >= sets_)
            d.fail("cache set index past the last");
        Line line;
        line.valid = d.getBool();
        line.addr = d.get<Addr>();
        line.state = d.getEnum(CacheState::Modified);
        line.data = d.get<std::uint64_t>();
        if (isDefault(line))
            d.fail("cache record equal to the default");
        lines_.insert(set, line);
    }
}

} // namespace coher
} // namespace locsim
