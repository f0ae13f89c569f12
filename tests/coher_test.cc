/**
 * @file
 * Coherence layer tests: cache and directory units, plus protocol
 * integration over a real network fabric (reads see writes, writers
 * serialize, invalidations and fetches work, evictions write back,
 * and races resolve).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "coher/cache.hh"
#include "coher/controller.hh"
#include "coher/directory.hh"
#include "net/network.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "util/random.hh"

namespace locsim {
namespace coher {
namespace {

TEST(Address, ComposeDecompose)
{
    const Addr addr = makeAddr(13, 42);
    EXPECT_EQ(homeOf(addr), 13u);
    EXPECT_EQ(lineIndexOf(addr), 42u);
    EXPECT_EQ(lineOf(addr + 7), addr);
}

TEST(CacheUnit, FillLookupInvalidate)
{
    Cache cache(16 * kLineBytes);
    const Addr addr = makeAddr(1, 3);
    EXPECT_EQ(cache.state(addr), CacheState::Invalid);
    EXPECT_FALSE(cache.fill(addr, CacheState::Shared, 99).has_value());
    EXPECT_EQ(cache.state(addr), CacheState::Shared);
    EXPECT_EQ(cache.lookup(addr).data, 99u);
    EXPECT_EQ(cache.residentLines(), 1u);
    cache.invalidate(addr);
    EXPECT_EQ(cache.state(addr), CacheState::Invalid);
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(CacheUnit, DirectMappedConflictEvicts)
{
    Cache cache(4 * kLineBytes); // 4 sets
    const Addr a = makeAddr(0, 1);
    const Addr b = makeAddr(0, 5); // 5 % 4 == 1: same set as a
    cache.fill(a, CacheState::Modified, 7);
    const auto evicted = cache.fill(b, CacheState::Shared, 8);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, lineOf(a));
    EXPECT_EQ(evicted->state, CacheState::Modified);
    EXPECT_EQ(evicted->data, 7u);
    EXPECT_EQ(cache.state(a), CacheState::Invalid);
    EXPECT_EQ(cache.state(b), CacheState::Shared);
}

TEST(CacheUnit, SameLineRefillNoEviction)
{
    Cache cache(4 * kLineBytes);
    const Addr a = makeAddr(2, 1);
    cache.fill(a, CacheState::Shared, 1);
    EXPECT_FALSE(cache.fill(a, CacheState::Modified, 2).has_value());
    EXPECT_EQ(cache.state(a), CacheState::Modified);
}

TEST(CacheUnit, DifferentHomesSameOffsetConflict)
{
    Cache cache(4 * kLineBytes);
    const Addr a = makeAddr(0, 1);
    const Addr b = makeAddr(3, 1); // same local offset, other home
    cache.fill(a, CacheState::Shared, 1);
    const auto evicted = cache.fill(b, CacheState::Shared, 2);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, lineOf(a));
}

TEST(CacheUnit, WriteDataRequiresModified)
{
    Cache cache(4 * kLineBytes);
    const Addr a = makeAddr(0, 0);
    cache.fill(a, CacheState::Modified, 0);
    cache.writeData(a, 123);
    EXPECT_EQ(cache.lookup(a).data, 123u);
}

/** One cache-section entry as Cache::saveState writes it. */
void
putEntry(util::Serializer &s, std::uint32_t set, std::uint8_t state)
{
    s.put(set);
    s.put(true);
    s.put(makeAddr(1, set));
    s.put(state);
    s.put<std::uint64_t>(7);
}

/** Section header: the set count, then the stored-record count. */
util::Serializer
sectionHeader(std::uint64_t sets, std::uint32_t stored)
{
    util::Serializer s;
    s.put(sets);
    s.put(stored);
    return s;
}

TEST(CacheUnit, CheckpointRejectsMalformedSection)
{
    constexpr std::uint32_t kSets = 4;
    const auto shared = static_cast<std::uint8_t>(CacheState::Shared);

    // The builders produce a section that loads when well formed.
    util::Serializer good = sectionHeader(kSets, 2);
    putEntry(good, 1, shared);
    putEntry(good, 3, shared);
    Cache loaded(kSets * kLineBytes);
    util::Deserializer gd(good.buffer());
    loaded.loadState(gd);
    EXPECT_TRUE(gd.atEnd());
    EXPECT_EQ(loaded.state(makeAddr(1, 3)), CacheState::Shared);

    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<Case> cases;
    {
        cases.push_back({"geometry mismatch",
                         sectionHeader(kSets * 2, 0).takeBuffer()});
    }
    {
        cases.push_back({"record count > sets",
                         sectionHeader(kSets, kSets + 1).takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 1);
        putEntry(s, kSets, shared);
        cases.push_back({"set index == sets", s.takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 2);
        putEntry(s, 1, shared);
        putEntry(s, 1, shared);
        cases.push_back({"repeated index", s.takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 2);
        putEntry(s, 2, shared);
        putEntry(s, 1, shared);
        cases.push_back({"descending indices", s.takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 1);
        putEntry(s, 0, 3);
        cases.push_back({"state byte 3", s.takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 1);
        s.put<std::uint32_t>(0);
        s.put<std::uint8_t>(2); // valid
        s.put(makeAddr(1, 0));
        s.put(shared);
        s.put<std::uint64_t>(7);
        cases.push_back({"valid byte 2", s.takeBuffer()});
    }
    {
        // saveState never stores the never-touched record.
        util::Serializer s = sectionHeader(kSets, 1);
        s.put<std::uint32_t>(2);
        s.put(false);
        s.put(Addr{0});
        s.put(CacheState::Invalid);
        s.put<std::uint64_t>(0);
        cases.push_back({"default record", s.takeBuffer()});
    }
    {
        util::Serializer s = sectionHeader(kSets, 1);
        putEntry(s, 0, shared);
        std::vector<std::uint8_t> bytes = s.takeBuffer();
        bytes.pop_back();
        cases.push_back({"entry cut short", bytes});
    }
    for (const Case &c : cases) {
        Cache cache(kSets * kLineBytes);
        util::Deserializer d(c.bytes);
        EXPECT_THROW(cache.loadState(d), std::runtime_error) << c.name;
    }
}

TEST(CacheUnit, CheckpointOmitsDefaultRecords)
{
    Cache cache(4 * kLineBytes);
    // Line address 0 with data 0, invalidated: set 0 holds the
    // all-default record again and is left out of the image.
    cache.fill(makeAddr(0, 0), CacheState::Modified, 0);
    cache.invalidate(makeAddr(0, 0));
    util::Serializer empty;
    cache.saveState(empty);
    EXPECT_EQ(empty.buffer(), sectionHeader(4, 0).buffer());

    // Invalidated residue with a nonzero address is state: kept.
    cache.fill(makeAddr(2, 1), CacheState::Shared, 0);
    cache.invalidate(makeAddr(2, 1));
    util::Serializer first;
    cache.saveState(first);
    util::Deserializer d(first.buffer());
    EXPECT_EQ(d.get<std::uint64_t>(), 4u);
    EXPECT_EQ(d.get<std::uint32_t>(), 1u);
    EXPECT_EQ(d.get<std::uint32_t>(), 1u); // the set index

    Cache restored(4 * kLineBytes);
    util::Deserializer rd(first.buffer());
    restored.loadState(rd);
    EXPECT_EQ(restored.state(makeAddr(2, 1)), CacheState::Invalid);
    util::Serializer second;
    restored.saveState(second);
    EXPECT_EQ(second.buffer(), first.buffer());
}

TEST(DirectoryUnit, SharerManagement)
{
    Directory dir(5);
    const Addr addr = makeAddr(5, 9);
    DirEntry &entry = dir.entry(addr);
    EXPECT_EQ(entry.state, DirState::Uncached);
    dir.addSharer(entry, 1);
    dir.addSharer(entry, 2);
    dir.addSharer(entry, 1); // idempotent
    EXPECT_EQ(entry.sharer_count, 2u);
    EXPECT_TRUE(dir.isSharer(entry, 1));
    dir.removeSharer(entry, 1);
    EXPECT_FALSE(dir.isSharer(entry, 1));
    EXPECT_EQ(dir.entryCount(), 1u);
    EXPECT_NE(dir.find(addr), nullptr);
    EXPECT_EQ(dir.find(makeAddr(5, 10)), nullptr);
}

TEST(DirectoryUnit, MisHomedAccessDies)
{
    Directory dir(5);
    // Both paths guard the home invariant: entry() always did; the
    // read path used to silently return nullptr for a line homed
    // elsewhere, masking routing bugs in the caller.
    EXPECT_DEATH(dir.entry(makeAddr(6, 0)), "homed elsewhere");
    EXPECT_DEATH(dir.find(makeAddr(6, 0)), "homed elsewhere");
}

TEST(DirectoryUnit, RandomizedSharerChurnMatchesOracle)
{
    // Randomized add/remove/clear churn against an insertion-ordered
    // oracle, with node ids spanning the inline-pointer capacity, the
    // overflow spill, and the fixed bitmap words (ids above 1024).
    Directory dir(3);
    DirEntry &entry = dir.entry(makeAddr(3, 1));
    std::vector<sim::NodeId> oracle;
    util::Rng rng(20260808);
    const sim::NodeId universe = 1400;

    auto verify = [&] {
        ASSERT_EQ(entry.sharer_count, oracle.size());
        const auto span = dir.sharers(entry);
        ASSERT_EQ(span.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i)
            ASSERT_EQ(span[i], oracle[i]) << "position " << i;
        for (int probe = 0; probe < 16; ++probe) {
            const auto node = static_cast<sim::NodeId>(
                rng.nextBounded(universe));
            const bool expect = std::find(oracle.begin(), oracle.end(),
                                          node) != oracle.end();
            ASSERT_EQ(dir.isSharer(entry, node), expect)
                << "node " << node;
        }
    };

    for (int op = 0; op < 4000; ++op) {
        const double roll = rng.nextDouble();
        const auto node =
            static_cast<sim::NodeId>(rng.nextBounded(universe));
        if (roll < 0.55) {
            dir.addSharer(entry, node);
            if (std::find(oracle.begin(), oracle.end(), node) ==
                oracle.end())
                oracle.push_back(node);
        } else if (roll < 0.95) {
            dir.removeSharer(entry, node);
            auto it = std::find(oracle.begin(), oracle.end(), node);
            if (it != oracle.end())
                oracle.erase(it);
        } else {
            dir.clearSharers(entry);
            oracle.clear();
        }
        if (op % 61 == 0)
            verify();
    }
    verify();
}

TEST(DirectoryUnit, CheckpointRoundTripAcrossInlineThreshold)
{
    // Entries on both sides of the inline-pointer capacity (and one
    // crossing the 1024-node bitmap boundary) must survive a
    // save/load/save cycle byte-identically, including sharer order.
    Directory dir(0);
    const std::uint32_t widths[] = {1, kInlineSharers,
                                    kInlineSharers + 1, 40, 1100};
    std::uint32_t line = 0;
    for (std::uint32_t width : widths) {
        DirEntry &entry = dir.entry(makeAddr(0, line++));
        entry.state = DirState::Shared;
        entry.memory = 0x1000 + width;
        // Descending insertion: order must be preserved, not sorted.
        for (std::uint32_t i = width; i > 0; --i)
            dir.addSharer(entry, i);
    }
    util::Serializer first;
    dir.saveState(first);

    Directory restored(0);
    util::Deserializer d(first.buffer());
    restored.loadState(d, 2048);
    util::Serializer second;
    restored.saveState(second);
    ASSERT_EQ(first.buffer(), second.buffer());

    const DirEntry *wide = restored.find(makeAddr(0, 4));
    ASSERT_NE(wide, nullptr);
    EXPECT_EQ(wide->sharer_count, 1100u);
    EXPECT_TRUE(restored.isSharer(*wide, 1100u));
    EXPECT_FALSE(restored.isSharer(*wide, 1101u));
    EXPECT_EQ(restored.sharers(*wide).front(), 1100u);
}

/**
 * A directory section for home 0 of a 4-node machine, written field
 * by field in Directory::saveState's order and widths. Defaults hold
 * a Shared line with two sharers and an Exclusive one.
 */
struct DirectorySection
{
    static constexpr sim::NodeId kNodes = 4;

    struct Entry
    {
        Addr key;
        std::uint8_t state;
        std::vector<sim::NodeId> sharers;
        sim::NodeId owner;
        std::uint64_t memory;
    };
    std::vector<Entry> entries = {
        {makeAddr(0, 1), static_cast<std::uint8_t>(DirState::Shared),
         {2, 1}, sim::kNodeNone, 7},
        {makeAddr(0, 2), static_cast<std::uint8_t>(DirState::Exclusive),
         {}, 3, 9},
    };

    void
    write(util::Serializer &s) const
    {
        s.put<std::uint64_t>(entries.size());
        for (const Entry &e : entries) {
            s.put(e.key);
            s.put(e.state);
            s.put<std::uint32_t>(
                static_cast<std::uint32_t>(e.sharers.size()));
            for (sim::NodeId sharer : e.sharers)
                s.put(sharer);
            s.put(e.owner);
            s.put(e.memory);
        }
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        util::Serializer s;
        write(s);
        return s.takeBuffer();
    }
};

TEST(DirectoryUnit, CheckpointRejectsMalformedSection)
{
    constexpr sim::NodeId kNodes = DirectorySection::kNodes;

    // The well-formed section loads and re-saves byte for byte.
    const std::vector<std::uint8_t> good = DirectorySection{}.bytes();
    {
        Directory dir(0);
        util::Deserializer d(good);
        dir.loadState(d, kNodes);
        EXPECT_TRUE(d.atEnd());
        util::Serializer s;
        dir.saveState(s);
        EXPECT_EQ(s.takeBuffer(), good);
    }

    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<Case> cases;
    auto add = [&](const char *name, auto &&mutate) {
        DirectorySection section;
        mutate(section);
        cases.push_back({name, section.bytes()});
    };
    add("line homed at another node", [](DirectorySection &ds) {
        ds.entries[1].key = makeAddr(1, 2);
    });
    add("state past Exclusive",
        [](DirectorySection &ds) { ds.entries[0].state = 3; });
    add("sharer at the node count",
        [](DirectorySection &ds) { ds.entries[0].sharers[1] = kNodes; });
    // One such id would size the sharer bitmap at 512 MB.
    add("sharer id 2^32-1", [](DirectorySection &ds) {
        ds.entries[0].sharers[0] = 0xffffffffu;
    });
    add("owner at the node count",
        [](DirectorySection &ds) { ds.entries[1].owner = kNodes; });
    add("repeated line", [](DirectorySection &ds) {
        ds.entries[1].key = ds.entries[0].key;
    });
    add("lines out of order", [](DirectorySection &ds) {
        std::swap(ds.entries[0], ds.entries[1]);
    });
    add("unaligned line",
        [](DirectorySection &ds) { ds.entries[1].key += 1; });
    add("repeated sharer",
        [](DirectorySection &ds) { ds.entries[0].sharers = {2, 2}; });
    {
        std::vector<std::uint8_t> cut = good;
        cut.pop_back();
        cases.push_back({"section cut short", cut});
    }
    for (const Case &c : cases) {
        Directory dir(0);
        util::Deserializer d(c.bytes);
        EXPECT_THROW(dir.loadState(d, kNodes), std::runtime_error)
            << c.name;
    }
}

TEST(ProtoMsgPacking, PackUnpackRoundTrip)
{
    ProtoMsg msg;
    msg.type = MsgType::GetX;
    msg.addr = makeAddr(3, 4);
    msg.sender = 7;
    msg.requester = 11;
    msg.data = 0xdead;
    msg.critical = true;
    const net::MessagePayload packed = packProtoMsg(msg);
    const ProtoMsg out = unpackProtoMsg(packed);
    EXPECT_EQ(out.type, MsgType::GetX);
    EXPECT_EQ(out.addr, msg.addr);
    EXPECT_EQ(out.sender, 7u);
    EXPECT_EQ(out.requester, 11u);
    EXPECT_EQ(out.data, 0xdeadu);
    EXPECT_TRUE(out.critical);
}

/**
 * A controller client that records the most recent completion (and
 * optionally forwards it), standing in for the processor.
 */
struct TestClient : MemClient
{
    std::optional<MemResponse> last;
    std::function<void(const MemResponse &)> on_complete;

    void
    memComplete(const MemResponse &resp) override
    {
        last = resp;
        if (on_complete)
            on_complete(resp);
    }
};

/**
 * Protocol harness: a small torus of controllers with no processors;
 * tests drive requests directly and step the engine.
 */
struct CoherHarness
{
    void
    build(int radix, int dims, std::uint32_t cache_bytes = 64 * 1024,
          ProtocolConfig base = ProtocolConfig{})
    {
        net::NetworkConfig nc;
        nc.radix = radix;
        nc.dims = dims;
        network = std::make_unique<net::Network>(engine, nc);
        engine.addClocked(network.get(), 1);
        ProtocolConfig pc = base;
        pc.cache_bytes = cache_bytes;
        for (sim::NodeId n = 0; n < network->topology().nodeCount();
             ++n) {
            controllers.push_back(std::make_unique<CacheController>(
                engine, *network, n, pc, 2));
            engine.addClocked(controllers.back().get(), 2);
            clients.push_back(std::make_unique<TestClient>());
            controllers.back()->setClient(clients.back().get());
        }
    }

    /** Issue a request and run until it completes; return the value. */
    std::uint64_t
    access(sim::NodeId node, bool is_store, Addr addr,
           std::uint64_t value = 0)
    {
        MemRequest req;
        req.is_store = is_store;
        req.addr = addr;
        req.store_value = value;
        req.context = 0;
        if (auto fast = controllers[node]->tryFastPath(req)) {
            last_was_txn = false;
            return fast->load_value;
        }
        TestClient &client = *clients[node];
        client.last.reset();
        controllers[node]->request(req);
        const bool done = engine.runUntil(
            [&] { return client.last.has_value(); }, 100000);
        EXPECT_TRUE(done) << "request did not complete";
        last_was_txn =
            client.last ? client.last->was_transaction : false;
        return client.last ? client.last->load_value : ~0ull;
    }

    std::uint64_t
    load(sim::NodeId node, Addr addr)
    {
        return access(node, false, addr);
    }

    void
    store(sim::NodeId node, Addr addr, std::uint64_t value)
    {
        access(node, true, addr, value);
    }

    sim::Engine engine;
    std::unique_ptr<net::Network> network;
    std::vector<std::unique_ptr<CacheController>> controllers;
    std::vector<std::unique_ptr<TestClient>> clients;
    bool last_was_txn = false;
};

class ProtocolFixture : public ::testing::Test,
                        protected CoherHarness
{
};

TEST_F(ProtocolFixture, RemoteReadSeesHomeMemory)
{
    build(2, 2); // 4 nodes
    const Addr addr = makeAddr(3, 0);
    store(3, addr, 77); // home writes locally
    EXPECT_EQ(load(0, addr), 77u);
    EXPECT_TRUE(last_was_txn);
    // Second read hits in cache: no transaction.
    EXPECT_EQ(load(0, addr), 77u);
    EXPECT_FALSE(last_was_txn);
}

TEST_F(ProtocolFixture, WriteInvalidatesReaders)
{
    build(2, 2);
    const Addr addr = makeAddr(0, 5);
    store(0, addr, 1);
    EXPECT_EQ(load(1, addr), 1u);
    EXPECT_EQ(load(2, addr), 1u);
    // Home writes again: readers' copies must be invalidated.
    store(0, addr, 2);
    EXPECT_EQ(load(1, addr), 2u);
    EXPECT_TRUE(last_was_txn); // the stale copy was invalidated
    EXPECT_EQ(load(2, addr), 2u);
}

TEST_F(ProtocolFixture, RemoteWriteTakesOwnershipFromHome)
{
    build(2, 2);
    const Addr addr = makeAddr(1, 2);
    store(2, addr, 10); // remote write: GetX path
    EXPECT_TRUE(last_was_txn);
    EXPECT_EQ(controllers[2]->cache().state(addr),
              CacheState::Modified);
    // Home reads back: must fetch from the remote owner.
    EXPECT_EQ(load(1, addr), 10u);
    EXPECT_TRUE(last_was_txn);
    // Owner demoted to Shared by the Fetch.
    EXPECT_EQ(controllers[2]->cache().state(addr),
              CacheState::Shared);
}

TEST_F(ProtocolFixture, RemoteReadFetchesFromRemoteOwner)
{
    build(2, 2);
    const Addr addr = makeAddr(1, 3);
    store(2, addr, 21); // node 2 owns a line homed at 1
    EXPECT_EQ(load(3, addr), 21u); // third party reads
    EXPECT_EQ(controllers[2]->cache().state(addr),
              CacheState::Shared);
    EXPECT_EQ(controllers[3]->cache().state(addr),
              CacheState::Shared);
}

TEST_F(ProtocolFixture, WriteAfterRemoteOwnershipInvalidatesOwner)
{
    build(2, 2);
    const Addr addr = makeAddr(1, 4);
    store(2, addr, 5);  // node 2 owns
    store(3, addr, 6);  // node 3 takes ownership (FetchInv path)
    EXPECT_EQ(controllers[2]->cache().state(addr),
              CacheState::Invalid);
    EXPECT_EQ(controllers[3]->cache().state(addr),
              CacheState::Modified);
    EXPECT_EQ(load(0, addr), 6u);
}

TEST_F(ProtocolFixture, UpgradeFromSharedInvalidatesOtherSharers)
{
    build(2, 2);
    const Addr addr = makeAddr(0, 6);
    store(0, addr, 3);
    EXPECT_EQ(load(1, addr), 3u);
    EXPECT_EQ(load(2, addr), 3u);
    store(1, addr, 4); // sharer upgrades
    EXPECT_EQ(controllers[2]->cache().state(addr),
              CacheState::Invalid);
    EXPECT_EQ(load(2, addr), 4u);
}

TEST_F(ProtocolFixture, EvictionWritesBackModifiedData)
{
    // Cache with 2 sets: two lines with the same set index force an
    // eviction of Modified data, which must reach home memory.
    build(2, 2, 2 * kLineBytes);
    const Addr a = makeAddr(1, 0);
    const Addr b = makeAddr(1, 2); // 2 % 2 == 0: conflicts with a
    store(0, a, 111);
    EXPECT_EQ(controllers[0]->cache().state(a), CacheState::Modified);
    store(0, b, 222); // evicts a -> PutX to home 1
    const bool drained = engine.runUntil(
        [&] {
            return network->idle() && controllers[1]->quiescent();
        },
        100000);
    ASSERT_TRUE(drained);
    EXPECT_EQ(controllers[0]->cache().state(a), CacheState::Invalid);
    EXPECT_GT(controllers[0]->stats().writebacks.value(), 0u);
    // Home memory must hold the evicted value.
    EXPECT_EQ(load(2, a), 111u);
}

TEST_F(ProtocolFixture, SilentSharedEvictionToleratedByHome)
{
    build(2, 2, 2 * kLineBytes);
    const Addr a = makeAddr(1, 0);
    const Addr b = makeAddr(1, 2);
    store(1, a, 9);
    EXPECT_EQ(load(0, a), 9u); // node 0 shares a
    EXPECT_EQ(load(0, b), 0u); // evicts a silently
    // Home writes: sends Inv to node 0, which is no longer a holder;
    // node 0 must ack from Invalid and the write must complete.
    store(1, a, 10);
    EXPECT_EQ(load(0, a), 10u);
}

TEST_F(ProtocolFixture, ConcurrentWritersSerialize)
{
    build(2, 2);
    const Addr addr = makeAddr(0, 7);
    // Fire two writes from different nodes in the same cycle; the
    // home must serialize them, and the final memory value must be
    // one of the two (the loser's value is overwritten or vice
    // versa -- here the later-serialized one wins).
    MemRequest w1{true, addr, 100, 0};
    MemRequest w2{true, addr, 200, 0};
    clients[1]->last.reset();
    clients[2]->last.reset();
    controllers[1]->request(w1);
    controllers[2]->request(w2);
    ASSERT_TRUE(engine.runUntil(
        [&] {
            return clients[1]->last.has_value() &&
                   clients[2]->last.has_value();
        },
        100000));
    // Exactly one node ends up the owner.
    const bool owner1 = controllers[1]->cache().state(addr) ==
                        CacheState::Modified;
    const bool owner2 = controllers[2]->cache().state(addr) ==
                        CacheState::Modified;
    EXPECT_NE(owner1, owner2);
    const std::uint64_t final = load(3, addr);
    EXPECT_TRUE(final == 100u || final == 200u);
    EXPECT_EQ(final, owner1 ? 100u : 200u);
}

TEST_F(ProtocolFixture, QueuedStoreHitEchoesItsOwnValue)
{
    // Two contexts of node 1 store to one line homed at node 0. The
    // second store waits behind the first's GetX and is requeued after
    // the grant, where it hits in Modified; its completion must echo
    // its own stored value, as every other store path does.
    build(2, 2);
    const Addr addr = makeAddr(0, 8);
    std::vector<MemResponse> done;
    clients[1]->on_complete = [&](const MemResponse &resp) {
        done.push_back(resp);
    };
    controllers[1]->request(MemRequest{true, addr, 100, 0});
    controllers[1]->request(MemRequest{true, addr, 200, 1});
    ASSERT_TRUE(engine.runUntil([&] { return done.size() == 2; },
                                100000));
    EXPECT_EQ(done[0].context, 0);
    EXPECT_EQ(done[0].load_value, 100u);
    EXPECT_EQ(done[1].context, 1);
    EXPECT_EQ(done[1].load_value, 200u);
    EXPECT_FALSE(done[1].was_transaction);
    EXPECT_EQ(load(1, addr), 200u);
}

TEST_F(ProtocolFixture, CriticalPathCountsMatchFlows)
{
    build(2, 2);
    const Addr addr = makeAddr(1, 8);
    store(1, addr, 1); // local, no network
    // Remote read, home has memory current... home is owner-free:
    // direct reply, c = 2.
    load(0, addr);
    EXPECT_NEAR(controllers[0]->stats().critical_messages.mean(), 2.0,
                1e-9);
    // Remote write while node 0 shares: Inv required, c = 4.
    store(2, addr, 2);
    EXPECT_NEAR(controllers[2]->stats().critical_messages.mean(), 4.0,
                1e-9);
}

TEST_F(ProtocolFixture, MessagesNeverSentForPureLocalAccess)
{
    build(2, 2);
    const Addr addr = makeAddr(2, 9);
    store(2, addr, 5);
    EXPECT_EQ(load(2, addr), 5u);
    EXPECT_EQ(controllers[2]->stats().messages_sent.value(), 0u);
    EXPECT_EQ(controllers[2]->stats().transactions.value(), 0u);
}

struct LimitlessHarness : CoherHarness
{
    void
    buildLimited(std::uint32_t pointers, std::uint32_t trap_cycles)
    {
        ProtocolConfig pc;
        pc.dir_pointers = pointers;
        pc.overflow_trap_cycles = trap_cycles;
        build(4, 2, 64 * 1024, pc);
    }
};

class LimitlessFixture : public ::testing::Test,
                         protected LimitlessHarness
{
};

TEST_F(LimitlessFixture, OverflowTrapsCountedAndCorrect)
{
    // Two hardware pointers, six readers: the third and later GetS
    // must trap, but every reader still sees the right data.
    buildLimited(2, 50);
    const Addr addr = makeAddr(0, 3);
    store(0, addr, 777);
    for (sim::NodeId reader = 1; reader <= 6; ++reader)
        EXPECT_EQ(load(reader, addr), 777u);
    EXPECT_GE(controllers[0]->stats().limitless_traps.value(), 4u);
    // Writes through the overflowed entry still invalidate everyone.
    store(0, addr, 888);
    for (sim::NodeId reader = 1; reader <= 6; ++reader)
        EXPECT_EQ(load(reader, addr), 888u);
}

TEST_F(LimitlessFixture, WithinPointerLimitNoTraps)
{
    buildLimited(4, 50);
    const Addr addr = makeAddr(0, 3);
    store(0, addr, 1);
    for (sim::NodeId reader = 1; reader <= 4; ++reader)
        EXPECT_EQ(load(reader, addr), 1u);
    EXPECT_EQ(controllers[0]->stats().limitless_traps.value(), 0u);
}

TEST_F(LimitlessFixture, OverflowSlowsOverflowedReads)
{
    // The same access pattern with and without the pointer limit:
    // the trap must make overflowed reads measurably slower.
    auto read_time = [](std::uint32_t pointers) {
        LimitlessHarness f;
        f.buildLimited(pointers, 200);
        const Addr addr = makeAddr(0, 3);
        f.store(0, addr, 5);
        for (sim::NodeId reader = 1; reader <= 5; ++reader)
            f.load(reader, addr);
        const sim::Tick before = f.engine.now();
        f.load(6, addr); // the overflowed read
        return f.engine.now() - before;
    };
    const sim::Tick limited = read_time(2);
    const sim::Tick unlimited = read_time(0);
    EXPECT_GT(limited, unlimited + 300); // 200 proc cycles = 400 ticks
}

/**
 * Verify the global cache/directory invariants after quiescing:
 *  - a Modified cache line implies its directory entry is Exclusive
 *    with that node as owner, and vice versa;
 *  - a Shared cache line implies the node is a recorded sharer and
 *    its data matches home memory (stale sharer records from silent
 *    evictions are allowed, extra copies are not).
 */
void
checkGlobalInvariants(
    const std::vector<std::unique_ptr<CacheController>> &controllers,
    const std::vector<Addr> &lines)
{
    for (Addr addr : lines) {
        const sim::NodeId home = homeOf(addr);
        const DirEntry *entry =
            controllers[home]->directory().find(addr);
        if (entry == nullptr)
            continue;
        int modified_copies = 0;
        for (const auto &controller : controllers) {
            const CacheLookup look = controller->cache().lookup(addr);
            switch (look.state) {
              case CacheState::Modified:
                ++modified_copies;
                EXPECT_EQ(entry->state, DirState::Exclusive)
                    << "line " << addr;
                EXPECT_EQ(entry->owner, controller->node());
                break;
              case CacheState::Shared:
                EXPECT_NE(entry->state, DirState::Exclusive)
                    << "line " << addr << " shared at node "
                    << controller->node();
                EXPECT_TRUE(controllers[home]->directory().isSharer(
                    *entry, controller->node()))
                    << "line " << addr;
                EXPECT_EQ(look.data, entry->memory)
                    << "stale shared data for line " << addr;
                break;
              case CacheState::Invalid:
                break;
            }
        }
        EXPECT_LE(modified_copies, 1) << "line " << addr;
        if (entry->state == DirState::Exclusive) {
            EXPECT_EQ(controllers[entry->owner]->cache().state(addr),
                      CacheState::Modified)
                << "directory claims an owner that has no Modified "
                   "copy, line "
                << addr;
        }
    }
}

TEST_F(ProtocolFixture, RandomizedStressKeepsInvariants)
{
    // 16 nodes, tiny caches (constant evictions), random concurrent
    // loads/stores over a small set of hot lines. After draining,
    // the global MSI invariants must hold for every line.
    build(4, 2, 4 * kLineBytes);
    util::Rng rng(2024);

    std::vector<Addr> lines;
    for (sim::NodeId home = 0; home < 16; home += 3) {
        for (std::uint32_t idx : {0u, 4u, 9u})
            lines.push_back(makeAddr(home, idx));
    }

    struct NodeDriver
    {
        std::uint64_t outstanding = 0;
        std::uint64_t issued = 0;
    };
    std::vector<NodeDriver> drivers(16);
    std::uint64_t completed = 0;
    for (sim::NodeId node = 0; node < 16; ++node) {
        clients[node]->on_complete =
            [&completed, &drivers, node](const MemResponse &) {
                ++completed;
                drivers[node].outstanding = 0;
            };
    }

    // Issue a few thousand operations with random pacing, at most
    // one outstanding per node (like a single-context processor).
    const std::uint64_t target_ops = 3000;
    std::uint64_t issued_total = 0;
    while (issued_total < target_ops || completed < issued_total) {
        for (sim::NodeId node = 0; node < 16; ++node) {
            NodeDriver &driver = drivers[node];
            if (driver.outstanding > 0 || issued_total >= target_ops)
                continue;
            if (!rng.nextBool(0.2))
                continue;
            MemRequest req;
            req.is_store = rng.nextBool(0.4);
            req.addr = lines[rng.nextBounded(lines.size())];
            req.store_value = rng.next();
            req.context = 0;
            if (auto fast = controllers[node]->tryFastPath(req)) {
                ++completed;
                ++issued_total;
                continue;
            }
            driver.outstanding = 1;
            ++issued_total;
            controllers[node]->request(req);
        }
        engine.run(10);
        ASSERT_LT(engine.now(), 2000000u) << "stress run stalled";
    }

    // Drain all in-flight protocol activity.
    ASSERT_TRUE(engine.runUntil(
        [&] {
            if (!network->idle())
                return false;
            for (const auto &controller : controllers) {
                if (!controller->quiescent())
                    return false;
            }
            return true;
        },
        200000));

    checkGlobalInvariants(controllers, lines);
}

TEST_F(ProtocolFixture, TracerCapturesReadMissFlow)
{
    build(2, 2);
    obs::Tracer tracer;
    const int track0 = tracer.newTrack("coher.0");
    const int track3 = tracer.newTrack("coher.3");
    controllers[0]->setTracer(&tracer, track0);
    controllers[3]->setTracer(&tracer, track3);

    const Addr addr = makeAddr(3, 0);
    store(3, addr, 5); // local write at the home: no messages
    EXPECT_TRUE(tracer.events().empty());

    EXPECT_EQ(load(0, addr), 5u); // remote read: GetS + DataS
    const std::vector<obs::Event> &events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    for (const obs::Event &event : events) {
        EXPECT_EQ(event.phase, 'i');
        EXPECT_EQ(event.cat, obs::Category::Coher);
    }
    const std::string line = "\"line\":" +
                             std::to_string(lineIndexOf(addr));
    EXPECT_STREQ(events[0].name, "GetS");
    EXPECT_EQ(events[0].track, track0);
    EXPECT_EQ(events[0].args,
              "\"dir\":\"send\"," + line + ",\"peer\":3");
    EXPECT_STREQ(events[1].name, "GetS");
    EXPECT_EQ(events[1].track, track3);
    EXPECT_EQ(events[1].args,
              "\"dir\":\"handle\"," + line + ",\"peer\":0");
    EXPECT_STREQ(events[2].name, "DataS");
    EXPECT_EQ(events[2].track, track3);
    EXPECT_EQ(events[2].args,
              "\"dir\":\"send\"," + line + ",\"peer\":0");
    EXPECT_STREQ(events[3].name, "DataS");
    EXPECT_EQ(events[3].track, track0);
    EXPECT_EQ(events[3].args,
              "\"dir\":\"handle\"," + line + ",\"peer\":3");
    // Timestamps are monotone along the flow.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].ts, events[i - 1].ts);
}

/**
 * A controller section for node 0 of a 4-node ring whose client has
 * two contexts, written in CacheController::saveState's order: an
 * empty cache, a DirectorySection, then queues, transactions and
 * completions field by field (so tests can write values the
 * controller never does), then fresh statistics.
 */
struct ControllerSection
{
    static constexpr std::uint32_t kCacheBytes = 4 * kLineBytes;
    static constexpr int kContexts = 2;

    struct Request
    {
        Addr addr = makeAddr(2, 5);
        int context = 1;
    };
    struct HomeTxnImage
    {
        Addr key = makeAddr(0, 1);
        int kind = 0; //!< RemoteRead
        Request local_req{makeAddr(0, 1), 0};
    };

    DirectorySection directory;
    std::uint8_t inbox_type = static_cast<std::uint8_t>(MsgType::GetS);
    sim::NodeId inbox_sender = 1;
    sim::NodeId home_requester = 1;
    Request queued;
    /** A GetS for node 2, staged to leave at tick 3. */
    net::Message outbox = [] {
        ProtoMsg get;
        get.addr = makeAddr(2, 5);
        get.sender = get.requester = 0;
        net::Message m;
        m.src = 0;
        m.dst = 2;
        m.flits = 12;
        m.payload = packProtoMsg(get);
        m.cls = net::MessageClass::Request;
        return m;
    }();
    int mshr_copies = 1;     //!< times the one MSHR is written
    int home_txn_copies = 1; //!< times the one home transaction is
    Request mshr_req;
    Request mshr_deferred{makeAddr(2, 5), 0};
    HomeTxnImage home;
    Request home_deferred{makeAddr(0, 1), 1};
    int completion_context = 1;

    static void
    putRequest(util::Serializer &s, const Request &r)
    {
        s.put(false); // is_store
        s.put(r.addr);
        s.put<std::uint64_t>(0); // store value
        s.put(r.context);
        s.put(true); // wants_reply
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        util::Serializer s;
        Cache(kCacheBytes).saveState(s);
        directory.write(s);
        s.put<std::uint64_t>(1); // inbox
        s.put(inbox_type);
        s.put(makeAddr(0, 1));
        s.put(inbox_sender);
        s.put<std::uint64_t>(0);
        s.put<sim::NodeId>(1); // requester
        s.put(0);              // critical
        s.put<std::uint64_t>(1); // processor queue
        putRequest(s, queued);
        s.put<std::uint64_t>(1); // outbox
        s.put<sim::Tick>(3);     // ready
        net::saveMessage(s, outbox);
        s.put<std::uint64_t>(mshr_copies);
        for (int i = 0; i < mshr_copies; ++i) {
            s.put(mshr_req.addr);
            putRequest(s, mshr_req);
            s.put<sim::Tick>(4); // issued
            s.put<std::uint64_t>(1);
            putRequest(s, mshr_deferred);
        }
        s.put<std::uint64_t>(home_txn_copies);
        for (int i = 0; i < home_txn_copies; ++i) {
            s.put(home.key);
            s.put(home.kind);
            s.put(home_requester);
            s.put(0);              // pending acks
            s.put(true);           // waiting for a fetch
            s.put<std::uint64_t>(0);
            s.put<std::uint64_t>(1);
            putRequest(s, home_deferred);
            putRequest(s, home.local_req);
            s.put<sim::Tick>(6); // issued
        }
        s.put<std::uint64_t>(1); // pending completions
        s.put<sim::Tick>(10);
        s.put<std::uint64_t>(0);
        s.put(completion_context);
        s.put<std::uint64_t>(7); // load value
        s.put(true);
        s.put<std::uint64_t>(1); // completion sequence
        s.put<sim::Tick>(0);     // busy until
        ControllerStats{}.saveState(s);
        return s.takeBuffer();
    }
};

TEST(ControllerUnit, CheckpointRejectsMalformedSection)
{
    struct Node
    {
        Node()
        {
            net::NetworkConfig nc;
            nc.radix = static_cast<int>(DirectorySection::kNodes);
            nc.dims = 1;
            network = std::make_unique<net::Network>(engine, nc);
            ProtocolConfig pc;
            pc.cache_bytes = ControllerSection::kCacheBytes;
            controller = std::make_unique<CacheController>(
                engine, *network, 0, pc, 2);
            controller->setClient(&client, ControllerSection::kContexts);
        }
        sim::Engine engine;
        std::unique_ptr<net::Network> network;
        TestClient client;
        std::unique_ptr<CacheController> controller;
    };

    // The well-formed section loads and re-saves byte for byte.
    const std::vector<std::uint8_t> good = ControllerSection{}.bytes();
    {
        Node n;
        util::Deserializer d(good);
        n.controller->loadState(d);
        EXPECT_TRUE(d.atEnd());
        util::Serializer s;
        n.controller->saveState(s);
        EXPECT_EQ(s.takeBuffer(), good);
    }

    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<Case> cases;
    auto add = [&](const char *name, auto &&mutate) {
        ControllerSection section;
        mutate(section);
        cases.push_back({name, section.bytes()});
    };
    add("queued request context at the context count",
        [](ControllerSection &c) { c.queued.context = 2; });
    add("negative MSHR request context",
        [](ControllerSection &c) { c.mshr_req.context = -1; });
    add("deferred MSHR request context at the context count",
        [](ControllerSection &c) { c.mshr_deferred.context = 2; });
    add("home-deferred request context at the context count",
        [](ControllerSection &c) { c.home_deferred.context = 2; });
    add("home local request context at the context count",
        [](ControllerSection &c) { c.home.local_req.context = 2; });
    add("completion context at the context count",
        [](ControllerSection &c) { c.completion_context = 2; });
    add("negative completion context",
        [](ControllerSection &c) { c.completion_context = -1; });
    add("message type past PutX", [](ControllerSection &c) {
        c.inbox_type = static_cast<std::uint8_t>(MsgType::PutX) + 1;
    });
    add("home transaction kind past LocalWrite",
        [](ControllerSection &c) { c.home.kind = 4; });
    add("directory state past Exclusive", [](ControllerSection &c) {
        c.directory.entries[1].state = 3;
    });
    add("directory sharer at the node count", [](ControllerSection &c) {
        c.directory.entries[0].sharers[0] = DirectorySection::kNodes;
    });
    add("directory owner at the node count", [](ControllerSection &c) {
        c.directory.entries[1].owner = DirectorySection::kNodes;
    });
    add("inbox sender at the node count", [](ControllerSection &c) {
        c.inbox_sender = DirectorySection::kNodes;
    });
    add("home transaction requester at the node count",
        [](ControllerSection &c) {
            c.home_requester = DirectorySection::kNodes;
        });
    add("two MSHRs for one line",
        [](ControllerSection &c) { c.mshr_copies = 2; });
    add("two home transactions for one line",
        [](ControllerSection &c) { c.home_txn_copies = 2; });
    add("directory line repeated", [](ControllerSection &c) {
        c.directory.entries[1].key = c.directory.entries[0].key;
    });
    add("directory sharer repeated", [](ControllerSection &c) {
        c.directory.entries[0].sharers = {1, 1};
    });
    add("outbox protocol type past PutX", [](ControllerSection &c) {
        c.outbox.payload[3] = static_cast<std::uint64_t>(kLastMsgType) + 1;
    });
    add("outbox message from another node", [](ControllerSection &c) {
        c.outbox.src = 1;
    });
    add("outbox message to its own source",
        [](ControllerSection &c) { c.outbox.dst = 0; });
    add("zero-flit outbox message",
        [](ControllerSection &c) { c.outbox.flits = 0; });
    {
        std::vector<std::uint8_t> cut = good;
        cut.pop_back();
        cases.push_back({"section cut short", cut});
    }
    for (const Case &c : cases) {
        Node n;
        util::Deserializer d(c.bytes);
        EXPECT_THROW(n.controller->loadState(d), std::runtime_error)
            << c.name;
    }
}

TEST_F(ProtocolFixture, LargerFabricAllPairsCoherent)
{
    build(4, 2); // 16 nodes
    const Addr addr = makeAddr(5, 1);
    for (std::uint64_t round = 1; round <= 3; ++round) {
        const sim::NodeId writer =
            static_cast<sim::NodeId>((round * 7) % 16);
        store(writer, addr, round * 1000);
        for (sim::NodeId reader = 0; reader < 16; ++reader)
            EXPECT_EQ(load(reader, addr), round * 1000)
                << "round " << round << " reader " << reader;
    }
}

} // namespace
} // namespace coher
} // namespace locsim
