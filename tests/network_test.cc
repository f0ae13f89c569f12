/**
 * @file
 * Flit-level network tests: zero-load latency, wormhole integrity,
 * deadlock freedom under load, utilization accounting, and delivery
 * guarantees under randomized traffic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "net/network.hh"
#include "net/traffic.hh"
#include "sim/engine.hh"
#include "util/random.hh"
#include "util/serialize.hh"

namespace locsim {
namespace net {
namespace {

struct Fixture
{
    explicit Fixture(int radix = 8, int dims = 2)
    {
        NetworkConfig config;
        config.radix = radix;
        config.dims = dims;
        network = std::make_unique<Network>(engine, config);
        engine.addClocked(network.get(), 1);
    }

    sim::Engine engine;
    std::unique_ptr<Network> network;
};

/** Drain any deliveries at every node; count them. */
std::uint64_t
drainAll(Network &network)
{
    std::uint64_t count = 0;
    for (sim::NodeId n = 0; n < network.topology().nodeCount(); ++n) {
        while (network.receive(n).has_value())
            ++count;
    }
    return count;
}

TEST(Network, ZeroLoadLatencyIsHopsPlusSerialization)
{
    // An uncontended B-flit message over h hops traverses h router-to-
    // router links plus the injection and ejection links (h+2 channel
    // crossings at one cycle each), and the tail trails the head by
    // B-1 cycles; the node pops the tail the cycle it becomes visible,
    // so latency = B + h + 1.
    Fixture f;
    Message msg;
    msg.src = 0;
    msg.dst = f.network->topology().neighbor(0, 0, 1); // 1 hop
    msg.flits = 12;
    const MessageId id = f.network->send(msg);

    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->pendingAt(msg.dst) > 0; }, 1000));
    const MessageRecord *rec = f.network->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 1);
    const auto latency =
        static_cast<double>(rec->delivered - rec->inject_start);
    EXPECT_EQ(latency, 12.0 + 1.0 + 1.0);
}

TEST(Network, ZeroLoadLatencyScalesLinearlyWithDistance)
{
    std::map<int, double> latency_by_hops;
    for (int target_hops : {1, 2, 4, 6, 8}) {
        Fixture f;
        const TorusTopology &topo = f.network->topology();
        // Walk target_hops steps in +x/+y from node 0.
        sim::NodeId dst = 0;
        for (int i = 0; i < target_hops; ++i)
            dst = topo.neighbor(dst, i % 2, 1);
        ASSERT_EQ(topo.distance(0, dst), target_hops);

        Message msg;
        msg.src = 0;
        msg.dst = dst;
        msg.flits = 12;
        const MessageId id = f.network->send(msg);
        ASSERT_TRUE(f.engine.runUntil(
            [&] { return f.network->pendingAt(dst) > 0; }, 1000));
        const MessageRecord *rec = f.network->record(id);
        latency_by_hops[target_hops] =
            static_cast<double>(rec->delivered - rec->inject_start);
    }
    for (const auto &[hops, latency] : latency_by_hops)
        EXPECT_EQ(latency, 12.0 + hops + 1.0) << "hops=" << hops;
}

TEST(Network, WormholeKeepsMessagesContiguousPerLink)
{
    // Flit sequence checking in the ejector asserts ordering; here we
    // simply run cross traffic and rely on those asserts plus delivery.
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.02;
    tc.seed = 7;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(5000);
    // Let in-flight messages drain.
    gen.stop();
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 20000));
    drainAll(*f.network);
    EXPECT_EQ(f.network->stats().messages_delivered,
              f.network->stats().messages_sent);
}

TEST(Network, SelfMessagesAreRejected)
{
    Fixture f;
    Message msg;
    msg.src = 3;
    msg.dst = 3;
    msg.flits = 4;
    EXPECT_DEATH(f.network->send(msg), "local transactions");
}

TEST(NetworkDeathTest, NodeCountBeyondMessageIdBitsDies)
{
    // 4097^2 nodes is just past 2^24: node 2^24 would get node 0's
    // message ids, and its id would not fit a flit's dst field.
    EXPECT_DEATH(
        {
            sim::Engine engine;
            NetworkConfig config;
            config.radix = 4097;
            config.dims = 2;
            Network network(engine, config);
        },
        "exceeds the 2\\^24");
}

/**
 * A checkpoint flit record in the stream's field order and widths, so
 * tests can write records the fabric never does. Defaults are a valid
 * body flit (bodyFlit()).
 */
struct FlitRecord
{
    std::uint64_t msg = (std::uint64_t{5} << 40) | 7;
    std::uint32_t word = 9 | 1u << 25; // dst 9, tail
    std::uint16_t seq_or_hops = 11;
    std::uint16_t stalls = 0;

    std::vector<std::uint8_t>
    bytes() const
    {
        util::Serializer s;
        s.put(msg);
        s.put(word);
        s.put(seq_or_hops);
        s.put(stalls);
        return s.buffer();
    }
};

/** A head flit of message 7 from node 5 with every head field set. */
Flit
headFlit()
{
    Flit f;
    f.msg = (std::uint64_t{5} << 40) | 7;
    f.dst = 9;
    f.head = true;
    f.vc = 1;
    f.crossed_dateline = true;
    f.seq_or_hops = 3;
    f.stalls = 2;
    return f;
}

/** Body flit 11 (the tail) of the same message. */
Flit
bodyFlit()
{
    Flit f;
    f.msg = (std::uint64_t{5} << 40) | 7;
    f.dst = 9;
    f.tail = true;
    f.seq_or_hops = 11;
    return f;
}

std::vector<std::uint8_t>
saved(const Flit &f)
{
    util::Serializer s;
    saveFlit(s, f);
    return s.buffer();
}

Flit
loaded(const std::vector<std::uint8_t> &bytes)
{
    util::Deserializer d(bytes);
    return loadFlit(d);
}

TEST(FlitStream, SaveWritesThePackedRecord)
{
    // msg u64; dst in bits 0-23 of a u32, then head, tail, dateline
    // and three vc bits; seq_or_hops u16; stalls u16; little-endian.
    const std::vector<std::uint8_t> head = {
        0x07, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, // msg
        0x09, 0x00, 0x00, 0x0d, // dst 9, head, dateline, vc 1
        0x03, 0x00,             // hops
        0x02, 0x00,             // stalls
    };
    const std::vector<std::uint8_t> body = {
        0x07, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, // msg
        0x09, 0x00, 0x00, 0x02, // dst 9, tail
        0x0b, 0x00,             // seq
        0x00, 0x00,             // stalls
    };
    EXPECT_EQ(saved(headFlit()), head);
    EXPECT_EQ(saved(bodyFlit()), body);
    EXPECT_EQ(FlitRecord{}.bytes(), body);
    EXPECT_EQ(head.size(), sizeof(Flit));
}

TEST(FlitStream, LoadInvertsSave)
{
    EXPECT_EQ(loaded(saved(headFlit())), headFlit());
    EXPECT_EQ(loaded(saved(bodyFlit())), bodyFlit());
}

TEST(FlitStream, LoadRejectsRecordsTheFabricNeverWrites)
{
    std::vector<FlitRecord> bad(4);
    bad[0].word |= 1u << 30; // the two spare bits
    bad[1].word |= 1u << 31;
    bad[2].word |= 1u << 26; // body flits carry no head state
    bad[3].stalls = 1;
    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(loaded(bad[i].bytes()), std::runtime_error)
            << "record " << i;
    }
    std::vector<std::uint8_t> cut = FlitRecord{}.bytes();
    cut.pop_back();
    EXPECT_THROW(loaded(cut), std::runtime_error) << "cut short";
    EXPECT_EQ(loaded(FlitRecord{}.bytes()), bodyFlit());
}

/**
 * A version 6 network section for a 4-node ring (radix 4, one
 * dimension, 2 VCs, depth 8), written field by field in the stream's
 * order and widths so tests can write sections the fabric never does.
 * Defaults describe a fresh fabric; withFlitInTransit() stages one
 * head flit on the link from node 0 to node 1. A 4-node line (the
 * mesh) reads the same layout.
 */
struct SectionImage
{
    static constexpr int kNodes = 4;
    static constexpr int kPorts = 3;
    static constexpr int kVcs = 2;
    static constexpr int kUnits = kPorts * kVcs;
    static constexpr int kDepth = 8;

    struct Unit
    {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        bool routed = false;
        bool route_valid = false;
        std::int8_t out_port = -1;
        std::int8_t out_vc = -1;
        std::vector<Flit> flits;
    };
    struct Output
    {
        std::int8_t owner = -1;
    };
    struct Node
    {
        std::uint32_t staged_flits = 0;
        std::uint32_t staged_credits = 0;
        Unit units[kUnits];
        Output outputs[kUnits];
        std::int8_t next_vc[kPorts] = {};
        std::uint32_t eject_tail = 0;
        bool eject_staged = false;
        Flit eject_flit;
        std::vector<Message> queued;
        std::uint32_t flits_sent = 0;
        std::vector<Message> delivered;
        std::uint64_t arrived = 0; //!< messages mid-ejection
        std::uint32_t arrived_flits = 1; //!< flits of each so far
    };
    Node nodes[kNodes];
    std::vector<MessageRecord> records;

    static NetworkConfig
    config(bool mesh = false)
    {
        NetworkConfig c;
        c.radix = kNodes;
        c.dims = 1;
        c.wraparound = !mesh;
        return c;
    }

    /** A head flit from node 0 for @p dst on VC @p vc. */
    static Flit
    headFor(sim::NodeId dst, int vc)
    {
        Flit f;
        f.msg = 1;
        f.dst = dst;
        f.head = true;
        f.tail = true;
        f.vc = static_cast<std::uint8_t>(vc);
        return f;
    }

    /** Node 0's +x output (port 0) deposited into node 1's -x input
     *  (port 1), VC 0: staged, not yet latched. */
    SectionImage &
    withFlitInTransit()
    {
        nodes[1].staged_flits = 1u << (1 * kVcs);
        nodes[1].units[1 * kVcs].flits = {headFor(1, 0)};
        return *this;
    }

    /** Node 0's first message, a 12-flit request for node 2. */
    static Message
    request()
    {
        Message m;
        m.id = (MessageId{0} << kMessageIdSrcShift) | 1;
        m.src = 0;
        m.dst = 2;
        m.flits = 12;
        m.cls = MessageClass::Request;
        return m;
    }

    /** request() waiting in node 0's source queue, with its record. */
    SectionImage &
    withQueuedMessage()
    {
        nodes[0].queued = {request()};
        records = {MessageRecord{request()}};
        return *this;
    }

    /** request() with 5 of its flits sent from node 0. */
    SectionImage &
    withMessageMidInjection()
    {
        withQueuedMessage();
        nodes[0].flits_sent = 5;
        records[0].inject_start = 3;
        return *this;
    }

    /** request() delivered at node 2 and not yet received. */
    SectionImage &
    withDeliveredMessage()
    {
        nodes[2].delivered = {request()};
        MessageRecord rec{request()};
        rec.inject_start = 3;
        rec.delivered = 20;
        records = {rec};
        return *this;
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        util::Serializer s;
        for (const Node &n : nodes) {
            s.put(n.staged_flits);
            s.put(n.staged_credits);
            for (const Unit &u : n.units) {
                s.put(u.head);
                s.put(u.tail);
                s.put(u.routed);
                s.put(u.route_valid);
                s.put(u.out_port);
                s.put(u.out_vc);
                for (const Flit &f : u.flits)
                    saveFlit(s, f);
            }
            for (const Output &o : n.outputs)
                s.put(o.owner);
            for (std::int8_t vc : n.next_vc)
                s.put(vc);
            for (int p = 0; p < kPorts; ++p)
                s.put<std::uint64_t>(0); // output flits
            s.put<std::uint64_t>(0);     // allocation stalls
            s.put<std::uint64_t>(n.queued.size());
            for (const Message &m : n.queued)
                saveMessage(s, m);
            s.put(n.flits_sent);
            s.put<std::uint64_t>(0);     // message sequence
            s.put(n.eject_tail);
            s.put(n.eject_staged);
            if (n.eject_staged)
                saveFlit(s, n.eject_flit);
            s.put<std::uint64_t>(n.delivered.size());
            for (const Message &m : n.delivered)
                saveMessage(s, m);
            s.put(n.arrived);
            for (std::uint64_t i = 0; i < n.arrived; ++i) {
                s.put<MessageId>(i + 1);
                s.put(n.arrived_flits);
            }
        }
        s.put<std::uint64_t>(records.size());
        for (const MessageRecord &r : records) {
            saveMessage(s, r.message);
            s.put(r.inject_start);
            s.put(r.delivered);
            s.put(r.head_hops);
            s.put(r.head_stalls);
        }
        NetworkStats{}.saveState(s);
        s.put<sim::Tick>(0);     // stats start
        s.put<std::uint64_t>(0); // flit-hop base
        return s.takeBuffer();
    }
};

std::vector<std::uint8_t>
savedSection(const Network &network)
{
    util::Serializer s;
    network.saveState(s);
    return s.takeBuffer();
}

TEST(Network, CheckpointRejectsMalformedSection)
{
    sim::Engine engine;
    Network fresh(engine, SectionImage::config());
    EXPECT_EQ(SectionImage{}.bytes(), savedSection(fresh))
        << "the builder does not write a fresh fabric's section";

    // A well-formed section with a flit in transit loads, holds the
    // flit where its staged bit says, and re-saves byte for byte, on
    // the ring and on the line.
    const std::vector<std::uint8_t> good =
        SectionImage{}.withFlitInTransit().bytes();
    for (bool mesh : {false, true}) {
        sim::Engine e;
        Network loaded(e, SectionImage::config(mesh));
        util::Deserializer d(good);
        loaded.loadState(d);
        EXPECT_TRUE(d.atEnd());
        EXPECT_EQ(loaded.inTransit().neighbor, 1u);
        EXPECT_EQ(savedSection(loaded), good);
    }
    // So do ones with a message queued at its source, mid-injection
    // and delivered.
    for (const std::vector<std::uint8_t> &held :
         {SectionImage{}.withQueuedMessage().bytes(),
          SectionImage{}.withMessageMidInjection().bytes(),
          SectionImage{}.withDeliveredMessage().bytes()}) {
        sim::Engine e;
        Network loaded(e, SectionImage::config());
        util::Deserializer d(held);
        loaded.loadState(d);
        EXPECT_TRUE(d.atEnd());
        EXPECT_EQ(savedSection(loaded), held);
    }

    constexpr int kDepth = SectionImage::kDepth;
    constexpr int kVcs = SectionImage::kVcs;
    constexpr int kTransit = 1 * kVcs; // node 1's unit holding the flit
    constexpr int kLocal = 2 * kVcs; // the local port's VC 0 unit
    struct Case
    {
        const char *name;
        std::vector<std::uint8_t> bytes;
        bool mesh = false;
    };
    std::vector<Case> cases;
    auto add = [&](const char *name, auto &&mutate, bool mesh = false) {
        SectionImage image;
        image.withFlitInTransit();
        mutate(image);
        cases.push_back({name, image.bytes(), mesh});
    };
    add("staged bit past the last unit", [](SectionImage &im) {
        im.nodes[2].staged_credits = 1u << SectionImage::kUnits;
    });
    add("ring holds more than buffer_depth", [&](SectionImage &im) {
        // depth latched flits plus the staged one.
        SectionImage::Unit &u = im.nodes[1].units[kTransit];
        u.tail = kDepth;
        u.flits.assign(kDepth + 1, SectionImage::headFor(1, 0));
    });
    add("full ring plus a staged credit", [&](SectionImage &im) {
        // depth - 1 latched flits, the staged one, and node 0's +x
        // output holding a returned credit for the same ring.
        SectionImage::Unit &u = im.nodes[1].units[kTransit];
        u.tail = kDepth - 1;
        u.flits.assign(kDepth, SectionImage::headFor(1, 0));
        im.nodes[0].staged_credits = 1u;
    });
    add("flit staged on a ring nothing feeds", [&](SectionImage &im) {
        im.nodes[2].staged_flits = 1u << (kLocal + 1);
        im.nodes[2].units[kLocal + 1].flits = {
            SectionImage::headFor(3, 1)};
    });
    add("flit held on a ring nothing feeds", [&](SectionImage &im) {
        SectionImage::Unit &u = im.nodes[2].units[kLocal + 1];
        u.tail = 1;
        u.flits = {SectionImage::headFor(3, 1)};
    });
    add(
        "credit staged on an output nothing consumes",
        [&](SectionImage &im) {
            // Node 0's -x output has no link on the line.
            im.nodes[0].staged_credits = 1u << kVcs;
        },
        true);
    add("owner past the last unit", [](SectionImage &im) {
        im.nodes[2].outputs[0].owner = SectionImage::kUnits;
    });
    add("owner below -1", [](SectionImage &im) {
        im.nodes[2].outputs[0].owner = -2;
    });
    add("flit VC differs from its ring's", [&](SectionImage &im) {
        im.nodes[1].units[kTransit].flits[0].vc = 1;
    });
    add("round-robin VC at vcs", [](SectionImage &im) {
        im.nodes[2].next_vc[0] = kVcs;
    });
    add("route VC at vcs", [&](SectionImage &im) {
        SectionImage::Unit &u = im.nodes[1].units[kTransit];
        u.route_valid = true;
        u.out_port = 0;
        u.out_vc = kVcs;
    });
    add("routed without a route", [&](SectionImage &im) {
        im.nodes[1].units[kTransit].routed = true;
    });
    add("ejected flit on VC vcs", [](SectionImage &im) {
        im.nodes[1].eject_staged = true;
        im.nodes[1].eject_flit = SectionImage::headFor(1, kVcs);
    });
    add("flit bound past the last node", [&](SectionImage &im) {
        im.nodes[1].units[kTransit].flits[0].dst = SectionImage::kNodes;
    });
    add("ejected flit bound past the last node", [](SectionImage &im) {
        im.nodes[1].eject_staged = true;
        im.nodes[1].eject_flit =
            SectionImage::headFor(SectionImage::kNodes, 0);
    });
    add("two messages mid-ejection", [](SectionImage &im) {
        im.nodes[2].arrived = 2;
    });
    add("message mid-ejection with no flit arrived", [](SectionImage &im) {
        im.nodes[2].arrived = 1;
        im.nodes[2].arrived_flits = 0;
    });
    // Messages: each case edits the queued request() and its record
    // alike, so only the named fault is left.
    auto addMessage = [&](const char *name, auto &&mutate) {
        add(name, [&](SectionImage &im) {
            im.withQueuedMessage();
            mutate(im.nodes[0].queued[0]);
            mutate(im.records[0].message);
        });
    };
    addMessage("message bound past the last node",
               [](Message &m) { m.dst = SectionImage::kNodes; });
    addMessage("message from past the last node", [](Message &m) {
        m.src = SectionImage::kNodes;
        m.id = (MessageId{m.src} << kMessageIdSrcShift) | 1;
    });
    addMessage("message to its own source", [](Message &m) { m.dst = 0; });
    addMessage("zero-flit message", [](Message &m) { m.flits = 0; });
    addMessage("65536-flit message", [](Message &m) { m.flits = 65536; });
    addMessage("id naming another source", [](Message &m) {
        m.id = (MessageId{1} << kMessageIdSrcShift) | 1;
    });
    addMessage("class past the last", [](Message &m) {
        m.cls = static_cast<MessageClass>(kMessageClassCount);
    });
    add("record bound past the last node", [](SectionImage &im) {
        im.withQueuedMessage();
        im.records[0].message.dst = SectionImage::kNodes;
    });
    add("queued message without a record", [](SectionImage &im) {
        im.withQueuedMessage();
        im.records.clear();
    });
    add("two records for one message", [](SectionImage &im) {
        im.withQueuedMessage();
        im.records.push_back(im.records[0]);
    });
    add("records out of id order", [](SectionImage &im) {
        im.withQueuedMessage();
        MessageRecord later = im.records[0];
        ++later.message.id;
        im.records.insert(im.records.begin(), later);
    });
    add("queued message from another node", [](SectionImage &im) {
        im.withQueuedMessage();
        std::swap(im.nodes[0].queued, im.nodes[1].queued);
    });
    add("delivered message without a record", [](SectionImage &im) {
        im.nodes[2].delivered = {SectionImage::request()};
    });
    add("delivered message for another node", [](SectionImage &im) {
        im.withQueuedMessage();
        std::swap(im.nodes[0].queued, im.nodes[1].delivered);
    });
    // Each queue entry names its record, so the copy the section
    // repeats must match it byte for byte.
    add("queued message differs from its record", [](SectionImage &im) {
        im.withQueuedMessage();
        im.nodes[0].queued[0].payload[0] = 1;
    });
    add("delivered message differs from its record",
        [](SectionImage &im) {
            im.withDeliveredMessage();
            im.nodes[2].delivered[0].submit_tick = 1;
        });
    add("message mid-injection differs from its record",
        [](SectionImage &im) {
            im.withMessageMidInjection();
            im.nodes[0].queued[0].cls = MessageClass::Reply;
        });
    add("queued message whose record says it was injected",
        [](SectionImage &im) {
            im.withQueuedMessage();
            im.records[0].inject_start = 3;
        });
    add("delivered message whose record was never injected",
        [](SectionImage &im) {
            im.withDeliveredMessage();
            im.records[0].inject_start = sim::kTickNever;
        });
    add("one message delivered twice", [](SectionImage &im) {
        im.withDeliveredMessage();
        im.nodes[2].delivered.push_back(SectionImage::request());
    });
    add("flits sent with no message queued", [](SectionImage &im) {
        im.nodes[0].flits_sent = 1;
    });
    add("flits sent reach the message's length", [](SectionImage &im) {
        im.withMessageMidInjection();
        im.nodes[0].flits_sent = 12;
    });
    add("delivered message bound past the last node",
        [](SectionImage &im) {
            Message m = SectionImage::request();
            m.dst = SectionImage::kNodes;
            im.nodes[1].delivered = {m};
            im.records = {MessageRecord{m}};
        });
    {
        std::vector<std::uint8_t> cut = good;
        cut.pop_back();
        cases.push_back({"section cut short", cut});
    }
    for (const Case &c : cases) {
        sim::Engine e;
        Network network(e, SectionImage::config(c.mesh));
        util::Deserializer d(c.bytes);
        EXPECT_THROW(network.loadState(d), std::runtime_error) << c.name;
    }
}

TEST(Network, LargeFabricStaysCompact)
{
    // Endpoint queues hold 8-byte record handles. Two 32-slot rings
    // of 72-byte message copies would put each node near 7,800 B.
    sim::Engine engine;
    NetworkConfig config;
    config.radix = 32;
    const Network network(engine, config);
    EXPECT_LE(network.memoryBytes() / network.topology().nodeCount(),
              4000u);
}

TEST(Network, AllPairsDeliverExactly)
{
    // Every node sends one message to every other node; all must
    // arrive, each exactly once, at the right place (receive() checks
    // dst on ejection via internal asserts).
    Fixture f(4, 2); // 16 nodes to keep runtime modest
    const sim::NodeId n = f.network->topology().nodeCount();
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < n; ++s) {
        for (sim::NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 12;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 200000));
    EXPECT_EQ(drainAll(*f.network), sent);
    EXPECT_EQ(f.network->stats().messages_delivered, sent);
    // Average hops must equal the Equation 17 expectation exactly
    // (this *is* the all-pairs average).
    EXPECT_NEAR(f.network->stats().hops.mean(),
                randomMappingDistance(4, 2), 1e-9);
}

TEST(Network, HeavyLoadDoesNotDeadlock)
{
    // Sustained near-saturation random traffic across the dateline;
    // progress must continue (classic torus deadlock would stall all
    // deliveries).
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.08; // ~saturation for B=12 random on 8x8
    tc.seed = 11;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);

    std::uint64_t last_delivered = 0;
    for (int epoch = 0; epoch < 10; ++epoch) {
        f.engine.run(2000);
        const std::uint64_t now_delivered =
            f.network->stats().messages_delivered;
        EXPECT_GT(now_delivered, last_delivered)
            << "no progress in epoch " << epoch;
        last_delivered = now_delivered;
    }
}

TEST(Network, UtilizationMatchesHandCount)
{
    // One message over h hops crosses exactly h network channels with
    // B flits each: utilization = h*B / (cycles * channels).
    Fixture f;
    f.network->resetStats();
    Message msg;
    msg.src = 0;
    msg.dst = f.network->topology().neighbor(
        f.network->topology().neighbor(0, 0, 1), 0, 1); // 2 hops
    msg.flits = 12;
    f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    const double cycles = static_cast<double>(f.engine.now());
    const double channels = 64.0 * 4.0;
    EXPECT_NEAR(f.network->channelUtilization(),
                2.0 * 12.0 / (cycles * channels), 1e-12);
}

TEST(Network, ResetStatsClearsAccumulators)
{
    Fixture f;
    Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.flits = 12;
    f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    EXPECT_GT(f.network->stats().latency.count(), 0u);
    f.network->resetStats();
    EXPECT_EQ(f.network->stats().latency.count(), 0u);
    EXPECT_EQ(f.network->stats().messages_sent, 0u);
    EXPECT_NEAR(f.network->channelUtilization(), 0.0, 1e-12);
}

TEST(Network, SourceQueueDelayAccountedSeparately)
{
    // Two messages submitted at once on the same node: the second must
    // wait B cycles of injection serialization, recorded as source
    // queue delay, not network latency.
    Fixture f;
    Message a, b;
    a.src = b.src = 0;
    a.dst = b.dst = 8; // one +y hop for radix 8 (node (0,1))
    a.flits = b.flits = 12;
    f.network->send(a);
    f.network->send(b);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 2000));
    EXPECT_EQ(f.network->stats().source_queue.max(), 12.0);
    EXPECT_EQ(f.network->stats().source_queue.min(), 0.0);
    // Network latency for both is identical (no contention en route).
    EXPECT_EQ(f.network->stats().latency.min(),
              f.network->stats().latency.max());
}

TEST(Network, SingleFlitMessagesDeliver)
{
    // Head == tail: allocation and release happen in one traversal.
    Fixture f;
    for (int i = 0; i < 5; ++i) {
        Message msg;
        msg.src = 0;
        msg.dst = 9;
        msg.flits = 1;
        f.network->send(msg);
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 5000));
    EXPECT_EQ(drainAll(*f.network), 5u);
}

TEST(Network, WraparoundPathsUseDatelineAndDeliver)
{
    // Route that must cross the wrap link: 6 -> 1 in a radix-8 ring
    // is 3 hops through 7 -> 0 (positive direction, wrapping).
    Fixture f(8, 1);
    Message msg;
    msg.src = 6;
    msg.dst = 1;
    msg.flits = 12;
    const MessageId id = f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    const MessageRecord *rec = f.network->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 3);
    EXPECT_EQ(drainAll(*f.network), 1u);
}

TEST(Network, ConvergingBurstBackpressuresWithoutLoss)
{
    // Every node floods one victim; credits must throttle the flood
    // (any overflow trips an internal assert) and every message must
    // arrive.
    Fixture f(4, 2);
    const sim::NodeId victim = 5;
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 16; ++s) {
        if (s == victim)
            continue;
        for (int i = 0; i < 8; ++i) {
            Message msg;
            msg.src = s;
            msg.dst = victim;
            msg.flits = 12;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 100000));
    EXPECT_EQ(drainAll(*f.network), sent);
    // The ejection channel is the bottleneck: total time is at least
    // sent * flits cycles of drain.
    EXPECT_GE(f.engine.now(), sent * 12);
}

TEST(Network, DeterministicAcrossRuns)
{
    auto run = [] {
        Fixture f;
        TrafficConfig tc;
        tc.injection_rate = 0.03;
        tc.seed = 99;
        TrafficGenerator gen(*f.network, tc);
        f.engine.addClocked(&gen, 1);
        f.engine.run(4000);
        return std::make_tuple(f.network->stats().messages_delivered,
                               f.network->stats().latency.mean(),
                               f.network->channelUtilization());
    };
    EXPECT_EQ(run(), run());
}

/**
 * The activity-tracked engine (dirty-channel rotation, idle-router
 * skipping, quiescence fast-forward) must be indistinguishable from
 * the dumb-stepping reference: identical message counts, identical
 * per-message latencies (accumulator sums, not just means), identical
 * utilization — tick for tick.
 */
TEST(Network, ActivityTrackingMatchesReferenceExactly)
{
    auto run = [](sim::Engine::StepMode mode, double rate) {
        Fixture f;
        f.engine.setStepMode(mode);
        TrafficConfig tc;
        tc.injection_rate = rate;
        tc.seed = 1234;
        TrafficGenerator gen(*f.network, tc);
        f.engine.addClocked(&gen, 1);
        f.engine.run(3000);
        // Stop injecting and drain so in-flight tails are compared
        // too; the generator keeps draining deliveries while the
        // fabric empties.
        gen.stop();
        f.engine.run(2000);
        const NetworkStats &s = f.network->stats();
        return std::make_tuple(
            gen.generated(), gen.received(), s.messages_sent,
            s.messages_delivered, s.latency.count(), s.latency.sum(),
            s.latency.min(), s.latency.max(), s.source_queue.sum(),
            s.hops.sum(), f.network->channelUtilization(),
            f.engine.now());
    };
    for (double rate : {0.005, 0.02, 0.08}) {
        EXPECT_EQ(run(sim::Engine::StepMode::Activity, rate),
                  run(sim::Engine::StepMode::Reference, rate))
            << "divergence at injection rate " << rate;
    }
}

/** After traffic stops and the fabric drains, the engine skips. */
TEST(Network, QuiescentFabricFastForwards)
{
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.02;
    tc.seed = 7;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(500);
    gen.stop();
    f.engine.run(5000); // drain, then idle
    EXPECT_TRUE(f.network->idle());
    EXPECT_EQ(gen.generated(), gen.received());
    EXPECT_GT(f.engine.skippedTicks(), 0u);
    EXPECT_EQ(f.engine.now(), 5500u);
}

TEST(Network, MeshDeliversAllPairs)
{
    // A 4x4 mesh (no wrap links): every pair must still route, with
    // hop counts following the Manhattan metric.
    sim::Engine engine;
    NetworkConfig config;
    config.radix = 4;
    config.dims = 2;
    config.wraparound = false;
    Network network(engine, config);
    engine.addClocked(&network, 1);

    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 16; ++s) {
        for (sim::NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 12;
            network.send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(engine.runUntil([&] { return network.idle(); },
                                200000));
    EXPECT_EQ(drainAll(network), sent);
    EXPECT_NEAR(network.stats().hops.mean(),
                network.topology().averageRandomDistance(), 1e-9);

    // rho is per real channel: a 4x4 mesh has 2*n*(k-1)*k^(n-1) = 48
    // neighbor channels, not the torus's 2*n*N = 64. Every flit of a
    // message crosses one channel per hop.
    EXPECT_EQ(network.neighborChannels(), 48u);
    const double flit_hops = 12.0 * network.stats().hops.sum();
    EXPECT_NEAR(network.channelUtilization(),
                flit_hops / (static_cast<double>(engine.now()) * 48.0),
                1e-12);
}

TEST(Network, MeshCornerToCornerZeroLoadLatency)
{
    sim::Engine engine;
    NetworkConfig config;
    config.radix = 8;
    config.dims = 2;
    config.wraparound = false;
    Network network(engine, config);
    engine.addClocked(&network, 1);

    Message msg;
    msg.src = network.topology().nodeAt({0, 0});
    msg.dst = network.topology().nodeAt({7, 7});
    msg.flits = 12;
    const MessageId id = network.send(msg);
    ASSERT_TRUE(engine.runUntil(
        [&] { return network.pendingAt(msg.dst) > 0; }, 1000));
    const MessageRecord *rec = network.record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 14);
    EXPECT_EQ(static_cast<double>(rec->delivered - rec->inject_start),
              12.0 + 14.0 + 1.0);
}

TEST(Network, MinimalRadixTwoTorus)
{
    // k = 2: every hop is simultaneously a wrap; ties resolve
    // positive. The fabric must still route and not deadlock.
    Fixture f(2, 3); // 8 nodes
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 8; ++s) {
        for (sim::NodeId d = 0; d < 8; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 6;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 50000));
    EXPECT_EQ(drainAll(*f.network), sent);
}

/** Parameterized deadlock/delivery sweep across shapes and loads. */
class NetworkSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>>
{
};

TEST_P(NetworkSweep, DeliversEverythingEventually)
{
    const auto [radix, dims, rate] = GetParam();
    Fixture f(radix, dims);
    TrafficConfig tc;
    tc.injection_rate = rate;
    tc.seed = 1234;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(3000);
    gen.stop();
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 300000))
        << "network failed to drain (deadlock?)";
    EXPECT_EQ(f.network->stats().messages_delivered,
              f.network->stats().messages_sent);
    EXPECT_GT(f.network->stats().messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndLoads, NetworkSweep,
    ::testing::Values(std::make_tuple(4, 2, 0.02),
                      std::make_tuple(8, 2, 0.05),
                      std::make_tuple(4, 3, 0.03),
                      std::make_tuple(16, 1, 0.02),
                      std::make_tuple(2, 2, 0.05)));

} // namespace
} // namespace net
} // namespace locsim
