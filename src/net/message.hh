/**
 * @file
 * Network message and flit definitions.
 *
 * Messages are the unit of communication between nodes; the fabric
 * breaks them into flits (one flit per 8-bit channel cycle, so a
 * 96-bit coherence message is B = 12 flits, matching Section 3.2).
 */

#ifndef LOCSIM_NET_MESSAGE_HH_
#define LOCSIM_NET_MESSAGE_HH_

#include <array>
#include <cstdint>

#include "sim/types.hh"
#include "util/serialize.hh"

namespace locsim {
namespace net {

/** Monotonically assigned message identifier. */
using MessageId = std::uint64_t;

/**
 * Coarse message class for latency attribution. The fabric treats all
 * classes identically; the network only groups its per-message latency
 * decomposition (serialization + hops + contention) by this tag.
 */
enum class MessageClass : std::uint8_t {
    Generic,   //!< synthetic traffic / unclassified
    Request,   //!< cache miss requests (GetS/GetX/Fetch...)
    Reply,     //!< data replies
    Inv,       //!< invalidations and their acks
    Writeback, //!< dirty-data writebacks
};

constexpr std::size_t kMessageClassCount = 5;

/** Stable lower-case class name for report columns. */
const char *messageClassName(MessageClass cls);

/** Inline payload words carried by a Message (see below). */
using MessagePayload = std::array<std::uint64_t, 4>;

/**
 * A network message as submitted by a node.
 *
 * The payload is opaque to the fabric; the coherence layer packs its
 * protocol message into the inline words. Carrying the payload by
 * value (rather than as an index into a shared side table) keeps each
 * message's state local to whichever spatial shard currently owns it,
 * which the sharded execution mode requires.
 */
struct Message
{
    MessageId id = 0;
    sim::NodeId src = sim::kNodeNone;
    sim::NodeId dst = sim::kNodeNone;
    /** Message length in flits (>= 1). */
    std::uint32_t flits = 1;
    /** Opaque payload words for the client protocol layer. */
    MessagePayload payload{};
    /** Tick at which the client submitted the message. */
    sim::Tick submit_tick = 0;
    /** Attribution class; does not affect routing or arbitration. */
    MessageClass cls = MessageClass::Generic;
};

/**
 * One flit on a physical channel.
 *
 * Head flits carry the routing information; body/tail flits simply
 * follow the wormhole path their head opened. The vc field names the
 * virtual channel assigned on the link the flit is currently
 * traversing (rewritten at every hop).
 */
/**
 * Packed to 24 bytes (flags and VC share one byte, the sequence
 * number is 16-bit): flits are copied and buffered on every link
 * traversal, so the struct size directly scales the fabric's
 * cache footprint. The checkpoint wire format is unchanged
 * (saveFlit/loadFlit widen back to the original field types).
 */
struct Flit
{
    MessageId msg = 0;
    sim::NodeId src = sim::kNodeNone;
    sim::NodeId dst = sim::kNodeNone;
    /** Flit index within the message (length asserted <= 65535). */
    std::uint16_t seq = 0;
    /**
     * Head-flit counters for latency attribution: network links
     * traversed and router cycles spent waiting for an output VC.
     * Carried on the head only (body flits follow the opened path).
     */
    std::uint16_t hops = 0;
    std::uint16_t stalls = 0;
    bool head : 1 = false;
    bool tail : 1 = false;
    /**
     * Dateline state for the head flit: true once the packet has
     * crossed the wrap-around link of the ring it is currently
     * traversing (forces the high virtual channel; Dally's dateline
     * scheme for deadlock-free wormhole tori).
     */
    bool crossed_dateline : 1 = false;
    std::uint8_t vc : 5 = 0;  //!< VC on the current link
};

// Checkpoint serialization for the wire-level value types. Free
// functions (not members) so the structs stay plain aggregates.

inline void
saveMessage(util::Serializer &s, const Message &m)
{
    s.put(m.id);
    s.put(m.src);
    s.put(m.dst);
    s.put(m.flits);
    for (std::uint64_t word : m.payload)
        s.put(word);
    s.put(m.submit_tick);
    s.put(m.cls);
}

inline Message
loadMessage(util::Deserializer &d)
{
    Message m;
    m.id = d.get<MessageId>();
    m.src = d.get<sim::NodeId>();
    m.dst = d.get<sim::NodeId>();
    m.flits = d.get<std::uint32_t>();
    for (std::uint64_t &word : m.payload)
        word = d.get<std::uint64_t>();
    m.submit_tick = d.get<sim::Tick>();
    m.cls = d.get<MessageClass>();
    return m;
}

inline void
saveFlit(util::Serializer &s, const Flit &f)
{
    s.put(f.msg);
    s.put(f.src);
    s.put(f.dst);
    s.put(static_cast<std::uint32_t>(f.seq));
    s.put(static_cast<bool>(f.head));
    s.put(static_cast<bool>(f.tail));
    s.put(static_cast<std::uint8_t>(f.vc));
    s.put(static_cast<bool>(f.crossed_dateline));
    s.put(f.hops);
    s.put(f.stalls);
}

inline Flit
loadFlit(util::Deserializer &d)
{
    Flit f;
    f.msg = d.get<MessageId>();
    f.src = d.get<sim::NodeId>();
    f.dst = d.get<sim::NodeId>();
    f.seq = static_cast<std::uint16_t>(d.get<std::uint32_t>());
    f.head = d.getBool();
    f.tail = d.getBool();
    f.vc = d.get<std::uint8_t>() & 0x1fu;
    f.crossed_dateline = d.getBool();
    f.hops = d.get<std::uint16_t>();
    f.stalls = d.get<std::uint16_t>();
    return f;
}

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_MESSAGE_HH_
