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

/** A message id holds its source node from this bit up
 *  (Network::send). */
inline constexpr int kMessageIdSrcShift = 40;

/**
 * Largest fabric: the 24 source bits of a message id and a flit's
 * 24-bit dst field both need node ids below this bound.
 */
inline constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 24;

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

    bool operator==(const Message &) const = default;
};

/**
 * One flit on a physical channel.
 *
 * Head flits carry the routing information; body/tail flits simply
 * follow the wormhole path their head opened. The vc field names the
 * virtual channel assigned on the link the flit is currently
 * traversing (rewritten at every hop).
 *
 * Packed to 16 bytes: every link traversal writes a flit into the
 * consumer's ring, so the struct size directly scales the fabric's
 * cache footprint. Three facts make the narrow layout lossless:
 *  - the source node is always msg >> kMessageIdSrcShift (see
 *    Network::send), so it is not stored (src());
 *  - node ids are below kMaxNodes (the Network constructor asserts
 *    it), so dst fits 24 bits;
 *  - a head flit's sequence number is always 0, and only heads carry
 *    the attribution counters and dateline state, so one 16-bit field
 *    holds the sequence number of a body flit and the link count of a
 *    head.
 * Checkpoints write the same 16 bytes (see saveFlit).
 */
struct Flit
{
    MessageId msg = 0;
    std::uint32_t dst : 24 = 0;
    bool head : 1 = false;
    bool tail : 1 = false;
    /**
     * Dateline state for the head flit: true once the packet has
     * crossed the wrap-around link of the ring it is currently
     * traversing (forces the high virtual channel; Dally's dateline
     * scheme for deadlock-free wormhole tori).
     */
    bool crossed_dateline : 1 = false;
    std::uint8_t vc : 3 = 0;  //!< VC on the current link
    /**
     * Body flit: index within the message (length asserted <= 65535).
     * Head flit: network links traversed (latency attribution,
     * saturating).
     */
    std::uint16_t seq_or_hops = 0;
    /** Head flit: router cycles spent waiting for an output VC. */
    std::uint16_t stalls = 0;

    sim::NodeId
    src() const
    {
        return static_cast<sim::NodeId>(msg >> kMessageIdSrcShift);
    }
    std::uint16_t seq() const { return head ? 0 : seq_or_hops; }
    std::uint16_t hops() const { return head ? seq_or_hops : 0; }

    bool operator==(const Flit &) const = default;
};

static_assert(sizeof(Flit) == 16, "a ring slot is 16 bytes");

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

/** Rejects a restored message whose payload its client cannot read. */
using PayloadCheck = void (*)(const MessagePayload &);

/** Inverse of saveMessage. The message must be one a client could
 *  pass to Network::send on a fabric of @p nodes nodes, with a payload
 *  @p check accepts when given. */
inline Message
checkedMessage(util::Deserializer &d, sim::NodeId nodes,
               PayloadCheck check)
{
    Message m;
    m.id = d.get<MessageId>();
    m.src = d.getBelow<sim::NodeId>(nodes);
    m.dst = d.getBelow<sim::NodeId>(nodes);
    m.flits = d.get<std::uint32_t>();
    for (std::uint64_t &word : m.payload)
        word = d.get<std::uint64_t>();
    m.submit_tick = d.get<sim::Tick>();
    // The class indexes per-class arrays (ClassAttribution).
    m.cls = d.getEnum(MessageClass::Writeback);
    if (m.src == m.dst)
        d.fail("message sent to its own source");
    if (m.flits < 1 || m.flits > 65535)
        d.fail("message length outside [1, 65535] flits");
    if (check != nullptr)
        check(m.payload);
    return m;
}

/**
 * A flit's checkpoint record is the packed layout itself, 16 bytes:
 * msg (u64); one u32 holding dst in bits 0-23, then head, tail,
 * crossed_dateline and the three vc bits; seq_or_hops (u16); stalls
 * (u16).
 */
inline void
saveFlit(util::Serializer &s, const Flit &f)
{
    s.put(f.msg);
    s.put(static_cast<std::uint32_t>(f.dst) |
          static_cast<std::uint32_t>(f.head) << 24 |
          static_cast<std::uint32_t>(f.tail) << 25 |
          static_cast<std::uint32_t>(f.crossed_dateline) << 26 |
          static_cast<std::uint32_t>(f.vc) << 27);
    s.put(f.seq_or_hops);
    s.put(f.stalls);
}

/** Inverse of saveFlit; throws on a record the fabric never writes
 *  (the two spare bits set, or head state on a body flit). */
inline Flit
loadFlit(util::Deserializer &d)
{
    Flit f;
    f.msg = d.get<MessageId>();
    const auto word = d.get<std::uint32_t>();
    f.seq_or_hops = d.get<std::uint16_t>();
    f.stalls = d.get<std::uint16_t>();
    if (word >> 30 != 0)
        d.fail("flit with spare bits set");
    f.dst = word & 0xffffffu;
    f.head = (word >> 24) & 1u;
    f.tail = (word >> 25) & 1u;
    f.crossed_dateline = (word >> 26) & 1u;
    f.vc = static_cast<std::uint8_t>((word >> 27) & 7u);
    if (!f.head && (f.crossed_dateline || f.stalls != 0))
        d.fail("body flit with head state");
    return f;
}

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_MESSAGE_HH_
