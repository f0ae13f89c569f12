/**
 * @file
 * Protocol-level definitions for the directory-based cache coherence
 * layer: addresses, protocol message types, and configuration.
 *
 * The protocol is a full-map invalidation MSI protocol, the behavior
 * LimitLESS exhibits when sharer counts stay within its hardware
 * pointers (true for the paper's synthetic application, whose lines
 * have at most four sharers). See DESIGN.md for the substitution
 * rationale.
 */

#ifndef LOCSIM_COHER_PROTOCOL_HH_
#define LOCSIM_COHER_PROTOCOL_HH_

#include <cstdint>
#include <string>

#include "net/message.hh"
#include "sim/types.hh"

namespace locsim {
namespace coher {

/**
 * A global address: the home node in the high 32 bits, the byte
 * offset within that node's memory in the low 32 bits.
 */
using Addr = std::uint64_t;

/** Cache line size in bytes (Alewife: 16-byte lines). */
inline constexpr std::uint32_t kLineBytes = 16;

/** Compose an address from home node and line index. */
inline Addr
makeAddr(sim::NodeId home, std::uint32_t line)
{
    return (static_cast<Addr>(home) << 32) |
           (static_cast<Addr>(line) * kLineBytes);
}

/** Home node of an address. */
inline sim::NodeId
homeOf(Addr addr)
{
    return static_cast<sim::NodeId>(addr >> 32);
}

/** Line-aligned address (drops the offset within the line). */
inline Addr
lineOf(Addr addr)
{
    return addr & ~static_cast<Addr>(kLineBytes - 1);
}

/** Line index within the home node's memory. */
inline std::uint32_t
lineIndexOf(Addr addr)
{
    return static_cast<std::uint32_t>(addr & 0xffffffffu) / kLineBytes;
}

/** Coherence protocol message types. */
enum class MsgType : std::uint8_t {
    GetS,       //!< read request to home
    GetX,       //!< write/exclusive request to home
    DataS,      //!< home -> requester: data, shared grant
    DataX,      //!< home -> requester: data, exclusive grant
    Inv,        //!< home -> sharer: invalidate
    InvAck,     //!< sharer -> home: invalidation done
    Fetch,      //!< home -> owner: demote M to S, return data
    FetchInv,   //!< home -> owner: invalidate M copy, return data
    FetchReply, //!< owner -> home: data from a Fetch/FetchInv
    PutX,       //!< owner -> home: writeback of an evicted M line
};

inline constexpr MsgType kLastMsgType = MsgType::PutX;

/** Human-readable message type name (diagnostics and traces). */
const char *msgTypeName(MsgType type);

/** True if this message type carries a data payload. */
bool carriesData(MsgType type);

/** A coherence protocol message (rides in a network message). */
struct ProtoMsg
{
    MsgType type = MsgType::GetS;
    Addr addr = 0;
    sim::NodeId sender = sim::kNodeNone;
    /**
     * For grants/data: the memory word value, used to verify protocol
     * correctness end to end (readers must observe the most recent
     * write).
     */
    std::uint64_t data = 0;
    /** Requester on whose behalf a Fetch/Inv was issued. */
    sim::NodeId requester = sim::kNodeNone;
    /**
     * On grants: number of messages on the serial critical path of
     * the transaction (2 for a direct home reply, 4 when the home had
     * to invalidate sharers or recall an owner first). Used by the
     * measurement harness to compute the transaction model's c.
     */
    int critical = 0;
};

/**
 * Pack a protocol message into a network message's inline payload
 * words. The encoding is a stable part of the checkpoint format
 * (in-flight messages serialize their payload words verbatim).
 */
inline net::MessagePayload
packProtoMsg(const ProtoMsg &msg)
{
    net::MessagePayload words{};
    words[0] = msg.addr;
    words[1] = msg.data;
    words[2] = static_cast<std::uint64_t>(msg.sender) |
               (static_cast<std::uint64_t>(msg.requester) << 32);
    words[3] = static_cast<std::uint64_t>(msg.type) |
               (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(msg.critical))
                << 32);
    return words;
}

/** Inverse of packProtoMsg. */
inline ProtoMsg
unpackProtoMsg(const net::MessagePayload &words)
{
    ProtoMsg msg;
    msg.addr = words[0];
    msg.data = words[1];
    msg.sender = static_cast<sim::NodeId>(words[2] & 0xffffffffu);
    msg.requester = static_cast<sim::NodeId>(words[2] >> 32);
    msg.type = static_cast<MsgType>(words[3] & 0xffu);
    msg.critical = static_cast<int>(
        static_cast<std::int32_t>(words[3] >> 32));
    return msg;
}

/** A net::PayloadCheck: rejects a restored network message whose
 *  payload packs a protocol message type past kLastMsgType. */
inline void
checkProtoPayload(const net::MessagePayload &words)
{
    const auto type = static_cast<std::uint8_t>(words[3] & 0xffu);
    util::Deserializer(&type, 1).getEnum(kLastMsgType);
}

/** Timing and sizing knobs for the coherence layer. */
struct ProtocolConfig
{
    /**
     * Flits per protocol message. The paper reports an average of
     * 96 bits = 12 flits over 8-bit channels for this protocol and
     * workload; by default all messages use that size so the
     * simulated average matches exactly.
     */
    std::uint32_t control_flits = 12;
    std::uint32_t data_flits = 12;

    /**
     * Controller occupancy per protocol message, processor cycles.
     * Together with mem_latency this calibrates the fixed transaction
     * overhead to the paper's stated 1-1.5 us (Section 4.2).
     */
    std::uint32_t occupancy = 6;

    /** DRAM access latency at the home, processor cycles. */
    std::uint32_t mem_latency = 16;

    /** Cache hit latency, processor cycles. */
    std::uint32_t hit_latency = 1;

    /**
     * Cache size in bytes (64 KB direct-mapped in Alewife). Tests use
     * small sizes to exercise evictions.
     */
    std::uint32_t cache_bytes = 64 * 1024;

    /**
     * LimitLESS-style limited directory: number of hardware sharer
     * pointers per entry. Entries needing more sharers trap to a
     * software handler that extends the directory in memory --
     * correctness is unchanged, but the home controller stalls for
     * overflow_trap_cycles on each overflowed operation. 0 disables
     * the limit (pure full-map hardware directory, the default, which
     * is what LimitLESS degenerates to for the Section 3 workload's
     * <= 4 sharers when the pointer count is >= 4).
     */
    std::uint32_t dir_pointers = 0;

    /** Software handler cost per overflowed operation, proc cycles. */
    std::uint32_t overflow_trap_cycles = 50;
};

} // namespace coher
} // namespace locsim

#endif // LOCSIM_COHER_PROTOCOL_HH_
