/**
 * @file
 * The abstraction a thread presents to the processor model: a stream
 * of (compute, memory-op) steps.
 *
 * The paper's validation application is a tiny loop whose only
 * architecturally visible behavior is its memory reference stream and
 * the work between references; representing threads as op streams is
 * the substitution for instruction-level Sparcle simulation recorded
 * in DESIGN.md.
 */

#ifndef LOCSIM_PROC_PROGRAM_HH_
#define LOCSIM_PROC_PROGRAM_HH_

#include <cstdint>

#include "coher/protocol.hh"
#include "util/serialize.hh"

namespace locsim {
namespace proc {

/** One step of a thread: compute, then one memory operation. */
struct Op
{
    enum class Kind : std::uint8_t {
        Load,
        Store,
        /**
         * Non-binding software prefetch: brings the line toward the
         * cache in Shared state without blocking the issuing thread
         * (one of the paper's "multiple outstanding transactions"
         * mechanisms, Section 2.1).
         */
        Prefetch,
    };

    Kind kind = Kind::Load;
    coher::Addr addr = 0;
    /** Value to write (stores). */
    std::uint64_t store_value = 0;
    /** Useful work preceding the memory operation, processor cycles. */
    std::uint32_t compute_cycles = 0;
};

/**
 * A thread as a generator of operations.
 *
 * next() is called with the result of the previous operation (the
 * loaded value for loads; the stored value echoed for stores) and
 * returns the next step. Threads run forever; the machine harness
 * decides when to stop measuring.
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /** First operation of the thread. */
    virtual Op start() = 0;

    /** Next operation, given the previous operation's result. */
    virtual Op next(std::uint64_t previous_result) = 0;

    /**
     * Checkpoint the generator's dynamic state (position, RNG, ...).
     * Programs whose next() is a pure function of config may keep the
     * default no-op. Restored instances must produce the identical op
     * stream continuation for bit-identical restore-then-extend runs.
     */
    virtual void saveState(util::Serializer &s) const { (void)s; }

    /** Restore state written by saveState(). */
    virtual void loadState(util::Deserializer &d) { (void)d; }

    /**
     * Completed iterations of the thread's loop, summed into
     * Measurement::iterations. Programs without a loop report 0.
     */
    virtual std::uint64_t iterations() const { return 0; }

    /**
     * Coherence-order violations the thread observed (must stay
     * zero), summed into Measurement::violations. Programs that do
     * not check report 0.
     */
    virtual std::uint64_t violations() const { return 0; }

    /**
     * Resident bytes of program state (footprint accounting).
     * Programs with heap-owned members add their capacities.
     */
    virtual std::size_t memoryBytes() const { return sizeof(*this); }
};

/** Serialize one Op (checkpoint helpers for processor state). */
inline void
saveOp(util::Serializer &s, const Op &op)
{
    s.put(op.kind);
    s.put(op.addr);
    s.put(op.store_value);
    s.put(op.compute_cycles);
}

inline Op
loadOp(util::Deserializer &d)
{
    Op op;
    op.kind = d.getEnum(Op::Kind::Prefetch);
    op.addr = d.get<coher::Addr>();
    op.store_value = d.get<std::uint64_t>();
    op.compute_cycles = d.get<std::uint32_t>();
    return op;
}

} // namespace proc
} // namespace locsim

#endif // LOCSIM_PROC_PROGRAM_HH_
