/**
 * @file
 * A virtual-channel wormhole router for k-ary n-dimensional tori.
 *
 * Microarchitecture (one network cycle per hop when uncontended,
 * matching Section 3.1's "base delay through a network switch is a
 * single network cycle"):
 *
 *  - 2n neighbor ports (one per dimension and direction, separate
 *    unidirectional physical channels) plus an injection input and an
 *    ejection output.
 *  - V virtual channels per physical channel, each with a private
 *    flit buffer of fixed depth; credit-based flow control returns one
 *    credit upstream per flit drained.
 *  - Dimension-order (e-cube) routing; within a ring, deadlock freedom
 *    comes from Dally's dateline scheme: packets use VC 0 until they
 *    traverse the wrap-around link, VC 1 from the wrap link onward.
 *  - Per-packet output VC ownership (wormhole): a head flit claims an
 *    output VC; the tail releases it.
 *
 * Links are not objects. Switch traversal deposits each flit straight
 * into the consumer's input-VC ring (or the node's ejection ring) at a
 * write cursor the producer owns, and stages one wake bit per input
 * unit in the consumer's staged word; a freed buffer slot stages one
 * credit bit per (output port, VC) in the upstream router's staged
 * credit word. Consumers latch staged bits only at the start of the
 * next cycle, so a deposit is invisible for exactly one cycle and the
 * order in which routers tick within a cycle is immaterial (see
 * DESIGN.md, "The deposit protocol"). The router's input-VC and
 * output-VC state lives in Network-owned slabs (one contiguous array
 * per kind across all routers), handed to each router as a
 * RouterSlices view; the router object itself is wiring, masks,
 * round-robin pointers and statistics.
 */

#ifndef LOCSIM_NET_ROUTER_HH_
#define LOCSIM_NET_ROUTER_HH_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "sim/engine.hh"
#include "net/message.hh"
#include "net/topology.hh"
#include "stats/stats.hh"
#include "util/logging.hh"

namespace locsim {
namespace net {

/**
 * Cross-shard wake bits staged by one shard's producers. A deposit
 * into a consumer on another shard cannot set the consumer's staged
 * word directly (the consumer latches it concurrently in the same
 * tick phase), so the producer stages the bit here and rotation —
 * barrier-separated from every tick phase — fetch_or's it into the
 * consumer's remote word, which the consumer drains at the start of
 * the next cycle: exactly when a same-shard bit would latch. One
 * entry per cross-shard link; sequential fabrics have none.
 */
class WakeOutbox final : public sim::Rotatable
{
  public:
    /** Add a link whose bits deliver into @p target; returns its entry. */
    std::uint32_t
    add(std::atomic<std::uint32_t> *target)
    {
        entries_.push_back({target, 0u});
        touched_.reserve(entries_.size());
        return static_cast<std::uint32_t>(entries_.size() - 1);
    }

    /** Stage @p bit on @p entry; delivered at the next rotation. */
    void
    stage(std::uint32_t entry, std::uint32_t bit)
    {
        Entry &e = entries_[entry];
        LOCSIM_ASSERT((e.bits & bit) == 0,
                      "two deposits on one cross-shard link in a cycle");
        if (e.bits == 0)
            touched_.push_back(entry);
        e.bits |= bit;
    }

    void
    rotate() override
    {
        for (const std::uint32_t entry : touched_) {
            Entry &e = entries_[entry];
            e.target->fetch_or(std::exchange(e.bits, 0u),
                               std::memory_order_relaxed);
        }
        touched_.clear();
    }

  private:
    struct Entry
    {
        std::atomic<std::uint32_t> *target;
        std::uint32_t bits;
    };
    std::vector<Entry> entries_;
    /** Entries with staged bits, in first-stage order. */
    std::vector<std::uint32_t> touched_;
};

/** Configuration knobs for the router fabric. */
struct RouterConfig
{
    /** Virtual channels per physical channel (>= 2 for torus). */
    int vcs = 2;
    /**
     * Flit buffer depth per virtual channel ("a moderate amount of
     * buffering is provided on each switch", Section 3.1).
     */
    int buffer_depth = 8;
};

/**
 * One switch of the torus fabric.
 *
 * The Network wires routers to their neighbors and endpoints and owns
 * the flat state slabs; the router itself only knows its node id, the
 * topology, its slab slices and where each port deposits flits and
 * returns credits.
 */
class Router
{
  public:
    /** The activity masks hold one bit per input unit (port * vc). */
    static constexpr int kMaxPorts = 16;
    /** VC indices fit Flit::vc's three bits. */
    static constexpr int kMaxVcs = 8;

    /**
     * One input VC: a private flit buffer (a slice of the fabric-wide
     * contiguous ring slab, power-of-two sized for buffer_depth;
     * credit flow control guarantees it never overflows) plus the
     * wormhole routing state of the packet at its head. Ring indices
     * are monotonic and masked on access. [head, tail) is the latched
     * buffer; the upstream producer deposits at its own write cursor
     * (>= tail, at most one flit ahead), and the consumer's latch
     * advances tail over it one cycle later.
     */
    struct InputVc
    {
        Flit *slots = nullptr;       //!< into the Network's vc slab
        std::uint32_t mask = 0;      //!< ring capacity - 1
        std::uint32_t head = 0;
        std::uint32_t tail = 0;

        bool bufEmpty() const { return head == tail; }
        std::uint32_t bufSize() const { return tail - head; }
        const Flit &bufFront() const { return slots[head & mask]; }
        Flit &bufFrontMut() { return slots[head & mask]; }
        /**
         * head is read by the producer's ring-overflow check, which
         * may run on another shard's thread, so it is stored through
         * std::atomic_ref (relaxed: a plain store on x86).
         */
        void
        bufPop()
        {
            std::atomic_ref<std::uint32_t>(head).store(
                head + 1, std::memory_order_relaxed);
        }

        bool routed = false;      //!< head holds its output VC
        /**
         * out_port/out_vc hold a valid route for the head packet.
         * The route is a pure function of the head flit and the input
         * port, so it stays cached across failed allocation retries
         * and is only invalidated when the tail flit departs.
         *
         * Narrow types throughout (ports and VC indices are bounded
         * well below 127): the switch phases walk every unit's state
         * each busy cycle, so InputVc packs into 24 bytes.
         */
        bool route_valid = false;
        std::int8_t out_port = -1;
        std::int8_t out_vc = -1;
    };

    /**
     * One output VC, packed to 8 bytes and indexed like the input
     * units (port * vcs + vc), so a credit bit's index addresses its
     * record directly and a flit move touches one record.
     */
    struct OutputVc
    {
        /**
         * Write cursor into the downstream ring this VC deposits into:
         * flits ever deposited (monotonic, masked by the consumer
         * ring). Owned by this router alone. The ejection output
         * deposits every VC into one ring, through VC 0's cursor.
         */
        std::uint32_t cursor = 0;
        /** Credits available on this output VC. */
        std::int16_t credits = 0;
        /** Encoded owner input (port * vcs + vc), or -1 if free. */
        std::int8_t owner = -1;
    };

    /**
     * Where one output port deposits flits: the consumer's input
     * units for the arriving port (indexed by VC), and the staged word
     * that latches them. vc_mask is 0 for the ejection ring (one
     * FIFO, whatever the VC) and all-ones for a neighbor port.
     * Cross-shard consumers have no directly writable word: their
     * bits go through this router's WakeOutbox entry remote.
     */
    struct Downstream
    {
        InputVc *units = nullptr; //!< null: no link (mesh edge)
        std::uint32_t *wake = nullptr; //!< null: cross-shard
        std::uint32_t remote = 0;
        std::uint8_t shift = 0; //!< consumer bit of VC 0
        std::uint8_t vc_mask = 0;
    };

    /**
     * Where credits freed on one input port go: a bit per (output
     * port, VC) in the upstream router's staged credit word, or (for
     * the injection port) a count the co-sharded endpoint collects.
     */
    struct Upstream
    {
        std::uint32_t *word = nullptr; //!< null: cross-shard
        std::uint32_t remote = 0;
        std::uint8_t shift = 0; //!< upstream bit of VC 0
        bool counter = false;   //!< word counts credits
    };

    /**
     * This router's views into the Network-owned state slabs:
     * @p inputs and @p outputs have unitCount() entries each, and
     * @p vc_slots unitCount() * vcRingCapacity() flits.
     * The wake/occupancy words live in per-node uint32 slabs (one
     * word per router per slab) so the start-of-cycle latch and busy
     * scan stream contiguous arrays — and vectorize (see
     * kernels::routerLatchBusy) — instead of striding across router
     * objects; each pointer names this router's single word.
     */
    struct RouterSlices
    {
        InputVc *inputs = nullptr;
        OutputVc *outputs = nullptr;
        Flit *vc_slots = nullptr;
        std::uint32_t *flit_wake_staged = nullptr;
        std::uint32_t *flit_wake = nullptr;
        std::uint32_t *credit_wake_staged = nullptr;
        std::uint32_t *credit_wake = nullptr;
        std::uint32_t *buffered = nullptr;
    };

    /** @param outbox this router's shard's cross-shard wake
     *         staging (null on sequential fabrics). */
    Router(const TorusTopology &topo, sim::NodeId node,
           const RouterConfig &config, const RouterSlices &slices,
           WakeOutbox *outbox);

    /** Number of ports including injection/ejection. */
    int portCount() const { return 2 * topo_.dims() + 1; }

    /** Input units (port, vc pairs) of one router. */
    int unitCount() const { return portCount() * config_.vcs; }

    /** Per-input-VC ring slots (power of two >= buffer_depth). */
    static std::size_t
    vcRingCapacity(const RouterConfig &config)
    {
        std::size_t cap = 2;
        while (cap < static_cast<std::size_t>(config.buffer_depth))
            cap <<= 1;
        return cap;
    }

    /** Port index for (dim, dir): outgoing or incoming neighbor. */
    static int
    portFor(int dim, int dir)
    {
        return 2 * dim + (dir > 0 ? 0 : 1);
    }

    /** The local (injection input / ejection output) port index. */
    int localPort() const { return 2 * topo_.dims(); }

    /** Wire output @p port's deposits; starts with full credit. */
    void connectOutput(int port, const Downstream &down);

    /** Wire where input @p port returns its credits. */
    void
    connectInput(int port, const Upstream &up)
    {
        upstream_[static_cast<std::size_t>(port)] = up;
    }

    /** Consumer bit of (port, vc) in this router's staged words. */
    int unitBit(int port, int vc) const { return port * config_.vcs + vc; }

    /**
     * Advance one network cycle. @p now is the engine tick; internal
     * round-robin pointers are derived from it so that skipping ticks
     * while idle leaves arbitration state exactly as if the router
     * had been polled every cycle.
     */
    void tick(sim::Tick now);

    /**
     * Latch the bits staged by last cycle's deposits into the masks
     * tick() consumes. The Network latches every router at the start
     * of a network cycle, before anything deposits: deposits made
     * during the current cycle stage bits for the next one, which is
     * the one-cycle link latency. Shard-edge nodes latch here; the
     * rest latch in kernels::routerLatchBusy, which does the same on
     * the slab words. Cross-shard wakes must already be folded in by
     * drainRemoteWakes().
     */
    void
    latchWakes()
    {
        *flit_wake_ |= std::exchange(*flit_wake_staged_, 0u);
        *credit_wake_ |= std::exchange(*credit_wake_staged_, 0u);
    }

    /**
     * Fold pending cross-shard wakes into the *staged* words, ahead of
     * the latch that ORs them into the wake words, and count them in
     * remote_wakes_. The Network calls this for its per-shard
     * remote-node list at the start of each network cycle.
     */
    void
    drainRemoteWakes()
    {
        const std::uint32_t flits =
            remote_flit_wake_.exchange(0u, std::memory_order_relaxed);
        const std::uint32_t credits = remote_credit_wake_.exchange(
            0u, std::memory_order_relaxed);
        *flit_wake_staged_ |= flits;
        *credit_wake_staged_ |= credits;
        remote_wakes_ += static_cast<std::uint64_t>(
            std::popcount(flits) + std::popcount(credits));
    }

    /** True once a cross-shard producer was bound to this router. */
    bool hasRemoteWakes() const { return has_remote_wakes_; }

    /**
     * Cross-shard wake words. In sharded runs, a producer on another
     * shard delivers its bits here (atomically, through its shard's
     * WakeOutbox during the rotation phase) instead of into the plain
     * staged words; drainRemoteWakes() folds them in before the latch.
     * Only routers with has_remote_wakes_ are drained, so the
     * sequential path pays nothing. The Network performs the binding.
     */
    std::atomic<std::uint32_t> &
    remoteFlitWakeWord()
    {
        has_remote_wakes_ = true;
        return remote_flit_wake_;
    }

    std::atomic<std::uint32_t> &
    remoteCreditWakeWord()
    {
        has_remote_wakes_ = true;
        return remote_credit_wake_;
    }

    /**
     * Activity report: true if any flit is buffered in this router or
     * a latched bit says a flit or credit arrived. An idle router's
     * tick() is a no-op, so the fabric may skip it entirely. Only
     * meaningful after latchWakes().
     */
    bool
    busy() const
    {
        return *buffered_ > 0 || *flit_wake_ != 0 ||
               *credit_wake_ != 0;
    }

    /** Flits forwarded through output @p port (for utilization). */
    const stats::Counter &
    outputFlits(int port) const
    {
        return output_flits_[static_cast<std::size_t>(port)];
    }

    /** Failed output-VC claims (head flit blocked this cycle). */
    const stats::Counter &allocStalls() const { return alloc_stalls_; }

    /**
     * Cross-shard wake bits drained by drainRemoteWakes() (popcount
     * of the remote wake words). An execution diagnostic for the counter
     * registry — 0 in sequential runs, shard-count-dependent and not
     * part of the simulated result, hence never serialized.
     */
    std::uint64_t remoteWakes() const { return remote_wakes_; }

    /**
     * Attach a tracer for flit-level detail (nullptr to detach; not
     * owned). Events are only emitted when the tracer is configured
     * with TraceDetail::Flit: "flit" per link/ejection traversal and
     * "alloc_stall" per failed output-VC claim, all on @p track.
     */
    void
    setTracer(obs::Tracer *tracer, int track)
    {
        tracer_ = (tracer != nullptr && tracer->flitDetail())
                      ? tracer
                      : nullptr;
        trace_track_ = track;
    }

    /** Total flits currently buffered (for drain/idle detection). */
    std::size_t bufferedFlits() const;

    const RouterConfig &config() const { return config_; }
    sim::NodeId node() const { return node_; }

    /**
     * Serialize the router's dynamic state: its staged flit and credit
     * words (pending cross-shard bits folded in, so the bytes do not
     * depend on the shard count), then per input unit its ring
     * cursors, routing state and the flits in [head, tail + staged
     * bit), per output VC its owner, the per-port VC round-robin
     * pointers and the statistics. Wiring, decode tables, the latched
     * wake words (clear between cycles) and every field derivable
     * from the rest (occupancy and ownership masks, the buffered
     * count, the arbitration cache) are rebuilt instead; so are the
     * output VCs' credits and write cursors, which are functions of
     * the consumer rings (Network::rebuildWriters).
     */
    void saveState(util::Serializer &s) const;

    /**
     * Inverse of saveState(). Throws std::runtime_error on a staged
     * bit past the last unit, a ring holding more than buffer_depth
     * flits, a malformed route, a flit on the wrong VC or bound for a
     * node the fabric lacks, or an owner that is not an input unit.
     * Leaves credits and write cursors to the Network.
     */
    void loadState(util::Deserializer &d);

    /** Unlatched flit bits, including pending cross-shard ones. */
    std::uint32_t
    stagedFlitBits() const
    {
        return *flit_wake_staged_ |
               remote_flit_wake_.load(std::memory_order_relaxed);
    }

    /** Unlatched credit bits, including pending cross-shard ones. */
    std::uint32_t
    stagedCreditBits() const
    {
        return *credit_wake_staged_ |
               remote_credit_wake_.load(std::memory_order_relaxed);
    }

  private:
    void receiveCredits();
    void receiveFlits();
    void routeAndAllocate(sim::Tick now);
    void switchTraversal(sim::Tick now);

    /** Compute route for the head flit of (port, vc). */
    void computeRoute(int port, InputVc &ivc);

    const TorusTopology &topo_;
    sim::NodeId node_;
    RouterConfig config_;

    InputVc *inputs_ = nullptr;   // [port][vc] flattened slab slice
    OutputVc *outputs_ = nullptr; // [port][vc] flattened slab slice
    /** Round-robin pointer over each output port's VCs. */
    std::array<std::int8_t, kMaxPorts> next_vc_{};

    /**
     * Per-port wiring. portCount() is bounded by kMaxPorts (the
     * constructor asserts ports * vcs < 32 with vcs >= 2), so fixed
     * arrays avoid heap vectors per router.
     */
    std::array<Downstream, kMaxPorts> downstream_{};
    std::array<Upstream, kMaxPorts> upstream_{};
    WakeOutbox *outbox_ = nullptr;

    /** Flits currently held in input VC buffers (kept incrementally;
     *  slab word, see RouterSlices). */
    std::uint32_t *buffered_ = nullptr;

    /**
     * Activity bitmasks. The flit words hold one bit per input unit
     * (port * vcs + vc), each standing for exactly one deposited flit;
     * the credit words one bit per (output port * vcs + vc), each one
     * credit. Producers set the staged words during a cycle;
     * latchWakes() moves them into the latched words tick() consumes.
     * The occupancy masks let the allocation / traversal phases visit
     * only units with buffered flits / ports with owned VCs. The
     * constructor asserts port * VC counts fit in 32 bits. All four
     * wake words live in Network-owned per-node slabs (RouterSlices)
     * so the start-of-cycle latch is a contiguous — and vectorizable —
     * sweep; these pointers name this router's words.
     */
    std::uint32_t *flit_wake_staged_ = nullptr;
    std::uint32_t *flit_wake_ = nullptr;
    std::uint32_t *credit_wake_staged_ = nullptr;
    std::uint32_t *credit_wake_ = nullptr;
    /** Cross-shard wake words; see remoteFlitWakeWord(). */
    std::atomic<std::uint32_t> remote_flit_wake_{0};
    std::atomic<std::uint32_t> remote_credit_wake_{0};
    bool has_remote_wakes_ = false;
    /** See remoteWakes(); host diagnostic, excluded from saveState. */
    std::uint64_t remote_wakes_ = 0;
    /** Input units (port * vcs + vc) with a non-empty flit buffer. */
    std::uint32_t vc_occupied_ = 0;
    /** Output ports with at least one owned (allocated) VC. */
    std::uint32_t owned_ports_ = 0;

    /**
     * Event-armed scan pruning. Under congestion most owned output
     * VCs are blocked on credits or upstream body flits for many
     * cycles, so re-scanning them every cycle dominates the traversal
     * phase. Instead, a port is scanned only while its ready bit is
     * set; the bit is cleared when a scan proves the port cannot
     * forward until new input arrives, and re-armed by exactly the
     * events that could unblock it: a credit arrival (receiveCredits),
     * a flit latched into a routed unit (receiveFlits), or a fresh VC
     * claim (routeAndAllocate). alloc_pending_ likewise narrows the
     * allocation scan to units whose head packet still needs an
     * output VC. Both masks are derived state, never serialized and
     * rebuilt conservatively in loadState().
     */
    std::uint32_t ready_ports_ = 0;
    std::uint32_t alloc_pending_ = 0;

    /**
     * Unit index -> (port, vc) decode tables: the hot phases decode
     * owner units every cycle, and a table lookup beats dividing by
     * the runtime VC count.
     */
    std::array<std::int8_t, 32> unit_port_{};
    std::array<std::int8_t, 32> unit_vc_{};

    /**
     * Cache for the allocation scan's rotating start position, which
     * is a pure function of the tick (start = now mod units). Ticks
     * usually arrive consecutively, so the common case is an
     * increment instead of a 64-bit division.
     */
    sim::Tick rr_now_ = 0;
    int rr_start_ = 0;

    std::array<stats::Counter, kMaxPorts> output_flits_;
    stats::Counter alloc_stalls_;

    /** Non-null only when flit-level tracing is on (null sink). */
    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
};

static_assert(sizeof(Router::OutputVc) == 8,
              "a flit move touches one 8-byte output-VC record");

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_ROUTER_HH_
