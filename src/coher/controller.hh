/**
 * @file
 * The per-node memory/network interface controller: serves processor
 * loads and stores, maintains the home directory for local lines, and
 * runs the full-map MSI invalidation protocol over the network
 * (Alewife's "controller that serves as both memory and network
 * interface", Section 3.1).
 *
 * Protocol summary (stable states MSI at caches;
 * Uncached/Shared/Exclusive at directories; acknowledgements are
 * collected at the home):
 *
 *   read miss:  GetS -> home; home replies DataS (fetching from the
 *               exclusive owner first if necessary via Fetch /
 *               FetchReply).
 *   write miss: GetX -> home; home invalidates sharers (Inv/InvAck)
 *               or recalls the owner (FetchInv/FetchReply), then
 *               grants with DataX.
 *   eviction:   Modified victims write back with PutX; Shared victims
 *               drop silently (homes tolerate stale sharers by
 *               accepting InvAcks from non-holders).
 *
 * Races handled: Inv arriving while a GetS/GetX is outstanding on the
 * same line (ack immediately; the grant carries fresh data), and
 * Fetch crossing a PutX in flight (the home accepts the PutX as the
 * fetch reply; the owner drops the stale Fetch).
 */

#ifndef LOCSIM_COHER_CONTROLLER_HH_
#define LOCSIM_COHER_CONTROLLER_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coher/cache.hh"
#include "coher/directory.hh"
#include "coher/protocol.hh"
#include "net/network.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "stats/stats.hh"
#include "util/flat_map.hh"
#include "util/pool.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"

namespace locsim {
namespace coher {

/** A processor memory request. */
struct MemRequest
{
    bool is_store = false;
    Addr addr = 0;
    std::uint64_t store_value = 0;
    int context = 0;
    /**
     * False for fire-and-forget accesses (prefetch): the access runs
     * the full protocol but no completion is delivered to the client.
     */
    bool wants_reply = true;
};

/** Outcome delivered to the processor when a request completes. */
struct MemResponse
{
    int context = 0;
    std::uint64_t load_value = 0;
    /** True if satisfying the request required network messages. */
    bool was_transaction = false;
};

/**
 * Consumer of memory completions (implemented by proc::Processor and
 * test harnesses). Replaces per-request completion closures: keeping
 * the controller's pending work as plain data (request + response
 * records instead of captured std::functions) is what makes
 * checkpoint/restore possible, and it removes a heap allocation per
 * completion from the hot path.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** A request submitted via CacheController::request() finished. */
    virtual void memComplete(const MemResponse &resp) = 0;
};

/** Per-controller statistics. */
struct ControllerStats
{
    stats::Counter loads;
    stats::Counter stores;
    stats::Counter hits;
    /** Completed communication (network) transactions. */
    stats::Counter transactions;
    /** Protocol messages sent into the network. */
    stats::Counter messages_sent;
    /** Latency of communication transactions, in ticks. */
    stats::Accumulator txn_latency;
    /** Messages on the critical path, per transaction. */
    stats::Accumulator critical_messages;
    stats::Counter writebacks;
    /** LimitLESS software-directory traps at this home. */
    stats::Counter limitless_traps;

    void
    saveState(util::Serializer &s) const
    {
        loads.saveState(s);
        stores.saveState(s);
        hits.saveState(s);
        transactions.saveState(s);
        messages_sent.saveState(s);
        txn_latency.saveState(s);
        critical_messages.saveState(s);
        writebacks.saveState(s);
        limitless_traps.saveState(s);
    }

    void
    loadState(util::Deserializer &d)
    {
        loads.loadState(d);
        stores.loadState(d);
        hits.loadState(d);
        transactions.loadState(d);
        messages_sent.loadState(d);
        txn_latency.loadState(d);
        critical_messages.loadState(d);
        writebacks.loadState(d);
        limitless_traps.loadState(d);
    }
};

/** The memory-side controller for one node. */
class CacheController : public sim::Clocked
{
  public:
    /**
     * @param engine the engine driving this node (for timestamps).
     * @param network fabric this node attaches to.
     * @param node this controller's node id.
     * @param config protocol timing/sizing knobs.
     * @param ticks_per_cycle engine ticks per processor cycle.
     */
    CacheController(sim::Engine &engine, net::Network &network,
                    sim::NodeId node, const ProtocolConfig &config,
                    std::uint32_t ticks_per_cycle);

    /**
     * Synchronous cache probe for the processor's issue stage: if the
     * access hits (load in any valid state; store in Modified), apply
     * it and return the response immediately. Misses return nullopt
     * and must be submitted via request(). Models the processor's
     * direct cache path, which does not contend with the controller.
     */
    std::optional<MemResponse> tryFastPath(const MemRequest &req);

    /**
     * Attach the completion consumer, whose requests name contexts in
     * [0, @p contexts). Must be set before the first request with
     * wants_reply completes. Not owned; must outlive the controller
     * while attached.
     */
    void
    setClient(MemClient *client, int contexts = 1)
    {
        client_ = client;
        client_contexts_ = contexts;
    }

    /**
     * Submit a processor request. The client's memComplete() fires
     * when the access is satisfied (never before the controller's
     * next tick). At most one request per context may be outstanding.
     */
    void request(const MemRequest &req);

    void tick(sim::Tick now) override;

    /**
     * Serialize all dynamic state (cache, directory, queues, MSHRs,
     * home transients, pending completions, stats). Topology/config
     * state is reconstructed from the configuration, not serialized.
     */
    void saveState(util::Serializer &s) const;

    /**
     * Restore state written by saveState() into a controller with the
     * same configuration, overwriting all of its state (fresh or
     * not). The restored completion
     * heap is the wakeup source (nextWake()), so nothing is scheduled
     * into the engine. Throws std::runtime_error where Cache::loadState
     * and Directory::loadState do, on a request or completion whose
     * context is outside the client's [0, contexts), a protocol
     * message type or home transaction kind past the last, MSHR or
     * home transaction lines out of order or repeated, and an outbox
     * message from another node or one net::checkedMessage rejects.
     */
    void loadState(util::Deserializer &d);

    const ControllerStats &stats() const { return stats_; }
    ControllerStats &stats() { return stats_; }

    /**
     * Attach a tracer (nullptr to detach; not owned): emits one
     * Category::Coher instant per protocol message sent or handled on
     * @p track, named after the message type, with args dir
     * ("send"/"handle"), line and peer (destination for sends, sender
     * for handles).
     */
    void
    setTracer(obs::Tracer *tracer, int track)
    {
        tracer_ = tracer;
        trace_track_ = track;
    }

    /**
     * Attach a phase-profiler slot (nullptr to detach; not owned).
     * tick() records Phase::Coherence; null costs one branch.
     */
    void setProfiler(obs::PhaseSlot *slot) { profile_slot_ = slot; }

    const Cache &cache() const { return cache_; }
    const Directory &directory() const { return directory_; }
    sim::NodeId node() const { return node_; }

    /** True if no transaction is outstanding at this node. */
    bool quiescent() const;

    /** Resident bytes of this node's coherence state (footprint). */
    std::size_t memoryBytes() const;

    /**
     * The controller has work while any transaction state (MSHRs,
     * home transients, queued messages or requests) exists, or while
     * the network holds deliveries this node has not drained yet.
     * A future busy_until_ alone does not count: with every queue
     * empty the occupancy window expires without side effects.
     */
    bool busy() const override
    {
        return !quiescent() || network_.pendingAt(node_) > 0;
    }

    /** Due tick of the earliest queued completion, if any. */
    sim::Tick nextWake() const override
    {
        return pending_completions_.empty()
                   ? sim::kTickNever
                   : pending_completions_.front().due;
    }

  private:
    /**
     * Requester-side outstanding miss. Lives in a generation-checked
     * pool: a recycled MSHR keeps its deferred queue's capacity, so
     * steady-state transaction turnover never touches the allocator.
     */
    struct Mshr
    {
        MemRequest req;
        sim::Tick issued = 0;
        /** Requests for the same line arriving while busy. */
        util::RingQueue<MemRequest> deferred;
    };

    /** Home-side transient for one line (pooled, like Mshr). */
    struct HomeTxn
    {
        enum class Kind {
            RemoteRead,   //!< GetS needing a Fetch
            RemoteWrite,  //!< GetX needing Invs or a FetchInv
            LocalRead,    //!< local load needing a Fetch
            LocalWrite,   //!< local store needing Invs or FetchInv
        };
        Kind kind = Kind::RemoteRead;
        sim::NodeId requester = sim::kNodeNone;
        int pending_acks = 0;
        bool waiting_fetch = false;
        /** Deferred same-line requests from the network. */
        util::RingQueue<ProtoMsg> deferred;
        /** Deferred same-line local requests. */
        util::RingQueue<MemRequest> local_deferred;
        /** For Local* kinds: the processor request being served. */
        MemRequest local_req;
        /** Issue tick of the local transaction (for latency stats). */
        sim::Tick issued = 0;
    };

    /**
     * Transaction pools hold only a handful of live objects per node
     * (the workload bounds outstanding misses per context), so small
     * 4-slot chunks keep a 64x64 machine's warm footprint compact
     * where the default 512-slot chunks would cost ~128KB per node.
     * The first chunk is allocated on a node's first miss, on the
     * thread running its shard; 16-slot chunks (4.4 KB per node) made
     * a sweep's peak RSS depend on which allocator arena that thread
     * reused, by ~4 MB on a 32x32 machine.
     */
    using MshrPool = util::Pool<Mshr, 2>;
    using MshrHandle = MshrPool::Handle;
    using HomePool = util::Pool<HomeTxn, 2>;
    using HomeHandle = HomePool::Handle;

    /** A completion waiting for its due tick (min-heap by due, seq). */
    struct PendingCompletion
    {
        sim::Tick due = 0;
        std::uint64_t seq = 0;
        MemResponse resp;
    };

    void handleProcessorRequest(const MemRequest &req);
    void handleProtocolMessage(const ProtoMsg &msg);

    /**
     * Allocate a pooled transaction for @p line and register its
     * handle. Pool slots recycle without destruction, so every field
     * is reset here (the deferred queues keep their capacity).
     */
    Mshr &newMshr(Addr line);
    HomeTxn &newHomeTxn(Addr line);

    // Requester-side handlers.
    void startMiss(const MemRequest &req);
    void handleGrant(const ProtoMsg &msg, bool exclusive);
    void handleInv(const ProtoMsg &msg);
    void handleFetch(const ProtoMsg &msg, bool invalidate);

    // Home-side handlers.
    void homeGetS(const ProtoMsg &msg);
    void homeGetX(const ProtoMsg &msg);
    void homeInvAck(const ProtoMsg &msg);
    void homeFetchReply(const ProtoMsg &msg, bool is_putx);
    void homeLocalAccess(const MemRequest &req);
    void completeHomeTxn(Addr line, HomeTxn &txn);
    void finishLocalTxn(HomeTxn &txn, std::uint64_t value);
    void releaseHomeTxn(Addr line);

    /**
     * Invalidate all sharers of a home entry other than @p keep;
     * returns the number of Inv messages sent (self-invalidations are
     * performed directly).
     */
    int invalidateSharers(DirEntry &entry, Addr addr,
                          sim::NodeId keep);

    /**
     * Emit one protocol-message instant on the attached tracer
     * (caller checks tracer_): @p dir is "send" or "handle".
     */
    void traceMessage(sim::Tick when, const char *dir, MsgType type,
                      Addr addr, sim::NodeId peer);

    /** Send a protocol message, after @p delay_cycles proc cycles. */
    void send(sim::NodeId dst, MsgType type, Addr addr,
              std::uint64_t data, sim::NodeId requester,
              std::uint32_t delay_cycles, int critical = 0);

    /** Install a fill, handling any writeback of the victim. */
    void fillLine(Addr addr, CacheState state, std::uint64_t data);

    /**
     * Charge the LimitLESS software trap if this entry has overflowed
     * the hardware pointers; returns the extra reply delay in
     * processor cycles (0 when within the hardware limit).
     */
    std::uint32_t overflowPenalty(const DirEntry &entry);

    /** Complete a requester-side transaction and retry deferrals. */
    void finishMshr(Addr line, std::uint64_t load_value);

    void busyFor(std::uint32_t cycles);

    /**
     * Deliver @p resp to the client now (synchronous completion, e.g.
     * a network grant). No-op when the request asked for no reply.
     */
    void deliver(const MemResponse &resp, bool wants_reply);

    /**
     * Queue @p resp for delivery after @p delay_cycles processor
     * cycles. The heap front is nextWake(), which keeps fast-forward
     * from skipping past the due tick; the payload lives in
     * pending_completions_, which is serializable plain data.
     */
    void queueCompletion(const MemResponse &resp,
                         std::uint32_t delay_cycles, bool wants_reply);

    /** Deliver every queued completion whose due tick has arrived. */
    void drainCompletions(sim::Tick now);

    sim::Engine &engine_;
    net::Network &network_;
    sim::NodeId node_;
    ProtocolConfig config_;
    std::uint32_t ticks_per_cycle_;

    Cache cache_;
    Directory directory_;

    util::RingQueue<ProtoMsg> inbox_;
    util::RingQueue<MemRequest> proc_queue_;
    struct StagedSend
    {
        sim::Tick ready = 0;
        net::Message msg;
    };
    util::RingQueue<StagedSend> outbox_;

    /**
     * Outstanding transactions: pooled objects (stable addresses,
     * recycled with their queue capacity) indexed by line address
     * through flat hash maps of handles. Rehashing moves only the
     * 8-byte handles, never a transaction.
     */
    MshrPool mshr_pool_;
    HomePool home_pool_;
    util::FlatMap<Addr, MshrHandle> mshrs_;
    util::FlatMap<Addr, HomeHandle> home_txns_;

    /** Heap of delayed completions ordered by (due, seq). */
    std::vector<PendingCompletion> pending_completions_;
    /** Preserves delivery order among same-tick completions. */
    std::uint64_t completion_seq_ = 0;

    MemClient *client_ = nullptr;
    sim::Tick busy_until_ = 0;
    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
    /** The client's context count: restored contexts lie below it. */
    int client_contexts_ = 1;
    obs::PhaseSlot *profile_slot_ = nullptr;

    ControllerStats stats_;
};

} // namespace coher
} // namespace locsim

#endif // LOCSIM_COHER_CONTROLLER_HH_
