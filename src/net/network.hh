/**
 * @file
 * The torus network fabric: routers, links, per-node injection and
 * ejection interfaces, and network-level statistics.
 *
 * A bare fabric (open-loop benches, unit tests) registers the Network
 * as a single Clocked component ticking at the network clock (period
 * 1). A Machine partitions the nodes into contiguous spatial shards
 * (one or more), each driven by its own engine: every router and
 * endpoint belongs to exactly one shard, and the per-shard adapter
 * returned by shardClocked() ticks just that shard's slice of the
 * fabric. Clients
 * (coherence controllers, traffic generators) interact only through
 * send()/receive() on a node's interface; the fabric handles
 * flitization, wormhole transport, and reassembly.
 *
 * Data layout: links carry no storage of their own. A producer
 * deposits each flit into the consumer's input-VC ring (or the node's
 * ejection ring) and stages a wake bit; credits travel as staged bits
 * (see router.hh). All router input-VC / output-VC state lives in
 * Network-owned slabs sliced per router, and message accounting
 * records live in per-shard generation-checked pools indexed by a flat
 * hash map. The steady-state loop therefore walks contiguous arrays
 * and recycles pooled records without touching the allocator.
 *
 * Cross-shard state is limited to three mechanisms, all designed so
 * results are bit-identical to the sequential fabric for any shard
 * count (see docs/SHARDING.md for the full argument):
 *
 *  - A deposit into a consumer on another shard writes the ring slot
 *    directly (a slot the consumer cannot read until its next latch)
 *    but stages its wake bit in the producer shard's WakeOutbox, which
 *    delivers it atomically during the rotation phase.
 *  - Message accounting records migrate from the source shard to the
 *    destination shard through parity-double-buffered mailboxes
 *    (by value: pool handles never cross shards), posted at injection
 *    and drained one tick later in fixed source order.
 *  - Statistics accumulate per shard in exactly-summable form and
 *    merge at serial points (Accumulator's exact sums make the merge
 *    grouping-independent).
 */

#ifndef LOCSIM_NET_NETWORK_HH_
#define LOCSIM_NET_NETWORK_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/trace.hh"
#include "sim/engine.hh"
#include "net/router.hh"
#include "stats/stats.hh"
#include "util/arena.hh"
#include "util/flat_map.hh"
#include "util/pool.hh"
#include "util/ring_queue.hh"
#include "util/serialize.hh"

namespace locsim {

namespace obs {
class PhaseSlot;
class Profiler;
}

namespace net {

/** Network-wide configuration. */
struct NetworkConfig
{
    int radix = 8;           //!< k
    int dims = 2;            //!< n
    /** Torus (paper) or mesh (physical Alewife) edges. */
    bool wraparound = true;
    RouterConfig router;     //!< per-router knobs
};

/**
 * Spatial partition of the nodes into contiguous shards.
 *
 * Shard s owns the node-id range [bounds[s], bounds[s+1]); row-major
 * node ids make each shard a contiguous band of torus rows, so only
 * the band-boundary links cross shards.
 */
struct ShardPlan
{
    int shards = 1;
    /** shards+1 node-id boundaries; empty means the trivial plan. */
    std::vector<sim::NodeId> bounds;

    /** Evenly split @p nodes into @p shards contiguous ranges. */
    static ShardPlan
    contiguous(sim::NodeId nodes, int shards)
    {
        ShardPlan plan;
        plan.shards = shards;
        plan.bounds.resize(static_cast<std::size_t>(shards) + 1);
        for (int s = 0; s <= shards; ++s) {
            plan.bounds[static_cast<std::size_t>(s)] =
                static_cast<sim::NodeId>(
                    (static_cast<std::uint64_t>(nodes) *
                     static_cast<std::uint64_t>(s)) /
                    static_cast<std::uint64_t>(shards));
        }
        return plan;
    }

    sim::NodeId first(int s) const
    {
        return bounds[static_cast<std::size_t>(s)];
    }
    sim::NodeId last(int s) const
    {
        return bounds[static_cast<std::size_t>(s) + 1];
    }

    int
    shardOf(sim::NodeId node) const
    {
        for (int s = 0; s < shards; ++s) {
            if (node < last(s))
                return s;
        }
        return shards - 1;
    }
};

/**
 * A message and its accounting. From send() to receive() the fabric
 * stores each message only here; endpoint queues hold handles to
 * records. Also used by tests.
 */
struct MessageRecord
{
    Message message;
    sim::Tick inject_start = sim::kTickNever; //!< first flit offered
    sim::Tick delivered = sim::kTickNever;    //!< tail flit ejected
    int hops = 0;
    /** Counters harvested from the head flit at ejection. */
    std::uint16_t head_hops = 0;
    std::uint16_t head_stalls = 0;
};

/**
 * Per-class sums of the paper's latency decomposition: network latency
 * T = B (serialization) + h (hops) + 1 (ejection) + contention. The
 * contention term is measured as the residual T - B - h - 1 of each
 * delivered message (h from the head flit's link counter), clamped at
 * zero; at zero load it is identically zero.
 */
struct ClassAttribution
{
    std::uint64_t count = 0;
    double latency = 0.0;       //!< sum of T per message
    double serialization = 0.0; //!< sum of B (length in flits)
    double hops = 0.0;          //!< sum of measured link traversals
    double contention = 0.0;    //!< sum of the clamped residual
    double stalls = 0.0;        //!< sum of router allocation stalls
};

/** Aggregate network statistics. */
struct NetworkStats
{
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    /** Network latency: head offered to tail ejected, per message. */
    stats::Accumulator latency;
    /**
     * Latency distribution (2-cycle buckets to 1024 cycles) for tail
     * percentiles; means alone hide contention tails.
     */
    stats::Histogram latency_hist{0.0, 1024.0, 512};
    /** Source queueing delay: submit to first flit offered. */
    stats::Accumulator source_queue;
    /** Hop count per delivered message. */
    stats::Accumulator hops;
    /** Message size in flits, per submitted message. */
    stats::Accumulator flits;
    /** Latency decomposition sums, indexed by MessageClass. */
    std::array<ClassAttribution, kMessageClassCount> attribution{};

    /**
     * Merge another shard's statistics into this one. All fields are
     * counts or exact sums, so merging the per-shard blocks in shard
     * order reproduces the sequential accumulation bit-for-bit.
     */
    void merge(const NetworkStats &other);

    void reset();

    void saveState(util::Serializer &s) const;
    void loadState(util::Deserializer &d);
};

/** Flits deposited but not yet latched, by link kind (diagnostic). */
struct TransitCounts
{
    std::uint64_t neighbor = 0;    //!< router -> router
    std::uint64_t cross_shard = 0; //!< neighbor links between shards
    std::uint64_t inject = 0;      //!< endpoint -> router
    std::uint64_t eject = 0;       //!< router -> endpoint
    std::uint64_t credits = 0;     //!< credits staged, not yet latched
};

/**
 * The full fabric for one machine.
 *
 * Construction wires every router and, on sharded fabrics, registers
 * each shard's WakeOutbox with its shard engine. A bare fabric's
 * caller registers the Network itself as a Clocked component with
 * period 1; a Machine registers shardClocked(s) with each shard
 * engine instead, at every shard count.
 */
class Network : public sim::Clocked
{
  public:
    /** Sequential fabric: one engine, trivial shard plan. */
    Network(sim::Engine &engine, const NetworkConfig &config);

    /**
     * Sharded fabric: engines[s] drives shard s of @p plan. All
     * engines must share one timeline (equal now() at every barrier).
     */
    Network(const NetworkConfig &config,
            const std::vector<sim::Engine *> &engines,
            const ShardPlan &plan);

    ~Network() override;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const TorusTopology &topology() const { return topo_; }
    const NetworkConfig &config() const { return config_; }
    const ShardPlan &shardPlan() const { return plan_; }

    /**
     * Submit a message from node @p msg.src.
     *
     * The source queue is unbounded (the closed-loop clients bound
     * their own outstanding transactions); the message id is assigned
     * by the fabric and returned. Ids are per-source-endpoint
     * sequences (source node in the high bits), so assignment is
     * deterministic for any shard count.
     *
     * @pre msg.src != msg.dst (local transactions never enter the
     *      network, mirroring the machine being modeled).
     */
    MessageId send(Message msg);

    /** Pop the next delivered message for @p node, if any. */
    std::optional<Message> receive(sim::NodeId node);

    /** Number of delivered-but-unclaimed messages at @p node. */
    std::size_t pendingAt(sim::NodeId node) const;

    /** Delivered-but-unclaimed messages across all nodes. */
    std::uint64_t pendingDeliveries() const;

    /** True if no message is in flight anywhere in the fabric. */
    bool idle() const;

    /** Sequential stepping: tick every shard in order. */
    void tick(sim::Tick now) override;

    /**
     * Advance shard @p s one network cycle: latch its routers' wakes,
     * drain its record mailboxes, then eject/inject/route its nodes.
     * Called concurrently for distinct shards by the sharded driver
     * (phase A of a tick window).
     */
    void tickShard(int s, sim::Tick now);

    /**
     * The per-shard Clocked adapter the sharded machine registers
     * with shard engine @p s (period 1, before any node components).
     */
    sim::Clocked *shardClocked(int s);

    /**
     * The fabric has work while any message is between send() and tail
     * ejection. Credits still propagating after the last delivery are
     * deliberately not counted: receiveCredits() runs at the start of
     * every router tick, so deferred absorption is observationally
     * identical to eager absorption.
     */
    bool busy() const override { return inFlight() > 0; }

    /**
     * Aggregate statistics. With one shard this is a reference to the
     * live block; with several the per-shard blocks are merged (in
     * shard order; bit-identical to sequential accumulation) into a
     * cached block. Call only at serial points.
     */
    const NetworkStats &stats() const;

    /** Reset statistics (e.g. after warmup), keeping in-flight state. */
    void resetStats();

    /**
     * Average utilization of the neighbor (network) channels since the
     * last stats reset: flit-hops / (cycles * neighborChannels()).
     * This is the quantity the model calls rho.
     */
    double channelUtilization() const;

    /**
     * Number of neighbor (network) channels: every link but each
     * node's injection and ejection link. 2*n*N on a torus;
     * 2*n*(k-1)*k^(n-1) on a mesh, whose edge nodes lack outward links.
     */
    std::size_t neighborChannels() const { return neighbor_channels_; }

    /**
     * Look up a message's record wherever it is, in a shard's pool or
     * in migration mail; nullptr once receive() has claimed it.
     */
    const MessageRecord *record(MessageId id) const;

    /**
     * Cumulative flits forwarded over neighbor (network) channels
     * since construction (sampler probe; resets never).
     */
    std::uint64_t totalNeighborFlitHops() const;

    /** Cumulative failed output-VC claims across all routers. */
    std::uint64_t totalAllocStalls() const;

    /** Cumulative cross-shard wake drains (0 on sequential runs). */
    std::uint64_t totalRemoteWakes() const;

    /** Flits currently buffered in all routers (sampler probe). */
    std::uint64_t bufferedFlits() const;

    /** Flits and credits in transit right now (checkpoint tests). */
    TransitCounts inTransit() const;

    /** Resident bytes of fabric storage (footprint accounting). */
    std::size_t memoryBytes() const;

    /**
     * Attach shard @p s's tracer (nullptr to detach; not owned).
     * Allocates one "net.<node>" track per node of the shard on first
     * attach: message lifetimes run as async spans from send() to
     * tail ejection, with "inject" instants when the head flit is
     * first offered. Routers share the tracks for flit-level detail.
     * Sharded machines give each shard an independent tracer so
     * emission stays thread-local; the spans for a cross-shard
     * message begin on the source shard's tracer and end on the
     * destination's.
     */
    void setShardTracer(int s, obs::Tracer *tracer);

    /**
     * Attach a phase profiler (nullptr to detach; not owned). Each
     * shard's router scan (tickShard) records Phase::RouterScan on
     * slot (shard, @p lane), so several networks driven by one
     * engine can keep their router time apart.
     */
    void setProfiler(obs::Profiler *profiler, int lane);

    /**
     * Serialize the complete fabric state. Per node, in node order:
     * the router (Router::saveState), then the endpoint: its source
     * queue (the message mid-injection first), the ejection ring's
     * position and the flit staged in it, delivered messages and the
     * reassembly cursor. Queued and delivered messages are written in
     * full from the records they name. Then the
     * accounting records and the statistics. Flits in transit are the
     * ring slots a staged bit names, so they serialize with their
     * consumer. Nothing the rest determines is written: credits and
     * write cursors (rebuildWriters()), each record's hop distance,
     * and the in-flight and pending-delivery counts. The byte stream is
     * independent of the shard count (records are sorted by id,
     * per-shard statistics are merged, and cross-shard wake words fold
     * into the staged words), so a checkpoint taken at any K restores
     * at any other K. Requires no attached tracer (span ids would
     * dangle across a restore).
     */
    void saveState(util::Serializer &s) const;

    /**
     * Restore state saved by saveState() on an identically configured
     * fabric (any shard count on either side). Beyond the checked
     * reads and the rules of Router::loadState, rebuildWriters() and
     * checkedMessage() (which applies @p check to every payload), it
     * rejects an ejected flit on a VC past vcs or bound past the last
     * node, and records out of id order or whose id's source bits are
     * not their src. A queued message must come from its node, a
     * delivered one be for it, and each must have exactly one
     * accounting record, equal to it byte for byte, in no other queue.
     * That record must say where the message is: not yet injected
     * while it waits to start, injected once its head flit is offered
     * (mid-injection or delivered). Flits sent need a queued message
     * longer than them; a message mid-ejection needs a flit arrived.
     */
    void loadState(util::Deserializer &d, PayloadCheck check = nullptr);

  private:
    using RecordPool = util::Pool<MessageRecord>;
    using RecordHandle = RecordPool::Handle;

    /**
     * One node's injection and ejection interface. Its queues hold
     * handles into the shard's record pool, never message copies: a
     * message is stored once, in its MessageRecord, from send() to
     * receive().
     */
    struct NodeEndpoint
    {
        // Injection side.
        /**
         * Messages waiting to start injection, oldest first: handles
         * into the node's shard's pool (a record stays in its source
         * shard until its head flit is offered).
         */
        util::RingQueue<RecordHandle> source_queue;
        /**
         * The message mid-injection (flits_sent > 0), popped from the
         * source queue when its head flit is offered. Its id,
         * destination and length live here because a cross-shard
         * record leaves the source pool at that moment.
         */
        MessageId inject_msg = 0;
        sim::NodeId inject_dst = sim::kNodeNone;
        std::uint32_t inject_flits = 0;
        std::uint32_t flits_sent = 0;    //!< of inject_msg
        /**
         * VC 0 credits into the router. The router adds each returned
         * credit here directly; it ticks after this endpoint within a
         * cycle, so a credit returned in cycle t is first usable in
         * t+1.
         */
        std::uint32_t inject_credits = 0;
        /** Write cursor into the router's injection VC ring. */
        std::uint32_t inject_cursor = 0;
        /** Message-id sequence for this source endpoint. */
        std::uint64_t next_seq = 0;
        // Ejection side.
        /**
         * The ring the router deposits into (routing fields unused).
         * The router's deposit sets the node's eject_staged_ word;
         * it latches as tail++ next cycle.
         */
        Router::InputVc eject;
        /**
         * Delivered, unclaimed messages, oldest first: handles into
         * the node's shard's pool (a record reaches its destination
         * shard before its head flit can eject). receive() copies the
         * message out as it frees the record.
         */
        util::RingQueue<RecordHandle> delivered;
        /**
         * Reassembly cursor. Ejection drains a single FIFO whose
         * flits are pushed by a single output VC owned head-to-tail
         * by one packet, so at most one message is ever mid-ejection
         * at a node: two scalars replace the per-message map
         * (arrived_count == 0 means no message is in progress).
         */
        MessageId arrived_msg = 0;
        std::uint32_t arrived_count = 0;
    };

    /**
     * State owned by one shard: accounting records for messages whose
     * current "location" (source before injection, destination after)
     * is in the shard, plus this shard's statistics slice. Records
     * live in a per-shard pool (recycled across messages; the id map
     * holds handles, so rehashing never moves a record). The
     * in-flight / pending counters are signed because a message's
     * increment and decrement may land on different shards; only the
     * serial-point sums are meaningful.
     */
    struct ShardState
    {
        RecordPool record_pool;
        util::FlatMap<MessageId, RecordHandle> records;
        NetworkStats stats;
        std::int64_t in_flight = 0;
        std::int64_t pending_deliveries = 0;
    };

    /** Clocked adapter driving one shard (see shardClocked()). */
    class ShardTick : public sim::Clocked
    {
      public:
        ShardTick(Network &net, int shard) : net_(net), shard_(shard) {}
        void tick(sim::Tick now) override
        {
            net_.tickShard(shard_, now);
        }
        /** Global: quiescence decisions are whole-fabric decisions. */
        bool busy() const override { return net_.busy(); }

      private:
        Network &net_;
        int shard_;
    };

    /**
     * The neighbor across @p port of @p node, which both feeds that
     * input port and consumes that output port (through its own port
     * port ^ 1), or kNodeNone for the local port and mesh edges.
     */
    sim::NodeId peerOf(sim::NodeId node, int port) const;

    /**
     * Rebuild every write cursor and credit count from the loaded
     * rings and staged words. A writer's cursor is its consumer
     * ring's tail plus the staged flit bit; its credits are
     * buffer_depth minus the ring's occupancy, the staged flit bit and
     * the staged credit bit (for an ejection VC, the occupancy is the
     * staged ejection flit on that VC). Where nothing consumes, both
     * are 0. Throws std::runtime_error on a ring whose occupancy plus
     * staged bits exceeds buffer_depth, and on a flit staged or held
     * on a ring nothing feeds or a credit staged on an output nothing
     * consumes.
     */
    void rebuildWriters();

    std::size_t
    unitIndex(sim::NodeId node, int port, int vc) const
    {
        return (static_cast<std::size_t>(node) *
                    static_cast<std::size_t>(ports_) +
                static_cast<std::size_t>(port)) *
                   static_cast<std::size_t>(config_.router.vcs) +
               static_cast<std::size_t>(vc);
    }

    void tickInjection(sim::NodeId node, sim::Tick now);
    void tickEjection(sim::NodeId node, sim::Tick now);
    void drainRecordMail(int dst_shard, sim::Tick now);

    int shardOf(sim::NodeId node) const { return plan_.shardOf(node); }
    std::int64_t inFlight() const;
    obs::Tracer *tracerFor(int shard) const
    {
        return tracers_.empty()
                   ? nullptr
                   : tracers_[static_cast<std::size_t>(shard)];
    }

    NetworkConfig config_;
    TorusTopology topo_;
    int ports_ = 0;       //!< router ports, local port last
    int local_port_ = 0;  //!< injection / ejection port index
    ShardPlan plan_;
    std::vector<sim::Engine *> engines_; //!< engines_[s] drives shard s

    /** Per-shard cross-shard wake staging (empty when K == 1). */
    std::vector<std::unique_ptr<WakeOutbox>> outboxes_;

    /**
     * Backing store for the routers. One fabric allocates many small
     * objects with identical lifetime; bump allocation packs them
     * contiguously (construction-order locality matches tick-order
     * traversal) and frees them in one sweep. Declared before the
     * pointer vector so it outlives it.
     */
    util::Arena arena_;

    std::vector<Router *> routers_;
    /** Router-to-router links, counted while wiring. */
    std::size_t neighbor_channels_ = 0;

    /**
     * Fabric-wide router state slabs, sliced per router (see
     * Router::RouterSlices). Sized once before router construction;
     * routers hold raw pointers into them.
     */
    std::vector<Router::InputVc> input_units_;
    std::vector<Router::OutputVc> output_vcs_;
    std::vector<Flit> vc_slab_;
    /** Per-node ejection rings (same capacity as an input VC). */
    std::vector<Flit> eject_slab_;

    /**
     * Per-node wake and occupancy words, one uint32 per router per
     * slab (indexed by node id). Hoisting these out of the Router
     * objects lets tickShard latch wakes and evaluate per-node busy
     * masks as a lane-vector kernel over 8 contiguous nodes at a time
     * (kernels::routerLatchBusy). Padded to a multiple of 8 words so
     * full-width vector loads/stores on the last group stay in
     * bounds; pad words are never staged and always read as idle.
     */
    std::vector<std::uint32_t> flit_wake_staged_;
    std::vector<std::uint32_t> flit_wake_;
    std::vector<std::uint32_t> credit_wake_staged_;
    std::vector<std::uint32_t> credit_wake_;
    std::vector<std::uint32_t> buffered_slab_;

    /**
     * Per-node endpoint activity words, so tickShard visits only the
     * endpoints with work. eject_staged_[node] is the ejection ring's
     * staged wake word (the router's ejection Downstream sets it);
     * the ring is empty between cycles, so a staged bit is the only
     * ejection work. source_pending_[node] is set while the node has
     * a message queued or mid-injection (send() sets it, tickInjection
     * clears it with the last queued message's tail). Only the owning
     * shard writes either word.
     * Checkpoints save eject_staged_ as the ejection slot's staged
     * bit; source_pending_ is derived, and loadState rebuilds it from
     * the endpoint.
     */
    std::vector<std::uint32_t> eject_staged_;
    std::vector<std::uint32_t> source_pending_;

    /**
     * Per-shard list of nodes with cross-shard producers. tickShard
     * drains their remote wake atomics into the staged words before
     * the latch; every node's staged words are only
     * written by its own shard, so the vector pass is race-free.
     */
    std::vector<std::vector<sim::NodeId>> remote_nodes_;

    /**
     * Per-shard busy-byte scratch for the latch kernel: one byte per
     * group of 8 nodes, bit b = node (group*8 + b) had work at latch
     * time. Sized at construction; the steady-state loop never
     * allocates.
     */
    std::vector<std::vector<std::uint8_t>> busy_scratch_;

    std::vector<NodeEndpoint> endpoints_;

    std::vector<ShardState> shards_;
    std::vector<std::unique_ptr<ShardTick>> shard_ticks_;

    /**
     * Record-migration mailboxes, indexed [tick parity][dst * K + src].
     * A record posted during tick t (parity t&1) is drained by the
     * destination shard at the start of tick t+1 — the parities
     * alternate, so posts and drains never touch the same cell in the
     * same phase, and barrier separation orders them without atomics.
     * A pending record implies its message is in flight, so quiescence
     * skips (which would break the parity arithmetic) cannot occur
     * with mail outstanding. Records travel by value: pool handles
     * are shard-local names and never cross shards.
     */
    std::array<std::vector<std::vector<MessageRecord>>, 2> record_mail_;

    /** Merge target for stats() on sharded fabrics (serial use only). */
    mutable NetworkStats merged_stats_;

    sim::Tick stats_start_ = 0;
    std::uint64_t stats_flit_hops_base_ = 0;

    /** Per-shard tracers (empty when tracing is off). */
    std::vector<obs::Tracer *> tracers_;
    std::vector<int> node_tracks_;

    /** Per-shard profiler slots (all null when profiling is off). */
    std::vector<obs::PhaseSlot *> profile_slots_;
};

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_NETWORK_HH_
