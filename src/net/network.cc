/**
 * @file
 * Network fabric implementation.
 */

#include "net/network.hh"

#include <algorithm>
#include <bit>

#include "net/kernels.hh"
#include "obs/profiler.hh"
#include "util/logging.hh"

namespace locsim {
namespace net {

const char *
messageClassName(MessageClass cls)
{
    switch (cls) {
      case MessageClass::Generic:
        return "generic";
      case MessageClass::Request:
        return "request";
      case MessageClass::Reply:
        return "reply";
      case MessageClass::Inv:
        return "inv";
      case MessageClass::Writeback:
        return "writeback";
    }
    return "?";
}

namespace {

sim::NodeId
nodeCountFor(const NetworkConfig &config)
{
    sim::NodeId nodes = 1;
    for (int d = 0; d < config.dims; ++d)
        nodes *= static_cast<sim::NodeId>(config.radix);
    return nodes;
}

} // namespace

Network::Network(sim::Engine &engine, const NetworkConfig &config)
    : Network(config, std::vector<sim::Engine *>{&engine},
              ShardPlan::contiguous(nodeCountFor(config), 1))
{
}

Network::Network(const NetworkConfig &config,
                 const std::vector<sim::Engine *> &engines,
                 const ShardPlan &plan)
    : config_(config),
      topo_(config.radix, config.dims, config.wraparound),
      ports_(2 * config.dims + 1), local_port_(2 * config.dims),
      plan_(plan), engines_(engines)
{
    const sim::NodeId n = topo_.nodeCount();
    // Checked before any per-node slab is sized.
    LOCSIM_ASSERT(n <= kMaxNodes, "fabric of ", n,
                  " nodes exceeds the 2^24 that message ids and flit "
                  "destinations can name");
    const int K = plan_.shards;
    LOCSIM_ASSERT(static_cast<int>(engines_.size()) == K,
                  "shard plan needs one engine per shard");
    LOCSIM_ASSERT(plan_.bounds.size() ==
                          static_cast<std::size_t>(K) + 1 &&
                      plan_.first(0) == 0 && plan_.last(K - 1) == n,
                  "shard plan does not cover the fabric");

    // Cross-shard deposits stage their wake bits in the producer
    // shard's outbox, which that shard's engine rotates (delivers)
    // between tick phases. A sequential fabric needs none.
    if (K > 1) {
        for (int s = 0; s < K; ++s) {
            outboxes_.push_back(std::make_unique<WakeOutbox>());
            engines_[static_cast<std::size_t>(s)]->addRotatable(
                outboxes_.back().get());
        }
    }

    routers_.reserve(n);
    endpoints_.resize(n);
    // Pre-size the endpoint rings and per-shard accounting containers
    // past the typical stochastic high-water mark so uncongested runs
    // reach a zero-allocation steady state quickly instead of paying
    // rare capacity doublings deep into a run. Capacity growth is
    // amortized state only — checkpoint bytes serialize contents, not
    // capacity — so this changes no observable behavior.
    for (NodeEndpoint &ep : endpoints_) {
        ep.source_queue.reserve(32);
        ep.delivered.reserve(32);
    }
    shards_.resize(static_cast<std::size_t>(K));
    for (ShardState &shard : shards_)
        shard.records.reserve(static_cast<std::size_t>(n) * 8);
    for (auto &parity : record_mail_)
        parity.resize(static_cast<std::size_t>(K) *
                      static_cast<std::size_t>(K));
    tracers_.assign(static_cast<std::size_t>(K), nullptr);
    node_tracks_.assign(n, -1);
    profile_slots_.assign(static_cast<std::size_t>(K), nullptr);
    for (int s = 0; s < K; ++s)
        shard_ticks_.push_back(std::make_unique<ShardTick>(*this, s));

    // Router state slabs, sized once before router construction (the
    // routers keep raw pointers into them).
    const int vcs = config_.router.vcs;
    const int units = ports_ * vcs;
    const std::size_t vc_cap = Router::vcRingCapacity(config_.router);
    input_units_.resize(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(units));
    output_vcs_.resize(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(units));
    vc_slab_.resize(static_cast<std::size_t>(n) *
                    static_cast<std::size_t>(units) * vc_cap);
    // The ejection output has buffer_depth credits, like any output,
    // so its ring needs the same capacity as an input VC.
    eject_slab_.resize(static_cast<std::size_t>(n) * vc_cap);
    // Wake/occupancy slabs, padded to whole groups of 8 so the latch
    // kernel's full-width accesses on the last group stay in bounds.
    // Pad words start zero and are never staged, so they always read
    // as idle.
    const std::size_t padded_nodes =
        (static_cast<std::size_t>(n) + 7u) & ~std::size_t{7};
    flit_wake_staged_.assign(padded_nodes, 0u);
    flit_wake_.assign(padded_nodes, 0u);
    credit_wake_staged_.assign(padded_nodes, 0u);
    credit_wake_.assign(padded_nodes, 0u);
    buffered_slab_.assign(padded_nodes, 0u);
    eject_staged_.assign(n, 0u);
    source_pending_.assign(n, 0u);

    for (sim::NodeId node = 0; node < n; ++node) {
        Router::RouterSlices slices;
        slices.inputs = input_units_.data() + unitIndex(node, 0, 0);
        slices.outputs = output_vcs_.data() + unitIndex(node, 0, 0);
        slices.vc_slots = vc_slab_.data() + unitIndex(node, 0, 0) * vc_cap;
        slices.flit_wake_staged = flit_wake_staged_.data() + node;
        slices.flit_wake = flit_wake_.data() + node;
        slices.credit_wake_staged = credit_wake_staged_.data() + node;
        slices.credit_wake = credit_wake_.data() + node;
        slices.buffered = buffered_slab_.data() + node;
        routers_.push_back(arena_.make<Router>(
            topo_, node, config_.router, slices,
            K > 1 ? outboxes_[static_cast<std::size_t>(shardOf(node))]
                        .get()
                  : nullptr));
        NodeEndpoint &ep = endpoints_[node];
        ep.eject.slots = eject_slab_.data() + node * vc_cap;
        ep.eject.mask = static_cast<std::uint32_t>(vc_cap - 1);
        ep.inject_credits =
            static_cast<std::uint32_t>(config_.router.buffer_depth);
    }

    // Wire the links. The link leaving `node` on port p arrives at the
    // neighbor on the port of the opposite direction (peerOf());
    // its credits return the other way. A link between shards stages
    // its bits through the producing shard's outbox instead of
    // writing the consumer's staged word.
    for (sim::NodeId node = 0; node < n; ++node) {
        for (int dim = 0; dim < config_.dims; ++dim) {
            for (int dir : {+1, -1}) {
                const sim::NodeId nbr = topo_.neighbor(node, dim, dir);
                if (nbr == sim::kNodeNone)
                    continue; // mesh edge: no link in this direction
                const int out_port = Router::portFor(dim, dir);
                const int in_port = Router::portFor(dim, -dir);
                ++neighbor_channels_;
                const bool remote = shardOf(nbr) != shardOf(node);

                Router::Downstream down;
                down.units = &input_units_[unitIndex(nbr, in_port, 0)];
                down.shift = static_cast<std::uint8_t>(in_port * vcs);
                down.vc_mask = 0xff;
                if (remote) {
                    down.remote =
                        outboxes_[static_cast<std::size_t>(shardOf(node))]
                            ->add(&routers_[nbr]->remoteFlitWakeWord());
                } else {
                    down.wake = &flit_wake_staged_[nbr];
                }
                routers_[node]->connectOutput(out_port, down);

                Router::Upstream up;
                up.shift = static_cast<std::uint8_t>(out_port * vcs);
                if (remote) {
                    up.remote =
                        outboxes_[static_cast<std::size_t>(shardOf(nbr))]
                            ->add(&routers_[node]->remoteCreditWakeWord());
                } else {
                    up.word = &credit_wake_staged_[node];
                }
                routers_[nbr]->connectInput(in_port, up);
            }
        }
        // Injection and ejection: endpoint and router are always
        // co-sharded. Injection credits go straight to the endpoint's
        // bank; ejection deposits into the endpoint's ring.
        NodeEndpoint &ep = endpoints_[node];
        Router::Downstream eject;
        eject.units = &ep.eject;
        eject.wake = &eject_staged_[node];
        routers_[node]->connectOutput(local_port_, eject);
        Router::Upstream inject;
        inject.word = &ep.inject_credits;
        inject.counter = true;
        routers_[node]->connectInput(local_port_, inject);
    }

    // Latch metadata, fixed once all remote wake bindings are known:
    // each shard's list of routers with cross-shard producers (their
    // atomics are drained into the staged words before the latch) and
    // its busy-byte scratch, one byte per group of 8 nodes the latch
    // kernel can touch (shard boundaries round outward to group
    // boundaries; tickShard peels the shared edge groups to scalar).
    // Sized here so the steady-state loop never allocates.
    remote_nodes_.resize(static_cast<std::size_t>(K));
    busy_scratch_.resize(static_cast<std::size_t>(K));
    for (int s = 0; s < K; ++s) {
        const sim::NodeId lo = plan_.first(s);
        const sim::NodeId hi = plan_.last(s);
        for (sim::NodeId node = lo; node < hi; ++node) {
            if (routers_[node]->hasRemoteWakes()) {
                remote_nodes_[static_cast<std::size_t>(s)].push_back(
                    node);
            }
        }
        const std::size_t groups =
            hi > lo ? (static_cast<std::size_t>(hi - 1) / 8 -
                       static_cast<std::size_t>(lo) / 8 + 1)
                    : 0;
        busy_scratch_[static_cast<std::size_t>(s)].assign(groups, 0u);
    }
}

Network::~Network() = default;

sim::Clocked *
Network::shardClocked(int s)
{
    return shard_ticks_[static_cast<std::size_t>(s)].get();
}

std::int64_t
Network::inFlight() const
{
    std::int64_t total = 0;
    for (const ShardState &shard : shards_)
        total += shard.in_flight;
    return total;
}

std::uint64_t
Network::pendingDeliveries() const
{
    std::int64_t total = 0;
    for (const ShardState &shard : shards_)
        total += shard.pending_deliveries;
    return static_cast<std::uint64_t>(total);
}

MessageId
Network::send(Message msg)
{
    LOCSIM_ASSERT(msg.src < topo_.nodeCount(), "bad source node");
    LOCSIM_ASSERT(msg.dst < topo_.nodeCount(), "bad destination node");
    LOCSIM_ASSERT(msg.src != msg.dst,
                  "local transactions must not enter the network");
    LOCSIM_ASSERT(msg.flits >= 1, "message needs at least one flit");
    LOCSIM_ASSERT(msg.flits <= 65535,
                  "flit sequence numbers are 16-bit");

    const int s = shardOf(msg.src);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];
    NodeEndpoint &ep = endpoints_[msg.src];

    // Ids are per-source sequences with the source node in the high
    // bits: assignment touches only source-shard state and yields the
    // same id for the same message at any shard count.
    msg.id = (static_cast<MessageId>(msg.src) << kMessageIdSrcShift) |
             ++ep.next_seq;
    msg.submit_tick = engines_[static_cast<std::size_t>(s)]->now();

    // Pool slots are recycled without destruction; reset every field.
    const RecordHandle h = shard.record_pool.alloc();
    MessageRecord &record = shard.record_pool.get(h);
    record = MessageRecord{};
    record.message = msg;
    record.hops = topo_.distance(msg.src, msg.dst);
    shard.records.insert(msg.id, h);

    ep.source_queue.push_back(h);
    source_pending_[msg.src] = 1u;
    ++shard.stats.messages_sent;
    shard.stats.flits.add(static_cast<double>(msg.flits));
    ++shard.in_flight;
    if (obs::Tracer *tracer = tracerFor(s)) {
        tracer->asyncBegin(
            node_tracks_[msg.src], msg.submit_tick, msg.id, "msg",
            obs::Category::Net,
            std::move(obs::Args()
                          .add("dst", static_cast<std::int64_t>(msg.dst))
                          .add("flits", msg.flits)
                          .add("class", messageClassName(msg.cls)))
                .str());
    }
    return msg.id;
}

std::optional<Message>
Network::receive(sim::NodeId node)
{
    auto &delivered = endpoints_[node].delivered;
    if (delivered.empty())
        return std::nullopt;
    const RecordHandle h = delivered.front();
    delivered.pop_front();
    ShardState &shard =
        shards_[static_cast<std::size_t>(shardOf(node))];
    --shard.pending_deliveries;
    // Accounting for this message is complete; copy it out and drop
    // the record so long runs do not accumulate unbounded history.
    Message msg = shard.record_pool.get(h).message;
    shard.records.erase(msg.id);
    shard.record_pool.free(h);
    return msg;
}

std::size_t
Network::pendingAt(sim::NodeId node) const
{
    return endpoints_[node].delivered.size();
}

bool
Network::idle() const
{
    return inFlight() == 0;
}

void
Network::tickInjection(sim::NodeId node, sim::Tick now)
{
    NodeEndpoint &ep = endpoints_[node];
    LOCSIM_ASSERT(ep.flits_sent != 0 || !ep.source_queue.empty(),
                  "injection visited an idle endpoint at node ", node);

    LOCSIM_ASSERT(ep.inject_credits <=
                      static_cast<std::uint32_t>(
                          config_.router.buffer_depth),
                  "injection credit overflow at node ", node);

    if (ep.inject_credits == 0)
        return;

    if (ep.flits_sent == 0) {
        // Start the next queued message: its id, destination and
        // length move into the endpoint, which must not touch the
        // record again (a cross-shard record leaves this pool below).
        const int s = shardOf(node);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        const RecordHandle h = ep.source_queue.front();
        ep.source_queue.pop_front();
        MessageRecord &rec = shard.record_pool.get(h);
        ep.inject_msg = rec.message.id;
        ep.inject_dst = rec.message.dst;
        ep.inject_flits = rec.message.flits;
        rec.inject_start = now;
        if (obs::Tracer *tracer = tracerFor(s)) {
            tracer->instant(
                node_tracks_[node], now, "inject", obs::Category::Net,
                std::move(obs::Args().add("msg", ep.inject_msg)).str());
        }
        // Hand the record to the destination shard (it harvests the
        // head counters and closes out the message). Posted into this
        // tick's parity; drained by the destination at the start of
        // the next tick, at least one cycle before the head flit can
        // eject there. The record travels by value and its
        // source-shard pool slot is recycled.
        const int ds = shardOf(ep.inject_dst);
        if (ds != s) {
            auto &box = record_mail_[now & 1][static_cast<std::size_t>(
                ds * plan_.shards + s)];
            box.push_back(rec);
            shard.records.erase(ep.inject_msg);
            shard.record_pool.free(h);
        }
    }

    // Deposit into the router's injection VC (VC 0 of the local port)
    // and stage its wake bit; the router latches it next cycle.
    Router::InputVc &ring = input_units_[unitIndex(node, local_port_, 0)];
    LOCSIM_ASSERT(ep.inject_cursor - ring.head <= ring.mask,
                  "injection ring overflow: credit protocol violated "
                  "at node ",
                  node);
    Flit &flit = ring.slots[ep.inject_cursor & ring.mask];
    ++ep.inject_cursor;
    flit = Flit{};
    flit.msg = ep.inject_msg;
    flit.dst = ep.inject_dst;
    // A head's seq is 0, which doubles as its zero link count.
    flit.seq_or_hops = static_cast<std::uint16_t>(ep.flits_sent);
    flit.head = ep.flits_sent == 0;
    flit.tail = ep.flits_sent + 1 == ep.inject_flits;
    flit.vc = 0;
    flit_wake_staged_[node] |=
        1u << routers_[node]->unitBit(local_port_, 0);
    --ep.inject_credits;
    ++ep.flits_sent;

    if (ep.flits_sent == ep.inject_flits) {
        ep.flits_sent = 0;
        if (ep.source_queue.empty())
            source_pending_[node] = 0u;
    }
}

void
Network::tickEjection(sim::NodeId node, sim::Tick now)
{
    NodeEndpoint &ep = endpoints_[node];

    // Latch last cycle's deposit (tickShard visits only nodes with
    // one staged; at most one, since an output port forwards one flit
    // per cycle) and drain it: one flit per network cycle, as an
    // 8-bit channel delivers (Section 3.1). The ring was empty before
    // the latch, so it is empty again after the pop.
    eject_staged_[node] = 0u;
    ++ep.eject.tail;
    LOCSIM_ASSERT(ep.eject.bufSize() == 1,
                  "ejection ring held a flit across cycles at node ",
                  node);
    const Flit flit = ep.eject.bufFront();
    ep.eject.bufPop();
    // Return the slot's credit to the router's ejection output; the
    // router latched this cycle's bits before this endpoint ran, so
    // it sees the credit next cycle.
    credit_wake_staged_[node] |=
        1u << routers_[node]->unitBit(local_port_, flit.vc);

    // Wormhole ejection delivers one message head-to-tail at a time
    // (the ejection output VC is owned until the tail), so the
    // reassembly cursor is two scalars rather than a map.
    if (ep.arrived_count == 0)
        ep.arrived_msg = flit.msg;
    LOCSIM_ASSERT(ep.arrived_msg == flit.msg,
                  "interleaved ejection at node ", node, ": msg ",
                  flit.msg, " while reassembling ", ep.arrived_msg);
    LOCSIM_ASSERT(flit.seq() == ep.arrived_count,
                  "flit reordering within a wormhole message: msg ",
                  flit.msg, " expected seq ", ep.arrived_count,
                  " got ", flit.seq());
    ++ep.arrived_count;

    const int s = shardOf(node);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];

    if (flit.head) {
        // Harvest the head flit's attribution counters; body flits
        // follow the opened path and carry none.
        RecordHandle *hp = shard.records.find(flit.msg);
        LOCSIM_ASSERT(hp != nullptr, "head for unknown message");
        MessageRecord &hrec = shard.record_pool.get(*hp);
        hrec.head_hops = flit.hops();
        hrec.head_stalls = flit.stalls;
    }

    if (!flit.tail)
        return;

    RecordHandle *hp = shard.records.find(flit.msg);
    LOCSIM_ASSERT(hp != nullptr, "tail for unknown message");
    MessageRecord &rec = shard.record_pool.get(*hp);
    LOCSIM_ASSERT(ep.arrived_count == rec.message.flits,
                  "tail arrived before all flits: msg ", flit.msg);
    LOCSIM_ASSERT(rec.message.dst == node, "message misrouted: msg ",
                  flit.msg, " for node ", rec.message.dst,
                  " ejected at ", node);

    rec.delivered = now;
    ep.arrived_count = 0;
    ep.delivered.push_back(*hp);
    ++shard.pending_deliveries;

    ++shard.stats.messages_delivered;
    --shard.in_flight;
    const double latency =
        static_cast<double>(rec.delivered - rec.inject_start);
    shard.stats.latency.add(latency);
    shard.stats.latency_hist.add(latency);
    shard.stats.source_queue.add(static_cast<double>(
        rec.inject_start - rec.message.submit_tick));
    shard.stats.hops.add(static_cast<double>(rec.hops));

    // Latency decomposition (see ClassAttribution): the network_test
    // zero-load identity is T = B + h + 1, so the contention residual
    // is exactly zero on an uncontended path.
    const double serialization =
        static_cast<double>(rec.message.flits);
    const double measured_hops = static_cast<double>(rec.head_hops);
    const double contention = std::max(
        0.0, latency - serialization - measured_hops - 1.0);
    ClassAttribution &attr = shard.stats.attribution[
        static_cast<std::size_t>(rec.message.cls)];
    ++attr.count;
    attr.latency += latency;
    attr.serialization += serialization;
    attr.hops += measured_hops;
    attr.contention += contention;
    attr.stalls += static_cast<double>(rec.head_stalls);

    if (obs::Tracer *tracer = tracerFor(s)) {
        // Cross-shard message lifetimes end on the destination
        // shard's tracer (emission must stay thread-local), so the
        // span lands on the destination's track there.
        const int track = shardOf(rec.message.src) == s
                              ? node_tracks_[rec.message.src]
                              : node_tracks_[node];
        tracer->asyncEnd(
            track, rec.delivered, flit.msg, "msg", obs::Category::Net,
            std::move(obs::Args()
                          .add("latency", latency)
                          .add("hops", static_cast<int>(rec.head_hops))
                          .add("stalls",
                               static_cast<int>(rec.head_stalls)))
                .str());
    }
}

void
Network::drainRecordMail(int dst_shard, sim::Tick now)
{
    // Records posted during tick t live in parity t&1; at tick t+1
    // that is the opposite parity from the one being posted into, so
    // this drain and concurrent posts never touch the same cell.
    const int K = plan_.shards;
    auto &parity = record_mail_[(now + 1) & 1];
    ShardState &shard = shards_[static_cast<std::size_t>(dst_shard)];
    for (int src = 0; src < K; ++src) {
        auto &box =
            parity[static_cast<std::size_t>(dst_shard * K + src)];
        if (box.empty())
            continue;
        for (MessageRecord &rec : box) {
            const RecordHandle h = shard.record_pool.alloc();
            shard.record_pool.get(h) = rec;
            shard.records.insert(rec.message.id, h);
        }
        box.clear();
    }
}

void
Network::tickShard(int s, sim::Tick now)
{
    obs::ScopedPhase profile(
        profile_slots_[static_cast<std::size_t>(s)],
        obs::Phase::RouterScan);

    const sim::NodeId lo = plan_.first(s);
    const sim::NodeId hi = plan_.last(s);

    // Latch the bits staged by last cycle's deposits (including
    // cross-shard ones, via the routers' remote words) before anything
    // deposits this cycle: injection, ejection credits and router
    // traversal below all stage bits for the NEXT cycle, which is the
    // links' one-cycle latency. The latch and busy evaluation run as a
    // lane-vector kernel over groups of 8 contiguous nodes. Busy is
    // computed at latch time rather than after injection; the two are
    // identical because ejection and injection only *stage* wakes for
    // the next cycle (and buffered counts change only inside router
    // ticks), so nothing a dispatch decision depends on moves in
    // between.
    auto &busy = busy_scratch_[static_cast<std::size_t>(s)];
    const auto lo_s = static_cast<std::size_t>(lo);
    const auto hi_s = static_cast<std::size_t>(hi);
    const std::size_t gfirst = lo_s / 8;
    // Vector range [vlo, vhi): whole groups of 8 at absolute offsets.
    // The last shard rounds up into the slab padding (pad words are
    // never staged, so they always evaluate idle); every other shard
    // rounds inward and peels its edge nodes to scalar — a boundary
    // group can be shared with a neighboring shard ticking
    // concurrently, and only whole-group ownership makes the vector
    // read-modify-write race-free.
    const std::size_t vlo = (lo_s + 7u) & ~std::size_t{7};
    std::size_t vhi = hi_s == routers_.size()
                          ? (hi_s + 7u) & ~std::size_t{7}
                          : hi_s & ~std::size_t{7};
    if (vhi < vlo)
        vhi = vlo;
    {
        obs::ScopedPhase kernel(
            profile_slots_[static_cast<std::size_t>(s)],
            obs::Phase::RouterKernel);
        // Cross-shard wakes fold into the staged words first, so both
        // latches below pick them up (rotation is barrier-separated
        // from this phase, so the remote atomics are quiescent here).
        for (const sim::NodeId node :
             remote_nodes_[static_cast<std::size_t>(s)])
            routers_[node]->drainRemoteWakes();
        std::fill(busy.begin(), busy.end(), std::uint8_t{0});
        auto latch_edge = [&](std::size_t node) {
            routers_[node]->latchWakes();
            if (routers_[node]->busy())
                busy[node / 8 - gfirst] |=
                    static_cast<std::uint8_t>(1u << (node & 7));
        };
        for (std::size_t node = lo_s; node < vlo && node < hi_s; ++node)
            latch_edge(node);
        if (vhi > vlo) {
            kernels::routerLatchBusy(
                flit_wake_staged_.data(), flit_wake_.data(),
                credit_wake_staged_.data(), credit_wake_.data(),
                buffered_slab_.data(), vlo, vhi,
                busy.data() + (vlo / 8 - gfirst));
        }
        for (std::size_t node = vhi; node < hi_s; ++node)
            latch_edge(node);
    }
    if (plan_.shards > 1)
        drainRecordMail(s, now);
    // Endpoints are visited only when their activity word says they
    // have work; an unvisited endpoint's tick would return at once.
    // All ejections precede all injections, as a full sweep orders
    // their trace events.
    for (sim::NodeId node = lo; node < hi; ++node) {
        if (eject_staged_[node] != 0)
            tickEjection(node, now);
    }
    for (sim::NodeId node = lo; node < hi; ++node) {
        if (source_pending_[node] != 0)
            tickInjection(node, now);
    }
    // Dispatch straight off the busy bytes in ascending node order.
    // An idle router's tick is a no-op (no buffered flits, no latched
    // arrivals, and its arbitration state is derived from `now`), so
    // skipping it cannot change behavior.
    for (std::size_t g = 0; g < busy.size(); ++g) {
        std::uint32_t bits = busy[g];
        while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const auto node = static_cast<sim::NodeId>(
                (gfirst + g) * 8 + static_cast<std::size_t>(b));
            routers_[node]->tick(now);
        }
    }
}

void
Network::tick(sim::Tick now)
{
    for (int s = 0; s < plan_.shards; ++s)
        tickShard(s, now);
}

void
NetworkStats::reset()
{
    messages_sent = 0;
    messages_delivered = 0;
    latency.reset();
    latency_hist.reset();
    source_queue.reset();
    hops.reset();
    flits.reset();
    attribution.fill({});
}

void
NetworkStats::merge(const NetworkStats &other)
{
    messages_sent += other.messages_sent;
    messages_delivered += other.messages_delivered;
    latency.merge(other.latency);
    latency_hist.merge(other.latency_hist);
    source_queue.merge(other.source_queue);
    hops.merge(other.hops);
    flits.merge(other.flits);
    for (std::size_t i = 0; i < attribution.size(); ++i) {
        const ClassAttribution &o = other.attribution[i];
        ClassAttribution &a = attribution[i];
        a.count += o.count;
        a.latency += o.latency;
        a.serialization += o.serialization;
        a.hops += o.hops;
        a.contention += o.contention;
        a.stalls += o.stalls;
    }
}

const NetworkStats &
Network::stats() const
{
    if (plan_.shards == 1)
        return shards_[0].stats;
    // Every per-shard field is a count or an exact sum (integer-valued
    // samples, see stats::Accumulator), so merging in shard order
    // reproduces the sequential accumulation bit-for-bit.
    merged_stats_.reset();
    for (const ShardState &shard : shards_)
        merged_stats_.merge(shard.stats);
    return merged_stats_;
}

void
Network::resetStats()
{
    for (ShardState &shard : shards_)
        shard.stats.reset();
    stats_start_ = engines_[0]->now();
    stats_flit_hops_base_ = totalNeighborFlitHops();
}

double
Network::channelUtilization() const
{
    const sim::Tick elapsed = engines_[0]->now() - stats_start_;
    if (elapsed == 0)
        return 0.0;
    // Exclude the local (ejection) port: model rho covers network
    // channels only.
    const std::uint64_t hops =
        totalNeighborFlitHops() - stats_flit_hops_base_;
    return static_cast<double>(hops) /
           (static_cast<double>(elapsed) *
            static_cast<double>(neighborChannels()));
}

const MessageRecord *
Network::record(MessageId id) const
{
    for (const ShardState &shard : shards_) {
        if (const RecordHandle *hp = shard.records.find(id))
            return &shard.record_pool.get(*hp);
    }
    for (const auto &parity : record_mail_) {
        for (const auto &box : parity) {
            for (const MessageRecord &rec : box) {
                if (rec.message.id == id)
                    return &rec;
            }
        }
    }
    return nullptr;
}

std::uint64_t
Network::totalNeighborFlitHops() const
{
    // Exclude the local (ejection) port: model rho covers network
    // channels only.
    const int neighbor_ports = 2 * config_.dims;
    std::uint64_t hops = 0;
    for (const Router *router : routers_) {
        for (int p = 0; p < neighbor_ports; ++p)
            hops += router->outputFlits(p).value();
    }
    return hops;
}

std::uint64_t
Network::totalAllocStalls() const
{
    std::uint64_t stalls = 0;
    for (const auto &router : routers_)
        stalls += router->allocStalls().value();
    return stalls;
}

std::uint64_t
Network::totalRemoteWakes() const
{
    std::uint64_t wakes = 0;
    for (const auto &router : routers_)
        wakes += router->remoteWakes();
    return wakes;
}

std::uint64_t
Network::bufferedFlits() const
{
    std::uint64_t flits = 0;
    for (const auto &router : routers_)
        flits += router->bufferedFlits();
    return flits;
}

sim::NodeId
Network::peerOf(sim::NodeId node, int port) const
{
    if (port == local_port_)
        return sim::kNodeNone;
    // Port portFor(dim, dir) links to the neighbor in direction dir,
    // whose end of the link is portFor(dim, -dir) == port ^ 1.
    return topo_.neighbor(node, port / 2, port % 2 == 0 ? +1 : -1);
}

TransitCounts
Network::inTransit() const
{
    // At most one flit crosses a link per cycle and each staged bit
    // stands for exactly one flit or credit, so the staged words are
    // the whole of what is in transit.
    TransitCounts counts;
    const int vcs = config_.router.vcs;
    const std::uint32_t lane = (1u << vcs) - 1u;
    for (sim::NodeId node = 0; node < routers_.size(); ++node) {
        const Router &router = *routers_[node];
        const std::uint32_t flits = router.stagedFlitBits();
        counts.inject += static_cast<std::uint64_t>(
            std::popcount((flits >> (local_port_ * vcs)) & lane));
        for (int port = 0; port < local_port_; ++port) {
            const auto n = static_cast<std::uint64_t>(
                std::popcount((flits >> (port * vcs)) & lane));
            counts.neighbor += n;
            if (n != 0 && shardOf(peerOf(node, port)) != shardOf(node))
                counts.cross_shard += n;
        }
        counts.eject += eject_staged_[node];
        counts.credits += static_cast<std::uint64_t>(
            std::popcount(router.stagedCreditBits()));
    }
    return counts;
}

std::size_t
Network::memoryBytes() const
{
    // Routers are arena-backed (arena_.bytesAllocated()); the input /
    // output units and flit rings live in the slabs.
    std::size_t bytes = sizeof(*this) + arena_.bytesAllocated() +
                        input_units_.capacity() *
                            sizeof(Router::InputVc) +
                        output_vcs_.capacity() *
                            sizeof(Router::OutputVc) +
                        (vc_slab_.capacity() + eject_slab_.capacity()) *
                            sizeof(Flit);
    bytes += (flit_wake_staged_.capacity() + flit_wake_.capacity() +
              credit_wake_staged_.capacity() + credit_wake_.capacity() +
              buffered_slab_.capacity() + eject_staged_.capacity() +
              source_pending_.capacity()) *
             sizeof(std::uint32_t);
    for (const auto &scratch : busy_scratch_)
        bytes += scratch.capacity();
    for (const NodeEndpoint &ep : endpoints_) {
        bytes += ep.source_queue.memoryBytes() +
                 ep.delivered.memoryBytes();
    }
    bytes += endpoints_.capacity() * sizeof(NodeEndpoint);
    for (const ShardState &shard : shards_) {
        bytes += shard.record_pool.memoryBytes() +
                 shard.records.memoryBytes();
    }
    bytes += shards_.capacity() * sizeof(ShardState);
    return bytes;
}

namespace {

void
saveAttribution(util::Serializer &s, const ClassAttribution &attr)
{
    s.put(attr.count);
    s.putDouble(attr.latency);
    s.putDouble(attr.serialization);
    s.putDouble(attr.hops);
    s.putDouble(attr.contention);
    s.putDouble(attr.stalls);
}

void
loadAttribution(util::Deserializer &d, ClassAttribution &attr)
{
    attr.count = d.get<std::uint64_t>();
    attr.latency = d.getDouble();
    attr.serialization = d.getDouble();
    attr.hops = d.getDouble();
    attr.contention = d.getDouble();
    attr.stalls = d.getDouble();
}

} // namespace

void
NetworkStats::saveState(util::Serializer &s) const
{
    s.put(messages_sent);
    s.put(messages_delivered);
    latency.saveState(s);
    latency_hist.saveState(s);
    source_queue.saveState(s);
    hops.saveState(s);
    flits.saveState(s);
    for (const ClassAttribution &attr : attribution)
        saveAttribution(s, attr);
}

void
NetworkStats::loadState(util::Deserializer &d)
{
    messages_sent = d.get<std::uint64_t>();
    messages_delivered = d.get<std::uint64_t>();
    latency.loadState(d);
    latency_hist.loadState(d);
    source_queue.loadState(d);
    hops.loadState(d);
    flits.loadState(d);
    for (ClassAttribution &attr : attribution)
        loadAttribution(d, attr);
}

void
Network::saveState(util::Serializer &s) const
{
    for (const obs::Tracer *tracer : tracers_) {
        LOCSIM_ASSERT(tracer == nullptr,
                      "cannot checkpoint a traced network");
    }

    // Nodes serialize in node order, which depends only on the
    // topology (never on the shard plan), and each router folds its
    // cross-shard wake words into its staged words, so the stream is
    // identical for any shard count and restores at any other.
    for (sim::NodeId node = 0; node < routers_.size(); ++node) {
        routers_[node]->saveState(s);
        const NodeEndpoint &ep = endpoints_[node];
        const RecordPool &pool =
            shards_[static_cast<std::size_t>(shardOf(node))].record_pool;
        // The message mid-injection heads the queue it left; its
        // record may already be in the destination shard's pool or
        // mail.
        const bool injecting = ep.flits_sent != 0;
        s.put<std::uint64_t>(ep.source_queue.size() + (injecting ? 1 : 0));
        if (injecting) {
            const MessageRecord *rec = record(ep.inject_msg);
            LOCSIM_ASSERT(rec != nullptr,
                          "message mid-injection without a record");
            saveMessage(s, rec->message);
        }
        for (std::size_t i = 0; i < ep.source_queue.size(); ++i)
            saveMessage(s, pool.get(ep.source_queue[i]).message);
        s.put(ep.flits_sent);
        s.put(ep.next_seq);
        // A latched flit is always drained in the cycle it latches, so
        // the ejection ring's position is its tail, and a staged flit
        // is all it can hold.
        LOCSIM_ASSERT(ep.eject.bufEmpty(),
                      "ejection ring holds a latched flit between cycles");
        s.put(ep.eject.tail);
        s.put(eject_staged_[node] != 0);
        if (eject_staged_[node] != 0)
            saveFlit(s, ep.eject.slots[ep.eject.tail & ep.eject.mask]);
        s.put<std::uint64_t>(ep.delivered.size());
        for (std::size_t i = 0; i < ep.delivered.size(); ++i)
            saveMessage(s, pool.get(ep.delivered[i]).message);
        // The reassembly cursor serializes as the (sorted) list of
        // in-progress messages it replaces: zero or one entry.
        const std::uint64_t arrived = ep.arrived_count > 0 ? 1 : 0;
        s.put<std::uint64_t>(arrived);
        if (arrived != 0) {
            s.put(ep.arrived_msg);
            s.put(ep.arrived_count);
        }
    }

    // Records: the union over shard pools and in-transit mailboxes,
    // sorted by id so the ordering is shard-count independent.
    std::vector<const MessageRecord *> records;
    for (const ShardState &shard : shards_) {
        shard.records.forEach(
            [&](const MessageId &, const RecordHandle &h) {
                records.push_back(&shard.record_pool.get(h));
            });
    }
    for (const auto &parity : record_mail_) {
        for (const auto &box : parity) {
            for (const MessageRecord &rec : box)
                records.push_back(&rec);
        }
    }
    std::sort(records.begin(), records.end(),
              [](const MessageRecord *a, const MessageRecord *b) {
                  return a->message.id < b->message.id;
              });
    s.put<std::uint64_t>(records.size());
    for (const MessageRecord *rec : records) {
        saveMessage(s, rec->message);
        s.put(rec->inject_start);
        s.put(rec->delivered);
        s.put(rec->head_hops);
        s.put(rec->head_stalls);
    }

    stats().saveState(s);
    s.put(stats_start_);
    s.put(stats_flit_hops_base_);
}

void
Network::rebuildWriters()
{
    const int vcs = config_.router.vcs;
    const auto depth =
        static_cast<std::uint32_t>(config_.router.buffer_depth);
    for (sim::NodeId node = 0; node < routers_.size(); ++node) {
        NodeEndpoint &ep = endpoints_[node];
        const std::uint32_t flit_bits = flit_wake_staged_[node];
        const std::uint32_t credit_bits = credit_wake_staged_[node];
        for (int port = 0; port < ports_; ++port) {
            for (int vc = 0; vc < vcs; ++vc) {
                const int bit = port * vcs + vc;
                // This node's input ring: only the injection VC and
                // linked neighbor ports have a writer.
                const Router::InputVc &ring =
                    input_units_[unitIndex(node, port, vc)];
                const std::uint32_t flit = (flit_bits >> bit) & 1u;
                const sim::NodeId peer = peerOf(node, port);
                const bool fed = port == local_port_
                                     ? vc == 0
                                     : peer != sim::kNodeNone;
                if (!fed && ring.bufSize() + flit != 0)
                    util::Deserializer::fail("flit on a ring nothing feeds");
                if (port == local_port_ && vc == 0) {
                    ep.inject_cursor = ring.tail + flit;
                    ep.inject_credits = depth - ring.bufSize() - flit;
                }

                // This node's output VC, against its consumer's ring.
                // Ejection deposits every VC through VC 0's cursor.
                Router::OutputVc &out =
                    output_vcs_[unitIndex(node, port, vc)];
                const std::uint32_t credit = (credit_bits >> bit) & 1u;
                std::uint32_t held = 0;
                out.cursor = 0;
                if (port == local_port_) {
                    const Flit &staged =
                        ep.eject.slots[ep.eject.tail & ep.eject.mask];
                    held = eject_staged_[node] != 0 && staged.vc == vc;
                    if (vc == 0)
                        out.cursor = ep.eject.tail + eject_staged_[node];
                } else if (peer != sim::kNodeNone) {
                    const int in = port ^ 1;
                    const Router::InputVc &dst =
                        input_units_[unitIndex(peer, in, vc)];
                    const std::uint32_t deposit =
                        (flit_wake_staged_[peer] >> (in * vcs + vc)) & 1u;
                    held = dst.bufSize() + deposit;
                    out.cursor = dst.tail + deposit;
                } else {
                    if (credit != 0)
                        util::Deserializer::fail(
                            "credit staged on an output nothing consumes");
                    out.credits = 0;
                    continue;
                }
                if (held + credit > depth)
                    util::Deserializer::fail(
                        "ring occupancy plus staged bits exceeds "
                        "buffer_depth");
                out.credits =
                    static_cast<std::int16_t>(depth - held - credit);
            }
        }
    }
}

void
Network::loadState(util::Deserializer &d, PayloadCheck check)
{
    const sim::NodeId nodes = topo_.nodeCount();
    // The endpoints' messages precede the records they name; they wait
    // here, in stream order, until the records are in place.
    std::vector<Message> queued;
    std::vector<Message> injecting;
    std::vector<Message> delivered;
    for (sim::NodeId node = 0; node < endpoints_.size(); ++node) {
        routers_[node]->loadState(d);
        NodeEndpoint &ep = endpoints_[node];
        ep.source_queue.clear();
        const std::size_t first = queued.size();
        auto count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i) {
            queued.push_back(checkedMessage(d, nodes, check));
            if (queued.back().src != node)
                d.fail("queued message from another node");
        }
        source_pending_[node] = count != 0 ? 1u : 0u;
        ep.flits_sent = d.get<std::uint32_t>();
        ep.inject_msg = 0;
        ep.inject_dst = sim::kNodeNone;
        ep.inject_flits = 0;
        if (ep.flits_sent != 0) {
            // The queue's head is mid-injection: it left the queue.
            if (count == 0)
                d.fail("flits sent with no message queued");
            const Message m = queued[first];
            if (ep.flits_sent >= m.flits)
                d.fail("flits sent reach the queued message's length");
            ep.inject_msg = m.id;
            ep.inject_dst = m.dst;
            ep.inject_flits = m.flits;
            injecting.push_back(m);
            queued.erase(queued.begin() +
                         static_cast<std::ptrdiff_t>(first));
        }
        ep.next_seq = d.get<std::uint64_t>();
        ep.eject.head = ep.eject.tail = d.get<std::uint32_t>();
        eject_staged_[node] = d.getBool() ? 1u : 0u;
        if (eject_staged_[node] != 0) {
            const Flit flit = loadFlit(d);
            if (flit.vc >= config_.router.vcs)
                d.fail("ejected flit on a VC past vcs");
            if (flit.dst >= topo_.nodeCount())
                d.fail("ejected flit bound past the last node");
            ep.eject.slots[ep.eject.tail & ep.eject.mask] = flit;
        }
        ep.delivered.clear();
        count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i) {
            delivered.push_back(checkedMessage(d, nodes, check));
            if (delivered.back().dst != node)
                d.fail("delivered message for another node");
        }
        // At most one message is mid-ejection, with flits arrived.
        ep.arrived_msg = 0;
        ep.arrived_count = 0;
        if (d.getBelow<std::uint64_t>(2) == 1) {
            ep.arrived_msg = d.get<MessageId>();
            ep.arrived_count = d.get<std::uint32_t>();
            if (ep.arrived_count == 0)
                d.fail("message mid-ejection with no flit arrived");
        }
    }
    rebuildWriters();

    for (ShardState &shard : shards_) {
        shard.records.clear();
        shard.record_pool.clear();
        shard.in_flight = 0;
        shard.pending_deliveries = 0;
        shard.stats.reset();
    }
    for (auto &parity : record_mail_) {
        for (auto &box : parity)
            box.clear();
    }

    // Place each record where the current shard plan expects it: a
    // message not yet injected belongs to its source shard, anything
    // later to its destination shard. Records that were in-transit
    // mailbox mail at save time restore directly into the destination
    // map; the next drain simply finds the mailboxes empty.
    const auto record_count = d.get<std::uint64_t>();
    MessageId last_id = 0;
    for (std::uint64_t i = 0; i < record_count; ++i) {
        MessageRecord rec;
        rec.message = checkedMessage(d, nodes, check);
        if (i != 0 && rec.message.id <= last_id)
            d.fail("records out of id order");
        if (rec.message.id >> kMessageIdSrcShift != rec.message.src)
            d.fail("record id names another source");
        last_id = rec.message.id;
        rec.inject_start = d.get<sim::Tick>();
        rec.delivered = d.get<sim::Tick>();
        rec.hops = topo_.distance(rec.message.src, rec.message.dst);
        rec.head_hops = d.get<std::uint16_t>();
        rec.head_stalls = d.get<std::uint16_t>();
        const int s = rec.inject_start == sim::kTickNever
                          ? shardOf(rec.message.src)
                          : shardOf(rec.message.dst);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        const RecordHandle h = shard.record_pool.alloc();
        shard.record_pool.get(h) = rec;
        shard.records.insert(rec.message.id, h);
        if (rec.delivered == sim::kTickNever)
            ++shards_[0].in_flight;
    }

    // Each queued or delivered message is stored once, in its record,
    // so the copy the stream repeats must equal it. Whether the record
    // says the message was injected decides the shard it was placed
    // in above; it must agree with the queue, so that every queue's
    // handle names its own shard's pool at any shard count.
    std::vector<MessageId> claimed;
    const auto claim = [&](const Message &m, bool injected,
                           const char *what) -> RecordHandle {
        const MessageRecord *rec = record(m.id);
        if (rec == nullptr)
            d.fail(std::string(what) + " without a record");
        if (!(rec->message == m))
            d.fail(std::string(what) + " differs from its record");
        if ((rec->inject_start != sim::kTickNever) != injected) {
            d.fail(std::string(what) +
                   (injected ? " whose record was never injected"
                             : " whose record says it was injected"));
        }
        claimed.push_back(m.id);
        const sim::NodeId at = injected ? m.dst : m.src;
        return *shards_[static_cast<std::size_t>(shardOf(at))]
                    .records.find(m.id);
    };
    for (const Message &m : injecting)
        claim(m, true, "message mid-injection");
    for (const Message &m : queued)
        endpoints_[m.src].source_queue.push_back(
            claim(m, false, "queued message"));
    for (const Message &m : delivered) {
        endpoints_[m.dst].delivered.push_back(
            claim(m, true, "delivered message"));
        ++shards_[0].pending_deliveries;
    }
    // Two handles on one record would free it twice.
    std::sort(claimed.begin(), claimed.end());
    if (std::adjacent_find(claimed.begin(), claimed.end()) !=
        claimed.end())
        d.fail("one message held twice by the endpoints");

    // Global accounting and statistics restore into shard 0; the
    // serial-point sums (and the shard-ordered stats merge) are then
    // identical to the values saved.
    shards_[0].stats.loadState(d);
    stats_start_ = d.get<sim::Tick>();
    stats_flit_hops_base_ = d.get<std::uint64_t>();
}

void
Network::setProfiler(obs::Profiler *profiler, int lane)
{
    for (int s = 0; s < plan_.shards; ++s) {
        profile_slots_[static_cast<std::size_t>(s)] =
            profiler != nullptr ? &profiler->slot(s, lane) : nullptr;
    }
}

void
Network::setShardTracer(int s, obs::Tracer *tracer)
{
    tracers_[static_cast<std::size_t>(s)] = tracer;
    for (sim::NodeId node = plan_.first(s); node < plan_.last(s);
         ++node) {
        if (tracer != nullptr && node_tracks_[node] < 0) {
            node_tracks_[node] =
                tracer->newTrack("net." + std::to_string(node));
        }
        routers_[node]->setTracer(
            tracer, tracer != nullptr ? node_tracks_[node] : 0);
    }
}

} // namespace net
} // namespace locsim
