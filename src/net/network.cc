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
            engines_[static_cast<std::size_t>(s)]->addChannel(
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
    output_ports_.resize(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(ports_));
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

    for (sim::NodeId node = 0; node < n; ++node) {
        Router::RouterSlices slices;
        slices.inputs = input_units_.data() + unitIndex(node, 0, 0);
        slices.outputs = output_ports_.data() + portIndex(node, 0);
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
        ep.inject_credits = config_.router.buffer_depth;
    }

    // Wire the links, recording each in construction order (the
    // checkpoint record order). The link leaving `node` on port p
    // arrives at the neighbor on the port of the opposite direction;
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
                links_.push_back({node, out_port, nbr, in_port});
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
        links_.push_back({node, -1, node, local_port_});
        links_.push_back({node, local_port_, node, -1});
        Router::Downstream eject;
        eject.units = &ep.eject;
        eject.wake = &ep.eject_staged;
        routers_[node]->connectOutput(local_port_, eject);
        Router::Upstream inject;
        inject.word = &ep.inject_banked;
        inject.counter = true;
        routers_[node]->connectInput(local_port_, inject);
    }

    // Kernel-path metadata, fixed once all remote wake bindings are
    // known: each shard's list of routers with cross-shard producers
    // (their atomics are drained scalar before the vector latch) and
    // its busy-byte scratch, one byte per group of 8 nodes the latch
    // kernel can touch (shard boundaries round outward to group
    // boundaries; the kernel itself peels the shared edge groups to
    // scalar). Sized here so the steady-state loop never allocates.
    simd_level_ = util::simd::activeLevel();
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
    msg.id = (static_cast<MessageId>(msg.src) << 40) | ++ep.next_seq;
    msg.submit_tick = engines_[static_cast<std::size_t>(s)]->now();

    // Pool slots are recycled without destruction; reset every field.
    const RecordHandle h = shard.record_pool.alloc();
    MessageRecord &record = shard.record_pool.get(h);
    record = MessageRecord{};
    record.message = msg;
    record.hops = topo_.distance(msg.src, msg.dst);
    shard.records.insert(msg.id, h);

    ep.source_queue.push_back(msg);
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
    Message msg = delivered.front();
    delivered.pop_front();
    ShardState &shard =
        shards_[static_cast<std::size_t>(shardOf(node))];
    --shard.pending_deliveries;
    // Accounting for this message is complete; drop the record so
    // long runs do not accumulate unbounded history.
    if (const RecordHandle *hp = shard.records.find(msg.id)) {
        const RecordHandle h = *hp;
        shard.records.erase(msg.id);
        shard.record_pool.free(h);
    }
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

    if (ep.source_queue.empty())
        return;

    // Collect returned injection credits. Credits bank up while the
    // node has nothing to send, so collecting them lazily (only when
    // a message wants to inject) is equivalent to collecting every
    // cycle.
    ep.inject_credits +=
        static_cast<int>(std::exchange(ep.inject_banked, 0u));
    LOCSIM_ASSERT(ep.inject_credits <= config_.router.buffer_depth,
                  "injection credit overflow at node ", node);

    if (ep.inject_credits == 0)
        return;

    Message &msg = ep.source_queue.front();
    if (ep.flits_sent == 0) {
        const int s = shardOf(node);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        RecordHandle *hp = shard.records.find(msg.id);
        LOCSIM_ASSERT(hp != nullptr, "missing message record");
        MessageRecord &rec = shard.record_pool.get(*hp);
        if (rec.inject_start == sim::kTickNever) {
            rec.inject_start = now;
            if (obs::Tracer *tracer = tracerFor(s)) {
                tracer->instant(
                    node_tracks_[node], now, "inject",
                    obs::Category::Net,
                    std::move(obs::Args().add("msg", msg.id)).str());
            }
            // Hand the record to the destination shard (it harvests
            // the head counters and closes out the message). Posted
            // into this tick's parity; drained by the destination at
            // the start of the next tick, at least one cycle before
            // the head flit can eject there. The record travels by
            // value and its source-shard pool slot is recycled.
            const int ds = shardOf(msg.dst);
            if (ds != s) {
                auto &box = record_mail_[now & 1][static_cast<
                    std::size_t>(ds * plan_.shards + s)];
                box.push_back(rec);
                const RecordHandle h = *hp;
                shard.records.erase(msg.id);
                shard.record_pool.free(h);
            }
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
    flit.msg = msg.id;
    flit.src = msg.src;
    flit.dst = msg.dst;
    flit.seq = static_cast<std::uint16_t>(ep.flits_sent);
    flit.head = ep.flits_sent == 0;
    flit.tail = ep.flits_sent + 1 == msg.flits;
    flit.vc = 0;
    flit_wake_staged_[node] |=
        1u << routers_[node]->unitBit(local_port_, 0);
    --ep.inject_credits;
    ++ep.flits_sent;

    if (ep.flits_sent == msg.flits) {
        ep.source_queue.pop_front();
        ep.flits_sent = 0;
    }
}

void
Network::tickEjection(sim::NodeId node, sim::Tick now)
{
    NodeEndpoint &ep = endpoints_[node];

    // Latch last cycle's deposit (at most one: one flit per output
    // port per cycle), then drain one flit per network cycle (an
    // 8-bit channel delivers one flit per cycle, Section 3.1).
    if (ep.eject_staged != 0) {
        ep.eject_staged = 0;
        ++ep.eject.tail;
    }
    if (ep.eject.bufEmpty())
        return;
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
    LOCSIM_ASSERT(flit.seq == ep.arrived_count,
                  "flit reordering within a wormhole message: msg ",
                  flit.msg, " expected seq ", ep.arrived_count,
                  " got ", flit.seq);
    ++ep.arrived_count;

    const int s = shardOf(node);
    ShardState &shard = shards_[static_cast<std::size_t>(s)];

    if (flit.head) {
        // Harvest the head flit's attribution counters; body flits
        // follow the opened path and carry none.
        RecordHandle *hp = shard.records.find(flit.msg);
        LOCSIM_ASSERT(hp != nullptr, "head for unknown message");
        MessageRecord &hrec = shard.record_pool.get(*hp);
        hrec.head_hops = flit.hops;
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
    ep.delivered.push_back(rec.message);
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

    if (simd_level_ == util::simd::Level::Off) {
        // Scalar reference path (LOCSIM_SIMD=off): the kernel path
        // below must stay bit-identical to this one — CI diffs the
        // two builds byte-for-byte.
        //
        // Latch the bits staged by last cycle's deposits (including
        // cross-shard ones, via the routers' remote words) before
        // anything deposits this cycle: injection, ejection credits
        // and router traversal below all stage bits for the NEXT
        // cycle, which is the links' one-cycle latency.
        for (sim::NodeId node = lo; node < hi; ++node)
            routers_[node]->latchWakes();
        if (plan_.shards > 1)
            drainRecordMail(s, now);
        for (sim::NodeId node = lo; node < hi; ++node)
            tickEjection(node, now);
        for (sim::NodeId node = lo; node < hi; ++node)
            tickInjection(node, now);
        // An idle router's tick is a no-op (no buffered flits, no
        // latched arrivals, and its arbitration state is derived from
        // `now`), so skipping it cannot change behavior.
        for (sim::NodeId node = lo; node < hi; ++node) {
            if (routers_[node]->busy())
                routers_[node]->tick(now);
        }
        return;
    }

    // Lane-vector path: the same latch / eject / inject / dispatch
    // sequence, but the start-of-cycle latch and busy evaluation run
    // as a vector kernel over groups of 8 contiguous nodes. Busy is
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
        // Cross-shard wakes fold into the staged words first, so the
        // vector latch picks them up exactly as latchWakes() would
        // have (rotation is barrier-separated from this phase, so the
        // remote atomics are quiescent here).
        for (const sim::NodeId node :
             remote_nodes_[static_cast<std::size_t>(s)])
            routers_[node]->drainRemoteWakes();
        std::fill(busy.begin(), busy.end(), std::uint8_t{0});
        for (std::size_t node = lo_s; node < vlo && node < hi_s;
             ++node) {
            routers_[node]->latchWakes();
            if (routers_[node]->busy())
                busy[node / 8 - gfirst] |=
                    static_cast<std::uint8_t>(1u << (node & 7));
        }
        if (vhi > vlo) {
            kernels::routerLatchBusy(
                flit_wake_staged_.data(), flit_wake_.data(),
                credit_wake_staged_.data(), credit_wake_.data(),
                buffered_slab_.data(), vlo, vhi,
                busy.data() + (vlo / 8 - gfirst), simd_level_);
        }
        for (std::size_t node = vhi; node < hi_s; ++node) {
            routers_[node]->latchWakes();
            if (routers_[node]->busy())
                busy[node / 8 - gfirst] |=
                    static_cast<std::uint8_t>(1u << (node & 7));
        }
    }
    if (plan_.shards > 1)
        drainRecordMail(s, now);
    for (sim::NodeId node = lo; node < hi; ++node)
        tickEjection(node, now);
    for (sim::NodeId node = lo; node < hi; ++node)
        tickInjection(node, now);
    // Dispatch straight off the busy bytes, ascending — the same
    // node order as the scalar scan, without re-deriving busy per
    // node.
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
    const double channels = static_cast<double>(topo_.nodeCount()) *
                            2.0 * static_cast<double>(config_.dims);
    return static_cast<double>(hops) /
           (static_cast<double>(elapsed) * channels);
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

Network::LinkLanes
Network::lanesOf(const LinkEnds &link) const
{
    // Endpoint links carry VC 0 only: one lane. A router consumer
    // has one ring per VC, filled through the producer's per-VC
    // cursors.
    if (link.consumer_port < 0) {
        return {&endpoints_[link.consumer].eject,
                output_ports_[portIndex(link.producer,
                                        link.producer_port)]
                    .cursor.data(),
                1};
    }
    const Router::InputVc *rings =
        &input_units_[unitIndex(link.consumer, link.consumer_port, 0)];
    if (link.producer_port < 0)
        return {rings, &endpoints_[link.producer].inject_cursor, 1};
    return {rings,
            output_ports_[portIndex(link.producer, link.producer_port)]
                .cursor.data(),
            config_.router.vcs};
}

std::uint32_t
Network::creditsInFlight(const LinkEnds &link, int vc) const
{
    if (link.producer_port < 0)
        return vc == 0 ? endpoints_[link.producer].inject_banked : 0u;
    const Router &router = *routers_[link.producer];
    return (router.stagedCreditBits() >>
            router.unitBit(link.producer_port, vc)) &
           1u;
}

TransitCounts
Network::inTransit() const
{
    TransitCounts counts;
    for (const LinkEnds &link : links_) {
        const LinkLanes lanes = lanesOf(link);
        std::uint64_t flits = 0;
        for (int i = 0; i < lanes.count; ++i)
            flits += lanes.cursors[i] - lanes.rings[i].tail;
        if (link.producer_port < 0) {
            counts.inject += flits;
            continue;
        }
        if (link.consumer_port < 0) {
            counts.eject += flits;
        } else {
            counts.neighbor += flits;
            if (shardOf(link.producer) != shardOf(link.consumer))
                counts.cross_shard += flits;
        }
        for (int vc = 0; vc < config_.router.vcs; ++vc)
            counts.credits += creditsInFlight(link, vc);
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
                        output_ports_.capacity() *
                            sizeof(Router::OutputPort) +
                        (vc_slab_.capacity() + eject_slab_.capacity()) *
                            sizeof(Flit) +
                        links_.capacity() * sizeof(LinkEnds);
    bytes += (flit_wake_staged_.capacity() + flit_wake_.capacity() +
              credit_wake_staged_.capacity() + credit_wake_.capacity() +
              buffered_slab_.capacity()) *
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

    // Links and routers serialize in construction order, which
    // depends only on the topology (never on the shard plan); router
    // state folds cross-shard wake words into their sequential
    // staged-word equivalents. The stream is therefore identical for
    // any shard count and restores at any other.
    //
    // A link record is the latched-link layout (head, mid, tail, then
    // the flits in [head, tail)): between cycles every link had
    // published everything it carried, so mid == tail, and what it
    // held was exactly what is in transit now — at most one flit. Its
    // cursors were counts of flits consumed and pushed, which are now
    // the sums of the consumer rings' tails and the producer's
    // per-VC cursors.
    for (const LinkEnds &link : links_) {
        const LinkLanes lanes = lanesOf(link);
        std::uint32_t consumed = 0;
        std::uint32_t produced = 0;
        for (int i = 0; i < lanes.count; ++i) {
            consumed += lanes.rings[i].tail;
            produced += lanes.cursors[i];
        }
        s.put<std::uint64_t>(consumed);
        s.put<std::uint64_t>(produced);
        s.put<std::uint64_t>(produced);
        for (int i = 0; i < lanes.count; ++i) {
            const Router::InputVc &ring = lanes.rings[i];
            for (std::uint32_t c = ring.tail; c != lanes.cursors[i]; ++c)
                saveFlit(s, ring.slots[c & ring.mask]);
        }
    }
    // Credit records: (staged, visible) per VC. Between cycles all
    // were visible; a returned credit not yet latched (or collected,
    // for injection) counts as visible.
    for (const LinkEnds &link : links_) {
        for (int vc = 0; vc < config_.router.vcs; ++vc) {
            s.put(0);
            s.put(static_cast<int>(creditsInFlight(link, vc)));
        }
    }
    for (const Router *router : routers_)
        router->saveState(s);

    for (const NodeEndpoint &ep : endpoints_) {
        // The ejection ring's position lives in its link record; a
        // latched flit is always drained in the cycle it latches.
        LOCSIM_ASSERT(ep.eject.bufEmpty(),
                      "ejection ring holds a latched flit between cycles");
        s.put<std::uint64_t>(ep.source_queue.size());
        for (std::size_t i = 0; i < ep.source_queue.size(); ++i)
            saveMessage(s, ep.source_queue[i]);
        s.put(ep.flits_sent);
        s.put(ep.inject_credits);
        s.put(ep.next_seq);
        s.put<std::uint64_t>(ep.delivered.size());
        for (std::size_t i = 0; i < ep.delivered.size(); ++i)
            saveMessage(s, ep.delivered[i]);
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
        s.put(rec->hops);
        s.put(rec->head_hops);
        s.put(rec->head_stalls);
    }

    s.put<std::uint64_t>(static_cast<std::uint64_t>(inFlight()));
    s.put(pendingDeliveries());
    stats().saveState(s);
    s.put(stats_start_);
    s.put(stats_flit_hops_base_);
}

void
Network::restoreLink(const LinkEnds &link, const LinkImage &image)
{
    // Only ever applied to this network's own lanes: drop the const
    // the read-side view carries.
    const LinkLanes lanes = lanesOf(link);
    auto *rings = const_cast<Router::InputVc *>(lanes.rings);
    auto *cursors = const_cast<std::uint32_t *>(lanes.cursors);
    if (link.consumer_port < 0)
        rings[0].head = rings[0].tail = image.head;
    std::uint32_t consumed = 0;
    for (int i = 0; i < lanes.count; ++i) {
        cursors[i] = rings[i].tail;
        consumed += rings[i].tail;
    }
    if (consumed != image.head) {
        throw std::runtime_error(
            "Network::loadState: link record disagrees with its "
            "consumer's buffer");
    }
    if (image.tail != image.head) {
        const int lane = image.flit.vc;
        if (lane >= lanes.count) {
            throw std::runtime_error(
                "Network::loadState: flit in transit on a VC the link "
                "does not carry");
        }
        Router::InputVc &ring = rings[lane];
        if (static_cast<int>(ring.bufSize()) >=
            config_.router.buffer_depth) {
            throw std::runtime_error(
                "Network::loadState: flit in transit overflows its "
                "ring");
        }
        ring.slots[ring.tail & ring.mask] = image.flit;
        ++cursors[lane];
        if (link.consumer_port < 0) {
            endpoints_[link.consumer].eject_staged = 1u;
        } else {
            Router &consumer = *routers_[link.consumer];
            consumer.stageFlitBits(
                1u << consumer.unitBit(link.consumer_port, lane));
        }
    }
    for (int vc = 0; vc < config_.router.vcs; ++vc) {
        const std::int64_t credits =
            image.credits[static_cast<std::size_t>(vc)];
        if (link.producer_port < 0) {
            if (credits < 0 || credits > config_.router.buffer_depth ||
                (vc != 0 && credits != 0)) {
                throw std::runtime_error(
                    "Network::loadState: bad injection credit record");
            }
            endpoints_[link.producer].inject_banked +=
                static_cast<std::uint32_t>(credits);
            continue;
        }
        // At most one credit per link per cycle: a bit.
        if (credits < 0 || credits > 1) {
            throw std::runtime_error(
                "Network::loadState: more than one credit in flight "
                "on a link VC");
        }
        Router &producer = *routers_[link.producer];
        if (credits == 1) {
            producer.stageCreditBits(
                1u << producer.unitBit(link.producer_port, vc));
        }
    }
}

void
Network::loadState(util::Deserializer &d)
{
    // Link records precede the routers in the stream but restore into
    // router and endpoint state, so parse them first and apply them
    // once both are loaded.
    std::vector<LinkImage> images(links_.size());
    for (LinkImage &image : images) {
        image.head = static_cast<std::uint32_t>(d.get<std::uint64_t>());
        const auto mid =
            static_cast<std::uint32_t>(d.get<std::uint64_t>());
        image.tail = static_cast<std::uint32_t>(d.get<std::uint64_t>());
        if (mid != image.tail || image.tail - image.head > 1) {
            throw std::runtime_error(
                "Network::loadState: a link record holds more than "
                "one flit in transit");
        }
        if (image.tail != image.head)
            image.flit = loadFlit(d);
    }
    for (LinkImage &image : images) {
        for (int vc = 0; vc < config_.router.vcs; ++vc) {
            const std::int64_t staged = d.get<int>();
            image.credits[static_cast<std::size_t>(vc)] =
                staged + d.get<int>();
        }
    }
    for (Router *router : routers_)
        router->loadState(d);

    for (NodeEndpoint &ep : endpoints_) {
        ep.source_queue.clear();
        auto count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i)
            ep.source_queue.push_back(loadMessage(d));
        ep.flits_sent = d.get<std::uint32_t>();
        ep.inject_credits = d.get<int>();
        ep.next_seq = d.get<std::uint64_t>();
        ep.delivered.clear();
        count = d.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < count; ++i)
            ep.delivered.push_back(loadMessage(d));
        count = d.get<std::uint64_t>();
        if (count > 1) {
            throw std::runtime_error(
                "Network::loadState: more than one message "
                "mid-ejection at a node");
        }
        ep.arrived_msg = 0;
        ep.arrived_count = 0;
        if (count == 1) {
            ep.arrived_msg = d.get<MessageId>();
            ep.arrived_count = d.get<std::uint32_t>();
        }
        ep.inject_banked = 0;
        ep.eject_staged = 0;
    }
    for (std::size_t i = 0; i < links_.size(); ++i)
        restoreLink(links_[i], images[i]);

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
    for (std::uint64_t i = 0; i < record_count; ++i) {
        MessageRecord rec;
        rec.message = loadMessage(d);
        rec.inject_start = d.get<sim::Tick>();
        rec.delivered = d.get<sim::Tick>();
        rec.hops = d.get<int>();
        rec.head_hops = d.get<std::uint16_t>();
        rec.head_stalls = d.get<std::uint16_t>();
        const int s = rec.inject_start == sim::kTickNever
                          ? shardOf(rec.message.src)
                          : shardOf(rec.message.dst);
        ShardState &shard = shards_[static_cast<std::size_t>(s)];
        const RecordHandle h = shard.record_pool.alloc();
        shard.record_pool.get(h) = rec;
        shard.records.insert(rec.message.id, h);
    }

    // Global accounting and statistics restore into shard 0; the
    // serial-point sums (and the shard-ordered stats merge) are then
    // identical to the values saved.
    shards_[0].in_flight =
        static_cast<std::int64_t>(d.get<std::uint64_t>());
    shards_[0].pending_deliveries =
        static_cast<std::int64_t>(d.get<std::uint64_t>());
    shards_[0].stats.loadState(d);
    stats_start_ = d.get<sim::Tick>();
    stats_flit_hops_base_ = d.get<std::uint64_t>();
}

void
Network::setTracer(obs::Tracer *tracer)
{
    for (int s = 0; s < plan_.shards; ++s)
        setShardTracer(s, tracer);
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
