/**
 * @file
 * CacheController implementation.
 */

#include "coher/controller.hh"

#include <algorithm>

#include "obs/profiler.hh"
#include "util/logging.hh"

namespace locsim {
namespace coher {

namespace {

/** Min-heap order (due, seq) for std::push_heap/pop_heap. */
template <typename Pending>
bool
completesLater(const Pending &a, const Pending &b)
{
    if (a.due != b.due)
        return a.due > b.due;
    return a.seq > b.seq;
}

void
saveProtoMsg(util::Serializer &s, const ProtoMsg &m)
{
    s.put(m.type);
    s.put(m.addr);
    s.put(m.sender);
    s.put(m.data);
    s.put(m.requester);
    s.put(m.critical);
}

/** A message between nodes of a machine of @p nodes nodes. */
ProtoMsg
loadProtoMsg(util::Deserializer &d, sim::NodeId nodes)
{
    ProtoMsg m;
    m.type = d.getEnum(kLastMsgType);
    m.addr = d.get<Addr>();
    m.sender = d.getBelow<sim::NodeId>(nodes);
    m.data = d.get<std::uint64_t>();
    m.requester = d.getBelowOr(nodes, sim::kNodeNone);
    m.critical = d.get<int>();
    return m;
}

void
saveMemRequest(util::Serializer &s, const MemRequest &req)
{
    s.put(req.is_store);
    s.put(req.addr);
    s.put(req.store_value);
    s.put(req.context);
    s.put(req.wants_reply);
}

/** A request whose context must lie in [0, @p contexts). */
MemRequest
loadMemRequest(util::Deserializer &d, int contexts)
{
    MemRequest req;
    req.is_store = d.getBool();
    req.addr = d.get<Addr>();
    req.store_value = d.get<std::uint64_t>();
    req.context = d.getBelow<int>(contexts);
    req.wants_reply = d.getBool();
    return req;
}

void
saveMemResponse(util::Serializer &s, const MemResponse &resp)
{
    s.put(resp.context);
    s.put(resp.load_value);
    s.put(resp.was_transaction);
}

/** A completion whose context must lie in [0, @p contexts): the
 *  client indexes its contexts with it. */
MemResponse
loadMemResponse(util::Deserializer &d, int contexts)
{
    MemResponse resp;
    resp.context = d.getBelow<int>(contexts);
    resp.load_value = d.get<std::uint64_t>();
    resp.was_transaction = d.getBool();
    return resp;
}

/** Attribution class of a protocol message (net latency breakdown). */
net::MessageClass
classOf(MsgType type)
{
    switch (type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Fetch:
      case MsgType::FetchInv:
        return net::MessageClass::Request;
      case MsgType::DataS:
      case MsgType::DataX:
      case MsgType::FetchReply:
        return net::MessageClass::Reply;
      case MsgType::Inv:
      case MsgType::InvAck:
        return net::MessageClass::Inv;
      case MsgType::PutX:
        return net::MessageClass::Writeback;
    }
    return net::MessageClass::Generic;
}

} // namespace

CacheController::CacheController(sim::Engine &engine,
                                 net::Network &network,
                                 sim::NodeId node,
                                 const ProtocolConfig &config,
                                 std::uint32_t ticks_per_cycle)
    : engine_(engine), network_(network), node_(node), config_(config),
      ticks_per_cycle_(ticks_per_cycle), cache_(config.cache_bytes),
      directory_(node)
{
    LOCSIM_ASSERT(ticks_per_cycle >= 1, "bad clock ratio");
    // Pre-size the work rings past the typical stochastic high-water
    // mark so steady-state operation never touches the allocator
    // (rare late capacity doublings would otherwise show up in the
    // zero-allocation CI gate).
    inbox_.reserve(16);
    proc_queue_.reserve(16);
    outbox_.reserve(16);
}

void
CacheController::busyFor(std::uint32_t cycles)
{
    const sim::Tick now = engine_.now();
    const sim::Tick base = busy_until_ > now ? busy_until_ : now;
    busy_until_ = base + static_cast<sim::Tick>(cycles) *
                             ticks_per_cycle_;
}

void
CacheController::traceMessage(sim::Tick when, const char *dir,
                              MsgType type, Addr addr,
                              sim::NodeId peer)
{
    // msgTypeName returns static storage, satisfying Event::name's
    // lifetime contract.
    tracer_->instant(
        trace_track_, when, msgTypeName(type), obs::Category::Coher,
        std::move(obs::Args()
                      .add("dir", dir)
                      .add("line", lineIndexOf(addr))
                      .add("peer", static_cast<std::int64_t>(peer)))
            .str());
}

void
CacheController::send(sim::NodeId dst, MsgType type, Addr addr,
                      std::uint64_t data, sim::NodeId requester,
                      std::uint32_t delay_cycles, int critical)
{
    LOCSIM_ASSERT(dst != node_,
                  "protocol must not message its own node: ",
                  msgTypeName(type));
    ProtoMsg proto;
    proto.type = type;
    proto.addr = addr;
    proto.sender = node_;
    proto.data = data;
    proto.requester = requester;
    proto.critical = critical;

    net::Message msg;
    msg.src = node_;
    msg.dst = dst;
    msg.flits = carriesData(type) ? config_.data_flits
                                  : config_.control_flits;
    msg.payload = packProtoMsg(proto);
    msg.cls = classOf(type);

    StagedSend staged;
    staged.ready = engine_.now() + static_cast<sim::Tick>(delay_cycles) *
                                       ticks_per_cycle_;
    staged.msg = msg;
    outbox_.push_back(staged);
    stats_.messages_sent.inc();

    if (tracer_ != nullptr)
        traceMessage(engine_.now(), "send", type, addr, dst);
}

std::optional<MemResponse>
CacheController::tryFastPath(const MemRequest &req)
{
    const CacheLookup hit = cache_.lookup(req.addr);
    const bool load_hit =
        !req.is_store && hit.state != CacheState::Invalid;
    const bool store_hit =
        req.is_store && hit.state == CacheState::Modified;
    if (!load_hit && !store_hit)
        return std::nullopt;

    (req.is_store ? stats_.stores : stats_.loads).inc();
    stats_.hits.inc();
    if (store_hit)
        cache_.writeData(req.addr, req.store_value);

    MemResponse resp;
    resp.context = req.context;
    resp.load_value = store_hit ? req.store_value : hit.data;
    resp.was_transaction = false;
    return resp;
}

void
CacheController::request(const MemRequest &req)
{
    proc_queue_.push_back(req);
}

void
CacheController::deliver(const MemResponse &resp, bool wants_reply)
{
    if (!wants_reply)
        return;
    LOCSIM_ASSERT(client_ != nullptr,
                  "completion with no MemClient attached");
    client_->memComplete(resp);
}

void
CacheController::queueCompletion(const MemResponse &resp,
                                 std::uint32_t delay_cycles,
                                 bool wants_reply)
{
    if (!wants_reply)
        return;
    PendingCompletion pc;
    pc.due = engine_.now() + static_cast<sim::Tick>(delay_cycles) *
                                 ticks_per_cycle_;
    pc.seq = completion_seq_++;
    pc.resp = resp;
    pending_completions_.push_back(pc);
    std::push_heap(pending_completions_.begin(),
                   pending_completions_.end(),
                   completesLater<PendingCompletion>);
}

void
CacheController::drainCompletions(sim::Tick now)
{
    while (!pending_completions_.empty() &&
           pending_completions_.front().due <= now) {
        std::pop_heap(pending_completions_.begin(),
                      pending_completions_.end(),
                      completesLater<PendingCompletion>);
        const MemResponse resp = pending_completions_.back().resp;
        pending_completions_.pop_back();
        deliver(resp, true);
    }
}

void
CacheController::tick(sim::Tick now)
{
    obs::ScopedPhase profile(profile_slot_, obs::Phase::Coherence);

    // Completions first: they only touch processor-side context state,
    // and must land regardless of controller occupancy.
    drainCompletions(now);

    // Receive from the network every cycle (dedicated hardware path).
    while (auto msg = network_.receive(node_))
        inbox_.push_back(unpackProtoMsg(msg->payload));

    // Launch staged sends whose delay has elapsed (FIFO per node).
    while (!outbox_.empty() && outbox_.front().ready <= now) {
        network_.send(outbox_.front().msg);
        outbox_.pop_front();
    }

    if (now < busy_until_)
        return;

    // One unit of protocol work per free slot; protocol messages take
    // priority over new processor requests (replies unblock work).
    if (!inbox_.empty()) {
        const ProtoMsg msg = inbox_.front();
        inbox_.pop_front();
        busyFor(config_.occupancy);
        if (tracer_ != nullptr)
            traceMessage(now, "handle", msg.type, msg.addr, msg.sender);
        handleProtocolMessage(msg);
    } else if (!proc_queue_.empty()) {
        const MemRequest req = proc_queue_.front();
        proc_queue_.pop_front();
        busyFor(config_.occupancy);
        handleProcessorRequest(req);
    }
}

void
CacheController::handleProcessorRequest(const MemRequest &req)
{
    // A queued hit (typically a request requeued after its line's
    // miss completed) is served like the fast path, at hit latency.
    if (const std::optional<MemResponse> resp = tryFastPath(req)) {
        queueCompletion(*resp, config_.hit_latency, req.wants_reply);
        return;
    }
    (req.is_store ? stats_.stores : stats_.loads).inc();

    const Addr line = lineOf(req.addr);
    if (MshrHandle *hp = mshrs_.find(line)) {
        mshr_pool_.get(*hp).deferred.push_back(req);
        return;
    }

    if (homeOf(req.addr) == node_) {
        homeLocalAccess(req);
    } else {
        startMiss(req);
    }
}

CacheController::Mshr &
CacheController::newMshr(Addr line)
{
    const MshrHandle h = mshr_pool_.alloc();
    Mshr &mshr = mshr_pool_.get(h);
    mshr.req = MemRequest{};
    mshr.issued = 0;
    mshr.deferred.clear();
    // Warm a fresh pool slot's ring at transaction start rather than
    // on its first deferral: cold-ring allocations then stop with pool
    // high-water growth instead of trickling in whenever an old slot
    // first defers (a recycled slot keeps its capacity, so this is a
    // no-op after the first use).
    mshr.deferred.reserve(8);
    mshrs_.insert(line, h);
    return mshr;
}

CacheController::HomeTxn &
CacheController::newHomeTxn(Addr line)
{
    const HomeHandle h = home_pool_.alloc();
    HomeTxn &txn = home_pool_.get(h);
    txn.kind = HomeTxn::Kind::RemoteRead;
    txn.requester = sim::kNodeNone;
    txn.pending_acks = 0;
    txn.waiting_fetch = false;
    txn.deferred.clear();
    txn.local_deferred.clear();
    // See newMshr(): warm cold rings at transaction start.
    txn.deferred.reserve(8);
    txn.local_deferred.reserve(8);
    txn.local_req = MemRequest{};
    txn.issued = 0;
    home_txns_.insert(line, h);
    return txn;
}

void
CacheController::startMiss(const MemRequest &req)
{
    const Addr line = lineOf(req.addr);
    Mshr &mshr = newMshr(line);
    mshr.req = req;
    mshr.issued = engine_.now();
    send(homeOf(req.addr),
         req.is_store ? MsgType::GetX : MsgType::GetS, req.addr, 0,
         node_, 0);
}

void
CacheController::fillLine(Addr addr, CacheState state,
                          std::uint64_t data)
{
    const auto evicted = cache_.fill(addr, state, data);
    if (!evicted)
        return;
    if (evicted->state != CacheState::Modified)
        return; // Shared/clean victims drop silently.
    stats_.writebacks.inc();
    const sim::NodeId home = homeOf(evicted->addr);
    if (home == node_) {
        DirEntry &entry = directory_.entry(evicted->addr);
        LOCSIM_ASSERT(entry.state == DirState::Exclusive &&
                          entry.owner == node_,
                      "directory out of sync on local writeback");
        entry.memory = evicted->data;
        entry.state = DirState::Uncached;
        entry.owner = sim::kNodeNone;
        directory_.clearSharers(entry);
    } else {
        send(home, MsgType::PutX, evicted->addr, evicted->data, node_,
             0);
    }
}

void
CacheController::handleProtocolMessage(const ProtoMsg &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
        homeGetS(msg);
        return;
      case MsgType::GetX:
        homeGetX(msg);
        return;
      case MsgType::DataS:
        handleGrant(msg, false);
        return;
      case MsgType::DataX:
        handleGrant(msg, true);
        return;
      case MsgType::Inv:
        handleInv(msg);
        return;
      case MsgType::InvAck:
        homeInvAck(msg);
        return;
      case MsgType::Fetch:
        handleFetch(msg, false);
        return;
      case MsgType::FetchInv:
        handleFetch(msg, true);
        return;
      case MsgType::FetchReply:
        homeFetchReply(msg, false);
        return;
      case MsgType::PutX:
        homeFetchReply(msg, true);
        return;
    }
    LOCSIM_PANIC("unknown protocol message type");
}

std::uint32_t
CacheController::overflowPenalty(const DirEntry &entry)
{
    if (config_.dir_pointers == 0)
        return 0;
    // Hardware pointers track remote copies; the home's own cached
    // copy needs no pointer.
    std::size_t remote = entry.sharer_count;
    if (directory_.isSharer(entry, node_))
        --remote;
    if (remote <= config_.dir_pointers)
        return 0;
    // The hardware pointers overflowed: LimitLESS traps to a software
    // handler that maintains the full sharer list in memory. The
    // controller is occupied for the handler's duration and the
    // reply is delayed accordingly.
    stats_.limitless_traps.inc();
    busyFor(config_.overflow_trap_cycles);
    return config_.overflow_trap_cycles;
}

int
CacheController::invalidateSharers(DirEntry &entry, Addr addr,
                                   sim::NodeId keep)
{
    int sent = 0;
    for (sim::NodeId sharer : directory_.sharers(entry)) {
        if (sharer == keep)
            continue;
        if (sharer == node_) {
            cache_.invalidate(addr);
            continue;
        }
        send(sharer, MsgType::Inv, addr, 0, keep, 0);
        ++sent;
    }
    return sent;
}

void
CacheController::homeLocalAccess(const MemRequest &req)
{
    const Addr line = lineOf(req.addr);
    if (HomeHandle *hp = home_txns_.find(line)) {
        home_pool_.get(*hp).local_deferred.push_back(req);
        return;
    }

    DirEntry &entry = directory_.entry(req.addr);
    LOCSIM_ASSERT(!(entry.state == DirState::Exclusive &&
                    entry.owner == node_),
                  "local miss on a line the local cache owns");

    auto respond_local = [&](std::uint64_t value,
                             std::uint32_t extra_cycles = 0) {
        MemResponse resp;
        resp.context = req.context;
        resp.load_value = value;
        resp.was_transaction = false;
        busyFor(config_.mem_latency);
        queueCompletion(resp, config_.mem_latency + extra_cycles,
                        req.wants_reply);
    };

    if (!req.is_store) {
        if (entry.state != DirState::Exclusive) {
            // Memory is current: serve locally, become a sharer.
            fillLine(req.addr, CacheState::Shared, entry.memory);
            if (entry.state == DirState::Uncached)
                entry.state = DirState::Shared;
            directory_.addSharer(entry, node_);
            respond_local(entry.memory, overflowPenalty(entry));
            return;
        }
        // Recall the remote owner's copy.
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::LocalRead;
        txn.requester = node_;
        txn.waiting_fetch = true;
        txn.local_req = req;
        txn.issued = engine_.now();
        send(entry.owner, MsgType::Fetch, req.addr, 0, node_, 0);
        return;
    }

    // Store.
    if (entry.state == DirState::Exclusive) {
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::LocalWrite;
        txn.requester = node_;
        txn.waiting_fetch = true;
        txn.local_req = req;
        txn.issued = engine_.now();
        send(entry.owner, MsgType::FetchInv, req.addr, 0, node_, 0);
        return;
    }

    overflowPenalty(entry); // software walks an overflowed list
    const int invs = invalidateSharers(entry, req.addr, node_);
    if (invs > 0) {
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::LocalWrite;
        txn.requester = node_;
        txn.pending_acks = invs;
        txn.local_req = req;
        txn.issued = engine_.now();
        return;
    }

    // No remote copies: take exclusive ownership locally.
    entry.state = DirState::Exclusive;
    entry.owner = node_;
    directory_.clearSharers(entry);
    fillLine(req.addr, CacheState::Modified, entry.memory);
    cache_.writeData(req.addr, req.store_value);
    respond_local(req.store_value);
}

void
CacheController::homeGetS(const ProtoMsg &msg)
{
    const Addr line = lineOf(msg.addr);
    if (HomeHandle *hp = home_txns_.find(line)) {
        home_pool_.get(*hp).deferred.push_back(msg);
        return;
    }

    DirEntry &entry = directory_.entry(msg.addr);
    if (entry.state == DirState::Exclusive) {
        LOCSIM_ASSERT(entry.owner != msg.sender,
                      "owner sent GetS for its own Modified line");
        if (entry.owner == node_) {
            // Our own cache holds the line Modified: demote in place.
            const CacheLookup local = cache_.lookup(msg.addr);
            LOCSIM_ASSERT(local.state == CacheState::Modified,
                          "directory says local owner but cache "
                          "disagrees");
            cache_.setState(msg.addr, CacheState::Shared);
            entry.memory = local.data;
            entry.state = DirState::Shared;
            directory_.clearSharers(entry);
            directory_.addSharer(entry, node_);
            entry.owner = sim::kNodeNone;
            directory_.addSharer(entry, msg.sender);
            send(msg.sender, MsgType::DataS, msg.addr, entry.memory,
                 msg.sender, config_.mem_latency, 2);
            return;
        }
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::RemoteRead;
        txn.requester = msg.sender;
        txn.waiting_fetch = true;
        send(entry.owner, MsgType::Fetch, msg.addr, 0, msg.sender, 0);
        return;
    }

    if (entry.state == DirState::Uncached)
        entry.state = DirState::Shared;
    directory_.addSharer(entry, msg.sender);
    const std::uint32_t penalty = overflowPenalty(entry);
    send(msg.sender, MsgType::DataS, msg.addr, entry.memory,
         msg.sender, config_.mem_latency + penalty, 2);
}

void
CacheController::homeGetX(const ProtoMsg &msg)
{
    const Addr line = lineOf(msg.addr);
    if (HomeHandle *hp = home_txns_.find(line)) {
        home_pool_.get(*hp).deferred.push_back(msg);
        return;
    }

    DirEntry &entry = directory_.entry(msg.addr);
    if (entry.state == DirState::Exclusive) {
        LOCSIM_ASSERT(entry.owner != msg.sender,
                      "owner sent GetX for its own Modified line");
        if (entry.owner == node_) {
            const CacheLookup local = cache_.lookup(msg.addr);
            LOCSIM_ASSERT(local.state == CacheState::Modified,
                          "directory says local owner but cache "
                          "disagrees");
            cache_.invalidate(msg.addr);
            entry.memory = local.data;
            entry.state = DirState::Exclusive;
            entry.owner = msg.sender;
            directory_.clearSharers(entry);
            send(msg.sender, MsgType::DataX, msg.addr, entry.memory,
                 msg.sender, config_.mem_latency, 2);
            return;
        }
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::RemoteWrite;
        txn.requester = msg.sender;
        txn.waiting_fetch = true;
        send(entry.owner, MsgType::FetchInv, msg.addr, 0, msg.sender,
             0);
        return;
    }

    overflowPenalty(entry); // software walks an overflowed list
    const int invs = invalidateSharers(entry, msg.addr, msg.sender);
    if (invs > 0) {
        HomeTxn &txn = newHomeTxn(line);
        txn.kind = HomeTxn::Kind::RemoteWrite;
        txn.requester = msg.sender;
        txn.pending_acks = invs;
        return;
    }

    entry.state = DirState::Exclusive;
    entry.owner = msg.sender;
    directory_.clearSharers(entry);
    send(msg.sender, MsgType::DataX, msg.addr, entry.memory,
         msg.sender, config_.mem_latency, 2);
}

void
CacheController::handleInv(const ProtoMsg &msg)
{
    const CacheLookup look = cache_.lookup(msg.addr);
    LOCSIM_ASSERT(look.state != CacheState::Modified,
                  "Inv received for a Modified line");
    cache_.invalidate(msg.addr);
    send(homeOf(msg.addr), MsgType::InvAck, msg.addr, 0,
         msg.requester, 0);
}

void
CacheController::handleFetch(const ProtoMsg &msg, bool invalidate)
{
    const CacheLookup look = cache_.lookup(msg.addr);
    if (look.state != CacheState::Modified) {
        // The line was evicted; the PutX in flight carries the data
        // and will satisfy the home's pending fetch.
        return;
    }
    if (invalidate) {
        cache_.invalidate(msg.addr);
    } else {
        cache_.setState(msg.addr, CacheState::Shared);
    }
    send(homeOf(msg.addr), MsgType::FetchReply, msg.addr, look.data,
         msg.requester, 0);
}

void
CacheController::homeInvAck(const ProtoMsg &msg)
{
    const Addr line = lineOf(msg.addr);
    HomeHandle *hp = home_txns_.find(line);
    LOCSIM_ASSERT(hp != nullptr, "InvAck with no transaction pending");
    HomeTxn &txn = home_pool_.get(*hp);
    LOCSIM_ASSERT(txn.pending_acks > 0, "unexpected InvAck");
    --txn.pending_acks;
    if (txn.pending_acks == 0 && !txn.waiting_fetch)
        completeHomeTxn(line, txn);
}

void
CacheController::homeFetchReply(const ProtoMsg &msg, bool is_putx)
{
    const Addr line = lineOf(msg.addr);
    DirEntry &entry = directory_.entry(msg.addr);
    entry.memory = msg.data;

    if (HomeHandle *hp = home_txns_.find(line)) {
        HomeTxn &txn = home_pool_.get(*hp);
        if (txn.waiting_fetch) {
            txn.waiting_fetch = false;
            if (txn.pending_acks == 0)
                completeHomeTxn(line, txn);
            return;
        }
    }

    LOCSIM_ASSERT(is_putx, "FetchReply with no fetch pending");
    LOCSIM_ASSERT(entry.state == DirState::Exclusive &&
                      entry.owner == msg.sender,
                  "PutX from a non-owner");
    entry.state = DirState::Uncached;
    entry.owner = sim::kNodeNone;
    directory_.clearSharers(entry);
}

void
CacheController::completeHomeTxn(Addr line, HomeTxn &txn)
{
    DirEntry &entry = directory_.entry(line);
    const sim::NodeId old_owner = entry.owner;

    switch (txn.kind) {
      case HomeTxn::Kind::RemoteRead:
        entry.state = DirState::Shared;
        directory_.clearSharers(entry);
        if (old_owner != sim::kNodeNone)
            directory_.addSharer(entry, old_owner);
        directory_.addSharer(entry, txn.requester);
        entry.owner = sim::kNodeNone;
        send(txn.requester, MsgType::DataS, line, entry.memory,
             txn.requester, config_.mem_latency, 4);
        break;
      case HomeTxn::Kind::RemoteWrite:
        entry.state = DirState::Exclusive;
        entry.owner = txn.requester;
        directory_.clearSharers(entry);
        send(txn.requester, MsgType::DataX, line, entry.memory,
             txn.requester, config_.mem_latency, 4);
        break;
      case HomeTxn::Kind::LocalRead: {
        entry.state = DirState::Shared;
        directory_.clearSharers(entry);
        if (old_owner != sim::kNodeNone)
            directory_.addSharer(entry, old_owner);
        directory_.addSharer(entry, node_);
        entry.owner = sim::kNodeNone;
        fillLine(line, CacheState::Shared, entry.memory);
        finishLocalTxn(txn, entry.memory);
        break;
      }
      case HomeTxn::Kind::LocalWrite: {
        entry.state = DirState::Exclusive;
        entry.owner = node_;
        directory_.clearSharers(entry);
        fillLine(line, CacheState::Modified, entry.memory);
        cache_.writeData(line, txn.local_req.store_value);
        finishLocalTxn(txn, txn.local_req.store_value);
        break;
      }
    }
    releaseHomeTxn(line);
}

void
CacheController::finishLocalTxn(HomeTxn &txn, std::uint64_t value)
{
    stats_.transactions.inc();
    stats_.txn_latency.add(
        static_cast<double>(engine_.now() - txn.issued));
    stats_.critical_messages.add(2.0);

    MemResponse resp;
    resp.context = txn.local_req.context;
    resp.load_value = value;
    resp.was_transaction = true;
    queueCompletion(resp, config_.mem_latency,
                    txn.local_req.wants_reply);
}

void
CacheController::releaseHomeTxn(Addr line)
{
    HomeHandle *hp = home_txns_.find(line);
    LOCSIM_ASSERT(hp != nullptr, "releasing absent txn");
    const HomeHandle h = *hp;
    HomeTxn &txn = home_pool_.get(h);
    // Requeue deferred work at the front so it is served before new
    // arrivals, preserving request order per line. The queues are
    // drained in place (not moved out) so the pooled slot keeps its
    // capacity when it is recycled.
    for (std::size_t i = txn.local_deferred.size(); i > 0; --i)
        proc_queue_.push_front(txn.local_deferred[i - 1]);
    for (std::size_t i = txn.deferred.size(); i > 0; --i)
        inbox_.push_front(txn.deferred[i - 1]);
    txn.deferred.clear();
    txn.local_deferred.clear();
    home_txns_.erase(line);
    home_pool_.free(h);
}

void
CacheController::handleGrant(const ProtoMsg &msg, bool exclusive)
{
    const Addr line = lineOf(msg.addr);
    MshrHandle *hp = mshrs_.find(line);
    LOCSIM_ASSERT(hp != nullptr, "grant with no MSHR: ",
                  msgTypeName(msg.type), " line ", line, " at node ",
                  node_);
    const MshrHandle h = *hp;
    Mshr &mshr = mshr_pool_.get(h);
    LOCSIM_ASSERT(exclusive == mshr.req.is_store,
                  "grant kind does not match the pending request");

    std::uint64_t value = msg.data;
    fillLine(msg.addr, exclusive ? CacheState::Modified
                                 : CacheState::Shared,
             msg.data);
    if (mshr.req.is_store) {
        cache_.writeData(msg.addr, mshr.req.store_value);
        value = mshr.req.store_value;
    }

    stats_.transactions.inc();
    stats_.txn_latency.add(
        static_cast<double>(engine_.now() - mshr.issued));
    stats_.critical_messages.add(static_cast<double>(msg.critical));

    MemResponse resp;
    resp.context = mshr.req.context;
    resp.load_value = value;
    resp.was_transaction = true;
    deliver(resp, mshr.req.wants_reply);

    for (std::size_t i = mshr.deferred.size(); i > 0; --i)
        proc_queue_.push_front(mshr.deferred[i - 1]);
    mshr.deferred.clear();
    mshrs_.erase(line);
    mshr_pool_.free(h);
}

bool
CacheController::quiescent() const
{
    return mshrs_.empty() && home_txns_.empty() && inbox_.empty() &&
           proc_queue_.empty() && outbox_.empty();
}

std::size_t
CacheController::memoryBytes() const
{
    // Chunked pool storage dominates; the per-object deferred-queue
    // capacities inside recycled transactions are a few hundred bytes
    // and are deliberately left out of the sum.
    return sizeof(*this) + cache_.memoryBytes() +
           directory_.memoryBytes() + inbox_.memoryBytes() +
           proc_queue_.memoryBytes() + outbox_.memoryBytes() +
           mshr_pool_.memoryBytes() + home_pool_.memoryBytes() +
           mshrs_.memoryBytes() + home_txns_.memoryBytes() +
           pending_completions_.capacity() * sizeof(PendingCompletion);
}

void
CacheController::saveState(util::Serializer &s) const
{
    cache_.saveState(s);
    directory_.saveState(s);

    s.put<std::uint64_t>(inbox_.size());
    for (std::size_t i = 0; i < inbox_.size(); ++i)
        saveProtoMsg(s, inbox_[i]);

    s.put<std::uint64_t>(proc_queue_.size());
    for (std::size_t i = 0; i < proc_queue_.size(); ++i)
        saveMemRequest(s, proc_queue_[i]);

    s.put<std::uint64_t>(outbox_.size());
    for (std::size_t i = 0; i < outbox_.size(); ++i) {
        s.put(outbox_[i].ready);
        net::saveMessage(s, outbox_[i].msg);
    }

    // Map contents sorted by line so the stream is independent of
    // hash-table iteration order.
    {
        std::vector<Addr> keys;
        keys.reserve(mshrs_.size());
        mshrs_.forEach(
            [&](const Addr &k, const MshrHandle &) { keys.push_back(k); });
        std::sort(keys.begin(), keys.end());
        s.put<std::uint64_t>(keys.size());
        for (Addr key : keys) {
            const Mshr &mshr = mshr_pool_.get(*mshrs_.find(key));
            s.put(key);
            saveMemRequest(s, mshr.req);
            s.put(mshr.issued);
            s.put<std::uint64_t>(mshr.deferred.size());
            for (std::size_t i = 0; i < mshr.deferred.size(); ++i)
                saveMemRequest(s, mshr.deferred[i]);
        }
    }
    {
        std::vector<Addr> keys;
        keys.reserve(home_txns_.size());
        home_txns_.forEach(
            [&](const Addr &k, const HomeHandle &) { keys.push_back(k); });
        std::sort(keys.begin(), keys.end());
        s.put<std::uint64_t>(keys.size());
        for (Addr key : keys) {
            const HomeTxn &txn = home_pool_.get(*home_txns_.find(key));
            s.put(key);
            s.put(txn.kind);
            s.put(txn.requester);
            s.put(txn.pending_acks);
            s.put(txn.waiting_fetch);
            s.put<std::uint64_t>(txn.deferred.size());
            for (std::size_t i = 0; i < txn.deferred.size(); ++i)
                saveProtoMsg(s, txn.deferred[i]);
            s.put<std::uint64_t>(txn.local_deferred.size());
            for (std::size_t i = 0; i < txn.local_deferred.size(); ++i)
                saveMemRequest(s, txn.local_deferred[i]);
            saveMemRequest(s, txn.local_req);
            s.put(txn.issued);
        }
    }

    // The heap vector is serialized verbatim: it is already a valid
    // heap and its layout is deterministic (same simulation history).
    s.put<std::uint64_t>(pending_completions_.size());
    for (const PendingCompletion &pc : pending_completions_) {
        s.put(pc.due);
        s.put(pc.seq);
        saveMemResponse(s, pc.resp);
    }
    s.put(completion_seq_);

    s.put(busy_until_);
    stats_.saveState(s);
}

void
CacheController::loadState(util::Deserializer &d)
{
    const sim::NodeId nodes = network_.topology().nodeCount();
    cache_.loadState(d);
    directory_.loadState(d, nodes);

    inbox_.clear();
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n; ++i)
        inbox_.push_back(loadProtoMsg(d, nodes));

    proc_queue_.clear();
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n; ++i)
        proc_queue_.push_back(loadMemRequest(d, client_contexts_));

    outbox_.clear();
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n;
         ++i) {
        StagedSend staged;
        staged.ready = d.get<sim::Tick>();
        staged.msg = net::checkedMessage(d, nodes, checkProtoPayload);
        if (staged.msg.src != node_)
            d.fail("outbox message from another node");
        outbox_.push_back(staged);
    }

    mshrs_.clear();
    mshr_pool_.clear();
    Addr key = 0; // the line before, in the list being read
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n;
         ++i) {
        Mshr &mshr = newMshr(d.getAfter(key, i == 0));
        mshr.req = loadMemRequest(d, client_contexts_);
        mshr.issued = d.get<sim::Tick>();
        for (std::uint64_t j = 0, m = d.get<std::uint64_t>(); j < m;
             ++j)
            mshr.deferred.push_back(loadMemRequest(d, client_contexts_));
    }

    home_txns_.clear();
    home_pool_.clear();
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n;
         ++i) {
        HomeTxn &txn = newHomeTxn(d.getAfter(key, i == 0));
        txn.kind = d.getEnum(HomeTxn::Kind::LocalWrite);
        txn.requester = d.getBelowOr(nodes, sim::kNodeNone);
        txn.pending_acks = d.get<int>();
        txn.waiting_fetch = d.getBool();
        for (std::uint64_t j = 0, m = d.get<std::uint64_t>(); j < m;
             ++j)
            txn.deferred.push_back(loadProtoMsg(d, nodes));
        for (std::uint64_t j = 0, m = d.get<std::uint64_t>(); j < m;
             ++j)
            txn.local_deferred.push_back(loadMemRequest(d, client_contexts_));
        txn.local_req = loadMemRequest(d, client_contexts_);
        txn.issued = d.get<sim::Tick>();
    }

    pending_completions_.clear();
    for (std::uint64_t i = 0, n = d.get<std::uint64_t>(); i < n;
         ++i) {
        PendingCompletion pc;
        pc.due = d.get<sim::Tick>();
        pc.seq = d.get<std::uint64_t>();
        pc.resp = loadMemResponse(d, client_contexts_);
        pending_completions_.push_back(pc);
    }
    completion_seq_ = d.get<std::uint64_t>();

    busy_until_ = d.get<sim::Tick>();
    stats_.loadState(d);
}

} // namespace coher
} // namespace locsim
