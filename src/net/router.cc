/**
 * @file
 * Router implementation.
 */

#include "net/router.hh"

#include <bit>

#include "util/logging.hh"

namespace locsim {
namespace net {

Router::Router(const TorusTopology &topo, sim::NodeId node,
               const RouterConfig &config, const RouterSlices &slices,
               WakeOutbox *outbox)
    : topo_(topo), node_(node), config_(config), inputs_(slices.inputs),
      outputs_(slices.outputs), outbox_(outbox),
      buffered_(slices.buffered),
      flit_wake_staged_(slices.flit_wake_staged),
      flit_wake_(slices.flit_wake),
      credit_wake_staged_(slices.credit_wake_staged),
      credit_wake_(slices.credit_wake)
{
    LOCSIM_ASSERT(buffered_ != nullptr && flit_wake_ != nullptr,
                  "router wake/occupancy slab words are required");
    LOCSIM_ASSERT(config_.vcs >= 2,
                  "torus wormhole routing needs >= 2 virtual channels");
    LOCSIM_ASSERT(config_.buffer_depth >= 1, "buffer depth must be >= 1");
    LOCSIM_ASSERT(config_.buffer_depth <= 32767,
                  "credit counts are 16-bit");

    const int ports = portCount();
    LOCSIM_ASSERT(ports * config_.vcs < 32,
                  "activity masks hold one bit per input unit");
    LOCSIM_ASSERT(ports <= kMaxPorts, "per-port arrays are fixed-size");
    LOCSIM_ASSERT(config_.vcs <= kMaxVcs,
                  "flit VC fields are three bits wide");
    const std::size_t vc_cap = vcRingCapacity(config_);
    const int units = unitCount();
    for (int unit = 0; unit < units; ++unit) {
        const auto u = static_cast<std::size_t>(unit);
        inputs_[u] = InputVc{};
        inputs_[u].slots = slices.vc_slots + u * vc_cap;
        inputs_[u].mask = static_cast<std::uint32_t>(vc_cap - 1);
        outputs_[u] = OutputVc{};
        unit_port_[u] = static_cast<std::int8_t>(unit / config_.vcs);
        unit_vc_[u] = static_cast<std::int8_t>(unit % config_.vcs);
    }
}

void
Router::connectOutput(int port, const Downstream &down)
{
    LOCSIM_ASSERT(port >= 0 && port < portCount(), "bad port index");
    downstream_[static_cast<std::size_t>(port)] = down;
    // The consumer exposes buffer_depth slots per VC; start with full
    // credit.
    for (int v = 0; v < config_.vcs; ++v)
        outputs_[static_cast<std::size_t>(unitBit(port, v))].credits =
            static_cast<std::int16_t>(config_.buffer_depth);
}

void
Router::receiveCredits()
{
    // Each latched bit is exactly one credit for one (port, VC): at
    // most one flit leaves the downstream input port per cycle. Bits
    // and output-VC records share the unit index.
    std::uint32_t units = std::exchange(*credit_wake_, 0u);
    while (units != 0) {
        const int unit = std::countr_zero(units);
        units &= units - 1;
        const int port = unit_port_[static_cast<std::size_t>(unit)];
        OutputVc &out = outputs_[static_cast<std::size_t>(unit)];
        LOCSIM_ASSERT(out.credits < config_.buffer_depth,
                      "credit overflow on node ", node_, " port ",
                      port);
        ++out.credits;
        // Credits for an owned VC may unblock this port (credits for
        // a released VC need no re-arm: a later claim arms it).
        if (out.owner != -1)
            ready_ports_ |= 1u << port;
    }
}

void
Router::receiveFlits()
{
    // Each latched bit is exactly one flit the upstream producer
    // deposited last cycle at this unit's tail slot (at most one flit
    // crosses a link per cycle): latching it is tail++, no copy.
    std::uint32_t units = std::exchange(*flit_wake_, 0u);
    while (units != 0) {
        const int unit = std::countr_zero(units);
        units &= units - 1;
        InputVc &ivc = inputs_[static_cast<std::size_t>(unit)];
        LOCSIM_ASSERT(ivc.slots[ivc.tail & ivc.mask].vc ==
                          unit_vc_[static_cast<std::size_t>(unit)],
                      "flit VC does not match its ring at node ", node_,
                      " unit ", unit);
        ++ivc.tail;
        LOCSIM_ASSERT(static_cast<int>(ivc.bufSize()) <=
                          config_.buffer_depth,
                      "input buffer overflow: credit protocol violated "
                      "at node ",
                      node_, " unit ", unit);
        vc_occupied_ |= 1u << unit;
        ++*buffered_;
        if (ivc.routed) {
            // A body flit joined a unit that holds its output VC:
            // that port may forward again.
            ready_ports_ |= 1u << ivc.out_port;
        } else {
            alloc_pending_ |= 1u << unit;
        }
    }
}

void
Router::computeRoute(int port, InputVc &ivc)
{
    const Flit &head = ivc.bufFront();
    LOCSIM_ASSERT(head.head, "routing a non-head flit");

    if (head.dst == node_) {
        ivc.out_port = static_cast<std::int8_t>(localPort());
        ivc.out_vc = 0;
        ivc.route_valid = true;
        return;
    }

    const HopStep step = topo_.nextHop(node_, head.dst);
    // Dateline state resets when the packet enters a new dimension.
    bool crossed = false;
    if (port != localPort() && port / 2 == step.dim)
        crossed = head.crossed_dateline;
    ivc.out_port = static_cast<std::int8_t>(portFor(step.dim, step.dir));
    ivc.out_vc = (crossed || step.wraps) ? 1 : 0;
    ivc.route_valid = true;
}

void
Router::routeAndAllocate(sim::Tick now)
{
    // The scan start below is a pure function of `now`, so skipping
    // idle cycles entirely (including the rr cache update) leaves
    // arbitration state exactly as if the scan had run and found
    // nothing.
    if (alloc_pending_ == 0)
        return;
    const int units = unitCount();
    // Rotate the scan start so no input unit starves under contention.
    // The start advances once per network cycle; deriving it from the
    // tick (routers are clocked at period 1) makes it independent of
    // how many idle cycles were skipped.
    int start;
    if (now == rr_now_ + 1) {
        start = rr_start_ + 1 == units ? 0 : rr_start_ + 1;
    } else {
        start = static_cast<int>(now % static_cast<sim::Tick>(units));
    }
    rr_now_ = now;
    rr_start_ = start;
    // Visit only units whose head packet still needs an output VC, in
    // the same rotated order (start, start+1, ..., wrapping) as a full
    // scan would; routed and empty units are no-ops in that scan, so
    // pruning them cannot change the allocation outcome.
    std::uint32_t pending = alloc_pending_;
    if (start != 0) {
        pending = ((pending >> start) | (pending << (units - start))) &
                  ((1u << units) - 1u);
    }
    while (pending != 0) {
        const int offset = std::countr_zero(pending);
        pending &= pending - 1;
        int unit = start + offset;
        if (unit >= units)
            unit -= units;
        const int port = unit_port_[static_cast<std::size_t>(unit)];
        InputVc &ivc = inputs_[static_cast<std::size_t>(unit)];
        if (ivc.routed)
            continue;
        if (!ivc.route_valid) {
            if (!ivc.bufFront().head) {
                // A body flit can be at the front only if the head
                // already passed, in which case routed would still be
                // true; seeing one here means the wormhole state
                // machine broke.
                LOCSIM_PANIC("body flit with no route at node ", node_);
            }
            computeRoute(port, ivc);
        }
        // Try to claim the output VC (wormhole allocation). On
        // failure the cached route is kept and the claim retried
        // next cycle.
        std::int8_t &owner =
            outputs_[static_cast<std::size_t>(
                         unitBit(ivc.out_port, ivc.out_vc))]
                .owner;
        if (owner == -1) {
            owner = static_cast<std::int8_t>(unit);
            owned_ports_ |= 1u << ivc.out_port;
            ready_ports_ |= 1u << ivc.out_port;
            alloc_pending_ &= ~(1u << unit);
            ivc.routed = true;
        } else {
            // Output VC held by another packet: the head flit stalls
            // in place. Counted both globally and on the flit itself
            // (per-message contention attribution; saturating).
            alloc_stalls_.inc();
            Flit &head = ivc.bufFrontMut();
            if (head.stalls != UINT16_MAX)
                ++head.stalls;
            if (tracer_ != nullptr) {
                tracer_->instant(
                    trace_track_, now, "alloc_stall",
                    obs::Category::Net,
                    std::move(obs::Args()
                                  .add("msg", head.msg)
                                  .add("out_port", ivc.out_port)
                                  .add("out_vc", ivc.out_vc))
                        .str());
            }
        }
    }
}

void
Router::switchTraversal(sim::Tick now)
{
    (void)now; // only read when flit-level tracing is on
    // One bit per input port; ports are bounded well below 32
    // (2 * dims + 1), so a mask avoids a heap allocation per call.
    std::uint32_t input_port_used = 0;

    // Visit only output ports that might forward, in ascending port
    // order (the same order a full scan visits them). A port whose
    // owned VCs are all blocked on credits or upstream flits is
    // dropped from the ready set until one of those events re-arms it;
    // skipped ports forward nothing and mark nothing, so pruning them
    // cannot change which flits move.
    std::uint32_t scan = owned_ports_ & ready_ports_;
    if (scan == 0)
        return;
    while (scan != 0) {
        const int port = std::countr_zero(scan);
        scan &= scan - 1;
        const Downstream &down =
            downstream_[static_cast<std::size_t>(port)];
        if (down.units == nullptr)
            continue;
        OutputVc *outs =
            outputs_ + static_cast<std::size_t>(unitBit(port, 0));
        bool forwarded = false;
        // Blocked only by the one-flit-per-input-port rule this cycle;
        // could forward next cycle without any new event, so the port
        // must stay armed.
        bool retry = false;
        // One flit per output port per cycle: round-robin over VCs.
        std::int8_t &next_vc = next_vc_[static_cast<std::size_t>(port)];
        int vc = next_vc;
        for (int i = 0; i < config_.vcs;
             ++i, vc = vc + 1 == config_.vcs ? 0 : vc + 1) {
            OutputVc &out = outs[vc];
            const int owner = out.owner;
            if (owner == -1)
                continue;
            const int in_port =
                unit_port_[static_cast<std::size_t>(owner)];
            const int in_vc = unit_vc_[static_cast<std::size_t>(owner)];
            if (input_port_used & (1u << in_port)) {
                retry = true;
                continue;
            }
            InputVc &ivc = inputs_[static_cast<std::size_t>(owner)];
            if (ivc.bufEmpty())
                continue; // re-armed by receiveFlits
            if (out.credits <= 0)
                continue; // re-armed by receiveCredits

            // Deposit the flit straight into the consumer's ring at
            // the lane's write cursor and rewrite link-level fields
            // in place: the hop's only flit copy. The slot lies past
            // the consumer's tail, so the consumer never reads it
            // before its latch next cycle.
            const int lane = vc & down.vc_mask;
            InputVc &dst = down.units[lane];
            std::uint32_t &cursor = outs[lane].cursor;
            LOCSIM_ASSERT(
                cursor - std::atomic_ref<std::uint32_t>(dst.head).load(
                             std::memory_order_relaxed) <=
                    dst.mask,
                "ring overflow: credit protocol violated at node ",
                node_, " port ", port, " vc ", vc);
            Flit &flit = dst.slots[cursor & dst.mask];
            ++cursor;
            flit = ivc.bufFront();
            ivc.bufPop();
            --*buffered_;
            if (ivc.bufEmpty())
                vc_occupied_ &= ~(1u << owner);
            input_port_used |= 1u << in_port;
            const std::uint32_t arrival = 1u << (down.shift + lane);
            if (down.wake != nullptr) {
                LOCSIM_ASSERT((*down.wake & arrival) == 0,
                              "two flits on one link in a cycle");
                *down.wake |= arrival;
            } else {
                outbox_->stage(down.remote, arrival);
            }

            // Return a credit upstream for the freed buffer slot.
            const Upstream &up =
                upstream_[static_cast<std::size_t>(in_port)];
            const std::uint32_t credit = 1u << (up.shift + in_vc);
            if (up.counter) {
                ++*up.word;
            } else if (up.word != nullptr) {
                LOCSIM_ASSERT((*up.word & credit) == 0,
                              "two credits on one link in a cycle");
                *up.word |= credit;
            } else {
                outbox_->stage(up.remote, credit);
            }

            // Rewrite link-level VC and dateline state.
            const bool to_neighbor = port != localPort();
            if (flit.head && to_neighbor) {
                flit.crossed_dateline = (ivc.out_vc == 1);
                // One more physical link traversed (attribution).
                if (flit.seq_or_hops != UINT16_MAX)
                    ++flit.seq_or_hops;
            }
            flit.vc = static_cast<std::uint8_t>(vc);

            --out.credits;
            output_flits_[static_cast<std::size_t>(port)].inc();
            if (tracer_ != nullptr) {
                tracer_->instant(
                    trace_track_, now, "flit", obs::Category::Net,
                    std::move(obs::Args()
                                  .add("msg", flit.msg)
                                  .add("seq", flit.seq())
                                  .add("port", port)
                                  .add("vc", vc))
                        .str());
                tracer_->instant(
                    trace_track_, now, "credit", obs::Category::Net,
                    std::move(obs::Args()
                                  .add("port", in_port)
                                  .add("vc", in_vc))
                        .str());
            }

            if (flit.tail) {
                out.owner = -1;
                ivc.routed = false;
                ivc.route_valid = false;
                ivc.out_port = -1;
                ivc.out_vc = -1;
                // The next packet's head flit (if already buffered)
                // needs an output VC of its own.
                if (!ivc.bufEmpty())
                    alloc_pending_ |= 1u << owner;
                bool any_owner = false;
                for (int v = 0; v < config_.vcs; ++v) {
                    if (outs[v].owner != -1) {
                        any_owner = true;
                        break;
                    }
                }
                if (!any_owner)
                    owned_ports_ &= ~(1u << port);
            }
            next_vc = static_cast<std::int8_t>(
                vc + 1 == config_.vcs ? 0 : vc + 1);
            forwarded = true;
            break;
        }
        if (!forwarded && !retry)
            ready_ports_ &= ~(1u << port);
    }
}

void
Router::tick(sim::Tick now)
{
    if (*credit_wake_ != 0)
        receiveCredits();
    if (*flit_wake_ != 0)
        receiveFlits();
    // Both remaining phases only act on buffered flits (an output VC
    // owner with an empty input buffer is waiting on upstream body
    // flits and makes no progress), so a router woken only to absorb
    // credits stops here.
    if (*buffered_ == 0)
        return;
    routeAndAllocate(now);
    switchTraversal(now);
}

void
Router::saveState(util::Serializer &s) const
{
    LOCSIM_ASSERT(*flit_wake_ == 0 && *credit_wake_ == 0,
                  "latched wake words set between cycles at node ",
                  node_);
    const std::uint32_t staged = stagedFlitBits();
    s.put(staged);
    s.put(stagedCreditBits());
    const int units = unitCount();
    for (int u = 0; u < units; ++u) {
        const InputVc &ivc = inputs_[static_cast<std::size_t>(u)];
        s.put(ivc.head);
        s.put(ivc.tail);
        s.put(ivc.routed);
        s.put(ivc.route_valid);
        s.put(ivc.out_port);
        s.put(ivc.out_vc);
        const std::uint32_t end = ivc.tail + ((staged >> u) & 1u);
        for (std::uint32_t i = ivc.head; i != end; ++i)
            saveFlit(s, ivc.slots[i & ivc.mask]);
    }
    for (int u = 0; u < units; ++u)
        s.put(outputs_[static_cast<std::size_t>(u)].owner);
    for (int p = 0; p < portCount(); ++p)
        s.put(next_vc_[static_cast<std::size_t>(p)]);
    for (int p = 0; p < portCount(); ++p)
        output_flits_[static_cast<std::size_t>(p)].saveState(s);
    alloc_stalls_.saveState(s);
}

void
Router::loadState(util::Deserializer &d)
{
    const int units = unitCount();
    const int ports = portCount();
    const std::uint32_t depth =
        static_cast<std::uint32_t>(config_.buffer_depth);
    const auto flits = d.get<std::uint32_t>();
    const auto credits = d.get<std::uint32_t>();
    if (((flits | credits) >> units) != 0)
        d.fail("staged bit past the last unit");
    *flit_wake_staged_ = flits;
    *credit_wake_staged_ = credits;
    *flit_wake_ = 0;
    *credit_wake_ = 0;
    remote_flit_wake_.store(0u, std::memory_order_relaxed);
    remote_credit_wake_.store(0u, std::memory_order_relaxed);

    // The occupancy masks and buffered count are functions of the
    // rings, rebuilt as they load. ready_ports_ may be a superset of
    // what a never-checkpointed run would hold; scanning an extra
    // blocked port forwards nothing and marks nothing, so the superset
    // is observationally identical and self-corrects on the first
    // traversal.
    *buffered_ = 0;
    vc_occupied_ = 0;
    owned_ports_ = 0;
    alloc_pending_ = 0;
    for (int u = 0; u < units; ++u) {
        InputVc &ivc = inputs_[static_cast<std::size_t>(u)];
        ivc.head = d.get<std::uint32_t>();
        ivc.tail = d.get<std::uint32_t>();
        ivc.routed = d.getBool();
        ivc.route_valid = d.getBool();
        ivc.out_port = d.get<std::int8_t>();
        ivc.out_vc = d.get<std::int8_t>();
        const std::uint32_t held = ivc.tail - ivc.head;
        const std::uint32_t staged = (flits >> u) & 1u;
        if (held > depth || held + staged > depth)
            d.fail("ring holds more than buffer_depth flits");
        if (ivc.route_valid ? ivc.out_port < 0 || ivc.out_port >= ports ||
                                  ivc.out_vc < 0 ||
                                  ivc.out_vc >= config_.vcs
                            : ivc.routed || ivc.out_port != -1 ||
                                  ivc.out_vc != -1)
            d.fail("malformed route");
        for (std::uint32_t i = ivc.head; i != ivc.tail + staged; ++i) {
            const Flit flit = loadFlit(d);
            if (flit.vc != unit_vc_[static_cast<std::size_t>(u)])
                d.fail("flit VC differs from its ring's");
            if (flit.dst >= topo_.nodeCount())
                d.fail("flit destination past the last node");
            ivc.slots[i & ivc.mask] = flit;
        }
        *buffered_ += held;
        if (held != 0) {
            vc_occupied_ |= 1u << u;
            if (!ivc.routed)
                alloc_pending_ |= 1u << u;
        }
    }
    for (int u = 0; u < units; ++u) {
        const auto owner = d.getBelowOr<std::int8_t>(units, -1);
        outputs_[static_cast<std::size_t>(u)].owner = owner;
        if (owner != -1)
            owned_ports_ |= 1u << unit_port_[static_cast<std::size_t>(u)];
    }
    ready_ports_ = owned_ports_;
    for (int p = 0; p < ports; ++p)
        next_vc_[static_cast<std::size_t>(p)] =
            d.getBelow<std::int8_t>(config_.vcs);
    // The allocation scan's start is a pure function of the tick; a
    // cleared cache recomputes it on the next scan.
    rr_now_ = 0;
    rr_start_ = 0;
    for (int p = 0; p < ports; ++p)
        output_flits_[static_cast<std::size_t>(p)].loadState(d);
    alloc_stalls_.loadState(d);
}

std::size_t
Router::bufferedFlits() const
{
    return *buffered_;
}

} // namespace net
} // namespace locsim
