/**
 * @file
 * Processor implementation.
 */

#include "proc/processor.hh"

#include "util/logging.hh"

namespace locsim {
namespace proc {

Processor::Processor(coher::CacheController &controller,
                     const ProcessorConfig &config,
                     std::vector<ThreadProgram *> programs)
    : controller_(controller), config_(config)
{
    LOCSIM_ASSERT(config.contexts >= 1, "need at least one context");
    LOCSIM_ASSERT(programs.size() ==
                      static_cast<std::size_t>(config.contexts),
                  "one program per context required: got ",
                  programs.size(), " for ", config.contexts,
                  " contexts");
    contexts_.resize(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        Context &ctx = contexts_[i];
        LOCSIM_ASSERT(programs[i] != nullptr, "null thread program");
        ctx.program = programs[i];
        ctx.op = ctx.program->start();
        ctx.compute_remaining = ctx.op.compute_cycles;
        ctx.state = ctx.compute_remaining > 0 ? CtxState::Computing
                                              : CtxState::ReadyToIssue;
    }
    controller_.setClient(this, config.contexts);
}

void
Processor::memComplete(const coher::MemResponse &resp)
{
    Context &blocked =
        contexts_[static_cast<std::size_t>(resp.context)];
    LOCSIM_ASSERT(blocked.state == CtxState::WaitingMem,
                  "completion for a context that is not waiting");
    blocked.state = CtxState::ReadyToResume;
    blocked.resume_value = resp.load_value;
}

bool
Processor::runnable(const Context &ctx) const
{
    return ctx.state != CtxState::WaitingMem;
}

bool
Processor::allBlocked() const
{
    for (const Context &ctx : contexts_) {
        if (runnable(ctx))
            return false;
    }
    return true;
}

int
Processor::findRunnable(int after) const
{
    const int n = static_cast<int>(contexts_.size());
    for (int i = 1; i <= n; ++i) {
        const int candidate = (after + i) % n;
        if (candidate != after &&
            runnable(contexts_[static_cast<std::size_t>(candidate)]))
            return candidate;
    }
    return -1;
}

void
Processor::startSwitch(int target)
{
    LOCSIM_ASSERT(target != active_, "switching to the active context");
    if (tracer_ != nullptr) {
        tracer_->complete(
            trace_track_, now_,
            static_cast<sim::Tick>(config_.switch_cycles) *
                trace_ticks_per_cycle_,
            "ctx_switch", obs::Category::Proc,
            std::move(obs::Args().add("from", active_).add("to", target))
                .str());
    }
    active_ = target;
    switch_remaining_ = config_.switch_cycles;
    stats_.switches.inc();
}

void
Processor::advance(Context &ctx, std::uint64_t result)
{
    ctx.op = ctx.program->next(result);
    ctx.compute_remaining = ctx.op.compute_cycles;
    ctx.state = ctx.compute_remaining > 0 ? CtxState::Computing
                                          : CtxState::ReadyToIssue;
}

void
Processor::issue(int ctx_index)
{
    Context &ctx = contexts_[static_cast<std::size_t>(ctx_index)];
    stats_.ops.inc();

    coher::MemRequest req;
    req.is_store = ctx.op.kind == Op::Kind::Store;
    req.addr = ctx.op.addr;
    req.store_value = ctx.op.store_value;
    req.context = ctx_index;

    if (ctx.op.kind == Op::Kind::Prefetch) {
        // Fire and forget: a hit needs nothing; a miss starts the
        // coherence transaction but the thread does not wait for it.
        if (!controller_.tryFastPath(req)) {
            req.wants_reply = false;
            controller_.request(req);
        }
        advance(ctx, 0);
        return;
    }

    if (auto fast = controller_.tryFastPath(req)) {
        // Cache hit: the access completes within the issue cycle.
        advance(ctx, fast->load_value);
        return;
    }

    ctx.state = CtxState::WaitingMem;
    controller_.request(req);

    // Block multithreading: switch away if another context can run.
    if (contexts_.size() > 1) {
        const int target = findRunnable(ctx_index);
        if (target >= 0)
            startSwitch(target);
    }
}

void
Processor::tick(sim::Tick now)
{
    now_ = now;
    if (switch_remaining_ > 0) {
        --switch_remaining_;
        stats_.switch_cycles.inc();
        return;
    }

    Context &active = contexts_[static_cast<std::size_t>(active_)];
    switch (active.state) {
      case CtxState::Computing:
        stats_.work_cycles.inc();
        --active.compute_remaining;
        if (active.compute_remaining == 0)
            active.state = CtxState::ReadyToIssue;
        return;
      case CtxState::ReadyToIssue:
        issue(active_);
        return;
      case CtxState::ReadyToResume:
        advance(active, active.resume_value);
        return;
      case CtxState::WaitingMem: {
        // The active context is blocked. Switch if someone else can
        // run; otherwise idle until a completion arrives.
        if (contexts_.size() > 1) {
            const int target = findRunnable(active_);
            if (target >= 0) {
                startSwitch(target);
                return;
            }
        }
        stats_.idle_cycles.inc();
        return;
      }
    }
}

void
Processor::saveState(util::Serializer &s) const
{
    s.put<std::uint64_t>(contexts_.size());
    for (const Context &ctx : contexts_) {
        s.put(ctx.state);
        s.put(ctx.compute_remaining);
        saveOp(s, ctx.op);
        s.put(ctx.resume_value);
    }
    s.put(active_);
    s.put(switch_remaining_);
    stats_.saveState(s);
    s.put(now_);
}

void
Processor::loadState(util::Deserializer &d)
{
    if (d.get<std::uint64_t>() != contexts_.size())
        d.fail("processor context count mismatch");
    for (Context &ctx : contexts_) {
        ctx.state = d.getEnum(CtxState::ReadyToResume);
        ctx.compute_remaining = d.get<std::uint32_t>();
        ctx.op = loadOp(d);
        ctx.resume_value = d.get<std::uint64_t>();
    }
    active_ = d.getBelow<int>(contexts_.size());
    switch_remaining_ = d.get<std::uint32_t>();
    stats_.loadState(d);
    now_ = d.get<sim::Tick>();
}

} // namespace proc
} // namespace locsim
