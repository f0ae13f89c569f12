/**
 * @file
 * Latched FIFO channels for cycle-driven simulation.
 *
 * A Channel is the engine's general latched link between clocked
 * components (the network fabric keeps the same contract without
 * channel objects, see net/router.hh). A value pushed during cycle t
 * becomes visible to the
 * consumer no earlier than cycle t+1 (the engine rotates the channel
 * at the end of the tick in which it was pushed). This gives clean
 * two-phase semantics: the order in which components are ticked within
 * a cycle cannot affect simulation results.
 *
 * Rotation is activity-tracked: a channel marks itself dirty on the
 * first push of a cycle and (when bound to an engine) appends itself
 * to the engine's dirty list, so the engine only rotates channels
 * that actually staged values this cycle. A channel with an empty
 * staging queue is invariant under rotate(), so skipping clean
 * channels is exactly equivalent to the rotate-everything reference
 * behaviour.
 */

#ifndef LOCSIM_SIM_CHANNEL_HH_
#define LOCSIM_SIM_CHANNEL_HH_

#include <cstddef>
#include <deque>
#include <vector>

#include "util/logging.hh"

namespace locsim {
namespace sim {

/**
 * Type-erased interface the engine uses to rotate channels.
 *
 * Holds the per-cycle dirty flag and the (engine-owned) dirty list a
 * channel enrols itself in on the first push of a cycle. Channels not
 * bound to an engine (unit tests driving rotate() by hand) simply
 * keep the flag local.
 */
class Rotatable
{
  public:
    virtual ~Rotatable() = default;

    /** Move this cycle's pushes into the visible queue. */
    virtual void rotate() = 0;

    /**
     * Bind this channel to an engine's dirty list. Called by
     * Engine::addChannel; the list must outlive the channel's use.
     */
    void bindDirtyList(std::vector<Rotatable *> *list)
    {
        dirty_list_ = list;
    }

    /** True if values were staged since the last rotate(). */
    bool dirty() const { return dirty_; }

  protected:
    /** Record a push; enrols in the engine's dirty list once per cycle. */
    void
    markDirty()
    {
        if (dirty_)
            return;
        dirty_ = true;
        if (dirty_list_ != nullptr)
            dirty_list_->push_back(this);
    }

    /** Cleared by rotate() implementations. */
    bool dirty_ = false;

  private:
    std::vector<Rotatable *> *dirty_list_ = nullptr;
};

/**
 * A bounded FIFO with one cycle of latching delay.
 *
 * Capacity limits the total occupancy (visible + in-flight). Producers
 * must check canPush() before pushing; consumers check empty() before
 * popping. This models a buffered physical channel: capacity
 * corresponds to buffer slots on the receiving side.
 */
template <typename T>
class Channel : public Rotatable
{
  public:
    /** @param capacity maximum occupancy; 0 means unbounded. */
    explicit Channel(std::size_t capacity = 0) : capacity_(capacity) {}

    /** True if a push this cycle would not exceed capacity. */
    bool
    canPush() const
    {
        return capacity_ == 0 || size() < capacity_;
    }

    /** Enqueue a value; becomes visible after the next rotate(). */
    void
    push(T value)
    {
        LOCSIM_ASSERT(canPush(), "push on full channel");
        staged_.push_back(std::move(value));
        markDirty();
    }

    /** True if no value is currently visible to the consumer. */
    bool empty() const { return visible_.empty(); }

    /** Peek the oldest visible value. */
    const T &
    front() const
    {
        LOCSIM_ASSERT(!empty(), "front() on empty channel");
        return visible_.front();
    }

    /** Dequeue the oldest visible value. */
    T
    pop()
    {
        LOCSIM_ASSERT(!empty(), "pop() on empty channel");
        T value = std::move(visible_.front());
        visible_.pop_front();
        return value;
    }

    /** Total occupancy: visible plus staged. */
    std::size_t size() const { return visible_.size() + staged_.size(); }

    /** Number of values currently visible to the consumer. */
    std::size_t visibleSize() const { return visible_.size(); }

    std::size_t capacity() const { return capacity_; }

    void
    rotate() override
    {
        dirty_ = false;
        // Invariant: rotation drains the staging queue completely, so
        // when the visible queue is empty the whole staged contents
        // become the visible contents — an O(1) deque swap instead of
        // an element-by-element move.
        if (visible_.empty()) {
            visible_.swap(staged_);
            return;
        }
        while (!staged_.empty()) {
            visible_.push_back(std::move(staged_.front()));
            staged_.pop_front();
        }
    }

    /** Discard all contents (for reuse between runs). */
    void
    clear()
    {
        visible_.clear();
        staged_.clear();
        dirty_ = false;
    }

  private:
    std::size_t capacity_;
    std::deque<T> visible_;
    std::deque<T> staged_;
};

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_CHANNEL_HH_
