/**
 * @file
 * Batched lockstep multi-simulation: K independent machines of the
 * same topology shape advancing together through one hot loop.
 *
 * The paper's studies are sweeps of independent simulations differing
 * only in seed, mapping, or context count on one topology shape. A
 * MachineBatch runs K of them as lanes of a single execution: all
 * lanes register their components with one set of shard engines, so
 * the engine's clocked scan, rotation and quiescence machinery run
 * once over the whole batch. Each lane owns its own fabric.
 *
 * Batching is an execution detail, invisible to results: lanes share
 * no simulation state, so each lane's statistics, sampled series, and
 * checkpoints are bit-identical to the same configuration run solo
 * (locked in by tests/batch_test.cc). The one observable-in-principle
 * difference is quiescence: the shared engine skips only when every
 * lane is idle, so a lane that could have skipped is instead stepped
 * through its idle stretch — which Reference-mode equivalence already
 * proves is behaviour-preserving, and skipped ticks are credited
 * identically either way.
 *
 * Requirements on the lanes: identical topology shape (radix, dims,
 * wraparound), clock ratio, router configuration, stepping mode, and
 * resolved shard count — everything that shapes the shared engines.
 * Workload, mapping, context count, and sampling may vary
 * per lane. Tracing is incompatible (a tracer is per engine, and the
 * engines are shared).
 */

#ifndef LOCSIM_MACHINE_BATCH_HH_
#define LOCSIM_MACHINE_BATCH_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/machine.hh"

namespace locsim {
namespace machine {

/** One lane of a batch: a machine configuration plus its mapping. */
struct BatchLaneSpec
{
    MachineConfig config;
    workload::Mapping mapping;
};

/** K same-shape machines advancing in lockstep over shared engines. */
class MachineBatch : private sim::LockstepSerial
{
  public:
    /** Fatal on an empty batch or non-uniform lane shapes. */
    explicit MachineBatch(const std::vector<BatchLaneSpec> &specs);
    ~MachineBatch();

    MachineBatch(const MachineBatch &) = delete;
    MachineBatch &operator=(const MachineBatch &) = delete;

    int lanes() const { return static_cast<int>(machines_.size()); }
    Machine &lane(int l) { return *machines_[static_cast<std::size_t>(l)]; }

    /** Resolved shard count shared by every lane. */
    int shards() const { return static_cast<int>(engines_.size()); }

    /** Advance every lane @p cycles processor cycles. */
    void advance(std::uint64_t cycles);

    /** Reset stats, advance @p window processor cycles, and report
     *  one Measurement per lane (indexed like the specs). */
    std::vector<Measurement> measure(std::uint64_t window);

    /** advance(warmup) + measure(window). */
    std::vector<Measurement> run(std::uint64_t warmup,
                                 std::uint64_t window);

    /**
     * Restore every lane from per-lane solo checkpoint images (see
     * Machine::saveCheckpoint). All images must be at the same
     * timeline position — lanes share engines, and the shared
     * timeline is restored once before any lane's components re-arm
     * their wakeups. Must be called before any advance.
     *
     * @throws std::runtime_error on malformed or mismatched images.
     */
    void restoreCheckpoints(
        const std::vector<std::vector<std::uint8_t>> &images);

  private:
    void runTicks(sim::Tick ticks);

    // sim::LockstepSerial: the batch's serial work is every lane's
    // sampler, each with its own due schedule.
    bool serialDue(sim::Tick now) const override;
    void serialTick(sim::Tick now) override;
    void serialSkip(sim::Tick target) override;

    std::vector<std::unique_ptr<sim::Engine>> owned_engines_;
    std::vector<sim::Engine *> engines_;
    std::unique_ptr<runner::ThreadPool> shard_pool_;
    std::vector<std::unique_ptr<Machine>> machines_;
    bool reference_ = false;
    std::uint32_t ratio_ = 1;
    /** Head lane's profiler (shared-phase wiring; may be null). */
    obs::Profiler *profiler_ = nullptr;
};

} // namespace machine
} // namespace locsim

#endif // LOCSIM_MACHINE_BATCH_HH_
