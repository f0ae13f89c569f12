/**
 * @file
 * A thread-pool runner for embarrassingly parallel experiment sweeps.
 *
 * Every harness in this repository reduces to "run K independent
 * simulations, collect K result structs": each simulation owns its
 * Engine, Network, and RNG state, so runs share nothing and can
 * execute concurrently. The runner distributes the runs over a pool
 * of worker threads while keeping results in submission order, so a
 * sweep's output is bit-identical regardless of the thread count
 * (including 1, which degenerates to the old sequential loop).
 *
 * Determinism contract: the job function must derive all randomness
 * from its index (per-run seeds), never from shared mutable state,
 * and must write only to its own result slot.
 */

#ifndef LOCSIM_RUNNER_RUNNER_HH_
#define LOCSIM_RUNNER_RUNNER_HH_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/ring_queue.hh"

namespace locsim {
namespace runner {

/** Worker threads to use when the caller passes 0 ("all cores"). */
int defaultThreads();

/**
 * A fixed-size pool executing submitted jobs in FIFO order.
 *
 * Exceptions thrown by jobs are captured; the first one (in
 * completion order) is rethrown from wait(). Once a job has thrown,
 * the pool fails fast: jobs still queued are dequeued but not
 * executed (their result slots keep their default-constructed
 * values), so a long sweep does not burn hours after its first
 * failure. Jobs already running are allowed to finish; their
 * exceptions, if any, are dropped.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; <= 0 selects defaultThreads(). */
    explicit ThreadPool(int threads = 0);

    /** Joins all workers (waits for the queue to drain). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** Enqueue @p job for execution on some worker. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished; rethrows the
     * first captured job exception, if any. The pool remains usable
     * for further submissions afterwards.
     */
    void wait();

    /**
     * Run @p fn(0..count-1) to completion, one long-lived invocation
     * per lane: lanes 1..count-1 run on pool workers while lane 0 runs
     * on the calling thread. Returns (and rethrows the first captured
     * exception) once every lane has finished.
     *
     * This is the entry point for cooperating workers that synchronize
     * among themselves (e.g. barrier-stepped simulation shards): each
     * lane is dispatched through the queue exactly once for the whole
     * region, so the per-job queue/condition-variable round trip
     * (~1-2 us) is paid once instead of once per synchronization
     * window. Because the lanes may wait on each other, all of them
     * must be running concurrently: @p count - 1 must not exceed
     * threadCount(), and the pool must be otherwise idle.
     *
     * Templated so the (often large) lane closure is captured by
     * pointer: the per-lane job handed to submit() is then a 16-byte
     * trivially-copyable capture that fits std::function's inline
     * buffer, keeping the hot sharded-run path allocation-free.
     */
    template <typename Fn>
    void
    parallelRegion(int count, Fn &&fn)
    {
        if (count <= 0)
            return;
        if (count - 1 > threadCount()) {
            throw std::runtime_error(
                "parallelRegion: lanes exceed pool size (lanes wait "
                "on each other, so all must run concurrently)");
        }
        for (int lane = 1; lane < count; ++lane)
            submit([&fn, lane] { fn(lane); });
        // Lane 0 runs here: the caller participates instead of
        // blocking, so a K-lane region needs only K-1 pool workers.
        std::exception_ptr error;
        try {
            fn(0);
        } catch (...) {
            error = std::current_exception();
        }
        wait();
        if (error)
            std::rethrow_exception(error);
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable all_done_;
    util::RingQueue<std::function<void()>> queue_;
    std::size_t in_progress_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
    std::vector<std::thread> workers_;
};

/**
 * Evaluate @p fn(0..count-1) across @p threads workers and return the
 * results indexed by input position.
 *
 * The result type must be default-constructible (slots are
 * pre-allocated so workers never contend on the output vector).
 * Rethrows the first job exception after all jobs finish.
 */
template <typename Fn>
auto
parallelMap(std::size_t count, Fn &&fn, int threads = 0)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using Result = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<Result> results(count);
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&results, &fn, i] { results[i] = fn(i); });
    }
    pool.wait();
    return results;
}

/** parallelMap for jobs with side effects only (no result vector). */
template <typename Fn>
void
parallelForEach(std::size_t count, Fn &&fn, int threads = 0)
{
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < count; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace runner
} // namespace locsim

#endif // LOCSIM_RUNNER_RUNNER_HH_
