/**
 * @file
 * ThreadPool implementation.
 */

#include "runner/runner.hh"

#include <algorithm>
#include <stdexcept>

#include "util/options.hh"

namespace locsim {
namespace runner {

int
defaultThreads()
{
    // LOCSIM_THREADS caps parallelism machine-wide (useful on shared
    // build boxes and in CI); otherwise use every hardware thread.
    const unsigned hw = std::thread::hardware_concurrency();
    return util::envPositiveInt("LOCSIM_THREADS",
                                hw == 0 ? 1 : static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] {
        return queue_.empty() && in_progress_ == 0;
    });
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        bool cancelled = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_progress_;
            // Fail fast: once a job has thrown, drain the remaining
            // queue without executing (their result slots keep their
            // default values; wait() is about to rethrow anyway).
            cancelled = first_error_ != nullptr;
        }
        std::exception_ptr error;
        if (!cancelled) {
            try {
                job();
            } catch (...) {
                error = std::current_exception();
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_progress_;
            if (error && !first_error_)
                first_error_ = error;
            if (queue_.empty() && in_progress_ == 0)
                all_done_.notify_all();
        }
    }
}

} // namespace runner
} // namespace locsim
