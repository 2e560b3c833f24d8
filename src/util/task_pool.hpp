#pragma once

/// \file task_pool.hpp
/// A persistent worker-thread pool with a parallel-for work queue.
///
/// CompassFleet used to spin up (and join) a fresh std::thread vector
/// on every measure_all() call — fine for huge batches, pure overhead
/// for small ones. A TaskPool keeps its workers alive across calls:
/// submitting a batch costs one lock and a condition-variable notify
/// instead of N thread creations. Workers drain an atomic index
/// cursor, so items are distributed by work stealing exactly as the
/// old per-call pool did — results are a pure function of the items,
/// never of the thread count.
///
/// parallel_for(n, max_workers, fn) blocks until fn(0..n-1) all
/// returned. At most `max_workers` threads execute items concurrently
/// (the calling thread participates as one of them, so the pool
/// contributes max_workers - 1); exceptions must be handled inside
/// `fn` — a throwing item terminates, by design, because silently
/// losing items would corrupt batch results.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fxg::util {

/// Persistent pool; grows on demand up to the largest worker count any
/// parallel_for has asked for.
class TaskPool {
public:
    /// \param initial_threads workers to spawn up front; 0 = lazy (the
    ///        first parallel_for spawns what it needs).
    explicit TaskPool(int initial_threads = 0);

    /// Joins all workers (pending batches finish first — parallel_for
    /// is synchronous, so by construction none are pending).
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /// Runs fn(i) for every i in [0, n), returning when all calls have
    /// completed. Up to `max_workers` threads run items concurrently,
    /// the caller included; max_workers <= 1 (or n <= 1) runs serially
    /// on the calling thread without touching the pool.
    void parallel_for(int n, int max_workers, const std::function<void(int)>& fn);

    /// Runs `task` once on a pool worker and returns immediately. The
    /// pool grows so that long-running posted tasks (e.g. an
    /// introspection server's accept loop) never starve parallel_for
    /// batches: one extra worker is kept available per active posted
    /// task. A posted task must return before the pool is destroyed —
    /// the destructor joins workers, so a task that outlives its
    /// submitter's stop() call would deadlock teardown; waiting on the
    /// returned future (ready once the task has returned) ensures it.
    /// shared() is never destroyed and is exempt from that concern.
    std::future<void> post(std::function<void()> task);

    /// Workers currently alive.
    [[nodiscard]] int thread_count() const;

    /// The process-wide shared pool (lazily constructed, sized on
    /// demand). Fleets default to scheduling through this instance so
    /// every batch in the process reuses one set of workers.
    ///
    /// Lifetime contract: the instance is intentionally *leaked* — it
    /// is never destroyed, so shared() stays valid through static
    /// destruction (a fleet measurement running from a destructor at
    /// process teardown must not touch a joined pool). Its worker
    /// threads are reclaimed by process exit. Code that needs
    /// deterministic worker shutdown should own its own TaskPool.
    [[nodiscard]] static TaskPool& shared();

private:
    /// One in-flight parallel_for: an index cursor workers steal from.
    struct Batch {
        std::mutex mutex;
        std::condition_variable done;
        const std::function<void(int)>* fn = nullptr;
        /// Detached batches (post) own their function; `fn` points here.
        std::function<void(int)> owned_fn;
        int n = 0;
        int next = 0;       ///< next unclaimed index (under mutex)
        int remaining = 0;  ///< items not yet completed
    };

    void ensure_threads(int count);
    void worker_loop();
    /// Claims and runs items from `batch` until its cursor is drained.
    static void drain(const std::shared_ptr<Batch>& batch);

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::shared_ptr<Batch>> queue_;  ///< batches with unclaimed items
    std::vector<std::thread> workers_;
    int detached_active_ = 0;  ///< posted tasks not yet finished (under mutex_)
    bool stopping_ = false;
};

}  // namespace fxg::util
