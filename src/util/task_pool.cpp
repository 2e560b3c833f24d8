#include "util/task_pool.hpp"

namespace fxg::util {

TaskPool::TaskPool(int initial_threads) {
    if (initial_threads > 0) ensure_threads(initial_threads);
}

TaskPool::~TaskPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
}

int TaskPool::thread_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size());
}

TaskPool& TaskPool::shared() {
    // Intentionally leaked. A plain function-local static would be
    // destroyed during static destruction — before destructors of
    // earlier-constructed objects (and detached threads racing process
    // teardown) that may still schedule a batch, handing them a joined
    // pool whose mutex is gone. Leaking keeps shared() valid for the
    // whole process lifetime; the workers and their stacks are
    // reclaimed by process exit.
    static TaskPool* pool = new TaskPool();
    return *pool;
}

void TaskPool::ensure_threads(int count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < count) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void TaskPool::drain(const std::shared_ptr<Batch>& batch) {
    for (;;) {
        int i;
        {
            const std::lock_guard<std::mutex> lock(batch->mutex);
            if (batch->next >= batch->n) return;
            i = batch->next++;
        }
        (*batch->fn)(i);
        {
            const std::lock_guard<std::mutex> lock(batch->mutex);
            if (--batch->remaining == 0) batch->done.notify_all();
        }
    }
}

void TaskPool::worker_loop() {
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping, nothing left to help with
            batch = std::move(queue_.front());
            queue_.pop_front();
        }
        drain(batch);
    }
}

void TaskPool::parallel_for(int n, int max_workers,
                            const std::function<void(int)>& fn) {
    if (n <= 0) return;
    if (max_workers > n) max_workers = n;
    if (max_workers <= 1 || n == 1) {
        for (int i = 0; i < n; ++i) fn(i);
        return;
    }

    // The caller is one of the max_workers executors; the pool supplies
    // the rest. One queue entry per helper caps the batch's concurrency
    // without dedicating threads: a helper that arrives after the
    // cursor drained simply finds no work and moves on. Workers pinned
    // by long-running posted tasks don't count toward the helpers.
    const int helpers = max_workers - 1;
    int target;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        target = helpers + detached_active_;
    }
    ensure_threads(target);

    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->n = n;
    batch->remaining = n;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (int e = 0; e < helpers; ++e) queue_.push_back(batch);
    }
    wake_.notify_all();

    drain(batch);
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
}

std::future<void> TaskPool::post(std::function<void()> task) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    auto batch = std::make_shared<Batch>();
    batch->owned_fn = [this, done, task = std::move(task)](int) {
        task();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --detached_active_;
        }
        done->set_value();
    };
    batch->fn = &batch->owned_fn;
    batch->n = 1;
    batch->remaining = 1;
    int target;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++detached_active_;
        // One worker per active posted task, plus one kept free so a
        // concurrent parallel_for always has a helper to recruit.
        target = detached_active_ + 1;
        queue_.push_back(std::move(batch));
    }
    ensure_threads(target);
    wake_.notify_one();
    return finished;
}

}  // namespace fxg::util
