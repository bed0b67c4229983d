#include "gat/engine/executor.h"

#include <chrono>
#include <utility>

namespace gat {

uint32_t ResolveThreadCount(uint32_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Executor::Executor(uint32_t threads) : threads_(ResolveThreadCount(threads)) {
  workers_.reserve(threads_);
  for (uint32_t w = 0; w < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

Executor& Executor::Default() {
  static Executor executor(0);
  return executor;
}

void Executor::Enqueue(QueuedTask task, TaskPriority priority) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  // Wake under the lock: Deferred::Resume enqueues from I/O completion
  // threads, and once the task is visible it can run, finish its group
  // and let the owner destroy this executor before a late wake-up.
  std::lock_guard<std::mutex> lock(mu_);
  queues_[static_cast<size_t>(priority)].push_back(std::move(task));
  cv_.notify_one();
}

Executor::QueuedTask Executor::PopLocked() {
  // Strict priority: every queued kHigh task runs before any kLow one.
  std::deque<QueuedTask>& q = !queues_[0].empty() ? queues_[0] : queues_[1];
  QueuedTask task = std::move(q.front());
  q.pop_front();
  return task;
}

bool Executor::RunOneTask(TaskGroup* only_from) {
  QueuedTask task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (only_from == nullptr) {
      if (!HasQueued()) return false;
      task = PopLocked();
    } else {
      // Help only the caller's group: a waiter must never spend its
      // (possibly timed) wait executing a stranger's task. A group's
      // tasks all share one priority class, but scan both queues so the
      // helper finds its work regardless of class. The queues are
      // fan-out-sized, so the scan is short.
      bool found = false;
      for (auto& queue : queues_) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->group == only_from) {
            task = std::move(*it);
            queue.erase(it);
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
  }
  task.fn();
  return true;
}

void Executor::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || HasQueued(); });
      // Drain the queues before honoring stop: a group destroyed right
      // before the executor must still see its tasks finish.
      if (!HasQueued()) return;
      task = PopLocked();
    }
    task.fn();
  }
}

void TaskGroup::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  executor_.Enqueue(Executor::QueuedTask{
                        [this, fn = std::move(fn)] {
                          fn();
                          OnTaskDone();
                        },
                        this},
                    priority_);
}

TaskGroup::Deferred TaskGroup::Defer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  return Deferred(this);
}

void TaskGroup::Deferred::Resume(std::function<void()> fn) const {
  // The pending slot was charged by Defer(); enqueue without
  // re-incrementing, exactly mirroring Submit's wrapper otherwise. The
  // group's waiter either helps this task from the queue or is woken by
  // OnTaskDone within its 1 ms wait lease.
  TaskGroup* group = group_;
  group->executor_.Enqueue(Executor::QueuedTask{
                               [group, fn = std::move(fn)] {
                                 fn();
                                 group->OnTaskDone();
                               },
                               group},
                           group->priority_);
}

void TaskGroup::Wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) return;
    }
    // Help: run this group's queued tasks instead of parking. Only when
    // none are queued — the stragglers are mid-flight on other threads —
    // does this thread actually block.
    if (executor_.RunOneTask(this)) continue;
    std::unique_lock<std::mutex> lock(mu_);
    // Re-check under the lock, then sleep with a short lease: a task
    // running on another thread may enqueue helpable subtasks after the
    // queue looked empty, and the timeout turns that race into a bounded
    // stall instead of a missed wakeup.
    done_cv_.wait_for(lock, std::chrono::milliseconds(1),
                      [this] { return pending_ == 0; });
    if (pending_ == 0) return;
  }
}

void TaskGroup::OnTaskDone() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) done_cv_.notify_all();
}

}  // namespace gat
