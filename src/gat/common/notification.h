#ifndef GAT_COMMON_NOTIFICATION_H_
#define GAT_COMMON_NOTIFICATION_H_

#include <condition_variable>
#include <mutex>
#include <utility>

namespace gat {

/// A one-shot event: one thread blocks in `Wait()` until another calls
/// `Notify()`. Built for the "block this thread until an async
/// completion fires" wait, where the event is a local of the waiting
/// frame and dies the moment `Wait()` returns.
///
/// That is safe because `Notify()` wakes the waiter while it still
/// holds the mutex: the waiter cannot observe the flag — and so cannot
/// return and reuse its frame — before the notifier has released the
/// lock, and releasing it is the notifier's last access. Waking after
/// the unlock instead would let a waiter that checks the flag between
/// the two return first, so the late wake-up writes into whatever the
/// waiter's stack holds by then.
class Notification {
 public:
  /// Sets the flag and wakes the waiter. Call at most once.
  void Notify() { Notify([] {}); }

  /// As `Notify()`, running `before_wake` under the lock after the flag
  /// is set and before the wake-up — a test seam that holds the
  /// notifier inside the window a wake-after-unlock would leave open.
  template <typename Fn>
  void Notify(Fn&& before_wake) {
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
    std::forward<Fn>(before_wake)();
    cv_.notify_all();
  }

  /// Blocks until `Notify()` has set the flag and released the lock
  /// (returns at once if it already has). The object may be destroyed
  /// right after.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return notified_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool notified_ = false;
};

}  // namespace gat

#endif  // GAT_COMMON_NOTIFICATION_H_
