// A value built on first use and then shared: the lazy artifacts of a
// Pattern (searcher, reverse begins, SFA).
//
// std::call_once would do, except where the build throws: a build that
// trips ResourceExhausted must leave the slot empty so a later call can
// retry (possibly with a bigger budget), and under ThreadSanitizer a
// call_once whose callable threw hangs the next call_once on that flag.
// So the slot is a mutex-guarded optional with an acquire/release ready
// flag in front: built values are read without the lock, and a throwing
// build leaves the slot exactly as empty as before.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>

namespace rispar {

template <typename T>
class LazySlot {
 public:
  /// The value, built first if the slot is empty: `fill(std::optional<T>&)`
  /// emplaces it (in place, so a value that refers to itself stays valid).
  /// Concurrent first calls build once; a throwing fill leaves the slot
  /// empty and rethrows, and the next call runs its own fill.
  template <typename Fill>
  const T& get(Fill&& fill) const {
    if (ready_.load(std::memory_order_acquire)) return *value_;
    std::lock_guard lock(mutex_);
    if (!value_.has_value()) {
      try {
        fill(value_);
      } catch (...) {
        value_.reset();
        throw;
      }
      ready_.store(true, std::memory_order_release);
    }
    return *value_;
  }

  /// The value if it has been built, else nullptr; never builds.
  const T* peek() const {
    return ready_.load(std::memory_order_acquire) ? &*value_ : nullptr;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::optional<T> value_;
  mutable std::atomic<bool> ready_{false};
};

}  // namespace rispar
