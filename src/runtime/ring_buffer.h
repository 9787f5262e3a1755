#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace lfbs::runtime {

/// Bounded queue with explicit backpressure. The decode runtime uses one
/// instance as the SPSC chunk ring (ingest thread → window slicer) and
/// one as the single-producer / multi-consumer window job queue (slicer
/// → worker pool); the mutex implementation is safe for both shapes.
/// There is one overflow policy: push() blocks until space frees, so the
/// ring never loses an item. A remote pusher is held back by TCP flow
/// control (net::RemoteIqSource); a gap in a source's own stream reaches
/// the slicer as a position jump, which it zero-fills.
///
/// Locking is a plain mutex + two condvars: the decode pipeline moves
/// whole chunks/windows (tens of thousands of samples each), so queue
/// operations are nowhere near hot enough to justify a lock-free ring,
/// and a mutex keeps the structure trivially TSan-clean.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  /// Blocking push. Returns false (item discarded) only if the ring was
  /// closed while waiting.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    ++pushed_;
    high_watermark_ = std::max(high_watermark_, queue_.size());
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; std::nullopt once the ring is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// No more pushes; consumers drain what remains, producers unblock.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t pushed() const {
    std::lock_guard lock(mutex_);
    return pushed_;
  }
  /// Deepest the queue has ever been — memory boundedness evidence.
  std::size_t high_watermark() const {
    std::lock_guard lock(mutex_);
    return high_watermark_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  std::size_t pushed_ = 0;
  std::size_t high_watermark_ = 0;
};

}  // namespace lfbs::runtime
