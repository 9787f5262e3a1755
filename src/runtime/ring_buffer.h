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
/// The producer picks the overflow policy per call:
///
///   - push() blocks until space frees (lossless — file replay, in-memory
///     decode, anything that may stall the producer),
///   - offer() never blocks: when full it drops the item and counts it
///     (live capture, where stalling the producer would lose samples at
///     the ADC instead — §2's 25 Msps feed does not wait).
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
    enqueue_locked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: drops the item (counted) when the ring is full.
  bool offer(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      if (queue_.size() >= capacity_) {
        ++dropped_;
        return false;
      }
      enqueue_locked(std::move(item));
    }
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
    ++popped_;
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

  std::size_t capacity() const { return capacity_; }
  std::size_t depth() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }
  std::size_t pushed() const {
    std::lock_guard lock(mutex_);
    return pushed_;
  }
  std::size_t popped() const {
    std::lock_guard lock(mutex_);
    return popped_;
  }
  std::size_t dropped() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }
  /// Deepest the queue has ever been — memory boundedness evidence.
  std::size_t high_watermark() const {
    std::lock_guard lock(mutex_);
    return high_watermark_;
  }

 private:
  void enqueue_locked(T&& item) {
    queue_.push_back(std::move(item));
    ++pushed_;
    high_watermark_ = std::max(high_watermark_, queue_.size());
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  std::size_t pushed_ = 0;
  std::size_t popped_ = 0;
  std::size_t dropped_ = 0;
  std::size_t high_watermark_ = 0;
};

}  // namespace lfbs::runtime
