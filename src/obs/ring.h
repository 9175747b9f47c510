// PerThreadRings — the bounded per-thread buffer under the trace and log
// recorders: one fixed-capacity ring per (writing thread, owner), each
// with its own mutex so writers and drains never race on slots. A full
// ring overwrites its oldest entry and counts a drop. drain() is
// consuming and serialized — concurrent drains each get a complete,
// disjoint batch — and merges the rings oldest-first by a stable sort on
// `ts_ns`. T needs `ts_ns` and a `tid` field, which push() stamps with
// the ring's dense per-owner writer-thread id (from 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace nyqmon::obs {

template <typename T>
class PerThreadRings {
 public:
  explicit PerThreadRings(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {
    static std::atomic<std::uint64_t> next_uid{1};
    uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append `item` to the calling thread's ring, stamping its `tid`.
  /// Returns true when the ring was full and its oldest entry was
  /// overwritten (counted in dropped()).
  bool push(T item) {
    Ring& ring = local_ring();
    const std::lock_guard<std::mutex> lock(ring.mu);
    item.tid = ring.tid;
    const bool overwrote = ring.written >= ring.slots.size();
    if (overwrote) dropped_.fetch_add(1, std::memory_order_relaxed);
    ring.slots[ring.head] = std::move(item);
    ring.head = (ring.head + 1) % ring.slots.size();
    ++ring.written;
    return overwrote;
  }

  /// Move every buffered entry out, merged in `ts_ns` order.
  std::vector<T> drain() {
    const std::lock_guard<std::mutex> drain_lock(drain_mu_);
    std::vector<T> out;
    const std::lock_guard<std::mutex> rings_lock(rings_mu_);
    for (const auto& ring : rings_) {
      const std::lock_guard<std::mutex> lock(ring->mu);
      const std::size_t cap = ring->slots.size();
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(ring->written, cap));
      // Oldest-first: a wrapped ring starts at head (the next overwrite
      // target is the oldest survivor), an unwrapped one at slot 0.
      const std::size_t start = ring->written > cap ? ring->head : 0;
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(std::move(ring->slots[(start + i) % cap]));
      ring->head = 0;
      ring->written = 0;
    }
    std::stable_sort(out.begin(), out.end(), [](const T& a, const T& b) {
      return a.ts_ns < b.ts_ns;
    });
    return out;
  }

  /// Entries overwritten before any drain could see them (cumulative).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    Ring(std::size_t capacity, std::uint32_t tid)
        : slots(capacity), tid(tid) {}
    std::mutex mu;
    std::vector<T> slots;
    std::size_t head = 0;       ///< next write position
    std::uint64_t written = 0;  ///< entries recorded since the last drain
    std::uint32_t tid;
  };

  Ring& local_ring() {
    // One ring per (thread, owner); the common case — one process-wide
    // owner — hits the two cached thread-locals and never takes rings_mu_.
    thread_local std::uint64_t cached_uid = 0;
    thread_local Ring* cached_ring = nullptr;
    if (cached_uid == uid_) return *cached_ring;

    const std::lock_guard<std::mutex> lock(rings_mu_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size() + 1)));
    cached_uid = uid_;
    cached_ring = rings_.back().get();
    return *cached_ring;
  }

  std::size_t capacity_;
  /// Process-unique owner id: the thread-local ring cache keys on this
  /// instead of `this`, so an owner reallocated at a dead one's address
  /// (stack-local recorders in tests) can never hit a stale cache entry.
  std::uint64_t uid_;
  std::atomic<std::uint64_t> dropped_{0};

  std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< one per writer thread
  std::mutex drain_mu_;  ///< serializes the consuming drains
};

}  // namespace nyqmon::obs
