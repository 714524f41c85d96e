// Pooled buffer arena for per-round container churn.
//
// The scheduling engine rebuilds every refreshed plan's candidates each round,
// and each candidate owns the vector of its destinations (Candidate::dests).
// Destroying and reallocating those vectors every round is allocator traffic
// that grows with the candidate count. A VectorPool recycles the *storage*:
// release() parks a vector's buffer, acquire() hands it back empty with its
// capacity intact, so steady-state rounds allocate no destination lists.
//
// Pools are deterministic by construction — they only affect where bytes
// live, never what values code observes — and deliberately not thread-safe:
// the engine keeps one pool per worker (in RefreshWorkspace), matching the
// rule that the parallel compute phase touches only worker-local scratch.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace datastage {

/// A pool of std::vector<T> buffers. acquire() returns an empty vector,
/// reusing a recycled buffer's capacity when one is available; release()
/// returns a buffer to the pool (its elements are destroyed, the capacity is
/// kept). Not thread-safe — one pool per worker.
template <typename T>
class VectorPool {
 public:
  std::vector<T> acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  void release(std::vector<T>&& v) {
    if (v.capacity() == 0) return;  // nothing worth keeping
    v.clear();
    free_.push_back(std::move(v));
  }

  /// Buffers currently parked in the pool.
  std::size_t pooled() const { return free_.size(); }

 private:
  std::vector<std::vector<T>> free_;
};

}  // namespace datastage
