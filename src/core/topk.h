// Bounded max-heap that keeps the k nearest neighbors seen so far.
//
// This is the "max-heap of size k" the paper's BSBF analysis assumes
// (Section 3.2.1): push is O(log k) and the current k-th distance is O(1),
// so a scan over m candidates costs O(m log k).

#ifndef MBI_CORE_TOPK_H_
#define MBI_CORE_TOPK_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/types.h"
#include "util/check.h"

namespace mbi {

class TopKHeap {
 public:
  /// Creates a heap retaining the k smallest-distance entries. k must be > 0.
  /// Any k is accepted, up to SIZE_MAX: the first reservation is capped at
  /// kMaxInitialReserve entries and the heap grows with its offers, so a k
  /// above the window costs what is offered, not what k names.
  explicit TopKHeap(size_t k) : k_(k) {
    MBI_CHECK(k > 0);
    heap_.reserve(std::min(k, kMaxInitialReserve));
  }

  /// Offers a candidate; keeps it only if it is among the k nearest so far.
  /// Returns true if the candidate was kept. The heap keeps the k smallest
  /// (distance, id) pairs (Neighbor::operator<), so a tie at the k-th
  /// distance goes to the smaller id and the contents do not depend on the
  /// order of the offers.
  bool Push(float distance, VectorId id) {
    const Neighbor nb{distance, id};
    if (heap_.size() < k_) {
      heap_.push_back(nb);
      std::push_heap(heap_.begin(), heap_.end());
      return true;
    }
    if (!(nb < heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = nb;
    std::push_heap(heap_.begin(), heap_.end());
    return true;
  }

  /// Distance of the current k-th (worst retained) neighbor, or +inf if the
  /// heap holds fewer than k entries.
  float WorstDistance() const {
    if (heap_.size() < k_) return std::numeric_limits<float>::infinity();
    return heap_.front().distance;
  }

  bool Full() const { return heap_.size() == k_; }
  size_t size() const { return heap_.size(); }
  size_t k() const { return k_; }

  /// Drains the heap into a vector sorted by increasing distance.
  SearchResult ExtractSorted() {
    SearchResult out(heap_.begin(), heap_.end());
    heap_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Read-only view of the unsorted contents.
  const std::vector<Neighbor>& contents() const { return heap_; }

 private:
  static constexpr size_t kMaxInitialReserve = 256;  // 4 KiB of entries

  size_t k_;
  std::vector<Neighbor> heap_;  // max-heap by Neighbor::operator<
};

}  // namespace mbi

#endif  // MBI_CORE_TOPK_H_
