// Array-embedded 4-ary heap: the one heap behind the event engine's queue,
// the CPU model's running jobs and the exchange planner's S0/T0 heaps.
//
// Children of node i live at 4i+1..4i+4, which halves the depth of a binary
// heap and, with 16-byte entries, keeps a sibling group in one cache line.
// `Before(a, b)` is a strict order; the root is an entry nothing comes
// before (a min-heap under `<`, a max-heap under `>`). Every order this
// repository uses is a strict total order, so any valid arrangement pops
// the identical sequence: arity and sift strategy never show in results.
//
// `Moved(entry, pos)` runs whenever an entry settles at array index `pos`
// (never for an entry on its way out), so an owner can keep a per-entry
// back-pointer for O(log n) RemoveAt/Fix by handle. Owners that never
// address entries by position pass NoPositionHook.
//
// Steady state allocates nothing: the array keeps its capacity.

#ifndef SRC_COMMON_QUAD_HEAP_H_
#define SRC_COMMON_QUAD_HEAP_H_

#include <cstddef>
#include <vector>

namespace actop {

struct NoPositionHook {
  template <typename Entry>
  void operator()(const Entry&, size_t) const {}
};

template <typename Entry, typename Before, typename Moved = NoPositionHook>
class QuadHeap {
 public:
  explicit QuadHeap(Before before = Before(), Moved moved = Moved())
      : before_(before), moved_(moved) {}

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  const Entry& top() const { return heap_[0]; }
  const Entry& operator[](size_t pos) const { return heap_[pos]; }
  // Mutable access to the entry at `pos`; call Fix(pos) after changing its
  // sort key.
  Entry& mutable_at(size_t pos) { return heap_[pos]; }

  void Reserve(size_t n) { heap_.reserve(n); }
  void Clear() { heap_.clear(); }

  void Push(const Entry& entry) {
    heap_.push_back(entry);
    SiftUp(heap_.size() - 1);
  }

  // Removes the root. This is the engine's hottest loop, so it deletes
  // bottom-up: the root hole percolates along the min-child chain to a leaf
  // (three comparisons per level, never against the refill entry), then the
  // former last entry drops into the hole and bubbles up. The refill comes
  // from the bottom, so the bubble-up almost always stops after one
  // comparison; a plain sift-down would pay a fourth comparison on every
  // level to discover the same thing.
  void PopRoot() {
    const size_t n = heap_.size() - 1;
    const Entry refill = heap_[n];
    heap_.pop_back();
    if (n == 0) return;
    size_t hole = 0;
    for (;;) {
      const size_t first = 4 * hole + 1;
      if (first >= n) break;
      const size_t best = MinChild(first, n);
      Place(heap_[best], hole);
      hole = best;
    }
    while (hole > 0) {
      const size_t parent = (hole - 1) / 4;
      if (!before_(refill, heap_[parent])) break;
      Place(heap_[parent], hole);
      hole = parent;
    }
    Place(refill, hole);
  }

  // Removes the entry at `pos`.
  void RemoveAt(size_t pos) {
    const size_t last = heap_.size() - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      heap_.pop_back();
      Fix(pos);
    } else {
      heap_.pop_back();
    }
  }

  // Restores heap order after the entry at `pos` changed its key, moving it
  // up or down as needed.
  void Fix(size_t pos) {
    if (pos > 0 && before_(heap_[pos], heap_[(pos - 1) / 4])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }

 private:
  void Place(const Entry& entry, size_t pos) {
    heap_[pos] = entry;
    moved_(heap_[pos], pos);
  }

  // Index of the first (by Before) of the sibling group starting at
  // `first`. The full-group case is a 3-comparison tournament over two
  // independent pairs: branch-light and instruction-parallel, which matters
  // because this runs on every level of every sift.
  size_t MinChild(size_t first, size_t n) const {
    if (first + 4 <= n) {
      const size_t a = before_(heap_[first + 1], heap_[first]) ? first + 1 : first;
      const size_t b = before_(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
      return before_(heap_[b], heap_[a]) ? b : a;
    }
    size_t best = first;
    for (size_t c = first + 1; c < n; c++) {
      if (before_(heap_[c], heap_[best])) best = c;
    }
    return best;
  }

  void SiftUp(size_t pos) {
    const Entry entry = heap_[pos];
    while (pos > 0) {
      const size_t parent = (pos - 1) / 4;
      if (!before_(entry, heap_[parent])) break;
      Place(heap_[parent], pos);
      pos = parent;
    }
    Place(entry, pos);
  }

  void SiftDown(size_t pos) {
    const Entry entry = heap_[pos];
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = 4 * pos + 1;
      if (first >= n) break;
      const size_t best = MinChild(first, n);
      if (!before_(heap_[best], entry)) break;
      Place(heap_[best], pos);
      pos = best;
    }
    Place(entry, pos);
  }

  std::vector<Entry> heap_;
  [[no_unique_address]] Before before_;
  [[no_unique_address]] Moved moved_;
};

}  // namespace actop

#endif  // SRC_COMMON_QUAD_HEAP_H_
