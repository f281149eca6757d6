// Indexed max-heap for the greedy joint subset selection in DecideExchange.
//
// The seed used a lazy-deletion std::priority_queue plus two unordered_maps
// per side (`current` for live scores, `candidates` for payload pointers):
// every score update pushed a new heap entry and left the old one to be
// skipped at the next PeekTop. This replaces all three with one vector of
// slots, a FlatHashMap vertex->slot index, and a QuadHeap
// (src/common/quad_heap.h) of (score, vertex, slot) entries with true
// increase/decrease-key — Update re-sifts the entry in place through the
// slot's back-pointer, so the heap never holds stale entries and PeekTop is
// O(1).
//
// Ordering is load-bearing for deterministic replay: the seed's
// priority_queue<pair<double, VertexId>> compared pairs lexicographically,
// i.e. max (score, vertex) — score ties go to the larger vertex id. Higher
// reproduces exactly that total order (candidate vertices are unique after
// Init's last-wins dedup), so the greedy pick sequence is identical to seed
// whatever the heap's arity. Duplicate vertices in Init replicate the seed's
// map-overwrite semantics: the last candidate's score and payload win.

#ifndef SRC_CORE_EXCHANGE_HEAP_H_
#define SRC_CORE_EXCHANGE_HEAP_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/flat_hash_map.h"
#include "src/common/quad_heap.h"
#include "src/core/pairwise_partition.h"

namespace actop {

class ExchangeHeap {
 public:
  static constexpr int32_t kRemoved = -1;

  struct Slot {
    VertexId vertex = 0;
    const Candidate* candidate = nullptr;
    int32_t heap_pos = kRemoved;
  };

  ExchangeHeap() = default;
  // The heap's position hook points into this object's slots.
  ExchangeHeap(const ExchangeHeap&) = delete;
  ExchangeHeap& operator=(const ExchangeHeap&) = delete;

  template <typename ScoreFn>
  void Init(const std::vector<Candidate>& cands, ScoreFn&& score_fn) {
    slots_.reserve(cands.size());
    heap_.Reserve(cands.size());
    for (const Candidate& c : cands) {
      Add(c, score_fn(c));
    }
  }

  // Init over candidate pointers — the arena data plane keeps its candidates
  // in recycled pools and offers (possibly filtered) pointer lists. Same
  // semantics as Init, including last-wins on duplicate vertices.
  template <typename ScoreFn>
  void InitPtrs(const std::vector<const Candidate*>& cands, ScoreFn&& score_fn) {
    slots_.reserve(cands.size());
    heap_.Reserve(cands.size());
    for (const Candidate* c : cands) {
      Add(*c, score_fn(*c));
    }
  }

  // Pre-sizes every buffer (slots, heap array, index capacity) for up to n
  // candidates, so Reset/Init cycles at or below that cardinality never
  // allocate.
  void Reserve(size_t n) {
    slots_.reserve(n);
    heap_.Reserve(n);
    index_.Reserve(n);
  }

  // Forgets all slots but keeps every buffer (slots, heap array, index
  // capacity), so Reset/Init cycles of similar cardinality allocate nothing.
  void Reset() {
    slots_.clear();
    heap_.Clear();
    index_.Clear();
  }

  // Live maximum by (score, vertex), without popping.
  bool PeekTop(VertexId* v, double* score) const {
    if (heap_.empty()) {
      return false;
    }
    *v = heap_.top().vertex;
    *score = heap_.top().score;
    return true;
  }

  // Drops `v` from the live heap. Its slot (and candidate payload) stays
  // addressable — the selection loop still scores edges against moved
  // vertices' neighbors via slots().
  void Remove(VertexId v) {
    int32_t* found = index_.Find(v);
    ACTOP_DCHECK(found != nullptr);
    Slot& s = slots_[*found];
    if (s.heap_pos == kRemoved) {
      return;
    }
    const int32_t pos = s.heap_pos;
    heap_.RemoveAt(pos);
    s.heap_pos = kRemoved;
  }

  // Adds `delta` to v's score, sifting in place. No-op for absent or removed
  // vertices (matches the seed's `current` miss).
  void Update(VertexId v, double delta) {
    const int32_t* found = index_.Find(v);
    if (found == nullptr) {
      return;
    }
    const int32_t pos = slots_[*found].heap_pos;
    if (pos == kRemoved) {
      return;
    }
    heap_.mutable_at(pos).score += delta;
    heap_.Fix(pos);
  }

  const Candidate* CandidateOf(VertexId v) const {
    const int32_t* found = index_.Find(v);
    ACTOP_CHECK(found != nullptr);
    return slots_[*found].candidate;
  }

  // All slots in Init order, including removed ones (heap_pos == kRemoved).
  const std::vector<Slot>& slots() const { return slots_; }
  static bool Live(const Slot& s) { return s.heap_pos != kRemoved; }

 private:
  struct Entry {
    double score;
    VertexId vertex;
    int32_t slot;
  };

  // Strict "a outranks b": lexicographic max on (score, vertex) — exactly
  // std::pair<double, VertexId>'s operator< as used by the seed's heap.
  struct Higher {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.score != b.score ? a.score > b.score : a.vertex > b.vertex;
    }
  };

  struct TrackPosition {
    std::vector<Slot>* slots;
    void operator()(const Entry& e, size_t pos) const {
      (*slots)[static_cast<size_t>(e.slot)].heap_pos = static_cast<int32_t>(pos);
    }
  };

  void Add(const Candidate& c, double s) {
    if (const int32_t* found = index_.Find(c.vertex)) {
      // Duplicate offer: last candidate wins wholesale (seed overwrote
      // both current[v] and candidates[v]).
      Slot& slot = slots_[*found];
      slot.candidate = &c;
      if (slot.heap_pos != kRemoved) {
        heap_.mutable_at(slot.heap_pos).score = s;
        heap_.Fix(slot.heap_pos);
      }
      return;
    }
    const auto slot = static_cast<int32_t>(slots_.size());
    slots_.push_back(Slot{c.vertex, &c, kRemoved});
    index_.Insert(c.vertex, slot);
    heap_.Push(Entry{s, c.vertex, slot});
  }

  std::vector<Slot> slots_;
  QuadHeap<Entry, Higher, TrackPosition> heap_{Higher{}, TrackPosition{&slots_}};
  FlatHashMap<VertexId, int32_t> index_;
};

}  // namespace actop

#endif  // SRC_CORE_EXCHANGE_HEAP_H_
