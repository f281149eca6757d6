// The greedy joint subset selection at the heart of DecideExchange (step 3
// of Alg. 1), factored out so the map-based reference path
// (pairwise_partition.cc) and the flat CSR arena data plane
// (repartition_arena.cc) run the *same* loop over different heap/scratch
// machinery. Byte-identical decisions between the two implementations reduce
// to feeding this template identical candidate sets in identical order.
//
// `Heap` must expose the ExchangeHeap interface: PeekTop, Remove, Update,
// CandidateOf, slots(), and static Live(slot). `accept_s(v, candidate)` is
// called for every vertex taken from S (p -> q), `accept_t` for every vertex
// taken from T (q -> p), in pick order.

#ifndef SRC_CORE_JOINT_SELECTION_H_
#define SRC_CORE_JOINT_SELECTION_H_

#include "src/common/ids.h"
#include "src/core/pairwise_partition.h"

namespace actop {

// Weight of the edge between two offered candidates, if either side's
// shipped adjacency records it (the graph is symmetric, but samplers may
// have seen only one direction).
inline double EdgeWeightBetween(const Candidate& a, const Candidate& b) {
  if (auto it = a.edges.find(b.vertex); it != a.edges.end()) {
    return it->second.weight;
  }
  if (auto it = b.edges.find(a.vertex); it != b.edges.end()) {
    return it->second.weight;
  }
  return 0.0;
}

template <typename Heap, typename AcceptS, typename AcceptT>
void RunJointSelection(Heap& s_heap, Heap& t_heap, const PairwiseConfig& config, double size_p,
                       double size_q, AcceptS&& accept_s, AcceptT&& accept_t) {
  while (true) {
    VertexId sv = 0;
    VertexId tv = 0;
    double s_score = 0.0;
    double t_score = 0.0;
    const bool has_s = s_heap.PeekTop(&sv, &s_score) && s_score > kMinTransferScore;
    const bool has_t = t_heap.PeekTop(&tv, &t_score) && t_score > kMinTransferScore;
    if (!has_s && !has_t) {
      break;
    }

    // Applies one move (from_s: p->q, else q->p) and propagates score
    // updates: after `moved` switches sides, an edge (moved, u) flips its
    // contribution to u's transfer score by 2w — same-side candidates gain,
    // opposite-side candidates lose.
    auto apply_move = [&](bool from_s) {
      Heap& from = from_s ? s_heap : t_heap;
      const VertexId moved = from_s ? sv : tv;
      const Candidate* moved_candidate = from.CandidateOf(moved);
      const double moved_size = moved_candidate->size;
      if (from_s) {
        accept_s(moved, moved_candidate);
        s_heap.Remove(moved);
        size_p -= moved_size;
        size_q += moved_size;
      } else {
        accept_t(moved, moved_candidate);
        t_heap.Remove(moved);
        size_p += moved_size;
        size_q -= moved_size;
      }
      for (const auto& slot : s_heap.slots()) {
        if (slot.vertex == moved || !Heap::Live(slot)) {
          continue;
        }
        const double w = EdgeWeightBetween(*slot.candidate, *moved_candidate);
        if (w > 0.0) {
          s_heap.Update(slot.vertex, from_s ? +2.0 * w : -2.0 * w);
        }
      }
      for (const auto& slot : t_heap.slots()) {
        if (slot.vertex == moved || !Heap::Live(slot)) {
          continue;
        }
        const double w = EdgeWeightBetween(*slot.candidate, *moved_candidate);
        if (w > 0.0) {
          t_heap.Update(slot.vertex, from_s ? -2.0 * w : +2.0 * w);
        }
      }
    };

    // Prefer the globally highest score; fall back to the other heap when the
    // balance constraint blocks the preferred move; as a last resort pair one
    // move from each side (net size change zero) so tight balance budgets do
    // not freeze profitable swaps.
    bool take_s;
    if (has_s && has_t) {
      take_s = s_score >= t_score;
    } else {
      take_s = has_s;
    }
    const bool s_fits =
        has_s && config.BalanceAllows(size_p, size_q, s_heap.CandidateOf(sv)->size);
    const bool t_fits =
        has_t && config.BalanceAllows(size_q, size_p, t_heap.CandidateOf(tv)->size);
    if (take_s && !s_fits) {
      take_s = false;
    }
    if (!take_s && !t_fits) {
      if (s_fits) {
        take_s = true;
      } else if (has_s && has_t &&
                 (s_heap.CandidateOf(sv)->size >= t_heap.CandidateOf(tv)->size
                      ? config.BalanceAllows(size_p, size_q, s_heap.CandidateOf(sv)->size -
                                                                 t_heap.CandidateOf(tv)->size)
                      : config.BalanceAllows(size_q, size_p, t_heap.CandidateOf(tv)->size -
                                                                 s_heap.CandidateOf(sv)->size))) {
        // A paired swap only shifts the size difference; balance must allow
        // that net shift (always true for uniform actors).
        // Paired swap (net size change zero). Evaluate the pair BEFORE
        // applying anything: after the first endpoint switches sides, the
        // second's score drops by 2·w(sv, tv) if they share an edge. Both
        // halves must remain individually profitable so the swap strictly
        // reduces cost and the balance invariant holds.
        const Candidate* s_cand = s_heap.CandidateOf(sv);
        const Candidate* t_cand = t_heap.CandidateOf(tv);
        const double cross = EdgeWeightBetween(*s_cand, *t_cand);
        const double adj_s = s_score - 2.0 * cross;
        const double adj_t = t_score - 2.0 * cross;
        const bool s_first = s_score >= t_score;
        const double second_score = s_first ? adj_t : adj_s;
        if (second_score <= kMinTransferScore) {
          break;  // no jointly profitable swap available
        }
        apply_move(s_first);
        apply_move(!s_first);
        continue;
      } else {
        break;  // neither side can move without violating balance
      }
    }
    apply_move(take_s);
  }
}

}  // namespace actop

#endif  // SRC_CORE_JOINT_SELECTION_H_
