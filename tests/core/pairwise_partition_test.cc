#include "oracles/local_graph_planner.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace actop {
namespace {

// Builds a view for server 0 holding vertices {1, 2}, with vertex 3 on
// server 1 and vertex 4 on server 2.
LocalGraphView SmallView() {
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 2;
  view.adjacency[1] = {{2, 1.0}, {3, 5.0}};
  view.adjacency[2] = {{1, 1.0}, {4, 2.0}};
  view.location = {{3, 1}, {4, 2}};
  return view;
}

TEST(TransferScoreTest, RemoteMinusLocal) {
  const LocalGraphView view = SmallView();
  // Vertex 1 -> server 1: gains edge to 3 (5.0), loses edge to 2 (1.0).
  EXPECT_DOUBLE_EQ(TransferScore(view, 1, 1), 4.0);
  // Vertex 1 -> server 2: no edges there, loses edge to 2.
  EXPECT_DOUBLE_EQ(TransferScore(view, 1, 2), -1.0);
  // Vertex 2 -> server 2: gains 2.0, loses 1.0.
  EXPECT_DOUBLE_EQ(TransferScore(view, 2, 2), 1.0);
}

TEST(TransferScoreTest, UnknownVertexScoresZero) {
  const LocalGraphView view = SmallView();
  EXPECT_DOUBLE_EQ(TransferScore(view, 999, 1), 0.0);
}

TEST(BuildPeerPlansTest, RanksPeersByTotalScore) {
  const LocalGraphView view = SmallView();
  const auto plans = BuildPeerPlans(view, PairwiseConfig{});
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].peer, 1);  // score 4.0 beats 1.0
  EXPECT_DOUBLE_EQ(plans[0].total_score, 4.0);
  ASSERT_EQ(plans[0].candidates.size(), 1u);
  EXPECT_EQ(plans[0].candidates[0].vertex, 1u);
  EXPECT_EQ(plans[1].peer, 2);
  EXPECT_EQ(plans[1].candidates[0].vertex, 2u);
}

TEST(BuildPeerPlansTest, NegativeScoresExcluded) {
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 2;
  // Vertex 1 is mostly local: moving it anywhere is a loss.
  view.adjacency[1] = {{2, 10.0}, {3, 1.0}};
  view.adjacency[2] = {{1, 10.0}};
  view.location = {{3, 1}};
  const auto plans = BuildPeerPlans(view, PairwiseConfig{});
  EXPECT_TRUE(plans.empty());
}

TEST(BuildPeerPlansTest, CandidateSetSizeLimitsOffer) {
  LocalGraphView view;
  view.self = 0;
  view.num_local_vertices = 10;
  for (VertexId v = 1; v <= 10; v++) {
    view.adjacency[v] = {{100 + v, static_cast<double>(v)}};
    view.location[100 + v] = 1;
  }
  PairwiseConfig config;
  config.candidate_set_size = 3;
  const auto plans = BuildPeerPlans(view, config);
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_EQ(plans[0].candidates.size(), 3u);
  // The top 3 by score are vertices 10, 9, 8, highest first.
  EXPECT_EQ(plans[0].candidates[0].vertex, 10u);
  EXPECT_EQ(plans[0].candidates[1].vertex, 9u);
  EXPECT_EQ(plans[0].candidates[2].vertex, 8u);
}

TEST(BuildPeerPlansTest, CandidatesCarryLocationHints) {
  const LocalGraphView view = SmallView();
  const auto plans = BuildPeerPlans(view, PairwiseConfig{});
  const Candidate& c = plans[0].candidates[0];  // vertex 1
  ASSERT_TRUE(c.edges.contains(3));
  EXPECT_EQ(c.edges.at(3).location_hint, 1);
  ASSERT_TRUE(c.edges.contains(2));
  EXPECT_EQ(c.edges.at(2).location_hint, 0);  // local co-resident
}

// --- DecideExchange ---

// q = server 1 holds {3, 5}; p = server 0 offers vertex 1 (heavy edge to 3).
// q's vertices are anchored to each other so q makes no counter-offer.
TEST(DecideExchangeTest, AcceptsProfitableCandidate) {
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 2;
  q_view.adjacency[3] = {{1, 5.0}, {5, 9.0}};
  q_view.adjacency[5] = {{3, 9.0}};
  q_view.location = {{1, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 2;
  Candidate c;
  c.vertex = 1;
  c.score = 4.0;
  c.edges = {{2, {1.0, 0}}, {3, {5.0, 1}}};
  request.candidates = {c};

  PairwiseConfig config;
  config.balance_delta = 10;
  const auto decision = DecideExchange(q_view, request, config);
  EXPECT_FALSE(decision.rejected);
  ASSERT_EQ(decision.accepted.size(), 1u);
  EXPECT_EQ(decision.accepted[0], 1u);
}

TEST(DecideExchangeTest, RejectsUnprofitableCandidate) {
  // q has no edges to the offered vertex; p's hint claims the candidate's
  // weight is mostly toward p itself -> negative score at q.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 5;

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 5;
  Candidate c;
  c.vertex = 1;
  c.score = 3.0;  // p's stale opinion
  c.edges = {{2, {4.0, 0}}};  // all weight stays at p
  request.candidates = {c};

  const auto decision = DecideExchange(q_view, request, PairwiseConfig{});
  EXPECT_TRUE(decision.accepted.empty());
  EXPECT_TRUE(decision.counter_offer.empty());
}

TEST(DecideExchangeTest, LocalKnowledgeOverridesStaleHint) {
  // p thinks vertex 9 lives on server 2 (hint), but q knows 9 is local to q.
  // The candidate is profitable only with q's fresher knowledge.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 3;
  q_view.adjacency[9] = {{1, 6.0}};
  q_view.location = {{1, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 3;
  Candidate c;
  c.vertex = 1;
  c.edges = {{9, {6.0, /*stale hint=*/2}}};
  request.candidates = {c};

  const auto decision = DecideExchange(q_view, request, PairwiseConfig{});
  ASSERT_EQ(decision.accepted.size(), 1u);
  EXPECT_EQ(decision.accepted[0], 1u);
}

TEST(DecideExchangeTest, CounterOfferIncludesOwnCandidates) {
  // q holds vertex 3 whose weight points at p: q should send it back.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 2;
  q_view.adjacency[3] = {{7, 4.0}};
  q_view.adjacency[4] = {{3, 0.5}};  // keep 4 at q
  q_view.location = {{7, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 2;

  const auto decision = DecideExchange(q_view, request, PairwiseConfig{});
  ASSERT_EQ(decision.counter_offer.size(), 1u);
  EXPECT_EQ(decision.counter_offer[0].vertex, 3u);
}

TEST(DecideExchangeTest, BalanceConstraintBlocksOneSidedFlow) {
  // q is much smaller than p; accepting candidates from p re-balances, but
  // it must stop before |sizes| diverge past delta in the other direction.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 10;

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 10;
  for (VertexId v = 1; v <= 6; v++) {
    Candidate c;
    c.vertex = v;
    c.edges = {{100 + v, {5.0, /*hint: already at q=*/1}}};
    request.candidates.push_back(c);
  }
  PairwiseConfig config;
  config.balance_delta = 4;
  const auto decision = DecideExchange(q_view, request, config);
  // Every accepted move widens the gap by 2; delta 4 allows 2 moves.
  EXPECT_EQ(decision.accepted.size(), 2u);
}

TEST(DecideExchangeTest, PairedMovesStayBalanced) {
  // With delta 0, single moves are blocked, but an S-move paired with a
  // T-move keeps sizes equal — the greedy must alternate heaps.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 4;
  q_view.adjacency[20] = {{30, 5.0}};  // q's vertex 20 wants to go to p
  q_view.location = {{30, 0}, {10, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 4;
  Candidate c;
  c.vertex = 10;
  c.edges = {{40, {5.0, 1}}};  // p's vertex 10 wants to come to q
  request.candidates = {c};

  PairwiseConfig config;
  config.balance_delta = 0;
  const auto decision = DecideExchange(q_view, request, config);
  EXPECT_EQ(decision.accepted.size(), 1u);
  EXPECT_EQ(decision.counter_offer.size(), 1u);
}

TEST(DecideExchangeTest, ScoreUpdatesPreventSplittingPairs) {
  // Vertices 1 and 2 are bound by a heavy mutual edge at p, each with a
  // modest pull toward q. Accepting one makes the other's score rise
  // (+2w); accepting both is right. Conversely if only vertex 1 had pull,
  // taking 1 must NOT leave 2 behind with its score ignored.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 2;
  // 50 and 51 are bound to each other at q (score toward p: 4 − 6 < 0), so
  // they are not counter-offer candidates.
  q_view.adjacency[50] = {{1, 4.0}, {51, 6.0}};
  q_view.adjacency[51] = {{2, 4.0}, {50, 6.0}};
  q_view.location = {{1, 0}, {2, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 2;
  Candidate c1;
  c1.vertex = 1;
  c1.edges = {{2, {3.0, 0}}, {50, {4.0, 1}}};  // score at q: 4 − 3 = 1
  Candidate c2;
  c2.vertex = 2;
  c2.edges = {{1, {3.0, 0}}, {51, {4.0, 1}}};  // score at q: 4 − 3 = 1
  request.candidates = {c1, c2};

  PairwiseConfig config;
  config.balance_delta = 10;
  const auto decision = DecideExchange(q_view, request, config);
  // Both go: after the first move the second's score rises to 1 + 2·3 = 7.
  EXPECT_EQ(decision.accepted.size(), 2u);
}

TEST(DecideExchangeTest, ScoreUpdateStopsSecondMoveWhenPairSplitsAcross) {
  // p offers vertex 1 (wants q), q would counter-offer vertex 60 — but 60's
  // only value at p was its heavy edge to vertex 1. Once 1 moves to q,
  // sending 60 to p is a strict loss and must be suppressed.
  LocalGraphView q_view;
  q_view.self = 1;
  q_view.num_local_vertices = 3;
  q_view.adjacency[60] = {{1, 4.0}};  // toward p only because vertex 1 is there
  q_view.location = {{1, 0}};

  ExchangeRequest request;
  request.from = 0;
  request.from_num_vertices = 3;
  Candidate c;
  c.vertex = 1;
  c.edges = {{60, {4.0, 1}}, {61, {1.0, 0}}};  // score at q: 4 − 1 = 3
  request.candidates = {c};

  const auto decision = DecideExchange(q_view, request, PairwiseConfig{});
  // Vertex 1 (score 3) beats vertex 60 (score 4 − 0 = 4)? No: 60's initial
  // score is 4 and wins the first pick... after which vertex 1's score
  // drops to 3 − 2·4 = −5 and is not taken. Either single move is a valid
  // local improvement, but taking both would be a swap with zero gain.
  const size_t total_moves = decision.accepted.size() + decision.counter_offer.size();
  EXPECT_EQ(total_moves, 1u);
}

TEST(CutCostTest, CountsCrossingPairsOnce) {
  std::unordered_map<VertexId, VertexAdjacency> adj;
  adj[1] = {{2, 3.0}, {3, 1.0}};
  adj[2] = {{1, 3.0}};
  adj[3] = {{1, 1.0}};
  std::unordered_map<VertexId, ServerId> loc = {{1, 0}, {2, 0}, {3, 1}};
  EXPECT_DOUBLE_EQ(CutCost(adj, loc), 1.0);
  loc[2] = 1;
  EXPECT_DOUBLE_EQ(CutCost(adj, loc), 4.0);
}

TEST(CutCostTest, ZeroWhenAllColocated) {
  std::unordered_map<VertexId, VertexAdjacency> adj;
  adj[1] = {{2, 3.0}};
  adj[2] = {{1, 3.0}};
  std::unordered_map<VertexId, ServerId> loc = {{1, 2}, {2, 2}};
  EXPECT_DOUBLE_EQ(CutCost(adj, loc), 0.0);
}

}  // namespace
}  // namespace actop
