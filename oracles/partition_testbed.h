// Static-graph testbed for the distributed partitioning algorithm.
//
// Holds a global weighted (symmetric) communication graph and a vertex→server
// assignment, materializes each server's LocalGraphView on demand, and drives
// rounds of the pairwise coordination protocol. Used to:
//   * validate Theorem 1 (monotone cost decrease, convergence to a locally
//     optimal balanced partition) on static graphs;
//   * run the unilateral-migration ablation discussed in §4.2;
//   * measure partitioning quality/scaling for Figure 10(f) without paying
//     for full message-level simulation at 1M vertices.

#ifndef ORACLES_PARTITION_TESTBED_H_
#define ORACLES_PARTITION_TESTBED_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "oracles/local_graph_planner.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/csr_graph.h"

namespace actop {

// A global, symmetric, weighted graph.
class WeightedGraph {
 public:
  // Adds w to the (undirected) edge {a, b}. a != b, w > 0.
  void AddEdge(VertexId a, VertexId b, double w);
  void AddVertex(VertexId v);

  size_t num_vertices() const { return adjacency_.size(); }
  size_t num_edges() const { return num_edges_; }
  const std::unordered_map<VertexId, VertexAdjacency>& adjacency() const { return adjacency_; }
  const VertexAdjacency& NeighborsOf(VertexId v) const;

  std::vector<VertexId> Vertices() const;

 private:
  std::unordered_map<VertexId, VertexAdjacency> adjacency_;
  size_t num_edges_ = 0;
};

// Freezes `g` into a CsrGraph, isolated vertices included (they still occupy
// balance slots during partitioning): dense indices follow ascending vertex
// id over every vertex of `g`.
CsrGraph CsrFromWeighted(const WeightedGraph& g);

// Synthetic graph generators used by tests and benchmarks.
//
// Clustered graph: `clusters` groups of `cluster_size` vertices; every vertex
// connects to all members of its group with weight `intra_weight`, plus
// `extra_edges` random cross-group edges of weight `inter_weight`. Models the
// game/players structure of Halo Presence (a game and its 8 players form a
// heavy cluster).
WeightedGraph MakeClusteredGraph(int clusters, int cluster_size, double intra_weight,
                                 int extra_edges, double inter_weight, Rng* rng);

// Uniform random graph (Erdős–Rényi-style by edge count).
WeightedGraph MakeRandomGraph(int vertices, int edges, double max_weight, Rng* rng);

// Clustered graph after session churn: starts from MakeClusteredGraph's
// clique structure, then rewires `churn_fraction` of the vertices into a
// different random cluster (half-strength edges to half its members — the
// player joined a new game but the old session edges are still warm). This
// is the adversarial shape for repartitioners: the initial cluster signal
// points to the *old* placement.
WeightedGraph MakeChurnedClusteredGraph(int clusters, int cluster_size, double intra_weight,
                                        double churn_fraction, Rng* rng);

class PartitionTestbed {
 public:
  // Assigns vertices to `servers` uniformly at random (the Orleans default
  // placement the paper uses as baseline).
  PartitionTestbed(const WeightedGraph* graph, int servers, PairwiseConfig config, uint64_t seed);

  // One protocol round initiated by server p: builds peer plans, contacts
  // peers in ranking order, applies the first accepted exchange.
  // Returns the number of vertices that moved.
  int RunRound(ServerId p);

  // Runs rounds with each server initiating in turn until a full sweep moves
  // nothing (converged) or `max_sweeps` is hit. Returns sweeps executed.
  int RunToConvergence(int max_sweeps = 1000);

  // Unilateral ablation (§4.2 design discussion): every server simultaneously
  // migrates its best candidates toward each peer based on the same snapshot,
  // without coordination — no acceptance check, no counter-offer, balance
  // checked only against snapshot sizes. Models the racing/oscillation
  // behaviour of an uncoordinated design. Returns vertices moved.
  int RunUnilateralSweep();

  // Current total cross-server communication cost.
  double Cost() const;

  // Vertex counts per server.
  std::vector<int64_t> ServerSizes() const;

  // Max |size_p - size_q| over all server pairs.
  int64_t MaxImbalance() const;

  // Verifies local optimality per Theorem 1's definition: every vertex
  // either has non-positive pairwise transfer score toward every other
  // server, or moving it would violate the balance constraint.
  bool IsLocallyOptimal() const;

  ServerId LocationOf(VertexId v) const { return locations_.at(v); }
  int num_servers() const { return num_servers_; }
  int64_t total_migrations() const { return total_migrations_; }

  // Builds server p's view from the global truth (full knowledge).
  LocalGraphView BuildView(ServerId p) const;

  // p's members with at least one observed edge, ascending by id — the
  // canonical vertex-visit order handed to BuildPeerPlansOrdered /
  // DecideExchangeOrdered so protocol decisions do not depend on hash-map
  // iteration (libstdc++-version-stable, and reproducible by the CSR arena's
  // dense ascending scan).
  std::vector<VertexId> SampledMembers(ServerId p) const;

  // §4.2 extension: assigns per-vertex sizes (default 1.0 for all). Must be
  // called before any rounds run; recomputes per-server size totals and
  // switches the balance constraint to size units.
  void SetVertexSizes(std::unordered_map<VertexId, double> sizes);
  double ServerSizeOf(ServerId p) const { return size_sums_[static_cast<size_t>(p)]; }
  // Max total-size difference between any two servers.
  double MaxSizeImbalance() const;

 private:
  void ApplyMove(VertexId v, ServerId to);

  const WeightedGraph* graph_;
  int num_servers_;
  PairwiseConfig config_;
  Rng rng_;
  double SizeOf(VertexId v) const;

  std::unordered_map<VertexId, ServerId> locations_;
  // Per-server vertex sets, ordered: every loop over a server's members
  // (view building, size sums) visits ascending ids, so results are
  // byte-stable across standard-library versions.
  std::vector<std::set<VertexId>> members_;
  std::vector<int64_t> sizes_;            // vertex counts per server
  std::unordered_map<VertexId, double> vertex_sizes_;  // empty: uniform 1.0
  std::vector<double> size_sums_;         // total size per server
  int64_t total_migrations_ = 0;
};

}  // namespace actop

#endif  // ORACLES_PARTITION_TESTBED_H_
