// Test-only access to a PartitionAgent's planner state (a friend of the
// agent). Shared by every test in runtime_test that inspects the plan graph,
// so the class has exactly one definition in the binary.

#ifndef TESTS_RUNTIME_PARTITION_AGENT_TEST_PEER_H_
#define TESTS_RUNTIME_PARTITION_AGENT_TEST_PEER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/core/csr_graph.h"
#include "src/runtime/partition_agent.h"
#include "src/runtime/server.h"

namespace actop {

// Reaches into a PartitionAgent to refresh its plan graph on demand and to
// rebuild the same graph from scratch: every sketch entry whose local is
// still active, sorted by (local, peer), with locations resolved as the
// agent resolves them.
class PartitionAgentTestPeer {
 public:
  static void Refresh(PartitionAgent* agent) { agent->RefreshPlanGraph(); }
  static const CsrGraph& PlanGraph(const PartitionAgent& agent) { return agent.plan_graph_; }
  static const std::vector<ServerId>& PlanAssignment(const PartitionAgent& agent) {
    return agent.plan_assignment_;
  }
  static size_t SketchSize(const PartitionAgent& agent) { return agent.edges_.size(); }
  static uint64_t SketchTotal(const PartitionAgent& agent) { return agent.edges_.total_observed(); }

  // The expected plan graph as (id, adjacency) rows in id order, and the
  // expected location of each id.
  struct Expected {
    std::vector<VertexId> ids;
    std::vector<std::vector<std::pair<VertexId, double>>> rows;
    std::vector<ServerId> assignment;
  };
  static Expected FromScratch(PartitionAgent* agent, int cluster_servers) {
    agent->FlushObservations();
    std::vector<CsrEdge> edges;
    for (const auto& entry : agent->edges_.Entries()) {
      if (agent->server_->IsActive(entry.key.local)) {
        edges.push_back(
            CsrEdge{entry.key.local, entry.key.peer, static_cast<double>(entry.count)});
      }
    }
    std::sort(edges.begin(), edges.end(), [](const CsrEdge& a, const CsrEdge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    std::map<VertexId, std::vector<std::pair<VertexId, double>>> rows;
    for (const CsrEdge& e : edges) {
      rows[e.src].emplace_back(e.dst, e.weight);
      rows[e.dst];
    }
    Expected out;
    Server& server = *agent->server_;
    for (const auto& [v, row] : rows) {
      out.ids.push_back(v);
      out.rows.push_back(row);
      ServerId loc = server.IsActive(v) ? server.id() : server.location_cache().Peek(v);
      if (loc == kNoServer) {
        const ServerId* seen = agent->last_seen_.Find(v);
        loc = seen != nullptr ? *seen : static_cast<ServerId>(cluster_servers);
      }
      out.assignment.push_back(loc);
    }
    return out;
  }
};

}  // namespace actop

#endif  // TESTS_RUNTIME_PARTITION_AGENT_TEST_PEER_H_
