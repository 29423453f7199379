#include "flow/max_flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/interrupt.h"
#include "common/memory_budget.h"
#include "obs/trace.h"

namespace osd {

MaxFlow::MaxFlow(int num_vertices) {
  OSD_CHECK(num_vertices >= 2);
  OSD_FAILPOINT("mem.flow.build");
  // Per-vertex footprint: the adjacency vector header plus the level_ and
  // iter_ slots Compute will allocate.
  const long per_vertex =
      static_cast<long>(sizeof(std::vector<int>)) + 2 * sizeof(int);
  memory::Charge(num_vertices * per_vertex, "flow.vertices");
  charged_bytes_ += num_vertices * per_vertex;
  adjacency_.resize(num_vertices);
}

MaxFlow::~MaxFlow() { memory::Release(charged_bytes_); }

int MaxFlow::AddEdge(int from, int to, int64_t capacity) {
  OSD_CHECK(from >= 0 && from < num_vertices());
  OSD_CHECK(to >= 0 && to < num_vertices());
  OSD_CHECK(capacity >= 0);
  // Chunked accounting keeps budget traffic off the per-edge path: charge
  // 128 edges' worth whenever the paid-for allowance runs out.
  if (static_cast<long>(edge_refs_.size()) >= charged_edges_) {
    constexpr long kEdgeChunk = 128;
    constexpr long bytes_per_edge =
        2 * static_cast<long>(sizeof(Edge)) + sizeof(std::pair<int, int>);
    memory::Charge(kEdgeChunk * bytes_per_edge, "flow.edges");
    charged_bytes_ += kEdgeChunk * bytes_per_edge;
    charged_edges_ += kEdgeChunk;
  }
  const int fwd = static_cast<int>(adjacency_[from].size());
  const int bwd = static_cast<int>(adjacency_[to].size());
  adjacency_[from].push_back({to, capacity, bwd});
  adjacency_[to].push_back({from, 0, fwd});
  edge_refs_.emplace_back(from, fwd);
  return static_cast<int>(edge_refs_.size()) - 1;
}

bool MaxFlow::Bfs(int source, int sink) {
  level_.assign(num_vertices(), -1);
  std::queue<int> queue;
  level_[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const Edge& e : adjacency_[v]) {
      if (e.capacity > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[sink] >= 0;
}

int64_t MaxFlow::Dfs(int v, int sink, int64_t limit) {
  if (v == sink) return limit;
  for (int& i = iter_[v]; i < static_cast<int>(adjacency_[v].size()); ++i) {
    Edge& e = adjacency_[v][i];
    if (e.capacity <= 0 || level_[e.to] != level_[v] + 1) continue;
    const int64_t pushed = Dfs(e.to, sink, std::min(limit, e.capacity));
    if (pushed > 0) {
      e.capacity -= pushed;
      adjacency_[e.to][e.rev].capacity += pushed;
      return pushed;
    }
  }
  return 0;
}

int64_t MaxFlow::Compute(int source, int sink) {
  OSD_CHECK(source != sink);
  int64_t flow = 0;
  // A single Compute on a dense possible-world instance can outlive a
  // query deadline many times over, so every Dinic phase and every
  // augmenting path is an interrupt point (common/interrupt.h). The
  // network's budget charges are released by the destructor, so an
  // Interrupted thrown here unwinds with the accounting intact.
  while (Bfs(source, sink)) {
    interrupt::Poll();
    OSD_FAILPOINT("flow.augment");
    iter_.assign(num_vertices(), 0);
    while (true) {
      const int64_t pushed =
          Dfs(source, sink, std::numeric_limits<int64_t>::max());
      if (pushed == 0) break;
      flow += pushed;
      interrupt::Poll();
    }
  }
  return flow;
}

int64_t MaxFlow::FlowOn(int edge_index) const {
  OSD_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(edge_refs_.size()));
  const auto [v, offset] = edge_refs_[edge_index];
  const Edge& e = adjacency_[v][offset];
  // Flow on the forward edge equals the residual capacity of the reverse.
  return adjacency_[e.to][e.rev].capacity;
}

std::vector<int64_t> ScaleProbabilities(std::span<const double> probs,
                                        int64_t total_scale) {
  OSD_CHECK(!probs.empty());
  const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
  OSD_CHECK(sum > 0.0);
  const int n = static_cast<int>(probs.size());
  std::vector<int64_t> scaled(n);
  std::vector<std::pair<double, int>> remainders(n);
  int64_t assigned = 0;
  for (int i = 0; i < n; ++i) {
    const double exact =
        probs[i] / sum * static_cast<double>(total_scale);
    scaled[i] = static_cast<int64_t>(std::floor(exact));
    remainders[i] = {exact - std::floor(exact), i};
    assigned += scaled[i];
  }
  // Distribute the leftover units to the largest remainders so the total
  // is exactly total_scale.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  int64_t leftover = total_scale - assigned;
  OSD_CHECK(leftover >= 0 && leftover <= n);
  for (int k = 0; k < leftover; ++k) scaled[remainders[k].second] += 1;
  return scaled;
}

FeasibilityVerdict BipartiteFeasible(
    int nu, int nv, std::span<const std::pair<int, int>> edges,
    std::span<const int64_t> u_mass, std::span<const int64_t> v_mass) {
  OSD_CHECK(static_cast<int>(u_mass.size()) == nu);
  OSD_CHECK(static_cast<int>(v_mass.size()) == nv);
  const int64_t total = std::accumulate(u_mass.begin(), u_mass.end(),
                                        int64_t{0});
  OSD_CHECK(std::accumulate(v_mass.begin(), v_mass.end(), int64_t{0}) ==
            total);
  std::vector<char> v_covered(nv, 0);
  for (const auto& [i, j] : edges) v_covered[j] = 1;
  for (int j = 0; j < nv; ++j) {
    if (!v_covered[j]) return {false, FeasibilityExit::kUncoveredDemand};
  }
  if (static_cast<long>(edges.size()) == static_cast<long>(nu) * nv) {
    return {true, FeasibilityExit::kComplete};
  }
  const int64_t slack = nu + nv;

  std::vector<int64_t> u_left(u_mass.begin(), u_mass.end());
  std::vector<int64_t> v_left(v_mass.begin(), v_mass.end());
  int64_t routed = 0;
  for (const auto& [i, j] : edges) {
    const int64_t pushed = std::min(u_left[i], v_left[j]);
    u_left[i] -= pushed;
    v_left[j] -= pushed;
    routed += pushed;
  }
  if (routed >= total - slack) return {true, FeasibilityExit::kGreedy};

  std::vector<int64_t> u_reach(nu, 0);
  std::vector<int64_t> v_reach(nv, 0);
  for (const auto& [i, j] : edges) {
    u_reach[i] += v_mass[j];
    v_reach[j] += u_mass[i];
  }
  for (int i = 0; i < nu; ++i) {
    if (u_mass[i] - u_reach[i] > slack) {
      return {false, FeasibilityExit::kHallDeficit};
    }
  }
  for (int j = 0; j < nv; ++j) {
    if (v_mass[j] - v_reach[j] > slack) {
      return {false, FeasibilityExit::kHallDeficit};
    }
  }

  const int source = nu + nv;
  const int sink = nu + nv + 1;
  MaxFlow flow(nu + nv + 2);
  for (int i = 0; i < nu; ++i) flow.AddEdge(source, i, u_mass[i]);
  for (int j = 0; j < nv; ++j) flow.AddEdge(nu + j, sink, v_mass[j]);
  for (const auto& [i, j] : edges) flow.AddEdge(i, nu + j, total);
  OSD_TRACE_SPAN(obs::SpanKind::kFlowRun);
  return {flow.Compute(source, sink) >= total - slack,
          FeasibilityExit::kMaxFlow};
}

}  // namespace osd
