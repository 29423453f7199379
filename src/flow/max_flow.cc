#include "flow/max_flow.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/query_exec.h"
#include "obs/trace.h"

namespace osd {

MaxFlow::MaxFlow(int num_vertices) : num_vertices_(num_vertices) {
  OSD_CHECK(num_vertices >= 2);
  OSD_FAILPOINT("mem.flow.build");
  // Per-vertex footprint: the first_, next_arc_, level_, iter_ and queue_
  // slots (first_ has one extra).
  const long vertex_bytes = (5L * num_vertices + 1) * sizeof(int);
  memory::Charge(vertex_bytes, "flow.vertices");
  charged_bytes_ += vertex_bytes;
  first_.assign(num_vertices + 1, 0);
  next_arc_.assign(num_vertices, 0);
}

MaxFlow::~MaxFlow() { memory::Release(charged_bytes_); }

int MaxFlow::AddEdge(int from, int to, int64_t capacity) {
  OSD_CHECK(!laid_out_);
  OSD_CHECK(from >= 0 && from < num_vertices());
  OSD_CHECK(to >= 0 && to < num_vertices());
  OSD_CHECK(capacity >= 0);
  // Chunked accounting keeps budget traffic off the per-edge path: charge
  // 128 edges' worth whenever the paid-for allowance runs out.
  if (static_cast<long>(pending_.size()) >= charged_edges_) {
    constexpr long kEdgeChunk = 128;
    constexpr long bytes_per_edge = sizeof(PendingEdge) + sizeof(int);
    memory::Charge(kEdgeChunk * bytes_per_edge, "flow.edges");
    charged_bytes_ += kEdgeChunk * bytes_per_edge;
    charged_edges_ += kEdgeChunk;
  }
  pending_.push_back({from, to, capacity});
  ++next_arc_[from];
  ++next_arc_[to];
  return static_cast<int>(pending_.size()) - 1;
}

void MaxFlow::AllocateArcs(long num_edges) {
  constexpr long kBytesPerArc = 2 * sizeof(int) + sizeof(int64_t);
  memory::Charge(2 * num_edges * kBytesPerArc, "flow.edges");
  charged_bytes_ += 2 * num_edges * kBytesPerArc;
  for (int v = 0; v < num_vertices_; ++v) {
    first_[v + 1] = first_[v] + next_arc_[v];
    next_arc_[v] = first_[v];
  }
  head_.resize(2 * num_edges);
  rev_.resize(2 * num_edges);
  cap_.resize(2 * num_edges);
  laid_out_ = true;
}

int MaxFlow::PlaceEdge(int from, int to, int64_t capacity) {
  const int fwd = next_arc_[from]++;
  const int bwd = next_arc_[to]++;
  head_[fwd] = to;
  cap_[fwd] = capacity;
  rev_[fwd] = bwd;
  head_[bwd] = from;
  cap_[bwd] = 0;
  rev_[bwd] = fwd;
  return fwd;
}

void MaxFlow::LoadBipartite(int nu, int nv, std::span<const uint64_t> rows,
                            std::span<const int64_t> u_mass,
                            std::span<const int64_t> v_mass,
                            int64_t middle_capacity) {
  OSD_CHECK(!laid_out_ && pending_.empty());
  OSD_CHECK(num_vertices_ == nu + nv + 2);
  const int words = RowWords(nu);
  OSD_CHECK(rows.size() == static_cast<size_t>(nv) * words);
  const int source = nu + nv;
  const int sink = nu + nv + 1;
  // Arc counts: one terminal arc per U and V vertex, plus one per set bit
  // at both of its ends.
  long num_edges = nu + nv;
  next_arc_[source] = nu;
  next_arc_[sink] = nv;
  for (int i = 0; i < nu; ++i) next_arc_[i] = 1;
  for (int j = 0; j < nv; ++j) {
    int degree = 0;
    for (int w = 0; w < words; ++w) {
      for (uint64_t bits = rows[static_cast<size_t>(j) * words + w];
           bits != 0; bits &= bits - 1) {
        ++next_arc_[w * 64 + std::countr_zero(bits)];
        ++degree;
      }
    }
    next_arc_[nu + j] = 1 + degree;
    num_edges += degree;
  }
  AllocateArcs(num_edges);
  for (int i = 0; i < nu; ++i) PlaceEdge(source, i, u_mass[i]);
  for (int j = 0; j < nv; ++j) PlaceEdge(nu + j, sink, v_mass[j]);
  for (int j = 0; j < nv; ++j) {
    for (int w = 0; w < words; ++w) {
      for (uint64_t bits = rows[static_cast<size_t>(j) * words + w];
           bits != 0; bits &= bits - 1) {
        PlaceEdge(w * 64 + std::countr_zero(bits), nu + j, middle_capacity);
      }
    }
  }
}

bool MaxFlow::Bfs(int source, int sink) {
  std::fill(level_.begin(), level_.end(), -1);
  int head = 0;
  int tail = 0;
  level_[source] = 0;
  queue_[tail++] = source;
  while (head < tail) {
    const int v = queue_[head++];
    for (int a = first_[v]; a < first_[v + 1]; ++a) {
      if (cap_[a] > 0 && level_[head_[a]] < 0) {
        level_[head_[a]] = level_[v] + 1;
        queue_[tail++] = head_[a];
      }
    }
  }
  return level_[sink] >= 0;
}

int64_t MaxFlow::Dfs(int v, int sink, int64_t limit) {
  if (v == sink) return limit;
  for (int& a = iter_[v]; a < first_[v + 1]; ++a) {
    const int w = head_[a];
    if (cap_[a] <= 0 || level_[w] != level_[v] + 1) continue;
    const int64_t pushed = Dfs(w, sink, std::min(limit, cap_[a]));
    if (pushed > 0) {
      cap_[a] -= pushed;
      cap_[rev_[a]] += pushed;
      return pushed;
    }
  }
  return 0;
}

int64_t MaxFlow::Compute(int source, int sink) {
  OSD_CHECK(source != sink);
  if (!laid_out_) {
    AllocateArcs(static_cast<long>(pending_.size()));
    edge_arc_.resize(pending_.size());
    for (size_t k = 0; k < pending_.size(); ++k) {
      edge_arc_[k] =
          PlaceEdge(pending_[k].from, pending_[k].to, pending_[k].capacity);
    }
  }
  level_.resize(num_vertices_);
  iter_.resize(num_vertices_);
  queue_.resize(num_vertices_);
  int64_t flow = 0;
  // A single Compute on a dense possible-world instance can outlive a
  // query deadline many times over, so every Dinic phase and every
  // augmenting path polls the running query (common/query_exec.h). The
  // network's budget charges are released by the destructor, so an
  // Interrupted thrown here unwinds with the accounting intact.
  while (Bfs(source, sink)) {
    interrupt::Poll();
    OSD_FAILPOINT("flow.augment");
    std::copy(first_.begin(), first_.end() - 1, iter_.begin());
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
  OSD_CHECK(laid_out_);
  OSD_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(edge_arc_.size()));
  // Flow on the forward arc equals the residual capacity of the reverse.
  return cap_[rev_[edge_arc_[edge_index]]];
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

FeasibilityVerdict BipartiteFeasible(int nu, int nv,
                                     std::span<const uint64_t> rows,
                                     std::span<const int64_t> u_mass,
                                     std::span<const int64_t> v_mass) {
  OSD_CHECK(nu > 0 && nv > 0);
  OSD_CHECK(static_cast<int>(u_mass.size()) == nu);
  OSD_CHECK(static_cast<int>(v_mass.size()) == nv);
  const int words = RowWords(nu);
  OSD_CHECK(rows.size() == static_cast<size_t>(nv) * words);
  const int64_t total = std::accumulate(u_mass.begin(), u_mass.end(),
                                        int64_t{0});
  OSD_CHECK(std::accumulate(v_mass.begin(), v_mass.end(), int64_t{0}) ==
            total);
  // One pass over the set bits counts each vertex's degree and sums its
  // neighbour mass for the Hall test.
  std::vector<int> u_degree(nu, 0);
  std::vector<int> v_degree(nv, 0);
  std::vector<int64_t> u_reach(nu, 0);
  std::vector<int64_t> v_reach(nv, 0);
  long num_edges = 0;
  for (int j = 0; j < nv; ++j) {
    const uint64_t* row = rows.data() + static_cast<size_t>(j) * words;
    OSD_CHECK((row[words - 1] & ~LastWordMask(nu)) == 0);
    for (int w = 0; w < words; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const int i = w * 64 + std::countr_zero(bits);
        ++u_degree[i];
        ++v_degree[j];
        u_reach[i] += v_mass[j];
        v_reach[j] += u_mass[i];
      }
    }
    if (v_degree[j] == 0) return {false, FeasibilityExit::kUncoveredDemand};
    num_edges += v_degree[j];
  }
  if (num_edges == static_cast<long>(nu) * nv) {
    return {true, FeasibilityExit::kComplete};
  }
  const int64_t slack = nu + nv;
  // The greedy serves the V vertices with the fewest neighbours first, and
  // each from its U neighbours with the fewest other uses first (ties by
  // index), so flexible vertices are left for the constrained ones. Every
  // degree is at most the other side's size, so one counting pass gives
  // that stable order.
  auto by_degree = [](const std::vector<int>& degree, int max_degree) {
    std::vector<int> start(max_degree + 2, 0);
    for (const int d : degree) ++start[d + 1];
    for (int d = 0; d <= max_degree; ++d) start[d + 1] += start[d];
    std::vector<int> order(degree.size());
    for (int i = 0; i < static_cast<int>(degree.size()); ++i) {
      order[start[degree[i]]++] = i;
    }
    return order;
  };
  const std::vector<int> u_order = by_degree(u_degree, nv);
  std::vector<int64_t> u_left(u_mass.begin(), u_mass.end());
  int64_t routed = 0;
  for (const int j : by_degree(v_degree, nu)) {
    const uint64_t* row = rows.data() + static_cast<size_t>(j) * words;
    int64_t v_left = v_mass[j];
    for (int k = 0; k < nu && v_left > 0; ++k) {
      const int i = u_order[k];
      if (((row[i / 64] >> (i % 64)) & 1) == 0) continue;
      const int64_t pushed = std::min(u_left[i], v_left);
      u_left[i] -= pushed;
      v_left -= pushed;
      routed += pushed;
    }
  }
  if (routed >= total - slack) return {true, FeasibilityExit::kGreedy};
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

  MaxFlow flow(nu + nv + 2);
  flow.LoadBipartite(nu, nv, rows, u_mass, v_mass, total);
  OSD_TRACE_SPAN(obs::SpanKind::kFlowRun);
  return {flow.Compute(nu + nv, nu + nv + 1) >= total - slack,
          FeasibilityExit::kMaxFlow};
}

}  // namespace osd
