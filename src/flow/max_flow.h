// Dinic max-flow on integer capacities.
//
// The P-SD dominance check reduces to a max-flow feasibility test
// (Theorem 12): the flow value equals the total probability mass iff a
// dominating match exists. Instance probabilities are rationals in
// practice; callers scale them to int64 via ScaleProbabilities() (largest
// remainder rounding), so the |f*| == total comparison is exact.

#ifndef OSD_FLOW_MAX_FLOW_H_
#define OSD_FLOW_MAX_FLOW_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace osd {

/// Max-flow solver (Dinic's algorithm) over a directed graph with int64
/// capacities. Vertices are dense indices [0, num_vertices).
class MaxFlow {
 public:
  explicit MaxFlow(int num_vertices);
  /// Returns the network's charges to the active memory budget scope (see
  /// common/memory_budget.h); construction and AddEdge charge before they
  /// allocate, so a breach throws MemoryExceeded with the network intact.
  ~MaxFlow();
  MaxFlow(const MaxFlow&) = delete;
  MaxFlow& operator=(const MaxFlow&) = delete;

  /// Adds a directed edge with the given capacity (and a residual reverse
  /// edge of capacity zero). Returns the edge index for inspection.
  int AddEdge(int from, int to, int64_t capacity);

  /// Computes the maximum s-t flow. May be called once per instance.
  int64_t Compute(int source, int sink);

  /// Flow routed over edge `edge_index` after Compute().
  int64_t FlowOn(int edge_index) const;

  int num_vertices() const { return static_cast<int>(adjacency_.size()); }

 private:
  struct Edge {
    int to;
    int64_t capacity;
    int rev;  // index of the reverse edge in adjacency_[to]
  };

  bool Bfs(int source, int sink);
  int64_t Dfs(int v, int sink, int64_t limit);

  std::vector<std::vector<Edge>> adjacency_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<std::pair<int, int>> edge_refs_;  // (vertex, offset) per AddEdge
  long charged_bytes_ = 0;   // owed back to the budget at destruction
  long charged_edges_ = 0;   // edges covered by chunked AddEdge charges
};

/// Scales a probability vector summing to ~1 into int64 weights summing to
/// exactly `total_scale`, using largest-remainder rounding. This makes flow
/// feasibility checks exact for the equal-probability instances used in
/// the paper's experiments and deterministic for arbitrary ones.
std::vector<int64_t> ScaleProbabilities(std::span<const double> probs,
                                        int64_t total_scale);

/// Default probability scale: 2^40 leaves ample headroom in int64 sums.
inline constexpr int64_t kProbScale = int64_t{1} << 40;

/// The test that decided a BipartiteFeasible call, cheapest first.
enum class FeasibilityExit {
  kUncoveredDemand,  ///< some V vertex has no edge: infeasible
  kComplete,         ///< every (u, v) pair is an edge: feasible
  kGreedy,           ///< a greedy flow routes total - slack: feasible
  kHallDeficit,      ///< one vertex's demand exceeds its reach: infeasible
  kMaxFlow,          ///< decided by Dinic
};

struct FeasibilityVerdict {
  bool feasible;
  FeasibilityExit exit;
};

/// Decides the bipartite transportation problem of Theorem 12: can the
/// supplies `u_mass` (U side, `nu` vertices) be routed along `edges`
/// ((u, v) index pairs) to meet the demands `v_mass` (V side, `nv`
/// vertices)? Both sides must sum to the same total, and the answer is
/// "feasible" iff the max flow reaches total - (nu + nv).
///
/// The slack absorbs the largest-remainder rounding of ScaleProbabilities:
/// it perturbs each terminal capacity by less than one unit, and (by total
/// unimodularity) the integral max flow differs from the exact-probability
/// optimum by less than the summed perturbation. Genuine Hall violations of
/// rational probability vectors are at least kProbScale / (nu * nv) units,
/// orders of magnitude above the slack, so the verdict matches exact
/// arithmetic. A V vertex without edges is infeasible whatever its mass.
///
/// Dinic runs only when two linear-time certificates leave the answer
/// open. A greedy flow along the edges is a valid flow, so it bounds the
/// max flow from below. All flow through one vertex w crosses w's edges, so
/// the max flow is at most total - (mass(w) - mass of w's neighbours).
FeasibilityVerdict BipartiteFeasible(
    int nu, int nv, std::span<const std::pair<int, int>> edges,
    std::span<const int64_t> u_mass, std::span<const int64_t> v_mass);

}  // namespace osd

#endif  // OSD_FLOW_MAX_FLOW_H_
