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
#include <vector>

namespace osd {

/// Words in a bit row over `n` vertices: bit i of a row is word i / 64,
/// bit i % 64. Bits at positions >= n must be zero.
inline int RowWords(int n) { return (n + 63) / 64; }

/// The bits of a row's last word that stand for vertices (n >= 1).
inline uint64_t LastWordMask(int n) {
  return n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (n % 64)) - 1;
}

/// Max-flow solver (Dinic's algorithm) over a directed graph with int64
/// capacities. Vertices are dense indices [0, num_vertices). The residual
/// network is stored in compressed sparse row (CSR) form: vertex v's arcs
/// are one contiguous run, so a Dinic sweep is a linear scan.
class MaxFlow {
 public:
  explicit MaxFlow(int num_vertices);
  /// Returns the network's charges to the active memory budget scope (see
  /// common/memory_budget.h); construction, AddEdge and the network loads
  /// charge before they allocate, so a breach throws MemoryExceeded with
  /// the network intact.
  ~MaxFlow();
  MaxFlow(const MaxFlow&) = delete;
  MaxFlow& operator=(const MaxFlow&) = delete;

  /// Adds a directed edge with the given capacity (and a residual reverse
  /// edge of capacity zero). Returns the edge index for FlowOn. Edges are
  /// buffered and laid out as CSR by the first Compute().
  int AddEdge(int from, int to, int64_t capacity);

  /// Loads the bipartite network of BipartiteFeasible straight from its
  /// bit rows, in place of AddEdge calls: U vertex i is i, V vertex j is
  /// nu + j, the source nu + nv and the sink nu + nv + 1. Source -> i has
  /// capacity u_mass[i], nu + j -> sink v_mass[j], and every set bit i of
  /// row j an edge i -> nu + j of capacity `middle_capacity`. Needs
  /// num_vertices() == nu + nv + 2 and an otherwise empty network.
  void LoadBipartite(int nu, int nv, std::span<const uint64_t> rows,
                     std::span<const int64_t> u_mass,
                     std::span<const int64_t> v_mass,
                     int64_t middle_capacity);

  /// Computes the maximum s-t flow. May be called once per instance.
  int64_t Compute(int source, int sink);

  /// Flow routed over AddEdge edge `edge_index` after Compute().
  int64_t FlowOn(int edge_index) const;

  int num_vertices() const { return num_vertices_; }

 private:
  struct PendingEdge {
    int from;
    int to;
    int64_t capacity;
  };

  /// Charges for and sizes the arc arrays given each vertex's arc count
  /// (held in next_arc_), turning the counts into run offsets.
  void AllocateArcs(long num_edges);
  /// Places edge from -> to (and its reverse) at the two vertices' next
  /// free slots; returns the forward arc.
  int PlaceEdge(int from, int to, int64_t capacity);
  bool Bfs(int source, int sink);
  int64_t Dfs(int v, int sink, int64_t limit);

  int num_vertices_;
  std::vector<PendingEdge> pending_;  // AddEdge edges not yet laid out
  std::vector<int> edge_arc_;         // forward arc of each AddEdge edge
  bool laid_out_ = false;
  // CSR residual network: vertex v's arcs are [first_[v], first_[v + 1]);
  // arc a leads to head_[a] with residual capacity cap_[a], and rev_[a] is
  // its reverse arc.
  std::vector<int> first_;
  std::vector<int> next_arc_;  // per-vertex fill cursor while laying out
  std::vector<int> head_;
  std::vector<int> rev_;
  std::vector<int64_t> cap_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<int> queue_;
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
/// supplies `u_mass` (U side, `nu` vertices) be routed along the edges to
/// meet the demands `v_mass` (V side, `nv` vertices)? The edges are given
/// as bit rows: row j is words [j * RowWords(nu), (j + 1) * RowWords(nu))
/// of `rows`, and bit i of it is set iff (u_i, v_j) is an edge. Both sides
/// must sum to the same total, and the answer is "feasible" iff the max
/// flow reaches total - (nu + nv).
///
/// The slack absorbs the largest-remainder rounding of ScaleProbabilities:
/// it perturbs each terminal capacity by less than one unit, and (by total
/// unimodularity) the integral max flow differs from the exact-probability
/// optimum by less than the summed perturbation. Genuine Hall violations of
/// rational probability vectors are at least kProbScale / (nu * nv) units,
/// orders of magnitude above the slack, so the verdict matches exact
/// arithmetic. A V vertex without edges is infeasible whatever its mass.
///
/// Dinic runs only when linear-time certificates leave the answer open.
/// Row popcounts settle an empty row and the complete network. A greedy
/// flow along the edges (V vertices in ascending degree, each drawing from
/// its U neighbours in ascending degree, ties by index) is a valid flow,
/// so it bounds the max flow from below. All flow through one vertex
/// w crosses w's edges, so the max flow is at most
/// total - (mass(w) - mass of w's neighbours).
FeasibilityVerdict BipartiteFeasible(int nu, int nv,
                                     std::span<const uint64_t> rows,
                                     std::span<const int64_t> u_mass,
                                     std::span<const int64_t> v_mass);

}  // namespace osd

#endif  // OSD_FLOW_MAX_FLOW_H_
