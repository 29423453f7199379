// STR bulk-loaded R-tree.
//
// The paper's system uses n+1 R-trees: one *global* tree organizing the
// MBRs of all objects (page-size-derived fan-out) and one *local* tree per
// object organizing its instances (fan-out 4). Both are static for the
// lifetime of a dataset, so we build them with Sort-Tile-Recursive packing,
// which yields near-optimal space utilization and allows a simple
// contiguous node layout.
//
// The tree exposes its node structure publicly (nodes() / root()) because
// its users traverse it with their own bounds (the NNC search's best-first
// frontier), which cannot be expressed as a fixed query API.

#ifndef OSD_INDEX_RTREE_H_
#define OSD_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/mbr.h"

namespace osd {

/// Static R-tree over boxed, weighted entries.
class RTree {
 public:
  /// A leaf-level record: a box (degenerate for points), a caller-defined
  /// id, and a weight (probability mass, used by level-by-level filters).
  struct Entry {
    Mbr box;
    int32_t id = -1;
    double weight = 0.0;
  };

  /// An internal or leaf node. Leaf nodes index into entries(); internal
  /// nodes index into nodes().
  struct Node {
    Mbr box;
    double weight = 0.0;  // total entry weight below this node
    bool is_leaf = false;
    int32_t level = 0;  // 0 for leaves, increasing toward the root
    std::vector<int32_t> children;
  };

  /// Builds a tree over `entries` with the given fan-out (>= 2) using
  /// Sort-Tile-Recursive packing. Empty input yields a valid empty tree
  /// (empty() is true, root() is -1): datasets can become empty once
  /// deletes exist, and an empty tree simply answers every traversal with
  /// nothing.
  static RTree BulkLoad(std::vector<Entry> entries, int fanout);

  RTree() = default;

  bool empty() const { return nodes_.empty(); }
  int fanout() const { return fanout_; }
  int32_t root() const { return root_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Entry>& entries() const { return entries_; }
  /// Root MBR; an empty (invalid) box for an empty tree.
  const Mbr& bounds() const {
    static const Mbr kEmpty;
    return empty() ? kEmpty : nodes_[root_].box;
  }
  int height() const { return empty() ? 0 : nodes_[root_].level + 1; }

  /// Invokes `fn(entry)` for every entry whose box intersects `range`.
  void ForEachIntersecting(const Mbr& range,
                           const std::function<void(const Entry&)>& fn) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Entry> entries_;
  int32_t root_ = -1;
  int fanout_ = 0;
};

}  // namespace osd

#endif  // OSD_INDEX_RTREE_H_
