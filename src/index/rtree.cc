#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace osd {

namespace {

// Recursive Sort-Tile-Recursive partitioning: sorts `items` (indices into
// some external box array accessed through `center`) by the center of
// dimension `dim`, slices into groups whose leaf capacity is balanced over
// the remaining dimensions, and recurses. At dim == last, emits runs of at
// most `capacity` items via `emit`.
void StrPartition(std::vector<int32_t>& items, int begin, int end, int dim,
                  int dims, int capacity,
                  const std::function<double(int32_t, int)>& center,
                  const std::function<void(int, int)>& emit) {
  const int count = end - begin;
  if (count <= capacity) {
    emit(begin, end);
    return;
  }
  std::sort(items.begin() + begin, items.begin() + end,
            [&](int32_t a, int32_t b) { return center(a, dim) < center(b, dim); });
  if (dim == dims - 1) {
    for (int i = begin; i < end; i += capacity) {
      emit(i, std::min(i + capacity, end));
    }
    return;
  }
  const int pages = (count + capacity - 1) / capacity;
  const int slabs = static_cast<int>(
      std::ceil(std::pow(static_cast<double>(pages),
                         1.0 / static_cast<double>(dims - dim))));
  const int per_slab =
      ((pages + slabs - 1) / slabs) * capacity;  // entries per slab
  for (int i = begin; i < end; i += per_slab) {
    StrPartition(items, i, std::min(i + per_slab, end), dim + 1, dims,
                 capacity, center, emit);
  }
}

}  // namespace

RTree RTree::BulkLoad(std::vector<Entry> entries, int fanout) {
  OSD_CHECK(fanout >= 2);
  RTree tree;
  tree.fanout_ = fanout;
  if (entries.empty()) return tree;  // valid empty tree: root() == -1
  tree.entries_ = std::move(entries);
  const int dims = tree.entries_[0].box.dim();

  // Level 0: pack entries into leaf nodes.
  std::vector<int32_t> items(tree.entries_.size());
  std::iota(items.begin(), items.end(), 0);
  std::vector<int32_t> level_nodes;
  {
    auto center = [&](int32_t i, int d) {
      return tree.entries_[i].box.Center(d);
    };
    auto emit = [&](int b, int e) {
      Node node;
      node.is_leaf = true;
      node.level = 0;
      for (int i = b; i < e; ++i) {
        const Entry& entry = tree.entries_[items[i]];
        node.box.Expand(entry.box);
        node.weight += entry.weight;
        node.children.push_back(items[i]);
      }
      tree.nodes_.push_back(std::move(node));
      level_nodes.push_back(static_cast<int32_t>(tree.nodes_.size()) - 1);
    };
    StrPartition(items, 0, static_cast<int>(items.size()), 0, dims, fanout,
                 center, emit);
  }

  // Upper levels: pack node MBRs until a single root remains.
  int level = 1;
  while (level_nodes.size() > 1) {
    std::vector<int32_t> parents;
    std::vector<int32_t> current = level_nodes;
    auto center = [&](int32_t i, int d) { return tree.nodes_[i].box.Center(d); };
    auto emit = [&](int b, int e) {
      Node node;
      node.is_leaf = false;
      node.level = level;
      for (int i = b; i < e; ++i) {
        const Node& child = tree.nodes_[current[i]];
        node.box.Expand(child.box);
        node.weight += child.weight;
        node.children.push_back(current[i]);
      }
      tree.nodes_.push_back(std::move(node));
      parents.push_back(static_cast<int32_t>(tree.nodes_.size()) - 1);
    };
    StrPartition(current, 0, static_cast<int>(current.size()), 0, dims,
                 fanout, center, emit);
    level_nodes = std::move(parents);
    ++level;
  }
  tree.root_ = level_nodes.front();
  return tree;
}

void RTree::ForEachIntersecting(
    const Mbr& range, const std::function<void(const Entry&)>& fn) const {
  if (empty()) return;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (!node.box.Intersects(range)) continue;
    if (node.is_leaf) {
      for (int32_t e : node.children) {
        if (entries_[e].box.Intersects(range)) fn(entries_[e]);
      }
    } else {
      for (int32_t c : node.children) stack.push_back(c);
    }
  }
}

}  // namespace osd
