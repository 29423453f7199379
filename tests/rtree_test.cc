// Tests for the STR bulk-loaded R-tree: structural invariants and range
// queries, validated against linear scans.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/rtree.h"

namespace osd {
namespace {

std::vector<RTree::Entry> RandomPointEntries(int n, int dim, Rng& rng) {
  std::vector<RTree::Entry> entries(n);
  for (int i = 0; i < n; ++i) {
    Point p(dim);
    for (int d = 0; d < dim; ++d) p[d] = rng.Uniform(0.0, 100.0);
    entries[i] = {Mbr(p), i, 1.0 / n};
  }
  return entries;
}

// Checks the recursive structural invariants: child MBR containment,
// fan-out bounds, weight aggregation, and that every entry is reachable
// exactly once.
void CheckInvariants(const RTree& tree) {
  std::vector<int> entry_seen(tree.entries().size(), 0);
  double root_weight = 0.0;
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const RTree::Node& node = tree.nodes()[stack.back()];
    stack.pop_back();
    ASSERT_LE(static_cast<int>(node.children.size()), tree.fanout());
    ASSERT_GE(node.children.size(), 1u);
    double weight = 0.0;
    if (node.is_leaf) {
      for (int32_t e : node.children) {
        const RTree::Entry& entry = tree.entries()[e];
        EXPECT_TRUE(node.box.Contains(entry.box));
        weight += entry.weight;
        ++entry_seen[e];
      }
    } else {
      for (int32_t c : node.children) {
        const RTree::Node& child = tree.nodes()[c];
        EXPECT_TRUE(node.box.Contains(child.box));
        EXPECT_EQ(child.level, node.level - 1);
        weight += child.weight;
        stack.push_back(c);
      }
    }
    EXPECT_NEAR(weight, node.weight, 1e-9);
  }
  (void)root_weight;
  for (int count : entry_seen) EXPECT_EQ(count, 1);
  EXPECT_NEAR(tree.nodes()[tree.root()].weight, 1.0, 1e-9);
}

class RTreeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RTreeProperty, InvariantsAndQueriesMatchLinearScan) {
  const auto [n, dim, fanout] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 131 + dim * 7 + fanout);
  auto entries = RandomPointEntries(n, dim, rng);
  const auto reference = entries;  // ids map to positions
  const RTree tree = RTree::BulkLoad(std::move(entries), fanout);
  CheckInvariants(tree);
  EXPECT_EQ(tree.entries().size(), static_cast<size_t>(n));

  // Range queries vs. linear scan.
  for (int trial = 0; trial < 10; ++trial) {
    Point lo(dim), hi(dim);
    for (int d = 0; d < dim; ++d) {
      const double a = rng.Uniform(0.0, 100.0);
      lo[d] = a;
      hi[d] = a + rng.Uniform(0.0, 40.0);
    }
    const Mbr range(lo, hi);
    std::set<int> expected;
    for (const auto& e : reference) {
      if (range.Intersects(e.box)) expected.insert(e.id);
    }
    std::set<int> got;
    tree.ForEachIntersecting(range,
                             [&](const RTree::Entry& e) { got.insert(e.id); });
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeProperty,
    ::testing::Combine(::testing::Values(1, 4, 17, 100, 1000),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(4, 16)));

TEST(RTreeTest, SingleEntry) {
  std::vector<RTree::Entry> entries = {{Mbr(Point{1.0, 2.0}), 7, 1.0}};
  const RTree tree = RTree::BulkLoad(std::move(entries), 4);
  EXPECT_EQ(tree.height(), 1);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  Rng rng(5);
  auto entries = RandomPointEntries(4096, 2, rng);
  const RTree tree = RTree::BulkLoad(std::move(entries), 4);
  // STR packing with fan-out 4 over 4096 entries: ceil(log4(4096)) = 6
  // levels of nodes; allow one extra level of slack for uneven slabs.
  EXPECT_GE(tree.height(), 6);
  EXPECT_LE(tree.height(), 8);
}

TEST(RTreeTest, BoxEntries) {
  // Non-degenerate boxes as entries (the global tree over object MBRs).
  Rng rng(11);
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < 200; ++i) {
    Point lo{rng.Uniform(0.0, 90.0), rng.Uniform(0.0, 90.0)};
    Point hi{lo[0] + rng.Uniform(0.0, 10.0), lo[1] + rng.Uniform(0.0, 10.0)};
    entries.push_back({Mbr(lo, hi), i, 1.0 / 200});
  }
  const auto reference = entries;
  const RTree tree = RTree::BulkLoad(std::move(entries), 8);
  CheckInvariants(tree);
  const Mbr range(Point{20.0, 20.0}, Point{50.0, 50.0});
  std::set<int> expected;
  for (const auto& e : reference) {
    if (range.Intersects(e.box)) expected.insert(e.id);
  }
  std::set<int> got;
  tree.ForEachIntersecting(range,
                           [&](const RTree::Entry& e) { got.insert(e.id); });
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace osd
