#include "core/nnc_search.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <queue>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/memory_budget.h"

namespace osd {

namespace {

struct HeapItem {
  // Min distance between boxes under the search metric, or, for an exact
  // item, the parked object's exact MinAll().
  double key;
  bool is_object;
  bool exact;  // a parked object's second pop; `id` is then its parked slot
  int32_t id;  // node id, object index or parked slot
  friend bool operator>(const HeapItem& a, const HeapItem& b) {
    return a.key > b.key;
  }
};

NncTermination TerminationFor(interrupt::Kind kind) {
  return kind == interrupt::Kind::kCancelled
             ? NncTermination::kCancelled
             : NncTermination::kDeadlineExceeded;
}

const char* TerminationName(NncTermination t) {
  switch (t) {
    case NncTermination::kComplete: return "complete";
    case NncTermination::kDeadlineExceeded: return "deadline_exceeded";
    case NncTermination::kCancelled: return "cancelled";
    case NncTermination::kMemoryExceeded: return "memory_exceeded";
  }
  return "unknown";
}

}  // namespace

NncSearch::NncSearch(const Dataset& dataset, NncOptions options)
    : dataset_(&dataset), options_(options) {
  OSD_CHECK(options_.k >= 1);
}

NncSearch::NncSearch(const VersionedDataset::Snapshot& snapshot,
                     NncOptions options)
    : snapshot_(&snapshot), options_(options) {
  OSD_CHECK(options_.k >= 1);
  OSD_CHECK(!snapshot.empty());
}

NncResult NncSearch::Run(
    const UncertainObject& query,
    const std::function<void(int, double)>& on_candidate) const {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  NncResult result;
  // Control and trace go into the thread's QueryExec record, where the
  // pop site below, the max-flow loops and the span sites read them. Deep
  // polls throw Interrupted into the per-item containment handlers below.
  ScopedQueryExec exec(options_.control, options_.trace);
  QueryContext ctx(query, options_.metric);
  DominanceOracle oracle(ctx, options_.filters, &result.stats);
  // Snapshot mode reads through the pinned epoch: the base R-tree plus a
  // tombstone check per leaf entry, and the delta objects seeded into the
  // frontier below. Plain mode is the original immutable-dataset path.
  const RTree& tree = snapshot_ != nullptr ? snapshot_->global_tree()
                                           : dataset_->global_tree();
  auto object_at = [&](int i) -> const UncertainObject& {
    return snapshot_ != nullptr ? snapshot_->object(i) : dataset_->object(i);
  };
  auto is_deleted = [&](int32_t i) {
    return snapshot_ != nullptr && snapshot_->deleted(i);
  };
  if (snapshot_ != nullptr) result.epoch = snapshot_->epoch();

  // Frontier key of a node or object box: its min distance to the query
  // MBR under the search metric.
  auto box_key = [&](const Mbr& box) {
    return MbrMinDist(box, ctx.mbr(), options_.metric);
  };

  struct Member {
    int object_index;
    std::unique_ptr<ObjectProfile> profile;
  };
  std::vector<Member> members;
  // An object that survived its first pop with MinAll() above its MBR key
  // waits here until the heap reaches that exact key. `checked` members
  // were tested against it at the first pop, and `dominators` of them
  // dominate it.
  struct Parked {
    int object_index;
    std::unique_ptr<ObjectProfile> profile;
    size_t checked;
    int dominators;
  };
  std::vector<Parked> parked;
  // An object's check tries the members in ascending MemberKey(), stable
  // on emission order, and stops at the first key above the checked
  // object's MemberKeyBound(). Each entry carries its member's profile, so
  // the scan reads nothing else per member.
  struct Keyed {
    double key;
    int member;
    ObjectProfile* profile;
  };
  std::vector<Keyed> member_order;

  // Live-size accounting for everything the traversal owns: the frontier
  // heap (Add on push, Sub on pop), the member/parked/timeline entries,
  // and — inside the profiles themselves — the lazily built distance
  // views. A breach anywhere below throws MemoryExceeded before the
  // allocation.
  memory::ScopedCharge run_mem("nnc.run");

  // v's dominators among members [from, members.size()), added to
  // `dominators` and counted up to k. The bound needs v's statistics, so
  // it is read once they exist: until then each check's cover test may
  // settle v without building them.
  auto count_dominators = [&](ObjectProfile& v, size_t from,
                              int dominators) {
    double bound = std::numeric_limits<double>::infinity();
    bool bounded = false;
    for (const Keyed& e : member_order) {
      if (static_cast<size_t>(e.member) < from) continue;
      if (!bounded && v.has_stats()) {
        bound = oracle.MemberKeyBound(options_.op, v);
        bounded = true;
      }
      if (e.key > bound) break;
      if (oracle.Dominates(options_.op, *e.profile, v) &&
          ++dominators >= options_.k) {
        break;
      }
    }
    return dominators;
  };
  // Confirms an object as a candidate. `profile` is moved from only after
  // the charge, so a breach leaves the caller's profile intact.
  auto emit = [&](int object_index, std::unique_ptr<ObjectProfile>& profile) {
    run_mem.Add(sizeof(Member) + sizeof(NncEmission) + sizeof(Keyed));
    const Keyed entry{oracle.MemberKey(options_.op, *profile),
                      static_cast<int>(members.size()), profile.get()};
    member_order.insert(
        std::upper_bound(member_order.begin(), member_order.end(), entry,
                         [](const Keyed& a, const Keyed& b) {
                           return a.key < b.key;
                         }),
        entry);
    members.push_back({object_index, std::move(profile)});
    const double t = elapsed();
    result.timeline.push_back({object_index, t});
    if (on_candidate) on_candidate(object_index, t);
  };

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  // An empty tree (empty dataset, or a snapshot whose base drained) seeds
  // nothing; the traversal then answers from the delta alone, or returns
  // an empty exact result.
  if (!tree.empty()) {
    run_mem.Add(sizeof(HeapItem));
    heap.push({box_key(tree.nodes()[tree.root()].box), false, false,
               tree.root()});
  }
  if (snapshot_ != nullptr) {
    // Delta objects are not in the base tree: seed each one directly as an
    // object item, keyed by its MBR min-distance like a leaf entry would
    // be, so the best-first order (and with it Theorem 9's access-order
    // argument) is preserved across base and delta uniformly.
    const int nbase = snapshot_->base_size();
    const int ntotal = snapshot_->size();
    long pushes = 0;
    for (int i = nbase; i < ntotal; ++i) {
      if (i != options_.exclude_id) ++pushes;
    }
    run_mem.Add(pushes * static_cast<long>(sizeof(HeapItem)));
    for (int i = nbase; i < ntotal; ++i) {
      if (i == options_.exclude_id) continue;
      heap.push({box_key(snapshot_->object(i).mbr()), true, false, i});
    }
  }

  {
    OSD_TRACE_SPAN(obs::SpanKind::kTraversal);
    while (!heap.empty()) {
      // Cooperative termination: the same poll the max-flow loops use.
      // Every pop reads the clock, so a ~0 budget stops before any
      // traversal work and a passed deadline stops at the next pop.
      if (const std::optional<interrupt::Kind> stop = interrupt::Pending()) {
        result.termination = TerminationFor(*stop);
        break;
      }
      OSD_FAILPOINT("nnc.pop");

      const HeapItem item = heap.top();
      heap.pop();
      run_mem.Sub(sizeof(HeapItem));

      // Budget/OOM containment: a breach while this item is examined
      // returns it to the frontier un-examined, so in anytime mode the
      // drain below still certifies it. The re-push cannot allocate — the
      // pop above left the heap's capacity untouched.
      try {
        if (!item.is_object) {
          OSD_FAILPOINT("nnc.node_expand");
          const RTree::Node& node = tree.nodes()[item.id];
          // Cover-based entry pruning (Theorem 4): once k confirmed
          // candidates fully dominate the node's box, nothing below can be
          // a candidate.
          int node_dominators = 0;
          for (const Member& m : members) {
            result.stats.node_ops += 1;
            if (oracle.Covers(object_at(m.object_index).mbr(), node.box)) {
              if (++node_dominators >= options_.k) break;
            }
          }
          if (node_dominators >= options_.k) {
            ++result.entries_pruned;
            continue;
          }
          // Charge all of this node's pushes up front: on breach nothing
          // was pushed yet, so the re-pushed node stays the sole owner of
          // its subtree and the drain introduces no duplicates.
          long pushes = 0;
          if (node.is_leaf) {
            for (int32_t e : node.children) {
              const int32_t id = tree.entries()[e].id;
              if (id != options_.exclude_id && !is_deleted(id)) ++pushes;
            }
          } else {
            pushes = static_cast<long>(node.children.size());
          }
          OSD_FAILPOINT("mem.nnc.heap");
          run_mem.Add(pushes * static_cast<long>(sizeof(HeapItem)));
          if (node.is_leaf) {
            for (int32_t e : node.children) {
              const RTree::Entry& entry = tree.entries()[e];
              if (entry.id == options_.exclude_id) continue;
              if (is_deleted(entry.id)) continue;  // tombstoned base slot
              heap.push({box_key(entry.box), true, false, entry.id});
            }
          } else {
            for (int32_t c : node.children) {
              heap.push({box_key(tree.nodes()[c].box), false, false, c});
            }
          }
          continue;
        }

        if (item.exact) {
          // A parked object at its exact min distance: check it against the
          // members confirmed since its first pop, then emit it.
          Parked& p = parked[item.id];
          if (count_dominators(*p.profile, p.checked, p.dominators) <
              options_.k) {
            emit(p.object_index, p.profile);
          } else {
            p.profile.reset();
          }
          continue;
        }

        // An object: evaluate against the confirmed candidates. An object
        // with >= k dominators can neither be a candidate nor be needed as
        // a dominator of later objects (each of its own dominators
        // dominates them transitively), so it is dropped outright.
        OSD_FAILPOINT("nnc.object_examine");
        const UncertainObject& candidate = object_at(item.id);
        ++result.objects_examined;
        auto profile =
            std::make_unique<ObjectProfile>(candidate, ctx, &result.stats);
        const int dominators = count_dominators(*profile, 0, 0);
        if (dominators >= options_.k) continue;
        // The MBR key is only a lower bound on MinAll(). A survivor whose
        // exact min distance lies above it goes back into the heap at that
        // distance, so members are confirmed in non-decreasing MinAll()
        // (Theorem 9's access order). F+-SD reads no instance data, and a
        // strict MBR dominator always has a smaller MBR key, so it keeps
        // MBR order.
        if (options_.op != Operator::kFPlusSd &&
            profile->MinAll() > item.key) {
          run_mem.Add(sizeof(Parked) + sizeof(HeapItem));
          const double exact_key = profile->MinAll();
          parked.push_back(
              {item.id, std::move(profile), members.size(), dominators});
          heap.push({exact_key, true, true,
                     static_cast<int32_t>(parked.size() - 1)});
          continue;
        }
        emit(item.id, profile);
      } catch (const interrupt::Interrupted& e) {
        // Deep-poll termination (a max-flow loop saw the deadline/cancel
        // mid-item). Same contract as the pop-site poll above: never an
        // error, just an early stop — with the in-flight item returned to
        // the frontier so a degraded drain still certifies it.
        heap.push(item);
        result.termination = TerminationFor(e.kind());
        break;
      } catch (const MemoryExceeded&) {
        if (!options_.degraded_superset) throw;
        heap.push(item);
        result.termination = NncTermination::kMemoryExceeded;
        break;
      } catch (const std::bad_alloc&) {
        if (!options_.degraded_superset) throw;
        heap.push(item);
        result.termination = NncTermination::kMemoryExceeded;
        break;
      }
    }
  }

  // Final near-tie cleanup: discard any emitted candidate dominated by a
  // candidate emitted after it. The traversal checks each object against
  // every member confirmed before it, and members are confirmed in
  // non-decreasing MinAll(). A dominator's MinAll() is at most its
  // victim's (the statistic conditions of Theorem 11, which every
  // operator implies via the cover chain), so a later dominator can only
  // sit in a tie with its victim: for each member the scan stops at the
  // first member whose MinAll() exceeds its own by more than the gate
  // tolerance. Under F+-SD a strict MBR dominator always has a strictly
  // smaller heap key, so the traversal order already guarantees a clean
  // result.
  std::vector<char> dead(members.size(), 0);
  if (options_.op != Operator::kFPlusSd) {
    OSD_TRACE_SPAN(obs::SpanKind::kCleanup);
    // Budget/OOM containment, cleanup flavour: cleanup only ever *removes*
    // candidates, and only ones certified dominated, so on a breach the
    // kill flags set so far remain sound and the rest of the pass is
    // simply skipped — the surviving set is still a superset of exact.
    try {
      constexpr double kGateEps = 1e-9;
      std::vector<int> dominators(members.size(), 0);
      for (size_t j = 0; j < members.size(); ++j) {
        ObjectProfile& pj = *members[j].profile;
        // With k == 1, an earlier member cannot dominate a later one (the
        // later object was checked against it during the traversal), so
        // only later-emitted dominators need re-checking. With k > 1 a
        // member may carry up to k-1 dominators from either side.
        const size_t start = options_.k == 1 ? j + 1 : 0;
        for (size_t i = start;
             i < members.size() && dominators[j] < options_.k; ++i) {
          if (i == j) continue;
          ObjectProfile& pi = *members[i].profile;
          if (pi.MinAll() > pj.MinAll() + kGateEps) break;
          if (pi.MaxAll() > pj.MaxAll() + kGateEps) continue;
          if (oracle.Dominates(options_.op, pi, pj)) ++dominators[j];
        }
        if (dominators[j] >= options_.k) dead[j] = 1;
      }
    } catch (const interrupt::Interrupted& e) {
      // Cleanup only removes certified-dominated candidates, so stopping
      // it early is sound; keep the flags set so far and move on.
      if (result.termination == NncTermination::kComplete) {
        result.termination = TerminationFor(e.kind());
      }
    } catch (const MemoryExceeded&) {
      if (!options_.degraded_superset) throw;
      result.termination = NncTermination::kMemoryExceeded;
    } catch (const std::bad_alloc&) {
      if (!options_.degraded_superset) throw;
      result.termination = NncTermination::kMemoryExceeded;
    }
  }
  for (size_t i = 0; i < members.size(); ++i) {
    if (!dead[i]) result.candidates.push_back(members[i].object_index);
  }

  // Anytime degraded mode: everything still reachable from the heap was
  // never confirmed (parked objects included), so it must be presumed a
  // candidate for the result to stay a superset of the exact answer. Each
  // object and each node sits in the heap at most once (entries are pushed
  // only when their unique leaf is expanded, and a parked object's exact
  // item replaces its popped one), so the drain appends no duplicates.
  // The drain itself is deliberately exempt from budget accounting: it is
  // the recovery path for a memory breach, so re-charging it could fail
  // the very mechanism that keeps the answer a certified superset. Its
  // footprint is bounded by the dataset's object count.
  if (result.termination != NncTermination::kComplete &&
      options_.degraded_superset) {
    OSD_TRACE_SPAN(obs::SpanKind::kFrontierDrain);
    result.degraded = true;
    std::vector<int32_t> stack;
    while (!heap.empty()) {
      const HeapItem item = heap.top();
      heap.pop();
      if (item.is_object) {
        result.candidates.push_back(item.exact ? parked[item.id].object_index
                                               : item.id);
        ++result.frontier_objects;
      } else {
        stack.push_back(item.id);
        ++result.frontier_nodes;
      }
    }
    while (!stack.empty()) {
      const RTree::Node& node = tree.nodes()[stack.back()];
      stack.pop_back();
      if (node.is_leaf) {
        for (int32_t e : node.children) {
          const RTree::Entry& entry = tree.entries()[e];
          if (entry.id == options_.exclude_id) continue;
          if (is_deleted(entry.id)) continue;  // tombstoned base slot
          result.candidates.push_back(entry.id);
          ++result.frontier_objects;
        }
      } else {
        for (int32_t c : node.children) stack.push_back(c);
      }
    }
  }
  result.seconds = elapsed();
  if (const memory::QueryBudgetScope* scope = memory::CurrentScope()) {
    result.mem_peak_bytes = scope->peak_bytes();
  }
  if (options_.trace != nullptr) {
    options_.trace->SetSummary(
        result.stats, result.objects_examined, result.entries_pruned,
        static_cast<long>(result.candidates.size()),
        TerminationName(result.termination), result.mem_peak_bytes);
  }
  return result;
}

}  // namespace osd
