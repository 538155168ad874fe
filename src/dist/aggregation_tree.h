// Balanced-binary-tree aggregation of per-site ECM-sketches (§5.1): leaves
// pair up and merge order-preservingly level by level until one root sketch
// summarizes the union stream. Each merge ships both children to the
// parent, so the network cost is 2 transfers per merge at the children's
// exact wire size; an odd survivor is carried to the next level for free.
//
// Error growth: each of the h = ceil(log2 n) merge levels inflates the
// window error by ε' + εε' (Theorem 4), giving the multi-level worst case
// hε(1+ε) + ε when every level uses ε' = ε. LeafEpsilonForTarget inverts
// that bound so leaves can be over-provisioned to meet a root target.

#ifndef ECM_DIST_AGGREGATION_TREE_H_
#define ECM_DIST_AGGREGATION_TREE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/network_stats.h"
#include "src/dist/serialize.h"
#include "src/dist/transport.h"
#include "src/util/result.h"

namespace ecm {

/// Height of the balanced binary aggregation tree over `num_leaves` sites:
/// ceil(log2 n) merge rounds (0 for a single leaf).
int TreeHeight(size_t num_leaves);

/// Worst-case window error at the root after `height` merge levels when
/// every level merges with ε' = ε: hε(1+ε) + ε (§5.1).
double MultiLevelErrorBound(double epsilon, int height);

/// Inverts MultiLevelErrorBound: the leaf ε that yields exactly `target`
/// at the root of a `height`-level tree.
double LeafEpsilonForTarget(double target, int height);

/// Outcome of one full tree aggregation.
template <SlidingWindowCounter Counter>
struct AggregationResult {
  EcmSketch<Counter> root;  ///< sketch of the union stream
  int height = 0;           ///< merge rounds executed
  NetworkStats network;     ///< exact transfer accounting
};

/// Aggregates per-site sketches (by pointer — no leaf copies) up a
/// balanced binary tree. `eps_prime_sw` is the window error parameter of
/// every merge level (Theorem 4's ε'); defaults to the leaves' own ε_sw.
/// Requires at least one leaf and mutually compatible, time-based
/// sketches (count-based merges are impossible, paper Fig. 2 —
/// EcmSketch::Merge rejects them).
///
/// Every merge ships both children's SerializeSketch images; the
/// transfers are charged to the result's NetworkStats and, when a
/// `transport` is given, carried through it — the runtime's single
/// accounting currency (dist/transport.h).
template <SlidingWindowCounter Counter>
Result<AggregationResult<Counter>> AggregateTreePtrs(
    const std::vector<const EcmSketch<Counter>*>& leaves,
    double eps_prime_sw = -1.0, Transport* transport = nullptr) {
  if (leaves.empty()) {
    return Status::InvalidArgument("AggregateTree: no leaves");
  }
  const double eps =
      eps_prime_sw > 0.0 ? eps_prime_sw : leaves[0]->config().epsilon_sw;
  if (leaves.size() == 1) {
    return AggregationResult<Counter>{*leaves[0], 0, NetworkStats{}};
  }

  std::vector<const EcmSketch<Counter>*> level = leaves;
  // Owns every merged intermediate; deque keeps their addresses stable
  // while pointers to them ride up the tree.
  std::deque<EcmSketch<Counter>> arena;
  NetworkStats net;
  int height = 0;
  const uint64_t seed_base = leaves[0]->config().seed;
  while (level.size() > 1) {
    ++height;
    std::vector<const EcmSketch<Counter>*> next;
    next.reserve((level.size() + 1) / 2);
    size_t i = 0;
    for (; i + 1 < level.size(); i += 2) {
      const std::vector<uint8_t> left = SerializeSketch(*level[i]);
      const std::vector<uint8_t> right = SerializeSketch(*level[i + 1]);
      net.messages += 2;
      net.bytes += left.size() + right.size();
      if (transport) {
        const NodeId parent = static_cast<NodeId>(i / 2);
        transport->Send(static_cast<NodeId>(i), parent, left.data(),
                        left.size());
        transport->Send(static_cast<NodeId>(i + 1), parent, right.data(),
                        right.size());
      }
      auto merged = EcmSketch<Counter>::Merge(
          {level[i], level[i + 1]}, eps,
          Mix64(seed_base ^ (0x5851F42D4C957F2DULL * (height * 4096 + i + 1))));
      if (!merged.ok()) return merged.status();
      arena.push_back(std::move(*merged));
      next.push_back(&arena.back());
    }
    if (i < level.size()) {
      next.push_back(level[i]);  // odd survivor rides up for free
    }
    level = std::move(next);
  }
  // With >= 2 leaves the root is always the last merge, owned by the arena.
  return AggregationResult<Counter>{std::move(arena.back()), height, net};
}

/// Value-vector convenience wrapper over AggregateTreePtrs.
template <SlidingWindowCounter Counter>
Result<AggregationResult<Counter>> AggregateTree(
    const std::vector<EcmSketch<Counter>>& leaves, double eps_prime_sw = -1.0,
    Transport* transport = nullptr) {
  std::vector<const EcmSketch<Counter>*> ptrs;
  ptrs.reserve(leaves.size());
  for (const auto& leaf : leaves) ptrs.push_back(&leaf);
  return AggregateTreePtrs(ptrs, eps_prime_sw, transport);
}

}  // namespace ecm

#endif  // ECM_DIST_AGGREGATION_TREE_H_
