// Component queries over a tree CSR with some edges removed — the
// feasibility oracle of the tree solvers (bottleneck_min, proc_min,
// tree_bandwidth) — and its chain counterpart for the chain bandwidth
// solvers' postconditions.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/weight.hpp"
#include "util/arena.hpp"

namespace tgp::core {

/// Scratch for one component query at a time.  Every array is drawn from
/// the arena given at construction; `removed` starts all zero.
struct ComponentScratch {
  ComponentScratch(const graph::CsrView& g, util::Arena& arena);

  unsigned char* removed;  ///< m: nonzero = edge is cut
  int* comp;               ///< n: component id of each vertex
  graph::Weight* comp_w;   ///< n: vertex weight of each component id
  int* stack;              ///< n: DFS stack
};

/// Labels the components of g minus the removed edges 0, 1, ... in order
/// of their smallest vertex; returns how many there are.
int assign_components(const graph::CsrView& g, ComponentScratch& s);

/// comp_w[c] = total vertex weight of component c, for c < comp_count,
/// from the labels of the last assign_components call.
void component_weights(const graph::CsrView& g, ComponentScratch& s,
                       int comp_count);

/// True when every component of g minus the removed edges weighs at most
/// `limit`.  Stops at the first component over the limit.
bool feasible_with_removed(const graph::CsrView& g, ComponentScratch& s,
                           graph::Weight limit);

/// True when every component of the chain view g cut at the ascending
/// `edges` (edge e joins v_e and v_{e+1}) weighs at most `limit`.
/// Allocation-free: the window sums come from g's prefix table.
bool chain_cut_within(const graph::CsrView& g, const std::vector<int>& edges,
                      graph::Weight limit);

/// Union-find with union by size that carries each set's total weight at
/// its root; every array is drawn from the arena given at construction.
/// The tree solvers contract edges with it: on a tree every edge joins two
/// different sets.
struct WeightedUnionFind {
  /// Element i starts as a singleton of weight w[i], for i < n.
  WeightedUnionFind(int n, const graph::Weight* w, util::Arena& arena);

  int find(int x);
  /// Unites the sets of a and b when their combined weight stays at most
  /// `limit`; returns false and changes nothing otherwise.
  bool merge_within(int a, int b, graph::Weight limit);

  int* parent;
  int* size;
  graph::Weight* weight;  ///< total weight of the set, valid at roots
};

}  // namespace tgp::core
