#include "core/csr_feasible.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace tgp::core {

namespace {

/// Iterative DFS over the component of `root`, labelling it `id`; returns
/// its weight, or stops early (returning a value over `limit`) once the
/// running sum exceeds `limit`.
graph::Weight flood(const graph::CsrView& g, ComponentScratch& s, int root,
                    int id, graph::Weight limit) {
  graph::Weight sum = 0;
  int top = 0;
  s.stack[top++] = root;
  s.comp[root] = id;
  while (top > 0) {
    const int v = s.stack[--top];
    sum += g.vertex_weight[v];
    if (sum > limit) return sum;
    for (const auto& [u, e] : g.neighbors(v)) {
      if (s.removed[e] || s.comp[u] >= 0) continue;
      s.comp[u] = id;
      s.stack[top++] = u;
    }
  }
  return sum;
}

}  // namespace

ComponentScratch::ComponentScratch(const graph::CsrView& g,
                                   util::Arena& arena)
    : removed(arena.alloc_filled<unsigned char>(static_cast<std::size_t>(g.m),
                                                0)),
      comp(arena.alloc_array<int>(static_cast<std::size_t>(g.n))),
      comp_w(arena.alloc_array<graph::Weight>(static_cast<std::size_t>(g.n))),
      stack(arena.alloc_array<int>(static_cast<std::size_t>(g.n))) {}

int assign_components(const graph::CsrView& g, ComponentScratch& s) {
  std::fill(s.comp, s.comp + g.n, -1);
  int count = 0;
  for (int v = 0; v < g.n; ++v)
    if (s.comp[v] < 0)
      flood(g, s, v, count++, std::numeric_limits<graph::Weight>::infinity());
  return count;
}

void component_weights(const graph::CsrView& g, ComponentScratch& s,
                       int comp_count) {
  std::fill(s.comp_w, s.comp_w + comp_count, graph::Weight{0});
  for (int v = 0; v < g.n; ++v) s.comp_w[s.comp[v]] += g.vertex_weight[v];
}

bool feasible_with_removed(const graph::CsrView& g, ComponentScratch& s,
                           graph::Weight limit) {
  std::fill(s.comp, s.comp + g.n, -1);
  int count = 0;
  for (int v = 0; v < g.n; ++v)
    if (s.comp[v] < 0 && flood(g, s, v, count++, limit) > limit) return false;
  return true;
}

bool chain_cut_within(const graph::CsrView& g, const std::vector<int>& edges,
                      graph::Weight limit) {
  int start = 0;
  for (int e : edges) {
    if (g.window(start, e) > limit) return false;
    start = e + 1;
  }
  return g.window(start, g.n - 1) <= limit;
}

WeightedUnionFind::WeightedUnionFind(int n, const graph::Weight* w,
                                     util::Arena& arena)
    : parent(arena.alloc_array<int>(static_cast<std::size_t>(n))),
      size(arena.alloc_filled<int>(static_cast<std::size_t>(n), 1)),
      weight(arena.alloc_array<graph::Weight>(static_cast<std::size_t>(n))) {
  for (int i = 0; i < n; ++i) parent[i] = i;
  std::copy(w, w + n, weight);
}

int WeightedUnionFind::find(int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

bool WeightedUnionFind::merge_within(int a, int b, graph::Weight limit) {
  a = find(a);
  b = find(b);
  TGP_ENSURE(a != b, "edge inside one component");
  if (weight[a] + weight[b] > limit) return false;
  if (size[a] > size[b]) std::swap(a, b);
  parent[a] = b;
  size[b] += size[a];
  weight[b] += weight[a];
  return true;
}

}  // namespace tgp::core
