#include "core/bandwidth_baselines.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "core/csr_feasible.hpp"
#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace tgp::core {

namespace {

constexpr graph::Weight kInf = std::numeric_limits<graph::Weight>::infinity();

void check_preconditions(const graph::Chain& chain, graph::Weight K) {
  chain.validate();
  TGP_REQUIRE(K >= chain.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
}

/// Shared DP skeleton.  best[j] = minimum cut weight over the prefix
/// v_0..v_j with v_j ending its component; the last component starts at
/// some i with window(i, j) ≤ K, contributing edge i−1 (for i > 0) on top
/// of best[i−1].  `window_min` must return the argmin i over the feasible
/// window [lo, j] of g(i) = (i == 0 ? 0 : best[i−1] + β_{i−1}).  Scratch
/// comes from `arena` (the caller's ScratchFrame); one oracle call — one
/// window argmin — is counted per vertex, and `cancel` is polled there.
template <typename WindowMin>
BandwidthResult run_dp(const graph::Chain& chain, graph::Weight K,
                       const util::CancelToken* cancel, util::Arena& arena,
                       WindowMin window_min) {
  const int n = chain.n();
  const graph::CsrView view = graph::csr_from_chain(chain, arena);
  const graph::Weight k_eff =
      K + graph::load_epsilon(view.total_vertex_weight(), n);
  graph::Weight* best =
      arena.alloc_array<graph::Weight>(static_cast<std::size_t>(n));
  int* parent = arena.alloc_array<int>(static_cast<std::size_t>(n));

  auto g = [&](int i) -> graph::Weight {
    if (i == 0) return 0;
    return best[i - 1] + view.edge_weight[i - 1];
  };

  int lo = 0;
  for (int j = 0; j < n; ++j) {
    if (cancel) cancel->poll();
    while (lo < j && view.window(lo, j) > k_eff) ++lo;
    int arg = window_min(lo, j, g);
    TGP_ENSURE(arg >= lo && arg <= j, "window argmin out of range");
    best[j] = g(arg);
    parent[j] = arg;
  }
  if (obs::SolveCounters* oc = obs::active_counters())
    oc->oracle_calls += static_cast<std::uint64_t>(n);

  BandwidthResult out;
  out.cut_weight = best[n - 1];
  for (int j = n - 1; j > 0;) {
    int i = parent[j];
    if (i == 0) break;
    out.cut.edges.push_back(i - 1);
    j = i - 1;
  }
  // Collected right to left and distinct: reversing is Cut::canonical().
  std::reverse(out.cut.edges.begin(), out.cut.edges.end());
  TGP_ENSURE(chain_cut_within(view, out.cut.edges, k_eff),
             "baseline produced an infeasible cut");
  return out;
}

}  // namespace

BandwidthResult bandwidth_min_brute(const graph::Chain& chain,
                                    graph::Weight K) {
  check_preconditions(chain, K);
  const int m = chain.edge_count();
  TGP_REQUIRE(m <= 24, "brute force limited to 24 edges");
  const std::uint32_t limit = 1u << m;
  const graph::Weight k_eff =
      K + graph::load_epsilon(chain.total_vertex_weight(), chain.n());
  graph::Weight best_w = kInf;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    graph::Weight comp = 0;
    graph::Weight cutw = 0;
    bool ok = true;
    for (int v = 0; v < chain.n(); ++v) {
      comp += chain.vertex_weight[static_cast<std::size_t>(v)];
      if (comp > k_eff) {
        ok = false;
        break;
      }
      if (v < m && (mask >> v) & 1u) {
        cutw += chain.edge_weight[static_cast<std::size_t>(v)];
        comp = 0;
      }
    }
    if (ok && cutw < best_w) {
      best_w = cutw;
      best_mask = mask;
    }
  }
  TGP_ENSURE(best_w < kInf, "no feasible cut found (K < max weight?)");
  BandwidthResult out;
  out.cut_weight = best_w;
  for (int e = 0; e < m; ++e)
    if ((best_mask >> e) & 1u) out.cut.edges.push_back(e);
  return out;
}

BandwidthResult bandwidth_min_dp_naive(const graph::Chain& chain,
                                       graph::Weight K) {
  check_preconditions(chain, K);
  util::ScratchFrame frame(nullptr);
  return run_dp(chain, K, nullptr, frame.arena(), [](int lo, int j, auto g) {
    int arg = lo;
    graph::Weight best = g(lo);
    for (int i = lo + 1; i <= j; ++i) {
      graph::Weight v = g(i);
      if (v < best) {
        best = v;
        arg = i;
      }
    }
    return arg;
  });
}

BandwidthResult bandwidth_min_dp_deque(const graph::Chain& chain,
                                       graph::Weight K,
                                       const util::CancelToken* cancel,
                                       util::Arena* scratch) {
  TGP_SPAN("core", "bandwidth_min");
  check_preconditions(chain, K);
  util::ScratchFrame frame(scratch);
  // Monotone deque of candidate component-start indices with increasing
  // g-values; amortized O(1) per vertex.  Every index is pushed once, so
  // a flat array of n slots between `head` and `tail` never wraps.
  int* dq = frame->alloc_array<int>(static_cast<std::size_t>(chain.n()));
  int head = 0, tail = 0;
  return run_dp(chain, K, cancel, frame.arena(), [&](int lo, int j, auto g) {
    const graph::Weight gj = g(j);
    while (tail > head && g(dq[tail - 1]) >= gj) --tail;
    dq[tail++] = j;
    while (dq[head] < lo) ++head;
    return dq[head];
  });
}

BandwidthResult bandwidth_min_nicol(const graph::Chain& chain,
                                    graph::Weight K) {
  check_preconditions(chain, K);
  // Ordered multiset over the feasible window — O(log n) insert/erase/min,
  // O(n log n) total, matching the Nicol & O'Hallaron bound.
  std::set<std::pair<graph::Weight, int>> window;
  int pushed = -1;
  int erased_below = 0;
  util::ScratchFrame frame(nullptr);
  return run_dp(chain, K, nullptr, frame.arena(), [&](int lo, int j, auto g) {
    while (pushed < j) {
      ++pushed;
      window.emplace(g(pushed), pushed);
    }
    while (erased_below < lo) {
      window.erase({g(erased_below), erased_below});
      ++erased_below;
    }
    return window.begin()->second;
  });
}

}  // namespace tgp::core
