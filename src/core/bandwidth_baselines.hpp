// Baselines for bandwidth minimization on chains.
//
// Four independent implementations of the same optimization problem as
// bandwidth_min_temps.  They serve three purposes: (1) oracle cross-checks —
// any two algorithms must agree on the optimal cut weight on every input —
// (2) the runtime comparison of §2.3.2 against the previously best known
// O(n log n) algorithm, and (3) serving: the monotone-deque DP is the
// fastest exact chain-bandwidth solver here, so the partition service runs
// it (svc::solve_canonical_chain) and keeps TEMPS as the paper's baseline.
#pragma once

#include "core/bandwidth_min.hpp"
#include "graph/chain.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"

namespace tgp::core {

/// Exhaustive subset enumeration; exact oracle for tiny chains.
/// Precondition: chain has at most 24 edges.
BandwidthResult bandwidth_min_brute(const graph::Chain& chain,
                                    graph::Weight K);

/// Textbook dynamic program scanning the feasible window naively:
/// O(n·L) time where L is the longest window with weight ≤ K.
BandwidthResult bandwidth_min_dp_naive(const graph::Chain& chain,
                                       graph::Weight K);

/// Modern monotone-deque dynamic program: O(n) time.  Post-dates the
/// paper; it shows where the state of the art moved, and it is the
/// service's chain-bandwidth solver.  Emits the `core/bandwidth_min` span
/// and counts one oracle call (window argmin) per vertex.  `cancel`
/// (optional) is polled once per vertex; a stop request unwinds with
/// util::CancelledError.  The DP arrays and the deque live in `scratch`
/// (null = per-thread fallback arena), so steady state allocates nothing
/// beyond the returned cut.
BandwidthResult bandwidth_min_dp_deque(
    const graph::Chain& chain, graph::Weight K,
    const util::CancelToken* cancel = nullptr, util::Arena* scratch = nullptr);

/// O(n log n) balanced-structure dynamic program, standing in for Nicol &
/// O'Hallaron (1991) — the best previously known algorithm the paper
/// compares against.  Same recurrence as dp_naive with the feasible
/// window's minima maintained in an ordered multiset.
BandwidthResult bandwidth_min_nicol(const graph::Chain& chain,
                                    graph::Weight K);

}  // namespace tgp::core
