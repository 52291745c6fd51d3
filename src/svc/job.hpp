// Partition jobs — the unit of work the service runtime executes.
//
// A JobSpec names a problem (bottleneck / processor minimization /
// bandwidth / the §2.1+§2.2 pipeline), carries the task graph (chain or
// tree, shared so duplicate-heavy batches stay cheap) and the bound K.
// execute_job() is the *direct path*: it canonicalizes the graph
// (graph/fingerprint.hpp), runs the solver on the canonical form and maps
// the cut back to the submitted labeling.  The service's cached path goes
// through exactly the same canonical coordinates, which is what makes a
// memo hit bit-identical to recomputation: the answer is a pure function
// of (canonical graph, problem, K), never of presentation order, thread
// interleaving or cache state.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "graph/chain.hpp"
#include "graph/cutset.hpp"
#include "graph/fingerprint.hpp"
#include "graph/tree.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace tgp::util {
class Arena;
}

namespace tgp::svc {

/// Which optimization a job asks for.  Each is defined for both graph
/// kinds (chains route through the specialized chain algorithms).
enum class Problem {
  kBottleneck,  ///< min max crossing-edge weight (§2.1 / chain closed form)
  kProcMin,     ///< min component count (§2.2)
  kBandwidth,   ///< min total cut weight (§2.3 on chains; greedy on trees,
                ///< exact being NP-complete per Theorem 1)
  kPipeline,    ///< bottleneck-then-proc-min composition (§2.1 + §2.2)
};

constexpr int kProblemCount = 4;

const char* problem_name(Problem p);

/// Parse "bottleneck" | "procmin" | "bandwidth" | "pipeline"; throws
/// std::invalid_argument otherwise.
Problem parse_problem(const std::string& name);

/// One request.  Exactly one of chain/tree is set.
struct JobSpec {
  Problem problem = Problem::kBottleneck;
  graph::Weight K = 0;
  std::shared_ptr<const graph::Chain> chain;
  std::shared_ptr<const graph::Tree> tree;
  /// Optional wall-clock budget in microseconds, measured from
  /// submission; 0 = no deadline.  A job past its deadline completes
  /// with JobStatus::kTimeout (see service.hpp for exact semantics).
  double deadline_micros = 0;
  /// Distributed-trace identity of the originating request (unsampled
  /// default = no tracing).  The worker installs it (obs::ContextScope)
  /// for the duration of the job, so every span the solve emits nests
  /// under the remote parent.  Not part of the job's semantic identity:
  /// canonicalization, caching and results ignore it entirely.
  obs::TraceContext trace;

  bool is_chain() const { return chain != nullptr; }
  int n() const;

  static JobSpec for_chain(Problem p, graph::Weight K, graph::Chain c);
  static JobSpec for_tree(Problem p, graph::Weight K, graph::Tree t);
  static JobSpec for_chain(Problem p, graph::Weight K,
                           std::shared_ptr<const graph::Chain> c);
  static JobSpec for_tree(Problem p, graph::Weight K,
                          std::shared_ptr<const graph::Tree> t);
};

/// Solver output in canonical coordinates — what the memo cache stores.
struct CanonicalOutcome {
  graph::Cut cut;                 ///< edges in *canonical* numbering
  graph::Weight objective = 0;    ///< problem-specific (see JobResult)
  int components = 1;
  /// Work counters recorded by the solve that produced this outcome.
  /// Cached alongside the cut so a memo hit reports the *original*
  /// solve's counters — per-job counters stay a pure function of
  /// (canonical graph, problem, K) regardless of cache state or thread
  /// count (the threads-1-vs-8 differential test relies on this).
  obs::SolveCounters counters;
  /// Approximate heap footprint, for the cache's byte budget.
  std::size_t memory_bytes() const;
};

/// How a job ended — the service's error taxonomy.  Exactly one status
/// per completed job; `ok` below is shorthand for status == kOk.
enum class JobStatus {
  kOk,             ///< solved; payload fields are valid
  kInvalidSpec,    ///< rejected by validate_spec (or a solver precondition)
  kTimeout,        ///< the job's deadline expired before it finished
  kCancelled,      ///< cancel(slot) landed, or the service shut down first
  kInternalError,  ///< the solver threw (bug, injected fault, resources)
  kOverloaded,     ///< rejected by admission control before enqueue
};

constexpr int kJobStatusCount = 6;

/// "ok" | "invalid_spec" | "timeout" | "cancelled" | "internal_error" |
/// "overloaded".
const char* job_status_name(JobStatus s);

/// One completed job.  `objective` is β(S) for kBandwidth, the bottleneck
/// threshold for kBottleneck/kPipeline, and the component count for
/// kProcMin.  All fields except the accounting ones (cache_hit,
/// latency_micros) are deterministic functions of the job spec; under
/// deadlines, cancellation or fault injection the *payload* of a kOk
/// result is still deterministic — only whether a job survives can vary.
struct JobResult {
  bool ok = false;                ///< status == kOk
  JobStatus status = JobStatus::kInternalError;
  std::string error;              ///< set when !ok (human-readable detail)
  graph::Cut cut;                 ///< submitted-graph edge numbering
  graph::Weight objective = 0;
  int components = 1;
  /// Solver work counters for this job (see CanonicalOutcome::counters
  /// for the determinism contract; arena_bytes_peak is the one
  /// accounting-only field).  Zero for failed jobs.
  obs::SolveCounters counters;
  bool cache_hit = false;
  /// Solved with the cheaper degraded-mode baseline under queue pressure
  /// (service degrade watermark — see svc/resilience.hpp).  The objective
  /// is still optimal for chain bandwidth-min (the fallback is an exact
  /// O(n) algorithm) but the *cut* may differ from the primary solver's,
  /// so degraded results are excluded from bit-identity differentials.
  bool degraded = false;
  double latency_micros = 0;
};

/// Build a failed result with the given status and detail.
JobResult failed_result(JobStatus status, std::string error);

/// Up-front JobSpec validation — the service runs this before a job can
/// reach a worker.  Checks: exactly one graph; the graph is well-formed
/// (chains are re-validated; trees are valid by construction); K is
/// finite and at least the maximum vertex weight (required for
/// feasibility by every problem); the deadline is not negative or NaN.
struct SpecCheck {
  JobStatus status = JobStatus::kOk;
  std::string error;
  bool ok() const { return status == JobStatus::kOk; }
};
SpecCheck validate_spec(const JobSpec& spec);

/// Map an exception escaping a solve onto the taxonomy: CancelledError →
/// kTimeout/kCancelled, anything else (including injected faults and
/// solver precondition throws) → kInternalError / kInvalidSpec.
std::pair<JobStatus, std::string> classify_exception(std::exception_ptr e);

/// Run the solver for `spec` directly (no queue, no cache): canonicalize,
/// solve, map back.  Solver precondition violations surface as the
/// underlying std::invalid_argument — callers wanting the service's
/// error-capturing behavior use execute_job_captured.  `cancel` is
/// forwarded to the solver's poll points.
JobResult execute_job(const JobSpec& spec,
                      const util::CancelToken* cancel = nullptr);

/// Like execute_job but with the service workers' failure semantics:
/// the spec is validated first, and exceptions become failed results
/// with the matching JobStatus instead of propagating.
JobResult execute_job_captured(const JobSpec& spec,
                               const util::CancelToken* cancel = nullptr);

/// The canonical-coordinates solver core, exposed for the service worker:
/// runs the problem on an already-canonicalized graph.  `arena` is the
/// solver scratch arena (null = per-thread fallback); the service passes
/// each worker's own arena so repeated jobs reuse one warm allocation.
CanonicalOutcome solve_canonical_chain(Problem problem,
                                       const graph::Chain& chain,
                                       graph::Weight K,
                                       const util::CancelToken* cancel =
                                           nullptr,
                                       util::Arena* arena = nullptr);
CanonicalOutcome solve_canonical_tree(Problem problem,
                                      const graph::Tree& tree,
                                      graph::Weight K,
                                      const util::CancelToken* cancel =
                                          nullptr,
                                      util::Arena* arena = nullptr);

/// Degraded-mode fallback for chain bandwidth-min under queue pressure:
/// the O(n) monotone-deque baseline (core/bandwidth_baselines.hpp).  The
/// objective equals the primary solver's (both are exact), but the cut
/// may be a different optimal witness — results built from this outcome
/// must be flagged JobResult::degraded and must not enter the memo cache.
CanonicalOutcome solve_canonical_chain_degraded(const graph::Chain& chain,
                                                graph::Weight K);

/// Translate a canonical-coordinates outcome onto the submitted
/// presentation (sorted edge indices), marking the result ok.  The
/// canonical graphs and the cache keys (graph::chain_key / tree_key) map
/// edges back identically, so the direct path, the service's miss path
/// and its cache-hit path produce bit-identical results.  Every cut edge
/// must be in range for the graph.
void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::CanonicalChain& cc);
void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::CanonicalTree& ct);
void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::ChainKey& key);
void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::TreeKey& key);

}  // namespace tgp::svc
