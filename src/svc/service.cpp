#include "svc/service.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/verify.hpp"
#include "obs/trace.hpp"
#include "svc/persist.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace tgp::svc {

namespace {

std::chrono::microseconds to_duration(double micros) {
  return std::chrono::microseconds(
      static_cast<std::int64_t>(micros < 0 ? 0 : micros));
}

// How the independent verifier should read CanonicalOutcome::objective
// for each problem.  kPipeline gets the *bound* check: the solver
// reports the bottleneck-stage threshold but returns a subset of that
// stage's cut, whose own max edge may be strictly smaller.
core::VerifyObjective verify_objective_for(Problem p) {
  switch (p) {
    case Problem::kBottleneck: return core::VerifyObjective::kBottleneck;
    case Problem::kProcMin:    return core::VerifyObjective::kComponents;
    case Problem::kBandwidth:  return core::VerifyObjective::kTotalWeight;
    case Problem::kPipeline:   return core::VerifyObjective::kBottleneckBound;
  }
  return core::VerifyObjective::kTotalWeight;  // unreachable
}

// Check `cut`, in the numbering of `chain` / `tree`, against the
// objective and component count that `o` claims.
core::CutCheck verify_cut(Problem problem, const graph::Chain& chain,
                          graph::Weight K, const graph::Cut& cut,
                          const CanonicalOutcome& o) {
  return core::verify_chain_cut(chain, K, cut, verify_objective_for(problem),
                                o.objective, o.components);
}

core::CutCheck verify_cut(Problem problem, const graph::Tree& tree,
                          graph::Weight K, const graph::Cut& cut,
                          const CanonicalOutcome& o) {
  return core::verify_tree_cut(tree, K, cut, verify_objective_for(problem),
                               o.objective, o.components);
}

}  // namespace

PartitionService::PartitionService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_bytes, config.cache_shards,
             config.max_entry_bytes),
      queue_(config.queue_capacity),
      bucket_(config.rate_limit_per_sec, config.rate_burst),
      breaker_(config.breaker) {
  int threads = config.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  TGP_REQUIRE(threads <= 4096, "unreasonable worker count");
  TGP_REQUIRE(config.watchdog_interval_micros >= 0 &&
                  config.stuck_threshold_micros >= 0,
              "watchdog periods must be non-negative");
  TGP_REQUIRE(config.retry.max_attempts >= 1,
              "retry.max_attempts counts the first try (>= 1)");
  TGP_REQUIRE(config.retry.base_us >= 0 && config.retry.multiplier >= 1 &&
                  config.retry.jitter >= 0,
              "retry backoff parameters out of range");
  // Intra-solve thread budget, arbitrated against the worker pool: the
  // pool owns the box, so workers × solve_threads is clamped to the
  // hardware thread count (each worker always keeps at least itself).
  // Explicit oversubscribe_solves skips the clamp for tests/benches.
  {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 1;
    int budget = hw / threads;
    if (budget < 1) budget = 1;
    int want = config.solve_threads;
    if (want <= 0) want = budget;  // auto: split the box evenly
    TGP_REQUIRE(want <= 4096, "unreasonable solve_threads");
    solve_threads_ = config.oversubscribe_solves ? want
                                                 : std::min(want, budget);
  }
  // Warm-start before any worker can race a probe: recovery happens on
  // this thread, so the first job already sees the recovered entries.
  if (!config_.cache_dir.empty() && config_.cache_bytes > 0)
    recover_cache_store();
  worker_state_.reserve(static_cast<std::size_t>(threads));
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    worker_state_.push_back(std::make_unique<WorkerState>());
    worker_state_.back()->rng = util::Pcg32(
        config.resilience_seed, static_cast<std::uint64_t>(i) + 1);
    if (solve_threads_ > 1)
      worker_state_.back()->team = std::make_unique<par::Team>(solve_threads_);
  }
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back(&PartitionService::worker_loop, this,
                          std::ref(*worker_state_[static_cast<std::size_t>(i)]));
  if (config_.watchdog_interval_micros > 0)
    watchdog_ = std::thread(&PartitionService::watchdog_loop, this);
}

PartitionService::~PartitionService() { shutdown(); }

void PartitionService::recover_cache_store() {
  dur::CacheStore::Config sc;
  sc.dir = config_.cache_dir;
  sc.epoch = kCacheRecordEpoch;
  sc.compact_threshold_bytes = config_.journal_compact_bytes;
  sc.fsync_each_append = config_.durable_fsync;
  store_ = std::make_unique<dur::CacheStore>(sc);
  // Replay in file order into a map so the *last* record for a
  // fingerprint wins — a re-solve after an eviction journals a fresh
  // copy, and snapshot + journal may both carry the key.
  std::unordered_map<CacheKey, CanonicalOutcome, CacheKeyHash> latest;
  std::uint64_t decoded = 0;
  store_->load([&](std::span<const std::uint8_t> record) {
    CacheKey key;
    CanonicalOutcome outcome;
    if (!decode_cache_record(record, key, outcome)) {
      recovery_malformed_.fetch_add(1);
      return;
    }
    ++decoded;
    latest[key] = std::move(outcome);
  });
  recovery_duplicates_.store(decoded - latest.size());
  for (auto& [key, outcome] : latest)
    cache_.load_recovered(key, std::move(outcome));
  // Corrupt entries detected at hit time are preserved for post-mortem
  // in the store's quarantine sidecar before being dropped.
  cache_.set_quarantine([this](const CacheKey& key,
                               const CanonicalOutcome& outcome) {
    store_->quarantine(encode_cache_record(key, outcome));
  });
}

void PartitionService::journal_store(WorkerState& state, const CacheKey& key,
                                     const CanonicalOutcome& outcome) {
  if (!store_) return;
  TGP_SPAN("svc", "journal.append");
  state.record_scratch.clear();
  encode_cache_record(state.record_scratch, key, outcome);
  store_->append(state.record_scratch);
}

bool PartitionService::compact_cache_store() {
  if (!store_) return false;
  TGP_SPAN("svc", "journal.compact");
  // compact_with collects under the store lock: a concurrent solve's
  // put+append pair either lands in the collected state or re-appends
  // to the fresh journal — never in the truncated gap between.
  return store_->compact_with(
      [&](std::vector<std::vector<std::uint8_t>>& records) {
        cache_.for_each(
            [&](const CacheKey& key, const CanonicalOutcome& outcome) {
              records.push_back(encode_cache_record(key, outcome));
            });
      });
}

std::size_t PartitionService::flush_durable() {
  if (!store_) return 0;
  if (!store_->flush_clean()) return 0;
  return cache_.stats().entries;
}

std::int64_t PartitionService::now_micros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

std::size_t PartitionService::submit(JobSpec spec) {
  return submit(std::move(spec), CompletionFn());
}

std::size_t PartitionService::submit(JobSpec spec, CompletionFn on_complete) {
  TGP_SPAN("svc", "submit");
  if (shut_.load()) throw ServiceStopped();
  SpecCheck check = validate_spec(spec);
  // Admission control: decide *before* the queue is touched whether this
  // job may enter at all.  The span is emitted for every submit — a
  // disabled resilience layer still records how long admission took
  // (effectively nothing), which keeps trace-validation rules uniform.
  const char* reject_why = nullptr;
  bool counted = false;
  {
    TGP_SPAN("svc", "admission");
    if (check.ok()) {
      if (config_.max_inflight > 0) {
        // fetch_add-then-check keeps the cap race-free: the token is
        // taken optimistically and returned on rejection, so two racing
        // submits can never both slip under the cap.
        std::size_t cur = inflight_.fetch_add(1) + 1;
        if (cur > config_.max_inflight) {
          inflight_.fetch_sub(1);
          rejected_inflight_.fetch_add(1);
          reject_why = "admission: inflight cap reached";
        } else {
          counted = true;
          std::size_t peak = inflight_peak_.load();
          while (cur > peak &&
                 !inflight_peak_.compare_exchange_weak(peak, cur)) {
          }
        }
      }
      if (reject_why == nullptr && bucket_.enabled() &&
          !bucket_.try_acquire(now_micros())) {
        if (counted) {
          inflight_.fetch_sub(1);
          counted = false;
        }
        rejected_rate_.fetch_add(1);
        reject_why = "admission: rate limit exceeded";
      }
    }
  }
  std::shared_ptr<util::CancelToken> token;
  if (check.ok() && reject_why == nullptr) {
    token = std::make_shared<util::CancelToken>();
    if (spec.deadline_micros > 0)
      token->set_deadline(Clock::now() + to_duration(spec.deadline_micros));
  }
  std::size_t slot;
  {
    std::lock_guard lk(results_mu_);
    slot = slots_.size();
    slots_.emplace_back();
    slots_[slot].cancel = token;
    slots_[slot].counted_inflight = counted ? 1 : 0;
    slots_[slot].on_complete = std::move(on_complete);
  }
  submitted_.fetch_add(1);
  if (!check.ok()) {
    // Reject up front: the slot settles without ever touching the queue,
    // so one malformed spec cannot block or poison a worker.
    settle(slot, failed_result(check.status, std::move(check.error)));
    return slot;
  }
  if (reject_why != nullptr) {
    // Overload rejection settles the same way — the caller still gets a
    // slot (run_batch/wait_idle bookkeeping is unchanged), just one that
    // completed kOverloaded without consuming queue or worker time.
    settle(slot, failed_result(JobStatus::kOverloaded, reject_why));
    return slot;
  }
  bool queued =
      queue_.push(QueuedJob{slot, std::move(spec), token, now_micros()});
  if (!queued) {
    // Lost the race against shutdown(): settle the slot so wait_idle()
    // callers are not left hanging, then report the refusal.
    settle(slot, failed_result(JobStatus::kCancelled,
                               "service shut down before the job ran"));
    throw ServiceStopped();
  }
  return slot;
}

std::vector<JobResult> PartitionService::run_batch(std::vector<JobSpec> specs) {
  std::vector<std::size_t> slots;
  slots.reserve(specs.size());
  for (JobSpec& s : specs) slots.push_back(submit(std::move(s)));
  wait_idle();
  std::vector<JobResult> out;
  out.reserve(slots.size());
  for (std::size_t slot : slots) out.push_back(result(slot));
  return out;
}

void PartitionService::wait_idle() {
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [&] { return completed_.load() >= submitted_.load(); });
}

bool PartitionService::cancel(std::size_t slot) {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  if (slots_[slot].done) return false;
  // Validation failures settle before submit returns, so an undone slot
  // always carries a token.
  slots_[slot].cancel->request_cancel();
  return true;
}

const JobResult& PartitionService::result(std::size_t slot) const {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  TGP_REQUIRE(slots_[slot].done != 0, "job has not completed yet");
  // Safe to hand out: deque addresses are stable and the slot is final.
  return slots_[slot].result;
}

bool PartitionService::completed(std::size_t slot) const {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  return slots_[slot].done != 0;
}

MetricsSnapshot PartitionService::metrics() const {
  MetricsSnapshot m;
  m.submitted = submitted_.load();
  m.completed = completed_.load();
  m.failed = failed_.load();
  for (int s = 0; s < kJobStatusCount; ++s)
    m.by_status[static_cast<std::size_t>(s)] =
        by_status_[static_cast<std::size_t>(s)].load();
  m.cache = cache_.stats();
  m.queue_high_watermark = queue_.high_watermark();
  m.queue_capacity = queue_.capacity();
  m.threads = static_cast<int>(workers_.size());
  m.watchdog_ticks = watchdog_ticks_.load();
  m.deadline_cancels = deadline_cancels_.load();
  m.stuck_worker_peak = stuck_worker_peak_.load();
  m.resilience.max_inflight = config_.max_inflight;
  m.resilience.inflight_now = inflight_.load();
  m.resilience.inflight_peak = inflight_peak_.load();
  m.resilience.rejected_inflight = rejected_inflight_.load();
  m.resilience.rejected_rate = rejected_rate_.load();
  m.resilience.jobs_shed = jobs_shed_.load();
  m.resilience.retry_attempts = retry_attempts_.load();
  m.resilience.cache_bypasses = cache_bypasses_.load();
  m.resilience.degraded_solves = degraded_solves_.load();
  m.resilience.breaker_enabled = config_.breaker.enabled;
  m.resilience.breaker = breaker_.stats();
  m.durability.verified_ok = verified_ok_.load();
  m.durability.verify_failed = verify_failed_.load();
  if (store_) {
    m.durability.enabled = true;
    m.durability.clean_start = store_->clean_start();
    m.durability.recovered_entries = m.cache.recovered_entries;
    m.durability.warm_hits = m.cache.warm_hits;
    const dur::LoadStats& ls = store_->load_stats();
    m.durability.dropped_crc = ls.dropped_crc;
    m.durability.dropped_truncated = ls.dropped_truncated;
    m.durability.dropped_stale_epoch = ls.dropped_stale_epoch;
    m.durability.dropped_malformed = recovery_malformed_.load();
    m.durability.duplicates = recovery_duplicates_.load();
    const dur::CacheStore::Stats ss = store_->stats();
    m.durability.journal_appends = ss.appends;
    m.durability.journal_bytes = ss.journal_bytes;
    m.durability.append_failures = ss.append_failures;
    m.durability.compactions = ss.compactions;
    m.durability.quarantined = ss.quarantined;
  }
  std::int64_t now = now_micros();
  for (const auto& ws : worker_state_) {
    std::int64_t busy = ws->busy_since_micros.load();
    if (busy >= 0 &&
        static_cast<double>(now - busy) > config_.stuck_threshold_micros)
      ++m.stuck_workers_now;
    std::lock_guard lk(ws->mu);
    for (int p = 0; p < kProblemCount; ++p) {
      m.latency_by_problem[static_cast<std::size_t>(p)].merge(
          ws->latency[static_cast<std::size_t>(p)]);
      m.counters_by_problem[static_cast<std::size_t>(p)].merge(
          ws->counters[static_cast<std::size_t>(p)]);
    }
    m.queue_wait.merge(ws->queue_wait);
  }
  return m;
}

void PartitionService::cancel_all_incomplete() {
  std::lock_guard lk(results_mu_);
  for (std::size_t s = first_pending_; s < slots_.size(); ++s)
    if (!slots_[s].done && slots_[s].cancel) slots_[s].cancel->request_cancel();
}

void PartitionService::shutdown() { shutdown_within(-1); }

bool PartitionService::shutdown_within(double drain_micros) {
  bool drained = true;
  if (!shut_.exchange(true)) {
    if (drain_micros >= 0) {
      {
        std::unique_lock lk(idle_mu_);
        drained = idle_cv_.wait_for(lk, to_duration(drain_micros), [&] {
          return completed_.load() >= submitted_.load();
        });
      }
      // Past the drain deadline: ask every outstanding job to stop.  The
      // workers settle them (kCancelled) as they pop or poll, so the join
      // below still terminates promptly.
      if (!drained) cancel_all_incomplete();
    }
    queue_.close();
    {
      std::lock_guard lk(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
  }
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  if (watchdog_.joinable()) watchdog_.join();
  return drained;
}

void PartitionService::settle(std::size_t slot, JobResult r) {
  bool failed = !r.ok;
  JobStatus status = r.status;
  bool release_inflight = false;
  CompletionFn on_complete;
  {
    std::lock_guard lk(results_mu_);
    release_inflight = slots_[slot].counted_inflight != 0;
    slots_[slot].counted_inflight = 0;
    slots_[slot].result = std::move(r);
    slots_[slot].done = 1;
    on_complete = std::move(slots_[slot].on_complete);
    slots_[slot].on_complete = nullptr;
    while (first_pending_ < slots_.size() && slots_[first_pending_].done)
      ++first_pending_;
  }
  if (release_inflight) inflight_.fetch_sub(1);
  if (failed) failed_.fetch_add(1);
  by_status_[static_cast<std::size_t>(status)].fetch_add(1);
  // Outside every lock (the hook may do arbitrary work — the network
  // backend encodes and queues a frame here), but before the completed
  // count releases wait_idle() waiters.  Reading the slot unlocked is
  // safe: this thread finalized it above, deque addresses are stable,
  // and a settled slot is never written again.
  if (on_complete) on_complete(slot, slots_[slot].result);
  {
    std::lock_guard lk(idle_mu_);
    completed_.fetch_add(1);
  }
  idle_cv_.notify_all();
}

void PartitionService::worker_loop(WorkerState& state) {
  {
    // Stable worker index for trace exports; registration is cheap and
    // happens whether or not tracing ever turns on.
    std::size_t idx = 0;
    for (; idx < worker_state_.size(); ++idx)
      if (worker_state_[idx].get() == &state) break;
    obs::trace::set_thread_name("worker-" + std::to_string(idx));
  }
  // Install this worker's intra-solve team (null = serial) for every job
  // it processes; the hot solvers pick it up via par::active_team().
  par::TeamScope team_scope(state.team.get());
  while (auto job = queue_.pop()) {
    // Install the job's distributed-trace context (no-op when unsampled):
    // the queue.wait/shed emissions and every span under process() then
    // carry the originating request's trace id and parent.
    obs::ContextScope job_trace(job->spec.trace);
    const util::CancelToken* token = job->cancel.get();
    JobResult r;
    double micros = 0;
    Problem problem = job->spec.problem;
    const std::int64_t dequeued = now_micros();
    const double wait_micros =
        static_cast<double>(dequeued - job->enqueue_micros);
    if (token->stop_requested() || token->deadline_expired()) {
      // Shed at dequeue: cancelled while queued, or the deadline passed
      // before any work started — fail fast without touching the solver.
      // Sheds get their own span and counter and stay *out* of the
      // queue-wait histogram: a shed job waited, by definition, longer
      // than its budget, and folding those waits in used to skew the
      // reported p95 of jobs that actually ran.
      if (obs::trace::enabled()) {
        const std::int64_t end_ns = obs::trace::now_ns();
        obs::trace::emit_complete(
            "svc", "queue.shed",
            end_ns - static_cast<std::int64_t>(wait_micros * 1e3), end_ns,
            {"slot", static_cast<std::int64_t>(job->slot)});
      }
      jobs_shed_.fetch_add(1);
      token->try_set(util::CancelReason::kDeadline);
      r = failed_result(token->reason() == util::CancelReason::kDeadline
                            ? JobStatus::kTimeout
                            : JobStatus::kCancelled,
                        token->reason() == util::CancelReason::kDeadline
                            ? "deadline expired before the job started"
                            : "cancelled before the job started");
    } else {
      if (obs::trace::enabled()) {
        // The wait started on the submitting thread; reconstruct its
        // start from the measured wait so the span nests under this
        // worker's job.
        const std::int64_t end_ns = obs::trace::now_ns();
        obs::trace::emit_complete(
            "svc", "queue.wait",
            end_ns - static_cast<std::int64_t>(wait_micros * 1e3), end_ns,
            {"slot", static_cast<std::int64_t>(job->slot)});
      }
      // Degraded mode triggers on the backlog *behind* this job: depth is
      // only sampled when the watermark is configured, so the default
      // path never takes the queue lock here.
      const bool degrade =
          config_.degrade_watermark > 0 &&
          queue_.size() >= config_.degrade_watermark;
      state.busy_since_micros.store(dequeued);
      {
        obs::Span job_span("svc", "job");
        job_span.arg("slot", static_cast<std::int64_t>(job->slot));
        util::ScopedTimer timer(micros);
        r = process(state, job->spec, token, degrade);
        job_span.arg("cache_hit", r.cache_hit ? 1 : 0);
      }
      state.busy_since_micros.store(-1);
      r.latency_micros = micros;
      std::lock_guard lk(state.mu);
      state.latency[static_cast<std::size_t>(problem)].record(micros);
      state.queue_wait.record(wait_micros);
      if (r.ok)
        state.counters[static_cast<std::size_t>(problem)].merge(r.counters);
    }
    settle(job->slot, std::move(r));
  }
}

void PartitionService::watchdog_loop() {
  std::unique_lock lk(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lk, to_duration(config_.watchdog_interval_micros),
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    watchdog_ticks_.fetch_add(1);
    // Promote expired deadlines of queued/running jobs so even a solver
    // between polls is asked to stop as soon as possible.
    {
      std::lock_guard rk(results_mu_);
      for (std::size_t s = first_pending_; s < slots_.size(); ++s) {
        const Slot& slot = slots_[s];
        if (slot.done || !slot.cancel) continue;
        if (slot.cancel->deadline_expired() &&
            slot.cancel->try_set(util::CancelReason::kDeadline))
          deadline_cancels_.fetch_add(1);
      }
    }
    // Count workers busy on one job past the stuck threshold.
    std::int64_t now = now_micros();
    std::uint64_t stuck = 0;
    for (const auto& ws : worker_state_) {
      std::int64_t busy = ws->busy_since_micros.load();
      if (busy >= 0 &&
          static_cast<double>(now - busy) > config_.stuck_threshold_micros)
        ++stuck;
    }
    std::uint64_t peak = stuck_worker_peak_.load();
    while (stuck > peak && !stuck_worker_peak_.compare_exchange_weak(peak, stuck)) {
    }
    // Fold an oversized journal into a fresh snapshot.  Piggybacking on
    // the watchdog keeps compaction off the solve path; workers append
    // concurrently and anything journaled mid-compaction simply replays
    // on top of the snapshot at the next boot.
    if (store_ && store_->wants_compaction()) compact_cache_store();
  }
}

void PartitionService::note_breaker(CircuitBreaker::Outcome outcome) {
  if (!outcome.transitioned) return;
  if (obs::trace::enabled()) {
    // Instant (zero-duration) event: breaker state changes are rare and
    // cross-cutting, so they are recorded as markers, not scopes.
    const std::int64_t ns = obs::trace::now_ns();
    obs::trace::emit_complete(
        "svc", "breaker.transition", ns, ns,
        {"state", static_cast<std::int64_t>(outcome.state)});
  }
}

void PartitionService::backoff(WorkerState& state, int attempt) {
  retry_attempts_.fetch_add(1);
  // state.rng is worker-private (no lock): jitter decorrelates workers
  // backing off at the same attempt without affecting any payload.
  const double delay_us = config_.retry.backoff_us(attempt, state.rng);
  TGP_SPAN("svc", "retry.backoff");
  if (delay_us > 0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(delay_us));
}

bool PartitionService::cache_probe(WorkerState& state, const CacheKey& key,
                                   CanonicalOutcome& out,
                                   CacheHitInfo* info) {
  if (config_.cache_bytes == 0) return false;
  const bool gated = config_.breaker.enabled;
  if (gated) {
    CircuitBreaker::Outcome gate = breaker_.allow(now_micros());
    note_breaker(gate);
    if (!gate.admitted) {
      // Open breaker: skip the probe entirely — the job recomputes,
      // which costs time but can never fail it.
      cache_bypasses_.fetch_add(1);
      return false;
    }
  }
  CacheLookup looked = CacheLookup::kFault;
  const int attempts = std::max(1, config_.retry.max_attempts);
  for (int a = 0; a < attempts; ++a) {
    if (a > 0) backoff(state, a);
    TGP_SPAN("svc", "cache.probe");
    looked = cache_.get_checked(key, out, info);
    if (looked != CacheLookup::kFault) break;
  }
  if (gated)
    note_breaker(looked == CacheLookup::kFault
                     ? breaker_.record_fault(now_micros())
                     : breaker_.record_success(now_micros()));
  return looked == CacheLookup::kHit;
}

void PartitionService::cache_store(WorkerState& state, const CacheKey& key,
                                   const CanonicalOutcome& outcome) {
  if (config_.cache_bytes == 0) return;
  const bool gated = config_.breaker.enabled;
  if (gated) {
    CircuitBreaker::Outcome gate = breaker_.allow(now_micros());
    note_breaker(gate);
    if (!gate.admitted) {
      cache_bypasses_.fetch_add(1);
      return;
    }
  }
  if (!gated && !config_.retry.enabled()) {
    // Resilience off: keep the original single-attempt store.
    TGP_SPAN("svc", "cache.store");
    cache_.put(key, outcome);
    return;
  }
  bool stored = false;
  const int attempts = std::max(1, config_.retry.max_attempts);
  for (int a = 0; a < attempts && !stored; ++a) {
    if (a > 0) backoff(state, a);
    TGP_SPAN("svc", "cache.store");
    stored = cache_.put_checked(key, outcome);
  }
  if (gated)
    note_breaker(stored ? breaker_.record_success(now_micros())
                        : breaker_.record_fault(now_micros()));
}

template <typename GraphKey, typename Graph>
bool PartitionService::serve_hit(WorkerState& state, const JobSpec& spec,
                                 const CacheKey& key, const GraphKey& gk,
                                 const Graph& graph, JobResult& r) {
  CacheHitInfo info;
  if (!cache_probe(state, key, state.hit_scratch, &info)) return false;
  const CanonicalOutcome& o = state.hit_scratch;
  const bool verify = info.needs_verify || config_.verify_results;
  // Range-check the cached canonical edges before they index the edge
  // map, so a corrupt record is quarantined instead of read out of bounds.
  const int m = graph.edge_count();
  bool ok = std::all_of(o.cut.edges.begin(), o.cut.edges.end(),
                        [m](int e) { return e >= 0 && e < m; });
  if (ok) {
    apply_outcome(r, o, gk);
    if (verify) {
      // A recovery-loaded entry crossed a process boundary; re-check the
      // mapped cut on the submitted graph with the independent verifier
      // before serving it.
      TGP_SPAN("svc", "verify");
      ok = verify_cut(spec.problem, graph, spec.K, r.cut, o).ok;
    }
  }
  if (!ok) {
    verify_failed_.fetch_add(1);
    // quarantine_erase routes the entry through the quarantine hook,
    // which lands the bytes in the store's sidecar; the job falls through
    // to a fresh solve.
    cache_.quarantine_erase(key);
    r = JobResult{};
    return false;
  }
  if (verify) {
    if (info.needs_verify) cache_.mark_verified(key);
    verified_ok_.fetch_add(1);
  }
  r.cache_hit = true;
  return true;
}

JobResult PartitionService::process(WorkerState& state, const JobSpec& spec,
                                    const util::CancelToken* cancel,
                                    bool degrade) {
  JobResult r;
  try {
    if (util::faults().fire("svc.worker.solve"))
      throw util::InjectedFault("svc.worker.solve");
    // One canonicalization pass gives the cache key and the edge map a
    // hit needs; the canonical graph itself is built only on a miss.
    if (spec.is_chain()) {
      graph::ChainKey gk = [&] {
        TGP_SPAN("svc", "canonicalize");
        return graph::chain_key(*spec.chain);
      }();
      CacheKey key = CacheKey::make(gk.fingerprint, spec.problem, spec.K);
      // Degraded or not, the cache is probed first: a hit serves the
      // *optimal* cached payload and needs no degradation at all.
      if (serve_hit(state, spec, key, gk, *spec.chain, r)) return r;
      const bool fallback = degrade && spec.problem == Problem::kBandwidth;
      graph::CanonicalChain cc;
      CanonicalOutcome o = [&] {
        TGP_SPAN("svc", "solve");
        cc = graph::materialize_chain(*spec.chain, gk);
        if (fallback)
          return solve_canonical_chain_degraded(cc.chain, spec.K);
        return solve_canonical_chain(spec.problem, cc.chain, spec.K, cancel,
                                     &state.arena);
      }();
      if (config_.verify_results) {
        TGP_SPAN("svc", "verify");
        core::CutCheck check =
            verify_cut(spec.problem, cc.chain, spec.K, o.cut, o);
        TGP_ENSURE(check.ok,
                   "result verification failed: " + check.detail);
        verified_ok_.fetch_add(1);
      }
      apply_outcome(r, o, cc);
      if (fallback) {
        // The degraded cut is exact in objective but may differ from the
        // primary solver's cut, so it is flagged and never cached — a
        // later uncontended solve must still produce the canonical
        // payload.
        r.degraded = true;
        degraded_solves_.fetch_add(1);
      } else {
        cache_store(state, key, o);
        journal_store(state, key, o);
      }
    } else {
      graph::TreeKey gk = [&] {
        TGP_SPAN("svc", "canonicalize");
        return graph::tree_key(*spec.tree, &state.arena);
      }();
      CacheKey key = CacheKey::make(gk.fingerprint, spec.problem, spec.K);
      if (serve_hit(state, spec, key, gk, *spec.tree, r)) return r;
      std::optional<graph::CanonicalTree> ct;
      CanonicalOutcome o = [&] {
        TGP_SPAN("svc", "solve");
        ct.emplace(graph::materialize_tree(*spec.tree, std::move(gk)));
        return solve_canonical_tree(spec.problem, ct->tree, spec.K, cancel,
                                    &state.arena);
      }();
      if (config_.verify_results) {
        TGP_SPAN("svc", "verify");
        core::CutCheck check =
            verify_cut(spec.problem, ct->tree, spec.K, o.cut, o);
        TGP_ENSURE(check.ok,
                   "result verification failed: " + check.detail);
        verified_ok_.fetch_add(1);
      }
      apply_outcome(r, o, *ct);
      cache_store(state, key, o);
      journal_store(state, key, o);
    }
  } catch (...) {
    // The worker's catch-all boundary: any escape — solver contract
    // violation, injected fault, bad_alloc, cancellation — becomes a
    // failed slot, never a dead worker or std::terminate.
    auto [status, error] = classify_exception(std::current_exception());
    r = failed_result(status, std::move(error));
  }
  return r;
}

}  // namespace tgp::svc
