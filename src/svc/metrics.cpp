#include "svc/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "obs/prom.hpp"
#include "util/table.hpp"

namespace tgp::svc {

int LatencyHistogram::bucket_of(double micros) {
  if (!(micros >= 1.0)) return 0;
  std::uint64_t us = static_cast<std::uint64_t>(micros);
  int b = 63 - std::countl_zero(us);
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::bucket_upper(int b) {
  return std::ldexp(1.0, b + 1);  // 2^(b+1) µs
}

void LatencyHistogram::record(double micros) {
  ++counts[static_cast<std::size_t>(bucket_of(micros))];
  ++count;
  total_micros += micros;
  max_micros = std::max(max_micros, micros);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b)
    counts[static_cast<std::size_t>(b)] +=
        other.counts[static_cast<std::size_t>(b)];
  count += other.count;
  total_micros += other.total_micros;
  max_micros = std::max(max_micros, other.max_micros);
}

double LatencyHistogram::quantile_upper_micros(double q) const {
  if (count == 0 || std::isnan(q)) return 0;
  std::uint64_t target;
  if (q >= 1.0) {
    target = count;  // exact: no float product to overshoot
  } else if (q <= 0.0) {
    target = 1;
  } else {
    // Smallest rank k with k ≥ q·count.  The product is computed in
    // double, which can round to just above an integer (0.07 * 100 →
    // 7.000000000000001); back off by a scale-relative tolerance before
    // ceil so an exact boundary selects its own bucket.
    const double scaled = q * static_cast<double>(count);
    target = static_cast<std::uint64_t>(
        std::ceil(scaled - 1e-9 * std::max(1.0, scaled)));
    target = std::min(std::max<std::uint64_t>(target, 1), count);
  }
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen >= target) return bucket_upper(b);
  }
  return bucket_upper(kBuckets - 1);
}

LatencyHistogram MetricsSnapshot::overall_latency() const {
  LatencyHistogram all;
  for (const LatencyHistogram& h : latency_by_problem) all.merge(h);
  return all;
}

obs::SolveCounters MetricsSnapshot::counters_total() const {
  obs::SolveCounters all;
  for (const obs::SolveCounters& c : counters_by_problem) all.merge(c);
  return all;
}

std::string MetricsSnapshot::format() const {
  std::ostringstream os;
  os << "=== service metrics ===\n"
     << "threads: " << threads << ", queue capacity: " << queue_capacity
     << ", queue high-watermark: " << queue_high_watermark << "\n"
     << "jobs: " << submitted << " submitted, " << completed << " completed, "
     << failed << " failed\n";
  if (failed != 0) {
    os << "status:";
    bool first = true;
    for (int s = 0; s < kJobStatusCount; ++s) {
      std::uint64_t c = by_status[static_cast<std::size_t>(s)];
      if (c == 0) continue;
      os << (first ? " " : ", ") << c << ' '
         << job_status_name(static_cast<JobStatus>(s));
      first = false;
    }
    os << "\n";
  }
  if (watchdog_ticks != 0) {
    os << "watchdog: " << watchdog_ticks << " ticks, " << deadline_cancels
       << " deadline cancels, stuck workers now/peak: " << stuck_workers_now
       << "/" << stuck_worker_peak << "\n";
  }
  if (resilience.any()) {
    os << "resilience: inflight now/peak " << resilience.inflight_now << "/"
       << resilience.inflight_peak;
    if (resilience.max_inflight != 0)
      os << " (cap " << resilience.max_inflight << ")";
    os << ", rejected " << resilience.rejected_inflight << " inflight + "
       << resilience.rejected_rate << " rate, shed " << resilience.jobs_shed
       << ", retries " << resilience.retry_attempts << "\n";
    if (resilience.breaker_enabled) {
      os << "breaker: " << breaker_state_name(resilience.breaker.state)
         << ", trips " << resilience.breaker.trips << ", half-opens "
         << resilience.breaker.half_opens << ", closes "
         << resilience.breaker.closes << ", cache bypasses "
         << resilience.cache_bypasses << "\n";
    }
  }
  os << "cache: " << cache.hits << " hits, " << cache.misses << " misses ("
     << util::fmt(100.0 * cache.hit_rate(), 1) << "% hit rate), "
     << cache.entries << " entries, " << cache.bytes << "/"
     << cache.capacity_bytes << " bytes, " << cache.evictions
     << " evictions\n";
  if (cache.corrupt != 0 || cache.put_rejected != 0) {
    os << "cache integrity: " << cache.corrupt << " corrupt entries dropped, "
       << cache.put_rejected << " puts rejected (entry cap)\n";
  }
  if (durability.any()) {
    os << "durability: "
       << (durability.enabled ? (durability.clean_start ? "clean start"
                                                        : "crash recovery")
                              : "off")
       << ", " << durability.recovered_entries << " recovered, "
       << durability.warm_hits << " warm hits, dropped "
       << durability.dropped_crc << " crc + " << durability.dropped_truncated
       << " torn + " << durability.dropped_stale_epoch << " stale + "
       << durability.dropped_malformed << " malformed, "
       << durability.duplicates << " superseded\n"
       << "journal: " << durability.journal_appends << " appends, "
       << durability.journal_bytes << " bytes, " << durability.compactions
       << " compactions, " << durability.append_failures << " failures, "
       << durability.quarantined << " quarantined\n";
    if (durability.verified_ok != 0 || durability.verify_failed != 0) {
      os << "verifier: " << durability.verified_ok << " ok, "
         << durability.verify_failed << " failed\n";
    }
  }

  util::Table t({"problem", "jobs", "mean us", "p50 us", "p90 us", "p99 us",
                 "max us"});
  for (int p = 0; p < kProblemCount; ++p) {
    const LatencyHistogram& h =
        latency_by_problem[static_cast<std::size_t>(p)];
    if (h.count == 0) continue;
    t.row()
        .cell(problem_name(static_cast<Problem>(p)))
        .cell(h.count)
        .cell(h.mean_micros(), 1)
        .cell(h.quantile_upper_micros(0.50), 0)
        .cell(h.quantile_upper_micros(0.90), 0)
        .cell(h.quantile_upper_micros(0.99), 0)
        .cell(h.max_micros, 1);
  }
  LatencyHistogram all = overall_latency();
  if (all.count != 0 && t.row_count() > 1) {
    t.row()
        .cell("(all)")
        .cell(all.count)
        .cell(all.mean_micros(), 1)
        .cell(all.quantile_upper_micros(0.50), 0)
        .cell(all.quantile_upper_micros(0.90), 0)
        .cell(all.quantile_upper_micros(0.99), 0)
        .cell(all.max_micros, 1);
  }
  if (t.row_count() > 0) os << t.render();

  LatencyHistogram qw = queue_wait;
  if (qw.count != 0) {
    os << "queue wait: mean " << util::fmt(qw.mean_micros(), 1) << " us, p50 "
       << util::fmt(qw.quantile_upper_micros(0.50), 0) << " us, p99 "
       << util::fmt(qw.quantile_upper_micros(0.99), 0) << " us, max "
       << util::fmt(qw.max_micros, 1) << " us\n";
  }

  obs::SolveCounters total = counters_total();
  if (total.any()) {
    util::Table ct({"problem", "oracle", "bsearch", "gallop", "primes",
                    "nonred edges", "temps rows", "arena peak B",
                    "par tasks", "par width"});
    for (int p = 0; p < kProblemCount; ++p) {
      const obs::SolveCounters& c =
          counters_by_problem[static_cast<std::size_t>(p)];
      if (!c.any()) continue;
      ct.row()
          .cell(problem_name(static_cast<Problem>(p)))
          .cell(c.oracle_calls)
          .cell(c.bsearch_probes)
          .cell(c.gallop_probes)
          .cell(c.prime_subpaths)
          .cell(c.nonredundant_edges)
          .cell(c.temps_peak_rows)
          .cell(c.arena_bytes_peak)
          .cell(c.par_tasks)
          .cell(c.par_threads);
    }
    if (ct.row_count() > 0) os << ct.render();
  }
  return os.str();
}

std::string MetricsSnapshot::render_prometheus() const {
  std::ostringstream os;
  obs::PromWriter w(os);
  using Labels = obs::PromWriter::Labels;

  w.counter("tgp_jobs_submitted_total", "Jobs accepted by submit()",
            submitted);
  w.counter("tgp_jobs_completed_total", "Jobs finished (any status)",
            completed);
  w.counter("tgp_jobs_failed_total", "Completed jobs with ok == false",
            failed);
  for (int s = 0; s < kJobStatusCount; ++s) {
    w.counter("tgp_jobs_by_status_total", "Completed jobs by final status",
              by_status[static_cast<std::size_t>(s)],
              Labels{{"status", job_status_name(static_cast<JobStatus>(s))}});
  }

  w.counter("tgp_cache_hits_total", "Memo cache hits", cache.hits);
  w.counter("tgp_cache_misses_total", "Memo cache misses", cache.misses);
  w.counter("tgp_cache_insertions_total", "Memo cache insertions",
            cache.insertions);
  w.counter("tgp_cache_evictions_total", "Memo cache evictions",
            cache.evictions);
  w.counter("tgp_cache_lookup_faults_total",
            "Cache lookups that faulted (also counted as misses)",
            cache.lookup_faults);
  w.counter("tgp_cache_store_faults_total", "Cache stores that faulted",
            cache.store_faults);
  w.counter("tgp_cache_put_rejected_total",
            "Puts rejected by the per-entry byte cap", cache.put_rejected);
  w.counter("tgp_cache_corrupt_total",
            "Entries that failed their checksum at lookup (served as "
            "misses, quarantined)",
            cache.corrupt);
  w.counter("tgp_cache_warm_hits_total",
            "Hits served by recovery-loaded entries", cache.warm_hits);
  w.gauge("tgp_cache_entries", "Live memo cache entries",
          static_cast<double>(cache.entries));
  w.gauge("tgp_cache_bytes", "Memo cache bytes in use",
          static_cast<double>(cache.bytes));
  w.gauge("tgp_cache_capacity_bytes", "Memo cache byte budget",
          static_cast<double>(cache.capacity_bytes));

  w.gauge("tgp_threads", "Worker thread count",
          static_cast<double>(threads));
  w.gauge("tgp_queue_capacity", "Job queue capacity",
          static_cast<double>(queue_capacity));
  w.gauge("tgp_queue_high_watermark", "Deepest queue occupancy seen",
          static_cast<double>(queue_high_watermark));

  w.counter("tgp_watchdog_ticks_total", "Watchdog scan passes",
            watchdog_ticks);
  w.counter("tgp_watchdog_deadline_cancels_total",
            "Deadlines fired by the watchdog", deadline_cancels);
  w.gauge("tgp_stuck_workers", "Workers currently over the stuck threshold",
          static_cast<double>(stuck_workers_now));
  w.gauge("tgp_stuck_worker_peak", "Peak simultaneous stuck workers",
          static_cast<double>(stuck_worker_peak));

  w.counter("tgp_jobs_rejected_total",
            "Submits rejected kOverloaded by admission control",
            resilience.rejected_inflight, Labels{{"reason", "inflight"}});
  w.counter("tgp_jobs_rejected_total",
            "Submits rejected kOverloaded by admission control",
            resilience.rejected_rate, Labels{{"reason", "rate"}});
  w.counter("tgp_jobs_shed_total",
            "Jobs dropped at dequeue (deadline expired or cancelled while "
            "queued)",
            resilience.jobs_shed);
  w.counter("tgp_retry_attempts_total",
            "Backoff retries taken on transient cache faults",
            resilience.retry_attempts);
  w.counter("tgp_cache_bypasses_total",
            "Cache operations skipped while the breaker was open",
            resilience.cache_bypasses);
  w.gauge("tgp_inflight_jobs", "Jobs admitted but not yet settled",
          static_cast<double>(resilience.inflight_now));
  w.gauge("tgp_inflight_jobs_peak", "High-water of admitted unfinished jobs",
          static_cast<double>(resilience.inflight_peak));
  w.gauge("tgp_breaker_state",
          "Cache circuit breaker state (0=closed 1=open 2=half_open)",
          static_cast<double>(static_cast<int>(resilience.breaker.state)));
  w.counter("tgp_breaker_trips_total", "Breaker transitions into open",
            resilience.breaker.trips);
  w.counter("tgp_breaker_transitions_total", "All breaker state changes",
            resilience.breaker.transitions);

  w.gauge("tgp_durability_enabled",
          "Whether a crash-safe cache store is configured",
          durability.enabled ? 1.0 : 0.0);
  w.gauge("tgp_durability_clean_start",
          "Whether the last boot found a valid clean-shutdown marker",
          durability.clean_start ? 1.0 : 0.0);
  w.counter("tgp_recovered_entries_total",
            "Cache entries loaded from the snapshot+journal at boot",
            durability.recovered_entries);
  w.counter("tgp_recovery_dropped_total",
            "Records dropped during recovery", durability.dropped_crc,
            Labels{{"reason", "crc"}});
  w.counter("tgp_recovery_dropped_total", "", durability.dropped_truncated,
            Labels{{"reason", "truncated"}});
  w.counter("tgp_recovery_dropped_total", "", durability.dropped_stale_epoch,
            Labels{{"reason", "stale_epoch"}});
  w.counter("tgp_recovery_dropped_total", "", durability.dropped_malformed,
            Labels{{"reason", "malformed"}});
  w.counter("tgp_recovery_duplicates_total",
            "Recovered records superseded by a later write",
            durability.duplicates);
  w.counter("tgp_journal_appends_total", "Records appended to the journal",
            durability.journal_appends);
  w.counter("tgp_journal_append_failures_total",
            "Journal appends that failed", durability.append_failures);
  w.gauge("tgp_journal_bytes", "Current journal size",
          static_cast<double>(durability.journal_bytes));
  w.counter("tgp_compactions_total", "Snapshot compactions performed",
            durability.compactions);
  w.counter("tgp_quarantined_total",
            "Corrupt records preserved in the quarantine sidecar",
            durability.quarantined);
  w.counter("tgp_verify_ok_total", "Results that passed the independent "
            "verifier", durability.verified_ok);
  w.counter("tgp_verify_failures_total",
            "Results that failed the independent verifier",
            durability.verify_failed);

  for (int p = 0; p < kProblemCount; ++p) {
    const obs::SolveCounters& c =
        counters_by_problem[static_cast<std::size_t>(p)];
    Labels ls{{"problem", problem_name(static_cast<Problem>(p))}};
    w.counter("tgp_solver_oracle_calls_total",
              "Feasibility probes / DP edge steps", c.oracle_calls, ls);
    w.counter("tgp_solver_bsearch_probes_total",
              "Binary-search iterations", c.bsearch_probes, ls);
    w.counter("tgp_solver_gallop_probes_total",
              "Gallop-policy search probes", c.gallop_probes, ls);
    w.counter("tgp_solver_prime_subpaths_total",
              "Prime critical subpaths (paper's p)", c.prime_subpaths, ls);
    w.counter("tgp_solver_nonredundant_edges_total",
              "Non-redundant edges after reduction", c.nonredundant_edges,
              ls);
    w.gauge("tgp_solver_temps_peak_rows", "TEMP_S occupancy high-water",
            static_cast<double>(c.temps_peak_rows), ls);
    w.gauge("tgp_solver_arena_bytes_peak", "Scratch arena high-water",
            static_cast<double>(c.arena_bytes_peak), ls);
    w.counter("tgp_solver_par_tasks_total",
              "Intra-solve parallel blocks dispatched", c.par_tasks, ls);
    w.gauge("tgp_solver_par_threads", "Widest intra-solve team used",
            static_cast<double>(c.par_threads), ls);
  }

  for (int p = 0; p < kProblemCount; ++p) {
    const LatencyHistogram& h =
        latency_by_problem[static_cast<std::size_t>(p)];
    w.histogram_log2_micros(
        "tgp_job_latency_seconds", "Submit-to-complete job latency",
        h.counts.data(), h.counts.size(), h.count,
        static_cast<std::uint64_t>(h.total_micros),
        Labels{{"problem", problem_name(static_cast<Problem>(p))}});
  }
  w.histogram_log2_micros("tgp_queue_wait_seconds",
                          "Submit-to-dequeue queue wait", queue_wait.counts.data(),
                          queue_wait.counts.size(), queue_wait.count,
                          static_cast<std::uint64_t>(queue_wait.total_micros));
  return os.str();
}

std::string MetricsSnapshot::render_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"submitted\":" << submitted << ",\"completed\":" << completed
     << ",\"failed\":" << failed << ",\"threads\":" << threads
     << ",\"queue_capacity\":" << queue_capacity
     << ",\"queue_high_watermark\":" << queue_high_watermark;
  os << ",\"by_status\":{";
  for (int s = 0; s < kJobStatusCount; ++s) {
    if (s) os << ',';
    os << '"' << job_status_name(static_cast<JobStatus>(s))
       << "\":" << by_status[static_cast<std::size_t>(s)];
  }
  os << "},\"cache\":{\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses
     << ",\"insertions\":" << cache.insertions
     << ",\"evictions\":" << cache.evictions
     << ",\"lookup_faults\":" << cache.lookup_faults
     << ",\"store_faults\":" << cache.store_faults
     << ",\"entries\":" << cache.entries << ",\"bytes\":" << cache.bytes
     << ",\"capacity_bytes\":" << cache.capacity_bytes
     << ",\"put_rejected\":" << cache.put_rejected
     << ",\"corrupt\":" << cache.corrupt
     << ",\"recovered_entries\":" << cache.recovered_entries
     << ",\"warm_hits\":" << cache.warm_hits << "}";
  os << ",\"durability\":{\"enabled\":"
     << (durability.enabled ? "true" : "false") << ",\"clean_start\":"
     << (durability.clean_start ? "true" : "false")
     << ",\"recovered_entries\":" << durability.recovered_entries
     << ",\"warm_hits\":" << durability.warm_hits
     << ",\"dropped_crc\":" << durability.dropped_crc
     << ",\"dropped_truncated\":" << durability.dropped_truncated
     << ",\"dropped_stale_epoch\":" << durability.dropped_stale_epoch
     << ",\"dropped_malformed\":" << durability.dropped_malformed
     << ",\"duplicates\":" << durability.duplicates
     << ",\"journal_appends\":" << durability.journal_appends
     << ",\"journal_bytes\":" << durability.journal_bytes
     << ",\"append_failures\":" << durability.append_failures
     << ",\"compactions\":" << durability.compactions
     << ",\"quarantined\":" << durability.quarantined
     << ",\"verified_ok\":" << durability.verified_ok
     << ",\"verify_failed\":" << durability.verify_failed << "}";
  os << ",\"watchdog\":{\"ticks\":" << watchdog_ticks
     << ",\"deadline_cancels\":" << deadline_cancels
     << ",\"stuck_now\":" << stuck_workers_now
     << ",\"stuck_peak\":" << stuck_worker_peak << "}";
  os << ",\"resilience\":{\"max_inflight\":" << resilience.max_inflight
     << ",\"inflight_now\":" << resilience.inflight_now
     << ",\"inflight_peak\":" << resilience.inflight_peak
     << ",\"rejected_inflight\":" << resilience.rejected_inflight
     << ",\"rejected_rate\":" << resilience.rejected_rate
     << ",\"jobs_shed\":" << resilience.jobs_shed
     << ",\"retry_attempts\":" << resilience.retry_attempts
     << ",\"cache_bypasses\":" << resilience.cache_bypasses
     << ",\"breaker\":{\"enabled\":"
     << (resilience.breaker_enabled ? "true" : "false") << ",\"state\":\""
     << breaker_state_name(resilience.breaker.state)
     << "\",\"trips\":" << resilience.breaker.trips
     << ",\"half_opens\":" << resilience.breaker.half_opens
     << ",\"closes\":" << resilience.breaker.closes
     << ",\"transitions\":" << resilience.breaker.transitions << "}}";
  os << ",\"problems\":{";
  bool first = true;
  for (int p = 0; p < kProblemCount; ++p) {
    const LatencyHistogram& h =
        latency_by_problem[static_cast<std::size_t>(p)];
    const obs::SolveCounters& c =
        counters_by_problem[static_cast<std::size_t>(p)];
    if (h.count == 0 && !c.any()) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << problem_name(static_cast<Problem>(p)) << "\":{"
       << "\"jobs\":" << h.count << ",\"mean_us\":" << h.mean_micros()
       << ",\"p50_us\":" << h.quantile_upper_micros(0.50)
       << ",\"p99_us\":" << h.quantile_upper_micros(0.99)
       << ",\"max_us\":" << h.max_micros
       << ",\"oracle_calls\":" << c.oracle_calls
       << ",\"bsearch_probes\":" << c.bsearch_probes
       << ",\"gallop_probes\":" << c.gallop_probes
       << ",\"prime_subpaths\":" << c.prime_subpaths
       << ",\"nonredundant_edges\":" << c.nonredundant_edges
       << ",\"temps_peak_rows\":" << c.temps_peak_rows
       << ",\"arena_bytes_peak\":" << c.arena_bytes_peak
       << ",\"par_tasks\":" << c.par_tasks
       << ",\"par_threads\":" << c.par_threads << "}";
  }
  os << "},\"queue_wait\":{\"count\":" << queue_wait.count
     << ",\"mean_us\":" << queue_wait.mean_micros()
     << ",\"p50_us\":" << queue_wait.quantile_upper_micros(0.50)
     << ",\"p99_us\":" << queue_wait.quantile_upper_micros(0.99)
     << ",\"max_us\":" << queue_wait.max_micros << "}";
  os << "}\n";
  return os.str();
}

}  // namespace tgp::svc
