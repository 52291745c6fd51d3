// The overload-resilience layer (svc/resilience.hpp) and its service
// integration: token-bucket admission, retry backoff determinism, the
// cache circuit breaker's state machine and thread-safe fault-site
// registration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "svc/resilience.hpp"
#include "svc/service.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tgp::svc {
namespace {

using graph::Weight;

graph::Chain make_chain(int n, std::uint64_t seed) {
  util::Pcg32 rng(seed, 17);
  return graph::random_chain(rng, n, graph::WeightDist::uniform(1, 30),
                             graph::WeightDist::uniform(1, 30));
}

JobSpec chain_job(Problem p, int n, std::uint64_t seed, double frac = 0.3) {
  graph::Chain c = make_chain(n, seed);
  Weight maxw = c.max_vertex_weight();
  Weight K = maxw + frac * (c.total_vertex_weight() - maxw);
  return JobSpec::for_chain(p, K, std::move(c));
}

// --- Fault-site classification -------------------------------------------

TEST(FaultClassify, KnownSitesAndConservativeDefault) {
  EXPECT_EQ(classify_site("svc.cache.get"), FaultClass::kTransientError);
  EXPECT_EQ(classify_site("svc.cache.put"), FaultClass::kTransientError);
  EXPECT_EQ(classify_site("svc.queue.push"), FaultClass::kTransientDelay);
  EXPECT_EQ(classify_site("svc.queue.pop"), FaultClass::kTransientDelay);
  EXPECT_EQ(classify_site("svc.worker.solve"), FaultClass::kPermanent);
  EXPECT_EQ(classify_site("made.up.site"), FaultClass::kPermanent);
}

// --- TokenBucket ---------------------------------------------------------

TEST(TokenBucket, DisabledAlwaysAdmits) {
  TokenBucket b(0, 0);
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_acquire(i));
}

TEST(TokenBucket, StartsFullThenDrains) {
  TokenBucket b(1000.0, 4.0);  // 4-token burst
  ASSERT_TRUE(b.enabled());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_acquire(0)) << i;
  EXPECT_FALSE(b.try_acquire(0));  // bucket empty, no time elapsed
}

TEST(TokenBucket, RefillsAtSustainedRate) {
  TokenBucket b(1000.0, 2.0);  // one token per millisecond
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_FALSE(b.try_acquire(0));
  EXPECT_FALSE(b.try_acquire(500));   // 0.5 tokens accrued
  EXPECT_TRUE(b.try_acquire(1000));   // one full token since t=0
  EXPECT_FALSE(b.try_acquire(1000));
  // Refill is capped at the burst: a long gap grants 2 tokens, not 10.
  EXPECT_NEAR(b.tokens_now(11000), 2.0, 1e-9);
}

TEST(TokenBucket, ClockRegressionIsNoElapsedTime) {
  TokenBucket b(1000.0, 1.0);
  EXPECT_TRUE(b.try_acquire(5000));
  EXPECT_FALSE(b.try_acquire(1000));  // regression: no refill, no crash
  EXPECT_TRUE(b.try_acquire(6000));   // 1ms after the last valid stamp
}

TEST(TokenBucket, ZeroBurstDefaultsToOneSecondOfTokens) {
  TokenBucket b(3.0, 0);
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));  // burst defaulted to max(rate, 1) = 3
  EXPECT_FALSE(b.try_acquire(0));
}

// --- RetryPolicy ---------------------------------------------------------

TEST(RetryPolicy, DisabledByDefault) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());
  p.max_attempts = 2;
  EXPECT_TRUE(p.enabled());
}

TEST(RetryPolicy, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy p;
  p.max_attempts = 4;
  p.base_us = 100;
  p.multiplier = 2.0;
  p.jitter = 0.1;
  util::Pcg32 rng(42, 1);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double nominal = 100.0 * std::pow(2.0, attempt - 1);
    for (int rep = 0; rep < 50; ++rep) {
      const double d = p.backoff_us(attempt, rng);
      EXPECT_GE(d, nominal * 0.9) << "attempt " << attempt;
      EXPECT_LE(d, nominal * 1.1) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, BackoffIsDeterministicPerRngStream) {
  RetryPolicy p;
  p.max_attempts = 3;
  auto draw = [&](std::uint64_t seed) {
    util::Pcg32 rng(seed, 9);
    std::vector<double> out;
    for (int i = 1; i <= 8; ++i) out.push_back(p.backoff_us(1 + (i % 2), rng));
    return out;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(RetryPolicy, ZeroJitterIsExact) {
  RetryPolicy p;
  p.base_us = 50;
  p.multiplier = 3.0;
  p.jitter = 0;
  util::Pcg32 rng(1, 1);
  EXPECT_DOUBLE_EQ(p.backoff_us(1, rng), 50.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(2, rng), 150.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(3, rng), 450.0);
}

// --- CircuitBreaker state machine ----------------------------------------

BreakerConfig small_breaker() {
  BreakerConfig c;
  c.enabled = true;
  c.window = 8;
  c.min_samples = 4;
  c.trip_fault_rate = 0.5;
  c.open_cooldown_us = 1000;
  c.half_open_probes = 2;
  return c;
}

TEST(CircuitBreaker, NoTripBeforeMinSamples) {
  CircuitBreaker b(small_breaker());
  // Three consecutive faults: rate 1.0 but below min_samples.
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(b.record_fault(i).transitioned) << i;
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // The fourth hits min_samples at rate 1.0 >= 0.5: trips.
  CircuitBreaker::Outcome o = b.record_fault(3);
  EXPECT_TRUE(o.transitioned);
  EXPECT_EQ(o.state, BreakerState::kOpen);
  EXPECT_EQ(b.stats().trips, 1u);
}

TEST(CircuitBreaker, SuccessesSlideFaultsOutOfTheWindow) {
  CircuitBreaker b(small_breaker());
  // 3 faults then 5 successes: window full at 3/8 = 0.375 < 0.5.
  for (int i = 0; i < 3; ++i) b.record_fault(i);
  for (int i = 0; i < 5; ++i) b.record_success(3 + i);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // Three more successes overwrite the old faults; the window is clean,
  // so three fresh faults make 3/8 and still must not trip...
  for (int i = 0; i < 3; ++i) b.record_success(10 + i);
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(b.record_fault(20 + i).transitioned) << i;
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // ...while the fourth reaches 4/8 = 0.5 and does.
  EXPECT_TRUE(b.record_fault(30).transitioned);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, OpenRejectsUntilCooldownThenProbes) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.record_fault(i);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  // Before the cooldown: rejected, no transition.
  CircuitBreaker::Outcome o = b.allow(500);
  EXPECT_FALSE(o.admitted);
  EXPECT_EQ(o.state, BreakerState::kOpen);
  // After the cooldown the allow() itself half-opens and admits.
  o = b.allow(3 + 1000);
  EXPECT_TRUE(o.transitioned);
  EXPECT_TRUE(o.admitted);
  EXPECT_EQ(o.state, BreakerState::kHalfOpen);
  // Probe budget: one more (half_open_probes = 2), then rejects.
  EXPECT_TRUE(b.allow(1100).admitted);
  EXPECT_FALSE(b.allow(1100).admitted);
  EXPECT_EQ(b.stats().half_opens, 1u);
}

TEST(CircuitBreaker, HalfOpenSuccessQuotaCloses) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.record_fault(i);
  b.allow(2000);  // half-open
  EXPECT_FALSE(b.record_success(2001).transitioned);
  CircuitBreaker::Outcome o = b.record_success(2002);
  EXPECT_TRUE(o.transitioned);
  EXPECT_EQ(o.state, BreakerState::kClosed);
  BreakerStats s = b.stats();
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(s.half_opens, 1u);
  EXPECT_EQ(s.closes, 1u);
  EXPECT_EQ(s.transitions, 3u);
  // The close reset the window: pre-trip faults must not linger, so three
  // fresh faults (3/8 once refilled past min_samples) cannot re-trip.
  for (int i = 0; i < 3; ++i) b.record_fault(3000 + i);
  b.record_success(3100);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, HalfOpenFaultReopensAndRestartsCooldown) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.record_fault(i);
  b.allow(2000);  // half-open
  CircuitBreaker::Outcome o = b.record_fault(2001);
  EXPECT_TRUE(o.transitioned);
  EXPECT_EQ(o.state, BreakerState::kOpen);
  EXPECT_EQ(b.stats().trips, 2u);
  // The cooldown restarts from the re-open time.
  EXPECT_FALSE(b.allow(2500).admitted);
  EXPECT_TRUE(b.allow(2001 + 1000).admitted);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

// --- FaultInjector thread safety -----------------------------------------

// First hits of fresh sites race from many threads: registration must not
// lose calls, and the decision stream must stay a pure function of
// (seed, site, call index) — the fired totals of a concurrent run match a
// single-threaded run of the same length.  Run under TSan in CI.
TEST(FaultInjector, ConcurrentFirstHitRegistrationLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kCalls = 500;
  const std::vector<std::string> sites = {"race.a", "race.b", "race.c"};

  auto fired_counts = [&](util::FaultInjector& inj) {
    std::vector<std::uint64_t> out;
    for (const std::string& s : sites) out.push_back(inj.fired(s));
    return out;
  };

  util::FaultInjector serial;
  serial.arm(99, 0.3);
  for (const std::string& s : sites)
    for (int i = 0; i < kThreads * kCalls; ++i) serial.fire(s);
  serial.disarm();

  util::FaultInjector racy;
  racy.arm(99, 0.3);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&racy, &sites] {
      for (int i = 0; i < kCalls; ++i)
        for (const std::string& s : sites) racy.fire(s);
    });
  for (std::thread& th : threads) th.join();
  racy.disarm();

  for (const std::string& s : sites)
    EXPECT_EQ(racy.calls(s), static_cast<std::uint64_t>(kThreads * kCalls))
        << s;
  // Same seed, same per-site call count => same number of fires, no
  // matter how the threads interleaved.
  EXPECT_EQ(fired_counts(racy), fired_counts(serial));
}

TEST(FaultInjector, SetSiteProbabilityWhileFiringIsSafe) {
  util::FaultInjector inj;
  inj.arm(5, 0.0);
  std::thread firer([&] {
    for (int i = 0; i < 20000; ++i) inj.fire("flip");
  });
  for (int i = 0; i < 200; ++i)
    inj.set_site_probability("flip", i % 2 ? 1.0 : 0.0);
  firer.join();
  inj.disarm();
  EXPECT_EQ(inj.calls("flip"), 20000u);
}

// --- Service integration: admission --------------------------------------

TEST(ServiceResilience, InflightCapIsNeverExceeded) {
  ServiceConfig config;
  config.threads = 4;
  config.max_inflight = 3;
  config.queue_capacity = 64;
  PartitionService service(config);

  std::vector<std::size_t> slots;
  for (int i = 0; i < 200; ++i)
    slots.push_back(service.submit(
        chain_job(Problem::kBottleneck, 60, 0xCAFE + i)));
  service.wait_idle();

  std::size_t ok = 0, overloaded = 0;
  for (std::size_t s : slots) {
    const JobResult& r = service.result(s);
    if (r.ok) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, JobStatus::kOverloaded);
      EXPECT_FALSE(r.error.empty());
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, slots.size());
  EXPECT_GE(ok, 3u);  // at least one capful must get through

  MetricsSnapshot m = service.metrics();
  EXPECT_TRUE(m.resilience.any());
  EXPECT_LE(m.resilience.inflight_peak, config.max_inflight);
  EXPECT_EQ(m.resilience.rejected_inflight,
            static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(m.resilience.inflight_now, 0u);
}

TEST(ServiceResilience, RateLimitShedsExcessSubmits) {
  ServiceConfig config;
  config.threads = 2;
  config.rate_limit_per_sec = 1.0;  // one job/s sustained...
  config.rate_burst = 2.0;          // ...after a 2-job burst
  PartitionService service(config);

  std::size_t overloaded = 0;
  for (int i = 0; i < 30; ++i) {
    std::size_t s =
        service.submit(chain_job(Problem::kBandwidth, 40, 0xBEEF + i));
    service.wait_idle();
    if (service.result(s).status == JobStatus::kOverloaded) ++overloaded;
  }
  // The loop runs far faster than 1 job/s: the burst admits the first
  // two, nearly everything after is rejected.
  EXPECT_GE(overloaded, 20u);
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.resilience.rejected_rate,
            static_cast<std::uint64_t>(overloaded));
}

// --- Service integration: retries stay deterministic ---------------------

TEST(ServiceResilience, RetriedSolvesAreBitIdenticalAcrossThreadCounts) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 24; ++i)
    specs.push_back(chain_job(static_cast<Problem>(i % kProblemCount),
                              40 + i, 0x5EED + i));
  std::vector<JobResult> clean;
  for (const JobSpec& s : specs) clean.push_back(execute_job_captured(s));

  for (int threads : {1, 8}) {
    util::FaultScope chaos(0xD1CE, 0.0);
    util::faults().set_site_probability("svc.cache.get", 0.6);
    util::faults().set_site_probability("svc.cache.put", 0.6);
    ServiceConfig config;
    config.threads = threads;
    config.retry.max_attempts = 3;
    config.retry.base_us = 5;
    std::vector<JobResult> got;
    {
      PartitionService service(config);
      got = service.run_batch(specs);
      MetricsSnapshot m = service.metrics();
      EXPECT_GT(m.resilience.retry_attempts, 0u) << threads;
    }
    ASSERT_EQ(got.size(), clean.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << "threads " << threads << " job " << i;
      EXPECT_EQ(got[i].cut.edges, clean[i].cut.edges) << i;
      EXPECT_EQ(got[i].objective, clean[i].objective) << i;
      EXPECT_EQ(got[i].components, clean[i].components) << i;
    }
  }
}

// --- Service integration: breaker -----------------------------------------

TEST(ServiceResilience, BreakerTripsUnderFaultStormAndRecovers) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 40; ++i)
    specs.push_back(chain_job(Problem::kBottleneck, 50 + i, 0xB0B + i));

  ServiceConfig config;
  config.threads = 2;
  config.breaker = small_breaker();
  config.breaker.open_cooldown_us = 2000;
  PartitionService service(config);

  {
    util::FaultScope chaos(0xABCD, 0.0);
    util::faults().set_site_probability("svc.cache.get", 1.0);
    util::faults().set_site_probability("svc.cache.put", 1.0);
    std::vector<JobResult> got = service.run_batch(specs);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i].ok) << i;  // bypass recomputes, never fails
  }
  MetricsSnapshot mid = service.metrics();
  EXPECT_GE(mid.resilience.breaker.trips, 1u);
  EXPECT_GT(mid.resilience.cache_bypasses, 0u);

  // Storm over: wait out the cooldown, then clean traffic must walk the
  // breaker open -> half-open -> closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<JobResult> after = service.run_batch(specs);
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].ok) << i;
  MetricsSnapshot end = service.metrics();
  EXPECT_GE(end.resilience.breaker.half_opens, 1u);
  EXPECT_GE(end.resilience.breaker.closes, 1u);
  EXPECT_EQ(end.resilience.breaker.state, BreakerState::kClosed);
}

}  // namespace
}  // namespace tgp::svc
