// Durable warm start, end to end at the service layer: a PartitionService
// with a cache_dir journals every solve, a successor service on the same
// directory recovers the entries, serves them as warm hits bit-identical
// to fresh solves, and quarantines anything the independent verifier
// rejects.  Also covers the persist codec (svc/persist.hpp) directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dur/journal.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "svc/persist.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::svc {
namespace {

/// Fresh per-test cache directory (remove the store files so reruns in
/// the same TempDir start cold).
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  for (const char* f :
       {"/cache.snapshot", "/cache.journal", "/cache.clean",
        "/quarantine.bin"})
    std::remove((dir + f).c_str());
  return dir;
}

ServiceConfig durable_config(const std::string& dir) {
  ServiceConfig config;
  config.threads = 2;
  config.cache_dir = dir;
  return config;
}

void expect_same_results(const std::vector<JobResult>& a,
                         const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
    EXPECT_EQ(a[i].objective, b[i].objective) << "job " << i;
    EXPECT_EQ(a[i].cut.edges, b[i].cut.edges) << "job " << i;
    EXPECT_EQ(a[i].components, b[i].components) << "job " << i;
  }
}

// --- the persist codec ---------------------------------------------------

TEST(PersistCodec, RoundTripsKeyAndOutcome) {
  CacheKey key = CacheKey::make({0x1234, 0x5678}, Problem::kBandwidth, 7.5);
  CanonicalOutcome o;
  o.cut.edges = {3, 1, 4};
  o.objective = 2.25;
  o.components = 4;
  o.counters.oracle_calls = 99;
  o.counters.par_threads = 4;

  const std::vector<std::uint8_t> bytes = encode_cache_record(key, o);
  CacheKey back_key;
  CanonicalOutcome back;
  ASSERT_TRUE(decode_cache_record(bytes, back_key, back));
  EXPECT_EQ(back_key, key);
  EXPECT_EQ(back.cut.edges, o.cut.edges);
  EXPECT_EQ(back.objective, o.objective);
  EXPECT_EQ(back.components, o.components);
  EXPECT_EQ(back.counters.oracle_calls, 99u);
  EXPECT_EQ(back.counters.par_threads, 4u);
  EXPECT_EQ(back.counters.bsearch_probes, 0u);
}

TEST(PersistCodec, RejectsTruncatedAndOversizedPayloads) {
  CacheKey key = CacheKey::make({1, 2}, Problem::kProcMin, 3.0);
  CanonicalOutcome o;
  o.cut.edges = {1, 2};
  o.objective = 3;
  o.components = 3;
  std::vector<std::uint8_t> bytes = encode_cache_record(key, o);

  CacheKey k2;
  CanonicalOutcome o2;
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<std::uint8_t> torn(bytes.begin(),
                                   bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(decode_cache_record(torn, k2, o2)) << "kept " << keep;
  }
  // A declared cut length far past the payload must not allocate.
  std::vector<std::uint8_t> lying = bytes;
  const std::size_t cut_len_off = 8 + 8 + 4 + 8 + 8 + 4;
  lying[cut_len_off] = 0xFF;
  lying[cut_len_off + 1] = 0xFF;
  lying[cut_len_off + 2] = 0xFF;
  lying[cut_len_off + 3] = 0x7F;
  EXPECT_FALSE(decode_cache_record(lying, k2, o2));
}

// --- warm restart through the service ------------------------------------

TEST(WarmStart, SecondServiceRecoversAndServesWarmHits) {
  const std::string dir = fresh_dir("warmstart_basic");
  std::vector<JobSpec> specs = tools::generate_workload(24, 5, 0.0);

  std::vector<JobResult> cold;
  {
    PartitionService service(durable_config(dir));
    cold = service.run_batch(specs);
    MetricsSnapshot m = service.metrics();
    EXPECT_TRUE(m.durability.enabled);
    EXPECT_GT(m.durability.journal_appends, 0u);
    EXPECT_EQ(m.durability.recovered_entries, 0u) << "first boot is cold";
    service.shutdown();
    EXPECT_GT(service.flush_durable(), 0u);
  }

  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_TRUE(boot.durability.clean_start);
  EXPECT_GT(boot.durability.recovered_entries, 0u);
  EXPECT_EQ(boot.durability.dropped_crc + boot.durability.dropped_truncated +
                boot.durability.dropped_malformed,
            0u);

  std::vector<JobResult> warm = warm_service.run_batch(specs);
  expect_same_results(cold, warm);
  MetricsSnapshot m = warm_service.metrics();
  EXPECT_GT(m.cache.warm_hits, 0u) << "recovered entries must serve hits";
  EXPECT_GT(m.durability.verified_ok, 0u)
      << "every recovery-loaded hit is independently verified";
  EXPECT_EQ(m.durability.verify_failed, 0u);
  for (const JobResult& r : warm) EXPECT_EQ(r.status, JobStatus::kOk);
}

TEST(WarmStart, CrashWithoutFlushStillRecoversFromTheJournal) {
  const std::string dir = fresh_dir("warmstart_crash");
  std::vector<JobSpec> specs = tools::generate_workload(12, 6, 0.0);

  std::vector<JobResult> cold;
  {
    PartitionService service(durable_config(dir));
    cold = service.run_batch(specs);
    // No flush_durable(): destructor shutdown models a hard stop.
  }

  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_FALSE(boot.durability.clean_start);
  EXPECT_GT(boot.durability.recovered_entries, 0u);
  expect_same_results(cold, warm_service.run_batch(specs));
}

TEST(WarmStart, DuplicateJournalRecordsDedupeLastWriteWins) {
  const std::string dir = fresh_dir("warmstart_dupes");
  std::vector<JobSpec> specs = tools::generate_workload(6, 7, 0.0);
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    // The same batch again: every solve is a cache hit, so no new
    // journal records — then force re-journaling via compaction plus a
    // fresh batch after an artificial journal append of the same keys.
    service.run_batch(specs);
    service.flush_durable();
  }
  // Append duplicate records by hand (same encoded entries, twice).
  {
    dur::CacheStore::Config sc;
    sc.dir = dir;
    sc.epoch = kCacheRecordEpoch;
    dur::CacheStore store(sc);
    std::vector<std::vector<std::uint8_t>> entries;
    ASSERT_TRUE(store.load([&](std::span<const std::uint8_t> r) {
      entries.emplace_back(r.begin(), r.end());
    }));
    for (const auto& e : entries) ASSERT_TRUE(store.append(e));
    ASSERT_TRUE(store.flush_clean());
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_GT(boot.durability.duplicates, 0u);
  EXPECT_EQ(boot.durability.recovered_entries + boot.durability.duplicates,
            boot.durability.recovered_entries * 2)
      << "each key seen exactly twice, kept once";
}

TEST(WarmStart, MalformedJournalRecordIsCountedAndSkipped) {
  const std::string dir = fresh_dir("warmstart_malformed");
  std::vector<JobSpec> specs = tools::generate_workload(8, 8, 0.0);
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    service.flush_durable();
  }
  // A record that frames and checksums fine but does not decode as a
  // cache entry (e.g. written by a different tool version).
  {
    dur::CacheStore::Config sc;
    sc.dir = dir;
    sc.epoch = kCacheRecordEpoch;
    dur::CacheStore store(sc);
    ASSERT_TRUE(store.load([](std::span<const std::uint8_t>) {}));
    const std::vector<std::uint8_t> junk{1, 2, 3};
    ASSERT_TRUE(store.append(junk));
    ASSERT_TRUE(store.flush_clean());
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_EQ(boot.durability.dropped_malformed, 1u);
  EXPECT_GT(boot.durability.recovered_entries, 0u)
      << "good records around the junk still load";
}

/// Solve `spec` on a durable service into `dir` (results in `cold`), then
/// rewrite its one stored record through `corrupt`: framing CRC fine,
/// payload wrong — exactly what the independent verifier is for.
template <typename Corrupt>
void solve_then_corrupt(const std::string& dir, const JobSpec& spec,
                        Corrupt corrupt, std::vector<JobResult>* cold) {
  {
    PartitionService service(durable_config(dir));
    *cold = service.run_batch({spec});
    ASSERT_EQ((*cold)[0].status, JobStatus::kOk);
    service.flush_durable();
  }
  dur::CacheStore::Config sc;
  sc.dir = dir;
  sc.epoch = kCacheRecordEpoch;
  dur::CacheStore store(sc);
  std::vector<std::vector<std::uint8_t>> entries;
  ASSERT_TRUE(store.load([&](std::span<const std::uint8_t> r) {
    entries.emplace_back(r.begin(), r.end());
  }));
  ASSERT_EQ(entries.size(), 1u);
  CacheKey key;
  CanonicalOutcome o;
  ASSERT_TRUE(decode_cache_record(entries[0], key, o));
  corrupt(o);
  ASSERT_TRUE(store.append(encode_cache_record(key, o)));
  ASSERT_TRUE(store.flush_clean());
}

/// A successor service on `dir` runs `spec`: the corrupt entry must be
/// rejected at hit time, quarantined, and the job re-solved to `want`.
void expect_quarantined_and_resolved(const std::string& dir,
                                     const JobSpec& spec,
                                     const std::vector<JobResult>& want) {
  PartitionService warm_service(durable_config(dir));
  std::vector<JobResult> warm = warm_service.run_batch({spec});
  expect_same_results(want, warm);
  EXPECT_FALSE(warm[0].cache_hit);
  MetricsSnapshot m = warm_service.metrics();
  EXPECT_EQ(m.durability.verify_failed, 1u);
  EXPECT_EQ(m.durability.quarantined, 1u);
}

// A seven-vertex tree and a relabeled presentation of it: both share one
// cache entry, but their cuts are numbered differently.
graph::Tree warm_tree() {
  return graph::Tree::from_edges({2.5, 1, 4, 0.5, 3, 3, 1.25},
                                 {{0, 1, 1},
                                  {0, 2, 2.5},
                                  {2, 3, 4},
                                  {2, 4, 0.75},
                                  {4, 5, 1},
                                  {1, 6, 6}});
}

graph::Tree relabeled_warm_tree() {
  return graph::Tree::from_edges({3, 1.25, 0.5, 4, 1, 3, 2.5},
                                 {{3, 2, 4},
                                  {4, 6, 1},
                                  {0, 5, 1},
                                  {6, 3, 2.5},
                                  {5, 3, 0.75},
                                  {1, 4, 6}});
}

TEST(WarmStart, VerifierQuarantinesASemanticallyCorruptRecord) {
  const std::string dir = fresh_dir("warmstart_verify");
  // One deterministic chain job.
  graph::Chain chain{{2, 3, 1, 4, 2}, {5, 1, 7, 2}};
  JobSpec spec = JobSpec::for_chain(Problem::kBottleneck, 7, chain);
  std::vector<JobResult> cold;
  ASSERT_NO_FATAL_FAILURE(solve_then_corrupt(
      dir, spec,
      [](CanonicalOutcome& o) { o.objective += 1.0; },  // provably wrong
      &cold));
  // The corrupt entry was rejected at hit time and the job re-solved:
  // the answer is still the correct one.
  expect_quarantined_and_resolved(dir, spec, cold);
}

TEST(WarmStart, VerifierQuarantinesACorruptTreeRecordForARelabeledTree) {
  // The hit is verified on the submitted labels, not the canonical ones:
  // the warm run submits another presentation of the cold run's tree.
  const std::string dir = fresh_dir("warmstart_verify_tree");
  JobSpec cold_spec = JobSpec::for_tree(Problem::kBottleneck, 7, warm_tree());
  JobSpec warm_spec =
      JobSpec::for_tree(Problem::kBottleneck, 7, relabeled_warm_tree());
  ASSERT_EQ(graph::tree_fingerprint(*cold_spec.tree),
            graph::tree_fingerprint(*warm_spec.tree));
  std::vector<JobResult> cold;
  ASSERT_NO_FATAL_FAILURE(solve_then_corrupt(
      dir, cold_spec, [](CanonicalOutcome& o) { o.objective += 1.0; },
      &cold));
  expect_quarantined_and_resolved(dir, warm_spec, {execute_job(warm_spec)});
}

TEST(WarmStart, RelabeledTreeIsServedFromAVerifiedRecord) {
  // The same pair with an intact record: a warm hit, verified on the
  // submitted labels and bit-identical to a direct solve.
  const std::string dir = fresh_dir("warmstart_verify_tree_ok");
  JobSpec cold_spec = JobSpec::for_tree(Problem::kProcMin, 7, warm_tree());
  JobSpec warm_spec =
      JobSpec::for_tree(Problem::kProcMin, 7, relabeled_warm_tree());
  std::vector<JobResult> cold;
  ASSERT_NO_FATAL_FAILURE(
      solve_then_corrupt(dir, cold_spec, [](CanonicalOutcome&) {}, &cold));
  PartitionService warm_service(durable_config(dir));
  std::vector<JobResult> warm = warm_service.run_batch({warm_spec});
  expect_same_results({execute_job(warm_spec)}, warm);
  EXPECT_TRUE(warm[0].cache_hit);
  MetricsSnapshot m = warm_service.metrics();
  EXPECT_EQ(m.durability.verified_ok, 1u);
  EXPECT_EQ(m.durability.verify_failed, 0u);
}

TEST(WarmStart, OutOfRangeTreeEdgeIsQuarantined) {
  // One past the last edge: mapping it through the edge map unchecked
  // would read past the end of the map.
  const std::string dir = fresh_dir("warmstart_range_tree");
  JobSpec cold_spec = JobSpec::for_tree(Problem::kProcMin, 7, warm_tree());
  JobSpec warm_spec =
      JobSpec::for_tree(Problem::kProcMin, 7, relabeled_warm_tree());
  const int m = cold_spec.tree->edge_count();
  std::vector<JobResult> cold;
  ASSERT_NO_FATAL_FAILURE(solve_then_corrupt(
      dir, cold_spec, [m](CanonicalOutcome& o) { o.cut.edges.push_back(m); },
      &cold));
  expect_quarantined_and_resolved(dir, warm_spec, {execute_job(warm_spec)});
}

TEST(WarmStart, OutOfRangeChainEdgeIsQuarantined) {
  const std::string dir = fresh_dir("warmstart_range_chain");
  graph::Chain chain{{2, 3, 1, 4, 2}, {5, 1, 7, 2}};
  JobSpec spec = JobSpec::for_chain(Problem::kBandwidth, 7, chain);
  JobSpec reversed = JobSpec::for_chain(Problem::kBandwidth, 7,
                                        graph::reversed_chain(chain));
  std::vector<JobResult> cold;
  ASSERT_NO_FATAL_FAILURE(solve_then_corrupt(
      dir, spec, [](CanonicalOutcome& o) { o.cut.edges.push_back(-1); },
      &cold));
  expect_quarantined_and_resolved(dir, reversed, {execute_job(reversed)});
}

TEST(WarmStart, VerifyResultsFlagChecksFreshSolvesToo) {
  ServiceConfig config;
  config.threads = 2;
  config.verify_results = true;  // no cache_dir: pure verification mode
  PartitionService service(config);
  std::vector<JobSpec> specs = tools::generate_workload(16, 9, 0.0);
  std::vector<JobResult> got = service.run_batch(specs);
  for (const JobResult& r : got) EXPECT_EQ(r.status, JobStatus::kOk);
  MetricsSnapshot m = service.metrics();
  EXPECT_FALSE(m.durability.enabled);
  EXPECT_EQ(m.durability.verified_ok, static_cast<std::uint64_t>(got.size()));
  EXPECT_EQ(m.durability.verify_failed, 0u);
}

TEST(WarmStart, CompactionPreservesEveryEntry) {
  const std::string dir = fresh_dir("warmstart_compact");
  std::vector<JobSpec> specs = tools::generate_workload(20, 10, 0.0);
  std::size_t entries_before = 0;
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    entries_before = service.metrics().cache.entries;
    ASSERT_TRUE(service.compact_cache_store());
    MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.durability.compactions, 1u);
    service.flush_durable();
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_EQ(boot.durability.recovered_entries, entries_before)
      << "compaction must not lose entries";
}

}  // namespace
}  // namespace tgp::svc
