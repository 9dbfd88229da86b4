// vmic::update tests: schedule determinism, changed-cluster clumping,
// versioned naming round-trips, policy parsing — plus the engine-level
// churn behaviour (rebase vs invalidate, determinism, golden-pin
// dormancy) and the workload edge cases the update PR hardened
// (empty catalogs, over-unity diurnal amplitude, degenerate flash
// crowds).

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "cloud/engine.hpp"
#include "update/update.hpp"

namespace vmic {
namespace {

using cloud::CloudConfig;
using cloud::CloudResult;
using cloud::run_cloud;

// --- schedule ---------------------------------------------------------------

update::UpdateParams churn_params() {
  update::UpdateParams p;
  p.enabled = true;
  p.rate_per_hour = 6.0;
  p.changed_frac = 0.1;
  return p;
}

TEST(UpdateSchedule, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  const auto s1 = update::generate_schedule(churn_params(), 4, 7200.0, a);
  const auto s2 = update::generate_schedule(churn_params(), 4, 7200.0, b);
  const auto s3 = update::generate_schedule(churn_params(), 4, 7200.0, c);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1[i].at_s, s2[i].at_s);
    EXPECT_EQ(s1[i].vmi, s2[i].vmi);
    EXPECT_EQ(s1[i].to_version, s2[i].to_version);
  }
  ASSERT_FALSE(s1.empty());
  ASSERT_FALSE(s3.empty());
  EXPECT_NE(s1[0].at_s, s3[0].at_s);
}

TEST(UpdateSchedule, RoundRobinVersionsCountUpPerImage) {
  Rng rng(7);
  const auto s = update::generate_schedule(churn_params(), 3, 4 * 3600.0, rng);
  ASSERT_GE(s.size(), 6u);
  std::map<int, std::uint32_t> last;
  double prev = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].vmi, static_cast<int>(i % 3));  // round-robin assignment
    EXPECT_EQ(s[i].to_version, ++last[s[i].vmi]);  // 1, 2, 3, ... per image
    EXPECT_GE(s[i].at_s, prev);
    prev = s[i].at_s;
  }
}

TEST(UpdateSchedule, MaxEventsCapsTheSchedule) {
  auto p = churn_params();
  p.max_events = 2;
  Rng rng(7);
  EXPECT_LE(update::generate_schedule(p, 4, 8 * 3600.0, rng).size(), 2u);
}

// --- changed-cluster model --------------------------------------------------

TEST(UpdateDiff, ChangesClumpIntoWholeRuns) {
  const std::uint64_t run = update::kChangedRunClusters;
  for (std::uint64_t r = 0; r < 64; ++r) {
    const bool first = update::cluster_changed(3, r * run, 1, 0.25);
    for (std::uint64_t c = 1; c < run; ++c) {
      EXPECT_EQ(update::cluster_changed(3, r * run + c, 1, 0.25), first);
    }
  }
}

TEST(UpdateDiff, FractionIsRoughlyHonoured) {
  int changed = 0;
  const int n = 80000;
  for (std::uint64_t c = 0; c < n; ++c) {
    if (update::cluster_changed(1, c, 2, 0.1)) ++changed;
  }
  EXPECT_GT(changed, n / 20);     // > 5%
  EXPECT_LT(changed, n * 3 / 20);  // < 15%
}

TEST(UpdateDiff, DegenerateFractionsAndVersionZero) {
  EXPECT_FALSE(update::cluster_changed(0, 5, 0, 0.5));  // v0 = the seed image
  for (std::uint64_t c = 0; c < 64; ++c) {
    EXPECT_TRUE(update::cluster_changed(0, c, 1, 1.0));
    EXPECT_FALSE(update::cluster_changed(0, c, 1, 0.0));
  }
  // Independent across versions: version 1's set differs from version 2's.
  bool differs = false;
  for (std::uint64_t c = 0; c < 512 && !differs; ++c) {
    differs = update::cluster_changed(2, c, 1, 0.3) !=
              update::cluster_changed(2, c, 2, 0.3);
  }
  EXPECT_TRUE(differs);
}

TEST(UpdateNames, VersionedNameRoundTrips) {
  EXPECT_EQ(update::versioned_name("img-3", 0), "img-3");
  EXPECT_EQ(update::versioned_name("img-3", 2), "img-3@2");
  EXPECT_EQ(update::version_of("img-3"), 0u);
  EXPECT_EQ(update::version_of("img-3@2"), 2u);
  EXPECT_EQ(update::version_of("img-3@17"), 17u);
  EXPECT_EQ(update::base_name("img-3@2"), "img-3");
  EXPECT_EQ(update::base_name("img-3"), "img-3");
}

TEST(UpdatePolicy, ParseAndPrint) {
  EXPECT_EQ(*update::parse_policy("invalidate"), update::Policy::invalidate);
  EXPECT_EQ(*update::parse_policy("rebase"), update::Policy::rebase);
  EXPECT_EQ(*update::parse_policy("auto"), update::Policy::auto_);
  EXPECT_FALSE(update::parse_policy("yes").ok());
  EXPECT_FALSE(update::parse_policy("").ok());
  EXPECT_STREQ(update::to_string(update::Policy::rebase), "rebase");
}

// --- workload hardening -----------------------------------------------------

TEST(WorkloadEdge, EmptyCatalogIsRejected) {
  EXPECT_THROW(cloud::ZipfPicker(0, 1.0), std::invalid_argument);
  EXPECT_THROW(cloud::ZipfPicker(-3, 1.0), std::invalid_argument);
  cloud::WorkloadConfig wc;
  wc.num_vmis = 0;
  EXPECT_FALSE(cloud::validate(wc).ok());
}

TEST(WorkloadEdge, ValidateRejectsTheNonsensical) {
  cloud::WorkloadConfig wc;
  EXPECT_TRUE(cloud::validate(wc).ok());
  wc.mean_interarrival_s = 0;
  EXPECT_FALSE(cloud::validate(wc).ok());
  wc = {};
  wc.zipf_exponent = -1;
  EXPECT_FALSE(cloud::validate(wc).ok());
  wc = {};
  wc.min_lifetime_s = -5;
  EXPECT_FALSE(cloud::validate(wc).ok());
  wc = {};
  wc.process = cloud::ArrivalProcess::diurnal;
  wc.diurnal_amplitude = -0.1;
  EXPECT_FALSE(cloud::validate(wc).ok());
  wc.diurnal_amplitude = 0.6;
  wc.diurnal_period_s = 0;
  EXPECT_FALSE(cloud::validate(wc).ok());
  wc = {};
  wc.process = cloud::ArrivalProcess::flash_crowd;
  wc.flash_factor = 0.5;  // < 1 would invert the thinning envelope
  EXPECT_FALSE(cloud::validate(wc).ok());
}

TEST(WorkloadEdge, OverUnityAmplitudeClampsInsteadOfBreaking) {
  cloud::WorkloadConfig wc;
  wc.process = cloud::ArrivalProcess::diurnal;
  wc.diurnal_amplitude = 1.8;  // trough rate would be negative unclamped
  wc.mean_interarrival_s = 30.0;
  EXPECT_TRUE(cloud::validate(wc).ok());
  Rng rng(5);
  const auto w = cloud::generate_workload(wc, 4 * 3600.0, rng);
  EXPECT_FALSE(w.empty());
  double prev = 0;
  for (const auto& r : w) {
    EXPECT_GE(r.arrival_s, prev);
    prev = r.arrival_s;
  }
}

TEST(WorkloadEdge, ZeroDurationFlashCrowdIsAPlainPoisson) {
  cloud::WorkloadConfig wc;
  wc.process = cloud::ArrivalProcess::flash_crowd;
  wc.flash_duration_s = 0;
  EXPECT_TRUE(cloud::validate(wc).ok());
  Rng rng(5);
  const auto w = cloud::generate_workload(wc, 3600.0, rng);
  EXPECT_FALSE(w.empty());
}

// --- engine-level churn -----------------------------------------------------

CloudConfig churn_config(std::uint64_t seed, update::Policy policy) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 1800.0;
  cfg.workload.mean_interarrival_s = 15.0;
  cfg.workload.num_vmis = 4;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  cfg.profile.image_size = 256 * MiB;  // keep publishes cheap host-side
  cfg.content_bytes = 32 * MiB;
  cfg.updates.enabled = true;
  cfg.updates.rate_per_hour = 8.0;
  cfg.updates.changed_frac = 0.1;
  cfg.updates.policy = policy;
  return cfg;
}

void expect_churn_accounting(const CloudResult& r) {
  EXPECT_EQ(r.completed + r.aborted + r.rejected, r.arrivals);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_GT(r.updates_published, 0);
  const auto& m = r.metrics;
  EXPECT_EQ(m.counter_total("update.published"),
            static_cast<std::uint64_t>(r.updates_published));
  EXPECT_EQ(m.counter_total("update.rebased"),
            static_cast<std::uint64_t>(r.caches_rebased));
  EXPECT_EQ(m.counter_total("update.invalidated"),
            static_cast<std::uint64_t>(r.update_invalidations));
  EXPECT_EQ(m.counter_total("update.rebase.patched_clusters"),
            r.rebase_patched_clusters);
  EXPECT_EQ(m.counter_total("update.rebase.reused_clusters"),
            r.rebase_reused_clusters);
}

TEST(UpdateChurn, DeterministicPerSeed) {
  const auto r1 = run_cloud(churn_config(9, update::Policy::rebase));
  const auto r2 = run_cloud(churn_config(9, update::Policy::rebase));
  expect_churn_accounting(r1);
  EXPECT_EQ(r1.metrics.to_text(), r2.metrics.to_text());  // byte-identical
}

TEST(UpdateChurn, RebaseBeatsInvalidateOnStorageBytes) {
  const auto inval = run_cloud(churn_config(9, update::Policy::invalidate));
  const auto rebase = run_cloud(churn_config(9, update::Policy::rebase));
  expect_churn_accounting(inval);
  expect_churn_accounting(rebase);
  EXPECT_GT(inval.update_invalidations, 0);
  EXPECT_GT(rebase.caches_rebased, 0);
  EXPECT_GT(rebase.rebase_reused_clusters, rebase.rebase_patched_clusters);
  // The point of the subsystem: patching only the diff must move fewer
  // storage-node bytes than cold refills after every publish.
  EXPECT_LT(rebase.post_update_storage_bytes,
            inval.post_update_storage_bytes);
}

TEST(UpdateChurn, AutoPolicyFollowsTheThreshold) {
  auto cfg = churn_config(9, update::Policy::auto_);
  cfg.updates.changed_frac = 0.1;
  cfg.updates.rebase_threshold = 0.5;
  const auto r1 = run_cloud(cfg);  // small diff: rebases
  EXPECT_GT(r1.caches_rebased, 0);
  cfg.updates.rebase_threshold = 0.05;
  const auto r2 = run_cloud(cfg);  // diff above threshold: invalidates
  EXPECT_EQ(r2.caches_rebased, 0);
  EXPECT_GT(r2.update_invalidations, 0);
}

TEST(UpdateChurn, UpdatesOffEmitsNoUpdateMetrics) {
  auto cfg = churn_config(9, update::Policy::rebase);
  cfg.updates.enabled = false;
  const auto r = run_cloud(cfg);
  EXPECT_EQ(r.updates_published, 0);
  EXPECT_EQ(r.post_update_storage_bytes, 0u);
  // Golden-pin rule: an updates-off run must not even create the
  // update.* instruments.
  EXPECT_EQ(r.metrics.find("update.published"), nullptr);
  EXPECT_EQ(r.metrics.find("update.rebased"), nullptr);
  EXPECT_EQ(r.metrics.find("update.post_storage_bytes"), nullptr);
}

TEST(UpdateChurn, SurvivesRestartWithManifestAdoption) {
  auto cfg = churn_config(11, update::Policy::rebase);
  cfg.manifest = true;
  cfg.restart_at_s = {900.0};
  cfg.restart_down_s = 20.0;
  const auto r = run_cloud(cfg);
  expect_churn_accounting(r);
  EXPECT_EQ(r.restarts, 1);
  // Adoption must never resurrect a superseded version: every re-adopted
  // or stale-dropped entry is accounted, nothing leaks.
  EXPECT_EQ(r.metrics.counter_total("cloud.adopt.ok"),
            static_cast<std::uint64_t>(r.caches_readopted));
  EXPECT_EQ(r.metrics.counter_total("cloud.adopt.stale"),
            static_cast<std::uint64_t>(r.adopt_stale));
}

TEST(UpdateChurn, SurvivesCrashesAndTiers) {
  auto cfg = churn_config(13, update::Policy::rebase);
  cfg.peer_transfer = true;
  cfg.dedup = true;
  Rng plan_rng(cfg.seed ^ 0xFA11'FA11'FA11'FA11ull);
  cfg.failures = cloud::plan_failures(2, 1, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  const auto r = run_cloud(cfg);
  expect_churn_accounting(r);
  EXPECT_GT(r.node_crashes, 0);
}

// A deployment killed by a restart can still hold its cache file when the
// adoption pass finds the manifest's record of it stale, because the
// catalog published a new version while the node was down. The file must
// become a zombie that its last holder deletes, not a file left on disk,
// untracked, for the rest of the run.
TEST(UpdateChurn, StaleRecordHeldAtAdoptionIsReclaimed) {
  CloudConfig cfg;
  cfg.seed = 3;
  cfg.horizon_s = 1800.0;
  cfg.workload.num_vmis = 2;
  cfg.manifest = true;
  cfg.updates.enabled = true;
  cfg.updates.policy = update::Policy::invalidate;
  cfg.updates.rate_per_hour = 4.0;
  cfg.updates.max_events = 1;
  // The engine draws its publish schedule from this fork of the run seed.
  Rng urng(cfg.seed ^ 0x1ba5e'ca7a'f00dull);
  const auto events = update::generate_schedule(
      cfg.updates, cfg.workload.num_vmis, cfg.horizon_s, urng);
  ASSERT_EQ(events.size(), 1u);
  const double t = events[0].at_s;
  const int v = events[0].vmi;
  // The first request warms v's cache. The second is booting from it
  // when the restart kills it, and still holds the file when the publish
  // at `t`, inside the downtime, makes the manifest's record stale.
  cfg.requests = {{1.0, v, 5.0}, {t - 2.0, v, 30.0}};
  cfg.restart_at_s = {t - 0.25};
  cfg.restart_down_s = 0.5;
  const auto r = run_cloud(cfg);
  expect_churn_accounting(r);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.adopt_stale, 1);
  EXPECT_EQ(r.leaked_cache_refs, 0);
}

}  // namespace
}  // namespace vmic
