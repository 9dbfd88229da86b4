// vmic::cloud tests: workload generation, trace round-trips, determinism
// of whole cloud runs, crash/outage resilience (no lost or double-counted
// VMs, no leaked slots), and SLO counter consistency.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cloud/engine.hpp"

namespace vmic::cloud {
namespace {

// Small, fast base config shared by the run tests: a short horizon and a
// brisk arrival rate so every scenario finishes in well under a second.
CloudConfig small_config(std::uint64_t seed) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 900.0;                     // 15 simulated minutes
  cfg.workload.mean_interarrival_s = 20.0;   // ~45 arrivals
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  return cfg;
}

void expect_terminal_accounting(const CloudResult& r) {
  EXPECT_EQ(r.completed + r.aborted + r.rejected, r.arrivals);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.deploy.count, static_cast<std::size_t>(r.completed));
  // Every cloud.* counter agrees with its CloudResult mirror.
  const auto& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.arrivals"),
            static_cast<std::uint64_t>(r.arrivals));
  EXPECT_EQ(m.counter_total("cloud.completed"),
            static_cast<std::uint64_t>(r.completed));
  EXPECT_EQ(m.counter_total("cloud.aborted"),
            static_cast<std::uint64_t>(r.aborted));
  EXPECT_EQ(m.counter_total("cloud.rejected"),
            static_cast<std::uint64_t>(r.rejected));
  EXPECT_EQ(m.counter_total("cloud.retries"),
            static_cast<std::uint64_t>(r.retries));
  EXPECT_EQ(m.counter_total("cloud.warm_hits"),
            static_cast<std::uint64_t>(r.warm_hits));
  const obs::MetricPoint* hist = m.find("cloud.deploy_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.completed));
}

// --- workload ---------------------------------------------------------------

TEST(Workload, DeterministicPerSeed) {
  WorkloadConfig wc;
  Rng a(77);
  Rng b(77);
  const auto w1 = generate_workload(wc, 3600.0, a);
  const auto w2 = generate_workload(wc, 3600.0, b);
  ASSERT_EQ(w1.size(), w2.size());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_DOUBLE_EQ(w1[i].arrival_s, w2[i].arrival_s);
    EXPECT_EQ(w1[i].vmi, w2[i].vmi);
    EXPECT_DOUBLE_EQ(w1[i].lifetime_s, w2[i].lifetime_s);
  }
  Rng c(78);
  const auto w3 = generate_workload(wc, 3600.0, c);
  EXPECT_NE(w1.size(), 0u);
  // A different seed virtually always shifts the first arrival.
  ASSERT_FALSE(w3.empty());
  EXPECT_NE(w1[0].arrival_s, w3[0].arrival_s);
}

TEST(Workload, ArrivalsSortedWithinHorizonAndZipfSkewed) {
  WorkloadConfig wc;
  wc.mean_interarrival_s = 2.0;
  wc.num_vmis = 4;
  Rng rng(5);
  const auto w = generate_workload(wc, 7200.0, rng);
  ASSERT_GT(w.size(), 1000u);
  std::map<int, int> by_vmi;
  double prev = 0;
  for (const auto& r : w) {
    EXPECT_GE(r.arrival_s, prev);
    EXPECT_LT(r.arrival_s, 7200.0);
    EXPECT_GE(r.lifetime_s, wc.min_lifetime_s);
    ASSERT_GE(r.vmi, 0);
    ASSERT_LT(r.vmi, wc.num_vmis);
    prev = r.arrival_s;
    ++by_vmi[r.vmi];
  }
  // Zipf(1.0): image 0 is drawn about twice as often as image 1 and about
  // four times as often as image 3.
  EXPECT_GT(by_vmi[0], by_vmi[1]);
  EXPECT_GT(by_vmi[1], by_vmi[3]);
  EXPECT_GT(by_vmi[0], 2 * by_vmi[3]);
}

TEST(Workload, FlashCrowdConcentratesArrivals) {
  WorkloadConfig wc;
  wc.process = ArrivalProcess::flash_crowd;
  wc.mean_interarrival_s = 30.0;
  wc.flash_at_s = 1000.0;
  wc.flash_duration_s = 500.0;
  wc.flash_factor = 8.0;
  Rng rng(11);
  const auto w = generate_workload(wc, 3600.0, rng);
  int inside = 0;
  for (const auto& r : w) {
    if (r.arrival_s >= 1000.0 && r.arrival_s < 1500.0) ++inside;
  }
  // The 500 s window is ~14% of the horizon but runs at 8x rate: it must
  // hold well over a third of all arrivals.
  EXPECT_GT(inside * 3, static_cast<int>(w.size()));
}

TEST(Workload, TraceCsvRoundTrip) {
  WorkloadConfig wc;
  Rng rng(13);
  const auto w = generate_workload(wc, 1800.0, rng);
  ASSERT_FALSE(w.empty());
  const std::string csv = render_trace_csv(w);
  const auto parsed = parse_trace_csv(csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR((*parsed)[i].arrival_s, w[i].arrival_s, 1e-6);
    EXPECT_EQ((*parsed)[i].vmi, w[i].vmi);
    EXPECT_NEAR((*parsed)[i].lifetime_s, w[i].lifetime_s, 1e-6);
  }
}

TEST(Workload, TraceCsvRejectsMalformedInput) {
  EXPECT_EQ(parse_trace_csv("1.0,0").error(), Errc::invalid_argument);
  EXPECT_EQ(parse_trace_csv("a,b,c").error(), Errc::invalid_argument);
  EXPECT_EQ(parse_trace_csv("-1.0,0,5.0").error(), Errc::invalid_argument);
  EXPECT_EQ(parse_trace_csv("1.0,-2,5.0").error(), Errc::invalid_argument);
  EXPECT_EQ(parse_trace_csv("1.0,0,5.0 trailing").error(),
            Errc::invalid_argument);
  // Comments, blank lines, CRLF, and out-of-order rows are all fine.
  const auto ok = parse_trace_csv(
      "# header\n\n10.0,1,5.0\r\n2.5,0,3.0\n");
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 2u);
  EXPECT_DOUBLE_EQ((*ok)[0].arrival_s, 2.5);  // sorted by arrival
  EXPECT_EQ((*ok)[1].vmi, 1);
}

// --- cloud runs -------------------------------------------------------------

TEST(Cloud, DeterministicPerSeed) {
  const CloudResult r1 = run_cloud(small_config(21));
  const CloudResult r2 = run_cloud(small_config(21));
  EXPECT_EQ(r1.arrivals, r2.arrivals);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.warm_hits, r2.warm_hits);
  EXPECT_DOUBLE_EQ(r1.deploy.mean, r2.deploy.mean);
  EXPECT_DOUBLE_EQ(r1.sim_seconds, r2.sim_seconds);
  const std::string t1 = r1.metrics.to_text();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, r2.metrics.to_text());
}

TEST(Cloud, CleanRunDeploysEveryArrival) {
  const CloudResult r = run_cloud(small_config(22));
  ASSERT_GT(r.arrivals, 10);
  EXPECT_EQ(r.completed, r.arrivals);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.node_crashes, 0);
  // The skewed mix revisits images: the cache layer must convert that
  // into a substantial warm-hit ratio.
  EXPECT_GT(r.cache_hit_ratio, 0.3);
  EXPECT_GT(r.deploy.p50, 0.0);
  EXPECT_GE(r.deploy.p99, r.deploy.p50);
  expect_terminal_accounting(r);
}

TEST(Cloud, NodeCrashesDegradeButNeverLoseVms) {
  CloudConfig cfg = small_config(23);
  // Two mid-run crashes on a 4-node cloud: plenty of collateral damage.
  cfg.cluster.compute_nodes = 4;
  cfg.failures.crashes.push_back({200.0, 300.0, 0});
  cfg.failures.crashes.push_back({400.0, 200.0, 1});
  const CloudResult r = run_cloud(cfg);
  EXPECT_EQ(r.node_crashes, 2);
  EXPECT_EQ(r.node_recoveries, 2);
  // Crashes killed running or in-flight VMs...
  EXPECT_GT(r.crash_kills + r.vm_crashes, 0);
  // ...but every killed attempt was retried or aborted, never dropped.
  expect_terminal_accounting(r);
  EXPECT_EQ(r.metrics.counter_total("cloud.node_crashes"), 2u);
  EXPECT_EQ(r.metrics.counter_total("cloud.crash_kills"),
            static_cast<std::uint64_t>(r.crash_kills));
}

TEST(Cloud, CrashSalvageReadoptsCleanCachesAndCutsTraffic) {
  CloudConfig cfg = small_config(23);
  cfg.cluster.compute_nodes = 4;
  // Late, short crashes: by then the nodes hold warm caches, and most
  // are idle at crash time — the salvageable case.
  cfg.failures.crashes.push_back({500.0, 60.0, 0});
  cfg.failures.crashes.push_back({650.0, 60.0, 1});
  const CloudResult rs = run_cloud(cfg);
  cfg.crash_salvage = false;
  const CloudResult rn = run_cloud(cfg);

  // Legacy mode deletes idle caches at crash time: nothing to salvage.
  EXPECT_EQ(rn.caches_salvaged, 0);
  EXPECT_EQ(rn.caches_invalidated, 0);
  // Salvage mode adjudicated every surviving idle cache, one way or the
  // other, and the counters mirror the result fields.
  EXPECT_GT(rs.caches_salvaged + rs.caches_invalidated, 0);
  EXPECT_EQ(rs.metrics.counter_total("cloud.cache_salvaged"),
            static_cast<std::uint64_t>(rs.caches_salvaged));
  EXPECT_EQ(rs.metrics.counter_total("cloud.cache_invalidated"),
            static_cast<std::uint64_t>(rs.caches_invalidated));
  expect_terminal_accounting(rs);
  expect_terminal_accounting(rn);
  // Re-adopted caches keep their warm clusters, so the storage node
  // serves no more bytes than under wholesale invalidation.
  EXPECT_LE(rs.storage_payload_bytes, rn.storage_payload_bytes);
}

TEST(Cloud, StorageOutageForcesRetriesNotLosses) {
  CloudConfig cfg = small_config(24);
  // A 2-minute storage outage in the thick of the run.
  cfg.failures.outages.push_back({300.0, 120.0});
  const CloudResult r = run_cloud(cfg);
  EXPECT_GT(r.deploy_failures, 0);
  EXPECT_GT(r.retries, 0);
  expect_terminal_accounting(r);
}

TEST(Cloud, AbortsAfterMaxAttemptsUnderPermanentOutage) {
  CloudConfig cfg = small_config(25);
  cfg.horizon_s = 120.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.max_attempts = 2;
  cfg.retry_backoff_s = 1.0;
  // Storage is dark for the whole run (and all backoffs): nothing cold
  // can deploy, so every arrival burns its attempts and aborts.
  cfg.failures.outages.push_back({0.0, 100000.0});
  const CloudResult r = run_cloud(cfg);
  ASSERT_GT(r.arrivals, 0);
  EXPECT_EQ(r.completed, 0);
  EXPECT_EQ(r.aborted, r.arrivals);
  EXPECT_EQ(r.retries, r.arrivals * (cfg.max_attempts - 1));
  expect_terminal_accounting(r);
}

TEST(Cloud, TraceReplayMatchesGeneratedWorkload) {
  CloudConfig gen = small_config(26);
  const CloudResult r1 = run_cloud(gen);
  // Re-run with the same workload materialised up front: byte-identical.
  Rng rng(gen.seed);
  CloudConfig replay = gen;
  replay.requests = generate_workload(gen.workload, gen.horizon_s, rng);
  const CloudResult r2 = run_cloud(replay);
  EXPECT_EQ(r1.metrics.to_text(), r2.metrics.to_text());
}

TEST(Cloud, RejectsWhenAdmissionQueueOverflows) {
  CloudConfig cfg = small_config(27);
  cfg.max_queue_depth = 2;
  cfg.cluster.compute_nodes = 1;
  cfg.vm_slots_per_node = 1;
  cfg.workload.mean_interarrival_s = 5.0;
  const CloudResult r = run_cloud(cfg);
  EXPECT_GT(r.rejected, 0);
  expect_terminal_accounting(r);
}

// --- dedup ------------------------------------------------------------------

// Sibling-group content model + content-addressed dedup + compressed
// cache clusters, on a config small enough to stay sub-second.
CloudConfig dedup_config(std::uint64_t seed) {
  CloudConfig cfg = small_config(seed);
  cfg.workload.num_vmis = 8;
  cfg.sibling_group_size = 4;
  cfg.cache_cluster_bits = 12;
  cfg.dedup = true;
  cfg.cache_compress = true;
  // Keep the host-side content model small: full-size images would
  // materialise gigabytes per run. Half the image carries content, the
  // rest stays zero so the zero-detection tier is exercised too.
  cfg.profile.image_size = 64 * MiB;
  cfg.profile.unique_read_bytes = 12 * MiB;
  cfg.content_bytes = 32 * MiB;
  return cfg;
}

TEST(Cloud, DedupServesSiblingFillsLocally) {
  CloudConfig off = dedup_config(31);
  off.dedup = false;
  off.cache_compress = false;
  const CloudResult rb = run_cloud(off);
  const CloudResult rd = run_cloud(dedup_config(31));

  // Sibling images share content: the fingerprint index must convert
  // that into local fills, and the storage node must serve fewer bytes.
  EXPECT_GT(rd.dedup_local_hits, 0u);
  EXPECT_GT(rd.dedup_bytes_served, 0u);
  EXPECT_LT(rd.storage_payload_bytes, rb.storage_payload_bytes);
  // Same workload either way: dedup is transparent to the outcome.
  EXPECT_EQ(rd.arrivals, rb.arrivals);
  EXPECT_EQ(rd.completed, rb.completed);
  expect_terminal_accounting(rb);
  expect_terminal_accounting(rd);
  // Counters mirror the result fields.
  EXPECT_EQ(rd.metrics.counter_total("dedup.local_hits"),
            rd.dedup_local_hits);
  EXPECT_EQ(rd.metrics.counter_total("dedup.zero_fills"),
            rd.dedup_zero_fills);
  EXPECT_EQ(rd.metrics.counter_total("dedup.peer_hits"), rd.dedup_peer_hits);
  EXPECT_EQ(rd.metrics.counter_total("dedup.fallbacks"), rd.dedup_fallbacks);
  EXPECT_EQ(rd.metrics.counter_total("dedup.bytes_served"),
            rd.dedup_bytes_served);
  // Compression actually engaged on the cache tier.
  EXPECT_GT(rd.metrics.counter_total("qcow2.compressed.clusters"), 0u);
}

TEST(Cloud, DedupDeterministicPerSeed) {
  const CloudResult r1 = run_cloud(dedup_config(32));
  const CloudResult r2 = run_cloud(dedup_config(32));
  EXPECT_EQ(r1.dedup_local_hits, r2.dedup_local_hits);
  EXPECT_EQ(r1.dedup_zero_fills, r2.dedup_zero_fills);
  EXPECT_EQ(r1.dedup_peer_hits, r2.dedup_peer_hits);
  EXPECT_EQ(r1.dedup_bytes_served, r2.dedup_bytes_served);
  EXPECT_DOUBLE_EQ(r1.deploy.mean, r2.deploy.mean);
  const std::string t1 = r1.metrics.to_text();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, r2.metrics.to_text());
}

TEST(Cloud, DedupOffEmitsNoDedupMetrics) {
  // The golden-pin contract: a dedup-off run must not even create the
  // dedup.* / qcow2.compressed.* metric families.
  const CloudResult r = run_cloud(small_config(33));
  const std::string t = r.metrics.to_text();
  EXPECT_EQ(t.find("dedup."), std::string::npos);
  EXPECT_EQ(t.find("qcow2.compressed."), std::string::npos);
  EXPECT_EQ(r.dedup_local_hits + r.dedup_zero_fills + r.dedup_peer_hits +
                r.dedup_fallbacks + r.dedup_bytes_served,
            0u);
}

TEST(Cloud, DedupIndexDropsEvictedImages) {
  // A cache quota far below the sibling working set forces evictions;
  // every eviction must also leave the fingerprint index (a stale entry
  // can only degrade to a miss, but the bookkeeping must stay exact for
  // the run to be deterministic and leak-free).
  CloudConfig cfg = dedup_config(34);
  // Two nodes whose cache pools hold ~3 images each, against 8 popular
  // images: constant adoption churn.
  cfg.cluster.compute_nodes = 2;
  cfg.cache_quota = 8 * MiB;
  cfg.cluster.node_cache_capacity = 24 * MiB;
  const CloudResult r = run_cloud(cfg);
  EXPECT_GT(r.cache_evictions, 0u);
  expect_terminal_accounting(r);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

TEST(Cloud, DedupSurvivesCrashAndSalvage) {
  // Node crashes wipe the per-node index; salvage re-adopts clean caches
  // and re-indexes their populated clusters. The run must stay lossless
  // and deterministic through both.
  CloudConfig cfg = dedup_config(35);
  cfg.cluster.compute_nodes = 4;
  cfg.failures.crashes.push_back({250.0, 120.0, 0});
  cfg.failures.crashes.push_back({500.0, 60.0, 1});
  const CloudResult r = run_cloud(cfg);
  EXPECT_EQ(r.node_crashes, 2);
  EXPECT_EQ(r.node_recoveries, 2);
  expect_terminal_accounting(r);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

TEST(Cloud, DedupWithPeerServesContentAcrossNodes) {
  // With the peer tier on, a fingerprint hit on a remote node's cache is
  // served over the fabric (content-keyed), not from NFS.
  CloudConfig cfg = dedup_config(36);
  cfg.cluster.compute_nodes = 4;
  cfg.peer_transfer = true;
  const CloudResult r = run_cloud(cfg);
  expect_terminal_accounting(r);
  EXPECT_GT(r.dedup_local_hits + r.dedup_peer_hits, 0u);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

// --- durable control plane --------------------------------------------------

// Restart config with warm history before the outage: a late restart on
// the default 8-node cloud, long enough after start that nodes hold
// populated disk caches worth adopting.
CloudConfig restart_config(std::uint64_t seed) {
  CloudConfig cfg = small_config(seed);
  cfg.manifest = true;
  cfg.restart_at_s.push_back(600.0);
  cfg.restart_down_s = 20.0;
  return cfg;
}

TEST(Cloud, RestartWithManifestReadoptsCaches) {
  const CloudResult on = run_cloud(restart_config(41));
  CloudConfig cold = restart_config(41);
  cold.manifest = false;
  const CloudResult off = run_cloud(cold);

  EXPECT_EQ(on.restarts, 1);
  EXPECT_EQ(off.restarts, 1);
  // The manifest path re-adopted verified caches and wrote durable state.
  EXPECT_GT(on.caches_readopted, 0);
  EXPECT_GT(on.manifest_publishes, 0u);
  // The cold path had nothing to adopt (files were scrubbed on the way
  // down) and so re-pays the storage node for the re-warm.
  EXPECT_EQ(off.caches_readopted, 0);
  EXPECT_EQ(off.manifest_publishes, 0u);
  EXPECT_LT(on.post_restart_storage_bytes, off.post_restart_storage_bytes);
  // Counters mirror the result fields.
  EXPECT_EQ(on.metrics.counter_total("cloud.adopt.ok"),
            static_cast<std::uint64_t>(on.caches_readopted));
  EXPECT_EQ(on.metrics.counter_total("cloud.adopt.failed"),
            static_cast<std::uint64_t>(on.adopt_failures));
  EXPECT_EQ(on.metrics.counter_total("cloud.adopt.stale"),
            static_cast<std::uint64_t>(on.adopt_stale));
  EXPECT_EQ(on.metrics.counter_total("cloud.restart.count"),
            static_cast<std::uint64_t>(on.restarts));
  EXPECT_EQ(on.metrics.counter_total("manifest.publishes"),
            on.manifest_publishes);
  // Restarts kill VMs and in-flight deployments; nothing may be lost.
  expect_terminal_accounting(on);
  expect_terminal_accounting(off);
}

TEST(Cloud, ManifestOffEmitsNoControlPlaneMetrics) {
  // The golden-pin contract: with manifest off and no restart/drain
  // configured, none of the new metric families may even exist.
  const CloudResult r = run_cloud(small_config(42));
  const std::string t = r.metrics.to_text();
  EXPECT_EQ(t.find("manifest."), std::string::npos);
  EXPECT_EQ(t.find("cloud.adopt."), std::string::npos);
  EXPECT_EQ(t.find("cloud.restart."), std::string::npos);
  EXPECT_EQ(t.find("cloud.drain."), std::string::npos);
  EXPECT_EQ(r.restarts + r.drains + r.caches_readopted + r.adopt_failures +
                r.adopt_stale,
            0);
  EXPECT_EQ(r.manifest_publishes + r.post_restart_storage_bytes, 0u);
}

TEST(Cloud, RestartDeterministicPerSeed) {
  const CloudResult r1 = run_cloud(restart_config(43));
  const CloudResult r2 = run_cloud(restart_config(43));
  EXPECT_EQ(r1.caches_readopted, r2.caches_readopted);
  EXPECT_EQ(r1.manifest_publishes, r2.manifest_publishes);
  EXPECT_EQ(r1.post_restart_storage_bytes, r2.post_restart_storage_bytes);
  const std::string t1 = r1.metrics.to_text();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, r2.metrics.to_text());
}

TEST(Cloud, DrainWaitsOutWorkThenReadopts) {
  CloudConfig cfg = small_config(44);
  cfg.manifest = true;
  cfg.drain_node = 0;
  cfg.drain_at_s = 400.0;
  cfg.drain_down_s = 30.0;
  const CloudResult r = run_cloud(cfg);
  EXPECT_EQ(r.drains, 1);
  EXPECT_EQ(r.metrics.counter_total("cloud.drain.count"), 1u);
  // A drain is graceful: it waits for running VMs and in-flight work, so
  // unlike a restart it kills nothing.
  EXPECT_EQ(r.vm_crashes, 0);
  EXPECT_EQ(r.crash_kills, 0);
  expect_terminal_accounting(r);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

TEST(Cloud, CrashDuringAdoptionDeregistersCleanly) {
  // Satellite 1: a node crash landing inside the post-restart adoption
  // pass must leave no half-adopted state — the crash sweep deregisters
  // the node from pool, peer, and dedup; recovery re-salvages. With peer
  // and dedup on, any leaked seed/index entry would poison determinism
  // or the terminal accounting.
  CloudConfig cfg = small_config(45);
  cfg.cluster.compute_nodes = 4;
  cfg.manifest = true;
  cfg.peer_transfer = true;
  cfg.restart_at_s.push_back(500.0);
  cfg.restart_down_s = 20.0;
  // Power-up is at t=520; adoption is verifying caches when this lands.
  cfg.failures.crashes.push_back({520.001, 60.0, 0});
  const CloudResult r = run_cloud(cfg);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.node_crashes, 1);
  EXPECT_EQ(r.node_recoveries, 1);
  expect_terminal_accounting(r);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

TEST(Cloud, RestartWithPeerAndDedupRebuildsTiers) {
  // Adoption must re-register surviving caches with the seed registry
  // and fingerprint index, not just the cache pool: post-restart fills
  // keep flowing peer-to-peer / by-fingerprint.
  CloudConfig cfg = dedup_config(46);
  cfg.cluster.compute_nodes = 4;
  cfg.peer_transfer = true;
  cfg.manifest = true;
  cfg.restart_at_s.push_back(600.0);
  cfg.restart_down_s = 20.0;
  const CloudResult r = run_cloud(cfg);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_GT(r.caches_readopted, 0);
  expect_terminal_accounting(r);
  const CloudResult r2 = run_cloud(cfg);
  EXPECT_EQ(r.metrics.to_text(), r2.metrics.to_text());
}

// --- scale ------------------------------------------------------------------

TEST(CloudStress, TenThousandNodesHundredThousandSessions) {
  // The ROADMAP north-star scale, shrunk in per-VM weight rather than in
  // fleet or session count: 10k nodes, ~100k sessions, a deliberately
  // tiny OS profile so the run exercises the scheduler core, the
  // placement index and the pooled event path — not simulated disk
  // bandwidth. Runs in the ASan+UBSan CI job too, where the pools
  // degrade to plain new/delete so every entry/frame lifetime is
  // sanitizer-visible.
  CloudConfig cfg;
  cfg.seed = 42;
  cfg.cluster.compute_nodes = 10000;
  cfg.cluster.node_cache_capacity = 8 * MiB;
  cfg.vm_slots_per_node = 4;
  boot::OsProfile p = boot::centos63();
  p.image_size = 1 * MiB;
  p.unique_read_bytes = 16 * KiB;
  p.cpu_seconds = 0.05;
  p.write_bytes = 4 * KiB;
  cfg.profile = p;
  cfg.cache_quota = 2 * MiB;
  cfg.cache_cluster_bits = 12;
  cfg.workload.num_vmis = 16;
  cfg.workload.mean_interarrival_s = 0.1;  // ~100k arrivals
  cfg.workload.min_lifetime_s = 20.0;
  cfg.workload.mean_extra_lifetime_s = 40.0;
  cfg.horizon_s = 10000.0;
  const CloudResult r = run_cloud(cfg);
  expect_terminal_accounting(r);
  EXPECT_GT(r.arrivals, 90000);
  EXPECT_GT(r.completed, 90000);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_GT(r.sim_events, static_cast<std::uint64_t>(1000000));
  EXPECT_GT(r.cache_hit_ratio, 0.5);
}

}  // namespace
}  // namespace vmic::cloud
