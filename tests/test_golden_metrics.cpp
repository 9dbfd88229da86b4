// Golden-metrics suite: proves the obs refactor preserved simulation
// behaviour and that metrics snapshots are deterministic.
//
//  * determinism: the same scenario run twice renders a byte-identical
//    metrics snapshot (the simulation is single-threaded and seeded);
//  * pinned values: a fixed 4-node Fig-2-style scenario must reproduce
//    the exact byte counts and boot times captured from the pre-obs
//    codebase — any drift means the instrumentation changed behaviour;
//  * cross-checks: registry-backed series agree with the ad-hoc
//    ScenarioResult fields they replaced.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <span>
#include <vector>

#include "cloud/engine.hpp"
#include "cluster/scenario.hpp"
#include "crash/explore.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace vmic::cluster {
namespace {

using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

ClusterParams fig2_params() {
  ClusterParams cp;
  cp.compute_nodes = 4;
  return cp;
}

ScenarioConfig fig2_config(CacheMode mode, CacheState state) {
  ScenarioConfig sc;
  sc.num_vms = 4;
  sc.num_vmis = 1;
  sc.mode = mode;
  sc.state = state;
  return sc;
}

TEST(GoldenMetrics, SnapshotIsByteStableAcrossRuns) {
  const auto r1 = run_scenario(fig2_params(),
                               fig2_config(CacheMode::compute_disk,
                                           CacheState::cold));
  const auto r2 = run_scenario(fig2_params(),
                               fig2_config(CacheMode::compute_disk,
                                           CacheState::cold));
  const std::string t1 = r1.metrics.to_text();
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, r2.metrics.to_text());
  EXPECT_EQ(r1.metrics.to_json(), r2.metrics.to_json());
}

// Values captured from the pre-obs codebase (plain uint64 counters) for
// this exact scenario. They pin the simulation's observable behaviour:
// the obs layer must be a pure reader. Boot times were re-captured when
// the durability work added the dirty-bit header write (one extra 8-byte
// metadata pwrite per image session, ~100 us on the simulated media).

TEST(GoldenMetrics, PlainQcow2ColdPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::none, CacheState::cold));
  EXPECT_EQ(r.storage_payload_bytes, 547434496u);
  EXPECT_EQ(r.storage_disk_reads, 1u);
  EXPECT_EQ(r.storage_disk_bytes_read, 65536u);
  EXPECT_NEAR(r.mean_boot, 37.796141462, 1e-9);
  EXPECT_NEAR(r.max_boot, 37.796141462, 1e-9);
}

TEST(GoldenMetrics, ComputeDiskColdPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::cold));
  EXPECT_EQ(r.storage_payload_bytes, 479723520u);
  EXPECT_NEAR(r.mean_boot, 37.389519366, 1e-9);
}

TEST(GoldenMetrics, ComputeDiskWarmPinnedValues) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::warm));
  EXPECT_EQ(r.storage_payload_bytes, 16384u);
  EXPECT_EQ(r.warm_cache_file_bytes, 95254016u);
  EXPECT_NEAR(r.mean_boot, 32.998217362, 1e-9);
}

// Storm-path pins (Figs 3, 12-14): several fresh VMI copies, 512 B cache
// clusters and a storage page cache that starts cold, on the scaled-down
// profile so each run stays short. Cold compute-disk caches exercise the
// copy-on-read fills, the NFS read window and the post-boot clone of the
// memory-built cache to disk; the storage-memory runs exercise the cold
// push-back and the warm clone into the storage node's tmpfs.

ScenarioConfig storm_config(CacheMode mode, CacheState state) {
  ScenarioConfig sc;
  sc.profile = cloud::scaled_down(boot::centos63());
  sc.profile.unique_read_bytes = 6 * MiB;
  sc.profile.write_bytes = 1 * MiB;
  sc.num_vms = 16;
  sc.num_vmis = 4;
  sc.mode = mode;
  sc.state = state;
  sc.storage_cache_prewarmed = false;
  return sc;
}

struct StormPins {
  std::uint64_t payload, disk_reads, disk_bytes, warm_bytes, fills, cor_bytes;
  double mean_boot, max_boot;
};

void expect_storm_pins(const ScenarioResult& r, const StormPins& p) {
  EXPECT_EQ(r.storage_payload_bytes, p.payload);
  EXPECT_EQ(r.storage_disk_reads, p.disk_reads);
  EXPECT_EQ(r.storage_disk_bytes_read, p.disk_bytes);
  EXPECT_EQ(r.warm_cache_file_bytes, p.warm_bytes);
  EXPECT_EQ(r.metrics.counter_total("qcow2.cor_fills"), p.fills);
  EXPECT_EQ(r.metrics.counter_total("qcow2.cor_bytes"), p.cor_bytes);
  EXPECT_NEAR(r.mean_boot, p.mean_boot, 1e-9);
  EXPECT_NEAR(r.max_boot, p.max_boot, 1e-9);
}

TEST(GoldenMetrics, StormColdPinnedValues) {
  const auto r = run_scenario(
      fig2_params(), storm_config(CacheMode::compute_disk, CacheState::cold));
  expect_storm_pins(r, {141869056u, 927u, 60751872u, 0u, 12936u, 107603968u,
                        7.8983437074375, 8.042532147});
}

TEST(GoldenMetrics, StorageMemColdPushBackPinnedValues) {
  const auto r = run_scenario(
      fig2_params(), storm_config(CacheMode::storage_mem, CacheState::cold));
  expect_storm_pins(r, {187700224u, 900u, 60751872u, 0u, 3234u, 26900992u,
                        7.768299279625, 7.993942313});
}

TEST(GoldenMetrics, StorageMemWarmPinnedValues) {
  const auto r = run_scenario(
      fig2_params(), storm_config(CacheMode::storage_mem, CacheState::warm));
  expect_storm_pins(r, {213598208u, 0u, 0u, 7543808u, 3234u, 26900992u,
                        6.4219083576875, 6.439466384});
}

// The registry-backed series must agree with the ad-hoc counters they
// replaced (ScenarioResult reads NfsServer/RotationalDisk stats directly;
// the snapshot reads the same instruments through the registry).

TEST(GoldenMetrics, RegistryAgreesWithAdHocCounters) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::none, CacheState::cold));
  const obs::MetricsSnapshot& m = r.metrics;

  const std::uint64_t tx = m.counter_total("nfs.server.bytes_tx");
  const std::uint64_t rx = m.counter_total("nfs.server.bytes_rx");
  EXPECT_EQ(tx + rx, r.storage_payload_bytes);

  const obs::MetricPoint* disk_reads =
      m.find("storage.reads", {{"node", "storage0"}, {"medium", "disk"}});
  ASSERT_NE(disk_reads, nullptr);
  EXPECT_EQ(disk_reads->counter, r.storage_disk_reads);

  const obs::MetricPoint* disk_bytes = m.find(
      "storage.bytes_read", {{"node", "storage0"}, {"medium", "disk"}});
  ASSERT_NE(disk_bytes, nullptr);
  EXPECT_EQ(disk_bytes->counter, r.storage_disk_bytes_read);

  // Per-VM boot times all land in the boot-seconds histogram.
  const obs::MetricPoint* hist = m.find("cluster.boot_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.vms.size()));

  // The qcow2 aggregates saw every guest read of the scenario.
  EXPECT_GT(m.counter_total("qcow2.guest_reads"), 0u);
}

TEST(GoldenMetrics, CacheModeExportsCorSeries) {
  const auto r = run_scenario(fig2_params(),
                              fig2_config(CacheMode::compute_disk,
                                          CacheState::cold));
  const obs::MetricsSnapshot& m = r.metrics;
  const obs::MetricPoint* fills =
      m.find("qcow2.cor_fills", {{"image", "cache"}});
  ASSERT_NE(fills, nullptr);
  EXPECT_GT(fills->counter, 0u);
  // CoR stores whole clusters: bytes == clusters * 512 (cache images use
  // the paper's 512-byte clusters by default).
  const obs::MetricPoint* clusters =
      m.find("qcow2.cor_clusters", {{"image", "cache"}});
  const obs::MetricPoint* bytes =
      m.find("qcow2.cor_bytes", {{"image", "cache"}});
  ASSERT_NE(clusters, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->counter, clusters->counter * 512u);
  // Plain overlays never copy-on-read.
  EXPECT_EQ(m.counter_total("qcow2.cor_fills"), fills->counter);
}

// A small fixed cloud scenario pins the cloud.* namespace the same way
// the Fig-2 scenarios pin cluster.*: any drift in workload generation,
// scheduling, placement, or SLO accounting shows up as a changed count.

TEST(GoldenMetrics, CloudSmallScenarioPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.arrivals, 20);
  EXPECT_EQ(r.completed, 20);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.warm_hits, 14);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.cache_evictions, 1u);
  EXPECT_EQ(r.storage_payload_bytes, 396725760u);
  EXPECT_NEAR(r.cache_hit_ratio, 0.7, 1e-9);
  EXPECT_NEAR(r.deploy.mean, 7.81614396925, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 12.35222641, 1e-9);
  EXPECT_NEAR(r.sim_seconds, 657.417208613, 1e-9);

  // The snapshot mirrors the result struct exactly.
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.arrivals"),
            static_cast<std::uint64_t>(r.arrivals));
  EXPECT_EQ(m.counter_total("cloud.completed"),
            static_cast<std::uint64_t>(r.completed));
  const obs::MetricPoint* hist = m.find("cloud.deploy_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.completed));
}

// --------------------------------------------------------------------------
// Pinned concurrent copy-on-read scenario. 16 readers race on one cold
// cluster, then 8 more populate disjoint clusters, over a sim-timed
// medium. Pins the single-flight protocol's observable behaviour — fetch
// counts, wait/dedup counters, allocator contention, and the final sim
// clock. Any drift means the range-lock/fill protocol changed timing or
// I/O behaviour.
// --------------------------------------------------------------------------

sim::Task<bool> gm_pwrite_all(io::BlockBackend& be,
                              std::span<const std::uint8_t> data) {
  auto r = co_await be.pwrite(0, data);
  co_return r.ok();
}

sim::Task<void> gm_reader(block::BlockDevice& dev, std::uint64_t off,
                          std::span<std::uint8_t> dst, bool& ok) {
  auto r = co_await dev.read(off, dst);
  ok = r.ok();
}

TEST(GoldenMetrics, ConcurrentCorPinnedValues) {
  constexpr std::uint64_t kSize = 4_MiB;
  obs::Hub hub;
  sim::SimEnv env;
  storage::MemMedium mem{env, {.latency_us = 200.0, .bandwidth_bps = 200e6}};
  storage::SimDirectory dir{mem};

  std::vector<std::uint8_t> data(kSize);
  Rng rng{42};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  {
    auto be = dir.create_file("base.img");
    ASSERT_TRUE(be.ok());
    ASSERT_TRUE(sim::run_sync(env, gm_pwrite_all(**be, data)));
  }
  ASSERT_TRUE(sim::run_sync(env, qcow2::create_cache_image(
                                     dir, "vmi.cache", "base.img", 4_MiB,
                                     {.cluster_bits = 16, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(
      sim::run_sync(env, qcow2::create_cow_image(dir, "vm.cow", "vmi.cache"))
          .ok());
  auto opened = sim::run_sync(
      env, qcow2::open_image(dir, "vm.cow", /*writable=*/true,
                             /*cache_backing_ro=*/false, &hub));
  ASSERT_TRUE(opened.ok());
  block::DevicePtr cow = std::move(*opened);

  // Phase 1: 16 readers race on the same cold 64 KiB cluster.
  std::vector<std::vector<std::uint8_t>> bufs(24);
  std::deque<bool> oks(24, false);
  for (int i = 0; i < 16; ++i) {
    bufs[i].resize(64_KiB);
    env.spawn(gm_reader(*cow, 0, bufs[i], oks[i]));
  }
  env.run();
  // Phase 2: 8 readers populate disjoint cold clusters concurrently.
  for (int i = 0; i < 8; ++i) {
    bufs[16 + i].resize(64_KiB);
    env.spawn(
        gm_reader(*cow, 1_MiB + i * 256_KiB, bufs[16 + i], oks[16 + i]));
  }
  env.run();

  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(oks[i]) << "reader " << i;
    const std::uint64_t off = i < 16 ? 0 : 1_MiB + (i - 16) * 256_KiB;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + off, 64_KiB))
        << "reader " << i;
  }

  const auto m = hub.registry.snapshot();
  // Phase 1: one fetch, 15 queued behind it and served locally; phase 2:
  // eight independent fetches, no waits.
  const obs::MetricPoint* br =
      m.find("qcow2.backing_reads", {{"image", "cache"}});
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->counter, 9u);
  const obs::MetricPoint* bfb =
      m.find("qcow2.bytes_from_backing", {{"image", "cache"}});
  ASSERT_NE(bfb, nullptr);
  EXPECT_EQ(bfb->counter, 9u * 64_KiB);
  EXPECT_EQ(m.counter_total("qcow2.cor.inflight_waits"), 15u);
  EXPECT_EQ(m.counter_total("qcow2.cor.dedup_hits"), 15u);
  EXPECT_EQ(m.counter_total("qcow2.cor_clusters"), 9u);
  EXPECT_EQ(m.counter_total("qcow2.cor_stopped"), 0u);
  // Captured from a reference run; pins allocator contention and timing.
  EXPECT_EQ(m.counter_total("qcow2.alloc_lock_waits"), 15u);
  EXPECT_EQ(env.now(), 44719481u);
}

TEST(GoldenMetrics, TracingDoesNotPerturbTiming) {
  obs::Hub hub;
  hub.tracer.set_enabled(true);
  ClusterParams cp = fig2_params();
  cp.hub = &hub;
  const auto traced = run_scenario(cp, fig2_config(CacheMode::compute_disk,
                                                   CacheState::cold));
  const auto plain = run_scenario(fig2_params(),
                                  fig2_config(CacheMode::compute_disk,
                                              CacheState::cold));
  EXPECT_EQ(traced.storage_payload_bytes, plain.storage_payload_bytes);
  EXPECT_DOUBLE_EQ(traced.mean_boot, plain.mean_boot);
  EXPECT_GT(hub.tracer.size(), 0u);
  // Trace export is well-formed enough to start and end as one object.
  const std::string json = hub.tracer.to_chrome_json();
  EXPECT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
  EXPECT_EQ(json.back(), '}');
}

// --------------------------------------------------------------------------
// Pinned crash-consistency counters. A fixed crash::explore sweep is
// fully deterministic, so the crash.* and qcow2.repair.* namespaces pin
// exactly: any drift means the fault-injection schedule, the barrier
// placement, or the repair rules changed behaviour.
// --------------------------------------------------------------------------

TEST(GoldenMetrics, CrashExplorePinnedValues) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 1;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, 67u);
  EXPECT_EQ(r.crash_points, 12u);
  EXPECT_EQ(r.dirty_images, 11u);
  EXPECT_EQ(r.pre_repair_leaks, 16u);
  EXPECT_EQ(r.leaks_dropped, 16u);
  EXPECT_EQ(r.digest, 14649543974109951761ull);

  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("crash.power_cuts"), r.power_cuts);
  EXPECT_EQ(m.counter_total("crash.writes_kept"), 11u);
  EXPECT_EQ(m.counter_total("crash.writes_dropped"), 3u);
  EXPECT_EQ(m.counter_total("crash.writes_torn"), 1u);
  EXPECT_EQ(m.counter_total("qcow2.repair.runs"), 12u);
  EXPECT_EQ(m.counter_total("qcow2.repair.dirty_opens"), 11u);
  EXPECT_EQ(m.counter_total("qcow2.repair.leaks_dropped"), r.leaks_dropped);
}

// The journal-mode sweep pins the qcow2.journal.* namespace: appends and
// checkpoints happen on the recording run and every replayed point, and
// each dirty reopen must repair by replay (fallbacks pin to zero — a
// drift here means replay stopped proving consistency somewhere).

TEST(GoldenMetrics, JournalExplorePinnedValues) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 2;
  cfg.guest_ops = 20;
  cfg.max_crash_points = 12;
  cfg.journal_sectors = 4;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_GT(r.journal_replays, 0u);
  EXPECT_EQ(r.journal_fallbacks, 0u);

  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("qcow2.journal.replays"), r.journal_replays);
  EXPECT_EQ(m.counter_total("qcow2.journal.fallbacks"), 0u);
  EXPECT_GT(m.counter_total("qcow2.journal.appends"), 0u);
  EXPECT_GT(m.counter_total("qcow2.journal.checkpoints"), 0u);

  // Exact pins: the schedule is deterministic, so the counter totals are
  // part of the golden surface like the digest.
  EXPECT_EQ(r.total_events, 79u);
  EXPECT_EQ(r.journal_replays, 11u);
  EXPECT_EQ(m.counter_total("qcow2.journal.appends"), 93u);
  EXPECT_EQ(m.counter_total("qcow2.journal.checkpoints"), 23u);
  EXPECT_EQ(m.counter_total("qcow2.journal.entries_replayed"), 22u);
  EXPECT_EQ(r.digest, 670551284262492835ull);
}

// Copy-on-read sweeps, plain and compressed. total_events counts every
// mutating backend call of the uncut recording run, so it fixes the
// cluster-store path's write and flush sequence; the digest fixes what
// every cut left behind. The compressed sweep's base mixes compressible
// clusters with noise, so its runs hold packed payloads and plain
// clusters, and a cut between a packing cluster's incref and the L2
// publish must leave only an over-count, which repair drops.

struct CorSweepPins {
  std::uint64_t total_events, pre_repair_leaks, digest;
  std::uint64_t compressed, fallbacks;
};

void expect_cor_sweep_pins(bool compress, const CorSweepPins& p) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 3;
  cfg.guest_ops = 24;
  cfg.cor_chain = true;
  cfg.cor_compress = compress;
  cfg.max_crash_points = 24;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, p.total_events);
  EXPECT_EQ(r.crash_points, 24u);
  EXPECT_EQ(r.pre_repair_leaks, p.pre_repair_leaks);
  EXPECT_EQ(r.leaks_dropped, p.pre_repair_leaks);
  EXPECT_EQ(r.post_repair_leaks, 0u);
  EXPECT_EQ(r.digest, p.digest);
  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("qcow2.compressed.clusters"), p.compressed);
  EXPECT_EQ(m.counter_total("qcow2.compressed.fallbacks"), p.fallbacks);
}

TEST(GoldenMetrics, CorChainExplorePinnedValues) {
  expect_cor_sweep_pins(false, {94u, 3u, 3352614766863323324ull, 0u, 0u});
}

TEST(GoldenMetrics, CompressedCorChainExplorePinnedValues) {
  expect_cor_sweep_pins(true,
                        {117u, 18u, 8791998288500834709ull, 4638u, 1546u});
}

// 512 B-cluster sweeps. A refcount block covers 256 clusters there, and
// 200 guest operations grow the 1 MiB image past them, so cuts land
// inside refcount-block creation;
// lazy refcounts defer the decrements eager mode writes at once, and a
// 2-sector journal checkpoints on nearly every allocation.

struct SmallClusterPins {
  std::uint64_t total_events, dirty_images, pre_repair_leaks, leaks_dropped;
  std::uint64_t post_repair_leaks, digest;
  std::uint64_t journal_replays, journal_appends, journal_checkpoints;
};

void expect_small_cluster_pins(bool lazy, std::uint32_t journal_sectors,
                               const SmallClusterPins& p) {
  obs::Hub hub;
  crash::ExploreConfig cfg;
  cfg.seed = 1;
  cfg.cluster_bits = 9;
  cfg.guest_ops = 200;
  cfg.max_crash_points = 48;
  cfg.lazy_refcounts = lazy;
  cfg.journal_sectors = journal_sectors;
  cfg.hub = &hub;
  const crash::ExploreReport r = crash::explore(cfg);
  ASSERT_TRUE(r.pass()) << crash::to_json(r, cfg);

  EXPECT_EQ(r.total_events, p.total_events);
  EXPECT_EQ(r.crash_points, 48u);
  EXPECT_EQ(r.dirty_images, p.dirty_images);
  EXPECT_EQ(r.pre_repair_leaks, p.pre_repair_leaks);
  EXPECT_EQ(r.leaks_dropped, p.leaks_dropped);
  EXPECT_EQ(r.corruptions_fixed, 0u);
  // Journal images may keep a leak whose free record never became durable.
  EXPECT_EQ(r.post_repair_leaks, p.post_repair_leaks);
  EXPECT_EQ(r.digest, p.digest);
  EXPECT_EQ(r.journal_replays, p.journal_replays);
  EXPECT_EQ(r.journal_fallbacks, 0u);
  const auto m = hub.registry.snapshot();
  EXPECT_EQ(m.counter_total("qcow2.journal.appends"), p.journal_appends);
  EXPECT_EQ(m.counter_total("qcow2.journal.checkpoints"),
            p.journal_checkpoints);
}

TEST(GoldenMetrics, SmallClusterEagerExplorePinnedValues) {
  expect_small_cluster_pins(
      false, 0, {730u, 47u, 35u, 35u, 0u, 2422271595118672262ull, 0u, 0u, 0u});
}

TEST(GoldenMetrics, SmallClusterLazyExplorePinnedValues) {
  expect_small_cluster_pins(
      true, 0, {729u, 47u, 52u, 52u, 0u, 10015459685412799565ull, 0u, 0u, 0u});
}

TEST(GoldenMetrics, SmallClusterJournalExplorePinnedValues) {
  expect_small_cluster_pins(false, 2,
                            {1224u, 47u, 2u, 38u, 2u, 5783449671698610150ull,
                             47u, 4108u, 4067u});
}

// Quota-edge pins: a cache filled past its quota by a fixed script of
// unaligned multi-cluster reads. Near the edge a plain fill drops to one
// cluster per store (its own write, flush and publish) until a cluster no
// longer fits; a compressed run stops at its first failed placement and
// still publishes what it placed. The cache file's pwrite and flush
// counts fix both sequences.

/// Counts the mutating calls that reach one file.
class CountingBackend final : public io::BlockBackend {
 public:
  CountingBackend(io::BackendPtr inner, std::uint64_t* pwrites,
                  std::uint64_t* flushes)
      : inner_(std::move(inner)), pwrites_(pwrites), flushes_(flushes) {}

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    co_return co_await inner_->pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    ++*pwrites_;
    co_return co_await inner_->pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    ++*flushes_;
    co_return co_await inner_->flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    co_return co_await inner_->truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::string describe() const override { return "counting"; }

 private:
  io::BackendPtr inner_;
  std::uint64_t* pwrites_;
  std::uint64_t* flushes_;
};

/// Wraps the cache file of a MemImageStore chain in a CountingBackend.
class CountingStore final : public io::ImageDirectory {
 public:
  explicit CountingStore(io::MemImageStore& inner) : inner_(inner) {}

  std::uint64_t pwrites = 0;
  std::uint64_t flushes = 0;

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(be, inner_.open_file(name, writable));
    if (name != "vmi.cache") return io::BackendPtr{std::move(be)};
    return io::BackendPtr{
        std::make_unique<CountingBackend>(std::move(be), &pwrites, &flushes)};
  }
  Result<io::BackendPtr> create_file(const std::string& name) override {
    return inner_.create_file(name);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }

 private:
  io::MemImageStore& inner_;
};

struct QuotaEdgePins {
  std::uint64_t pwrites, flushes, file_bytes, cor_clusters;
};

void expect_quota_edge_pins(bool compress, const QuotaEdgePins& p) {
  constexpr std::uint64_t kSize = 2_MiB;
  io::MemImageStore mem;
  // Base: three 4 KiB clusters in four are 64-byte runs of one byte value
  // (compressible), every fourth is noise.
  std::vector<std::uint8_t> base(kSize);
  Rng rng{0x0b07a};
  for (std::uint64_t i = 0; i < kSize; ++i) {
    base[i] = (i >> 12) % 4 != 3 && i % 64 != 0
                  ? base[i - 1]
                  : static_cast<std::uint8_t>(rng.next());
  }
  {
    auto be = mem.create_file("base.img");
    ASSERT_TRUE(be.ok());
    ASSERT_TRUE(sim::sync_wait((*be)->pwrite(0, base)).ok());
  }
  ASSERT_TRUE(sim::sync_wait(qcow2::create_cache_image(
                                 mem, "vmi.cache", "base.img", 192_KiB,
                                 {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(
      sim::sync_wait(qcow2::create_cow_image(mem, "vm.cow", "vmi.cache"))
          .ok());
  CountingStore store{mem};
  auto dev = sim::sync_wait(qcow2::open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  auto* cache = dynamic_cast<qcow2::Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);
  if (compress) {
    ASSERT_TRUE(cache->set_cor_compress(true).ok());
  }

  std::vector<std::uint8_t> buf;
  Rng script{0x9a07a};
  for (int i = 0; i < 96; ++i) {
    const std::uint64_t len = 1 + script.below(32_KiB);
    const std::uint64_t off = script.below(kSize - len);
    buf.assign(len, 0);
    ASSERT_TRUE(sim::sync_wait((*dev)->read(off, buf)).ok());
    ASSERT_EQ(0, std::memcmp(buf.data(), base.data() + off, len)) << i;
  }
  EXPECT_FALSE(cache->cor_active());
  auto chk = sim::sync_wait(cache->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());

  EXPECT_EQ(store.pwrites, p.pwrites);
  EXPECT_EQ(store.flushes, p.flushes);
  EXPECT_EQ(cache->file_bytes(), p.file_bytes);
  EXPECT_EQ(cache->stats().cor_clusters, p.cor_clusters);
  EXPECT_EQ(cache->stats().cor_stopped, 1u);
}

TEST(GoldenMetrics, PlainCacheQuotaEdgePinnedValues) {
  expect_quota_edge_pins(false, {37u, 13u, 196608u, 43u});
}

TEST(GoldenMetrics, CompressedCacheQuotaEdgePinnedValues) {
  expect_quota_edge_pins(true, {181u, 22u, 196608u, 94u});
}

// A small crashy cloud run pins the salvage path: one node crash, whose
// recovery repairs and re-adopts the surviving caches.

TEST(GoldenMetrics, CloudCrashSalvagePinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  // A late crash on node 0: by then its caches are warm and idle, prime
  // salvage material.
  cfg.failures.crashes.push_back({400.0, 60.0, 0});
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.node_crashes, 1);
  EXPECT_EQ(r.node_recoveries, 1);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.caches_salvaged, 1);
  EXPECT_EQ(r.caches_invalidated, 0);

  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.cache_salvaged"),
            static_cast<std::uint64_t>(r.caches_salvaged));
  EXPECT_EQ(m.counter_total("cloud.cache_invalidated"),
            static_cast<std::uint64_t>(r.caches_invalidated));
}

// Every count of one planned restart with the durable manifest, pinned:
// the adoption pass, the publish cadence, and the post-restart storage
// bill are all part of the determinism contract. An unintentional change
// to any publish point or to the adoption order shows up here first.
TEST(GoldenMetrics, RestartAdoptPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 600.0;
  cfg.workload.mean_interarrival_s = 30.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 60.0;
  cfg.manifest = true;
  cfg.restart_at_s.push_back(400.0);
  cfg.restart_down_s = 20.0;
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.arrivals, 20);
  EXPECT_EQ(r.completed, 20);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.restarts, 1);
  // Four caches survive the power cycle verified; one — left mid-write by
  // the deployment the restart killed — fails verification and degrades
  // to cold (the advisory-manifest contract: never adopt what you cannot
  // re-verify).
  EXPECT_EQ(r.caches_readopted, 4);
  EXPECT_EQ(r.adopt_failures, 1);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.vm_crashes, 1);
  EXPECT_EQ(r.manifest_publishes, 42u);
  EXPECT_EQ(r.post_restart_storage_bytes, 104179720u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);

  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.adopt.ok"), 4u);
  EXPECT_EQ(m.counter_total("cloud.adopt.failed"), 1u);
  EXPECT_EQ(m.counter_total("cloud.restart.count"), 1u);
  EXPECT_EQ(m.counter_total("manifest.publishes"), 42u);
}

// The tiered paths pin like the plain ones: every CloudResult counter,
// the event count and the deploy percentiles of a peer-tier run and of a
// run with every tier on. Peer fetches, content-keyed dedup fetches,
// rebases, salvage, adoption and drains each hand a cache file between
// coroutines under a pin/hold protocol; any change to that protocol's
// ordering or I/O shows up here as drift.

void expect_cloud_counters_match(const cloud::CloudResult& r) {
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter_total("cloud.arrivals"),
            static_cast<std::uint64_t>(r.arrivals));
  EXPECT_EQ(m.counter_total("cloud.completed"),
            static_cast<std::uint64_t>(r.completed));
  const obs::MetricPoint* hist = m.find("cloud.deploy_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(r.completed));
}

// Peer tier on, dedup off: 12 Zipf-skewed images, a tight node cache,
// three node crashes and a 0.2 ms transfer deadline, so seed hits, miss
// and timeout fallbacks, and crash deregistrations all occur.
TEST(GoldenMetrics, PeerCloudPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 9;
  cfg.horizon_s = 180.0;
  cfg.workload.num_vmis = 12;
  cfg.workload.zipf_exponent = 1.1;
  cfg.workload.mean_interarrival_s = 7.2;
  cfg.cluster.node_cache_capacity = 96 * MiB;
  cfg.peer_transfer = true;
  cfg.peer.timeout_s = 0.0002;
  Rng plan_rng(cfg.seed ^ 0xFA11ull);
  cfg.failures = cloud::plan_failures(3, 0, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.sim_events, 559734u);
  EXPECT_EQ(r.storage_payload_bytes, 519773696u);
  EXPECT_EQ(r.arrivals, 15);
  EXPECT_EQ(r.completed, 15);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.deploy_failures, 0);
  EXPECT_EQ(r.crash_kills, 0);
  EXPECT_EQ(r.vm_crashes, 2);
  EXPECT_EQ(r.warm_hits, 5);
  EXPECT_EQ(r.copyback_skips, 0);
  EXPECT_EQ(r.node_crashes, 3);
  EXPECT_EQ(r.node_recoveries, 3);
  EXPECT_EQ(r.caches_salvaged, 0);
  EXPECT_EQ(r.caches_invalidated, 0);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.drains, 0);
  EXPECT_EQ(r.caches_readopted, 0);
  EXPECT_EQ(r.adopt_failures, 0);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.manifest_publishes, 0u);
  EXPECT_EQ(r.post_restart_storage_bytes, 0u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.cache_evictions, 0u);
  EXPECT_EQ(r.peer_seed_hits, 2791u);
  EXPECT_EQ(r.peer_fallback_fills, 29458u);
  EXPECT_EQ(r.peer_bytes_served, 16597504u);
  EXPECT_EQ(r.peer_timeouts, 346u);
  EXPECT_EQ(r.dedup_local_hits, 0u);
  EXPECT_EQ(r.dedup_zero_fills, 0u);
  EXPECT_EQ(r.dedup_peer_hits, 0u);
  EXPECT_EQ(r.dedup_fallbacks, 0u);
  EXPECT_EQ(r.dedup_bytes_served, 0u);
  EXPECT_EQ(r.updates_published, 0);
  EXPECT_EQ(r.caches_rebased, 0);
  EXPECT_EQ(r.update_invalidations, 0);
  EXPECT_EQ(r.rebase_patched_clusters, 0u);
  EXPECT_EQ(r.rebase_reused_clusters, 0u);
  EXPECT_EQ(r.post_update_storage_bytes, 0u);
  EXPECT_EQ(r.peak_queue_depth, 1u);
  EXPECT_NEAR(r.deploy.p50, 10.908486293, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 12.324467616, 1e-9);

  expect_cloud_counters_match(r);
  const obs::MetricPoint* miss =
      r.metrics.find("peer.fallback", {{"reason", "miss"}});
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->counter, 29112u);
}

// Every tier at once, built exactly as `vmi-cloudsim --hours 0.35
// --seed 5 --vmis 8 --siblings 4 --cluster-bits 12 --content-mib 64
// --peer on --dedup on --compress on --manifest on --drain 1 --drain-at
// 0.15 --fail-nodes 2 --updates on --update-policy rebase --update-rate
// 8` builds it (CI smoke-runs that command for determinism): local and
// peer dedup hits, a salvage, an adoption after the drain, and rebases.
TEST(GoldenMetrics, TieredChurnPinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 5;
  cfg.horizon_s = 0.35 * 3600.0;
  cfg.workload.num_vmis = 8;
  cfg.sibling_group_size = 4;
  cfg.cache_cluster_bits = 12;
  cfg.content_bytes = 64 * MiB;
  cfg.peer_transfer = true;
  cfg.dedup = true;
  cfg.cache_compress = true;
  cfg.manifest = true;
  cfg.drain_node = 1;
  cfg.drain_at_s = 0.15 * 3600.0;
  cfg.updates.enabled = true;
  cfg.updates.policy = update::Policy::rebase;
  cfg.updates.rate_per_hour = 8.0;
  Rng plan_rng(cfg.seed ^ 0xFA11'FA11'FA11'FA11ull);
  cfg.failures = cloud::plan_failures(2, 0, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.sim_events, 527623u);
  EXPECT_EQ(r.storage_payload_bytes, 43179528u);
  EXPECT_EQ(r.arrivals, 29);
  EXPECT_EQ(r.completed, 29);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.deploy_failures, 0);
  EXPECT_EQ(r.crash_kills, 0);
  EXPECT_EQ(r.vm_crashes, 0);
  EXPECT_EQ(r.warm_hits, 21);
  EXPECT_EQ(r.copyback_skips, 0);
  EXPECT_EQ(r.node_crashes, 2);
  EXPECT_EQ(r.node_recoveries, 2);
  EXPECT_EQ(r.caches_salvaged, 1);
  EXPECT_EQ(r.caches_invalidated, 0);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.drains, 1);
  EXPECT_EQ(r.caches_readopted, 1);
  EXPECT_EQ(r.adopt_failures, 0);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.manifest_publishes, 44u);
  EXPECT_EQ(r.post_restart_storage_bytes, 0u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.cache_evictions, 0u);
  EXPECT_EQ(r.peer_seed_hits, 0u);
  EXPECT_EQ(r.peer_fallback_fills, 771u);
  EXPECT_EQ(r.peer_bytes_served, 0u);
  EXPECT_EQ(r.peer_timeouts, 0u);
  EXPECT_EQ(r.dedup_local_hits, 13u);
  EXPECT_EQ(r.dedup_zero_fills, 70011u);
  EXPECT_EQ(r.dedup_peer_hits, 187u);
  EXPECT_EQ(r.dedup_fallbacks, 1503u);
  EXPECT_EQ(r.dedup_bytes_served, 214847488u);
  EXPECT_EQ(r.updates_published, 2);
  EXPECT_EQ(r.caches_rebased, 3);
  EXPECT_EQ(r.update_invalidations, 0);
  EXPECT_EQ(r.rebase_patched_clusters, 37u);
  EXPECT_EQ(r.rebase_reused_clusters, 20083u);
  EXPECT_EQ(r.post_update_storage_bytes, 10614280u);
  EXPECT_EQ(r.peak_queue_depth, 1u);
  EXPECT_NEAR(r.deploy.p50, 6.089162169, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 6.817292327, 1e-9);

  expect_cloud_counters_match(r);
}

// Peer, dedup and compression under two storage outages, built exactly
// as `vmi-cloudsim --hours 0.25 --seed 11 --vmis 8 --siblings 4
// --cluster-bits 12 --content-mib 64 --peer on --dedup on --compress on
// --outages 2` builds it (CI smoke-runs that command for determinism).
// The one run where the content stage's NFS top-up fails mid-fetch and
// hands the range over to the seed stage.
TEST(GoldenMetrics, TieredOutagePinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 11;
  cfg.horizon_s = 0.25 * 3600.0;
  cfg.workload.num_vmis = 8;
  cfg.sibling_group_size = 4;
  cfg.cache_cluster_bits = 12;
  cfg.content_bytes = 64 * MiB;
  cfg.peer_transfer = true;
  cfg.dedup = true;
  cfg.cache_compress = true;
  Rng plan_rng(cfg.seed ^ 0xFA11'FA11'FA11'FA11ull);
  cfg.failures = cloud::plan_failures(0, 2, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.sim_events, 207124u);
  EXPECT_EQ(r.storage_payload_bytes, 20406272u);
  EXPECT_EQ(r.arrivals, 19);
  EXPECT_EQ(r.completed, 13);
  EXPECT_EQ(r.aborted, 6);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 18);
  EXPECT_EQ(r.deploy_failures, 24);
  EXPECT_EQ(r.crash_kills, 0);
  EXPECT_EQ(r.vm_crashes, 0);
  EXPECT_EQ(r.warm_hits, 9);
  EXPECT_EQ(r.copyback_skips, 1);
  EXPECT_EQ(r.node_crashes, 0);
  EXPECT_EQ(r.node_recoveries, 0);
  EXPECT_EQ(r.caches_salvaged, 0);
  EXPECT_EQ(r.caches_invalidated, 0);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.drains, 0);
  EXPECT_EQ(r.caches_readopted, 0);
  EXPECT_EQ(r.adopt_failures, 0);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.manifest_publishes, 0u);
  EXPECT_EQ(r.post_restart_storage_bytes, 0u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.cache_evictions, 1u);
  EXPECT_EQ(r.peer_seed_hits, 0u);
  EXPECT_EQ(r.peer_fallback_fills, 599u);
  EXPECT_EQ(r.peer_bytes_served, 0u);
  EXPECT_EQ(r.peer_timeouts, 0u);
  EXPECT_EQ(r.dedup_local_hits, 0u);
  EXPECT_EQ(r.dedup_zero_fills, 43789u);
  EXPECT_EQ(r.dedup_peer_hits, 11u);
  EXPECT_EQ(r.dedup_fallbacks, 1134u);
  EXPECT_EQ(r.dedup_bytes_served, 133849088u);
  EXPECT_EQ(r.updates_published, 0);
  EXPECT_EQ(r.caches_rebased, 0);
  EXPECT_EQ(r.update_invalidations, 0);
  EXPECT_EQ(r.rebase_patched_clusters, 0u);
  EXPECT_EQ(r.rebase_reused_clusters, 0u);
  EXPECT_EQ(r.post_update_storage_bytes, 0u);
  EXPECT_EQ(r.peak_queue_depth, 1u);
  EXPECT_NEAR(r.deploy.p50, 6.088135153, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 6.817241882, 1e-9);

  expect_cloud_counters_match(r);
  const obs::MetricPoint* miss =
      r.metrics.find("peer.fallback", {{"reason", "miss"}});
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->counter, 599u);
}

// The churn path, scaled down from the deployment benchmark's
// churn_restart workload to one cloud: 256 MiB images carrying 32 MiB of
// content, so a rebase walks mostly all-zero 512 B clusters; rebased
// publishes, durable manifests, one full-cloud restart and two node
// crashes (two minutes down) with salvage. The rebase diff, the
// fingerprint memo and the sparse-population event queue all sit on
// this path.
TEST(GoldenMetrics, ChurnRebasePinnedValues) {
  cloud::CloudConfig cfg;
  cfg.seed = 3;
  cfg.horizon_s = 900.0;
  cfg.workload.num_vmis = 12;
  cfg.workload.mean_interarrival_s = 12.0;
  cfg.workload.min_lifetime_s = 30.0;
  cfg.workload.mean_extra_lifetime_s = 90.0;
  cfg.profile.image_size = 256 * MiB;
  cfg.profile.unique_read_bytes = 6 * MiB;
  cfg.content_bytes = 32 * MiB;
  cfg.cluster.node_cache_capacity = 512 * MiB;
  cfg.updates.enabled = true;
  cfg.updates.rate_per_hour = 16.0;
  cfg.updates.max_events = 6;
  cfg.updates.changed_frac = 0.10;
  cfg.updates.policy = update::Policy::rebase;
  cfg.manifest = true;
  cfg.crash_salvage = true;
  cfg.restart_at_s = {cfg.horizon_s / 2.0};
  cfg.restart_down_s = 30.0;
  Rng plan_rng(cfg.seed ^ 0xFA11ull);
  cfg.failures = cloud::plan_failures(2, 0, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  for (auto& cr : cfg.failures.crashes) cr.down_s = 120.0;
  const cloud::CloudResult r = cloud::run_cloud(cfg);

  EXPECT_EQ(r.sim_events, 361718u);
  EXPECT_EQ(r.storage_payload_bytes, 237860368u);
  EXPECT_EQ(r.arrivals, 73);
  EXPECT_EQ(r.completed, 73);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.deploy_failures, 0);
  EXPECT_EQ(r.crash_kills, 0);
  EXPECT_EQ(r.vm_crashes, 9);
  EXPECT_EQ(r.warm_hits, 56);
  EXPECT_EQ(r.copyback_skips, 0);
  EXPECT_EQ(r.node_crashes, 2);
  EXPECT_EQ(r.node_recoveries, 2);
  EXPECT_EQ(r.caches_salvaged, 2);
  EXPECT_EQ(r.caches_invalidated, 0);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.drains, 0);
  EXPECT_EQ(r.caches_readopted, 4);
  EXPECT_EQ(r.adopt_failures, 0);
  EXPECT_EQ(r.adopt_stale, 0);
  EXPECT_EQ(r.manifest_publishes, 101u);
  EXPECT_EQ(r.post_restart_storage_bytes, 85934608u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.cache_evictions, 0u);
  EXPECT_EQ(r.peer_seed_hits, 0u);
  EXPECT_EQ(r.peer_fallback_fills, 0u);
  EXPECT_EQ(r.peer_bytes_served, 0u);
  EXPECT_EQ(r.peer_timeouts, 0u);
  EXPECT_EQ(r.dedup_local_hits, 0u);
  EXPECT_EQ(r.dedup_zero_fills, 0u);
  EXPECT_EQ(r.dedup_peer_hits, 0u);
  EXPECT_EQ(r.dedup_fallbacks, 0u);
  EXPECT_EQ(r.dedup_bytes_served, 0u);
  EXPECT_EQ(r.updates_published, 3);
  EXPECT_EQ(r.caches_rebased, 4);
  EXPECT_EQ(r.update_invalidations, 0);
  EXPECT_EQ(r.rebase_patched_clusters, 502u);
  EXPECT_EQ(r.rebase_reused_clusters, 51805u);
  EXPECT_EQ(r.post_update_storage_bytes, 228255248u);
  EXPECT_EQ(r.peak_queue_depth, 4u);
  EXPECT_NEAR(r.deploy.p50, 6.024367616, 1e-9);
  EXPECT_NEAR(r.deploy.p99, 35.207424580, 1e-9);

  expect_cloud_counters_match(r);
}

}  // namespace
}  // namespace vmic::cluster
