// vmic::peer tests: seed-registry bookkeeping (coverage-gated, least-
// loaded, deterministic picks), NIC-fabric transfer timing and deadline
// behaviour, standalone no-backing qcow2 opens, the qcow2 backing-fetch
// hook / CoR fill observer, and the cloud engine with the tier on:
// storage-node traffic drops, runs stay byte-identical, pinned seeds
// survive eviction pressure, crashes fall back to NFS cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cache/pool.hpp"
#include "cloud/engine.hpp"
#include "io/mount_table.hpp"
#include "peer/fabric.hpp"
#include "peer/registry.hpp"
#include "qcow2/chain.hpp"
#include "sim/run.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/units.hpp"

namespace vmic::peer {
namespace {

using sim::SimEnv;
using sim::Task;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

// --- seed registry ----------------------------------------------------------

TEST(SeedRegistry, CoverageGatesPicksAndTiesGoToLowestId) {
  SeedRegistry reg;
  EXPECT_TRUE(reg.register_seed(1, "img-0"));
  EXPECT_FALSE(reg.register_seed(1, "img-0"));  // idempotent
  EXPECT_TRUE(reg.register_seed(2, "img-0"));
  reg.add_coverage(1, "img-0", 0, 4096);
  reg.add_coverage(2, "img-0", 0, 8192);
  // Coverage on a node that never registered is dropped, not recorded.
  reg.add_coverage(3, "img-0", 0, 1_MiB);
  EXPECT_EQ(reg.coverage(3, "img-0"), nullptr);

  const std::set<int> cands{1, 2, 3};
  // Both nodes cover [0, 4096) at load 0: deterministic lowest id wins.
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 0, 4096, -1, 4), 1);
  // Only node 2 covers the tail.
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 4096, 8192, -1, 4), 2);
  // The requester is excluded even when it covers.
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 0, 4096, 1, 4), 2);
  // Nobody covers past 8192; unknown images have no seeds at all.
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 8192, 9000, -1, 4), -1);
  EXPECT_EQ(reg.pick_seed(cands, "img-9", 0, 16, -1, 4), -1);
}

TEST(SeedRegistry, LeastLoadedWinsAndSaturatedSeedsAreSkipped) {
  SeedRegistry reg;
  reg.register_seed(1, "img-0");
  reg.register_seed(2, "img-0");
  reg.add_coverage(1, "img-0", 0, 1_MiB);
  reg.add_coverage(2, "img-0", 0, 1_MiB);
  const std::set<int> cands{1, 2};

  reg.begin_upload(1);
  reg.begin_upload(1);
  EXPECT_EQ(reg.active_uploads(1), 2);
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 0, 4096, -1, 4), 2);

  // Every covering seed at or above the cap: fall back to NFS (-1).
  reg.begin_upload(2);
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 0, 4096, -1, 1), -1);
  reg.end_upload(2);
  EXPECT_EQ(reg.pick_seed(cands, "img-0", 0, 4096, -1, 1), 2);
  reg.end_upload(1);
  reg.end_upload(1);
  EXPECT_EQ(reg.active_uploads(1), 0);
}

TEST(SeedRegistry, DeregistrationDropsCoverageAndNodeWipeCountsEntries) {
  SeedRegistry reg;
  reg.register_seed(1, "img-0");
  reg.register_seed(1, "img-1");
  reg.register_seed(2, "img-0");
  reg.add_coverage(1, "img-0", 0, 4096);
  EXPECT_EQ(reg.seed_count("img-0"), 2u);

  EXPECT_TRUE(reg.deregister(1, "img-0"));
  EXPECT_FALSE(reg.deregister(1, "img-0"));  // already gone
  EXPECT_EQ(reg.coverage(1, "img-0"), nullptr);
  EXPECT_FALSE(reg.is_seed(1, "img-0"));
  EXPECT_TRUE(reg.is_seed(2, "img-0"));

  // Crash wipe: every remaining registration of node 1 goes at once.
  reg.register_seed(1, "img-0");
  EXPECT_EQ(reg.deregister_node(1), 2u);  // img-0 + img-1
  EXPECT_EQ(reg.image_count(), 1u);       // only node 2's img-0 remains
}

// --- NIC fabric -------------------------------------------------------------

TEST(Fabric, TransferOccupiesBothLegsAndMatchesNicTiming) {
  SimEnv env;
  Fabric f{env, 2};
  const bool ok = sim::run_sync(env, f.transfer(0, 1, 1_MiB));
  EXPECT_TRUE(ok);
  // ~ bytes / 125 MB/s: the up and down legs run concurrently, so the
  // wall time is one leg, not two.
  EXPECT_NEAR(sim::to_seconds(env.now()), 1048576.0 / 125e6, 5e-3);
  EXPECT_EQ(f.bytes_transferred(), 1_MiB);
  EXPECT_EQ(f.active_uploads(0), 0);
  EXPECT_EQ(f.timeouts(), 0u);
}

TEST(Fabric, TimeoutReportsFailureButLegsKeepDraining) {
  SimEnv env;
  PeerParams p;
  p.timeout_s = 0.001;  // 8 MiB at 125 MB/s needs ~67 ms: must time out
  Fabric f{env, 2, p};
  bool ok = true;
  env.spawn([](Fabric& fb, bool& r) -> Task<void> {
    r = co_await fb.transfer(0, 1, 8_MiB);
  }(f, ok));
  env.run();  // runs until the abandoned legs drain too
  EXPECT_FALSE(ok);
  EXPECT_EQ(f.timeouts(), 1u);
  // The abandoned transfer still finished in the background — the NIC
  // was genuinely busy the whole time and the slot freed only at the end.
  EXPECT_EQ(f.bytes_transferred(), 8_MiB);
  EXPECT_EQ(f.active_uploads(0), 0);
  EXPECT_GT(sim::to_seconds(env.now()), 0.05);
}

TEST(Fabric, ZeroTimeoutDisablesTheDeadline) {
  SimEnv env;
  PeerParams p;
  p.timeout_s = 0;
  Fabric f{env, 2, p};
  const bool ok = sim::run_sync(env, f.transfer(0, 1, 64_MiB));
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.timeouts(), 0u);
}

// --- standalone (no-backing) opens and the fetch hook -----------------------

TEST(NoBackingOpen, ServesAllocatedClustersAndNeverTouchesTheBase) {
  SimEnv env;
  storage::MemMedium mem{env};
  storage::SimDirectory dir{mem};
  io::MountTable fs;
  fs.mount("d", &dir);

  const bool ok = sim::run_sync(env, [&]() -> Task<bool> {
    (void)dir.create_file("base");
    (*dir.buffer("base"))->resize(8_MiB);
    const std::vector<std::uint8_t> warm_sig(4096, 0xAB);
    const std::vector<std::uint8_t> cold_sig(4096, 0xCD);
    (*dir.buffer("base"))->write(1_MiB, warm_sig);
    (*dir.buffer("base"))->write(2_MiB, cold_sig);

    auto cr = co_await qcow2::create_cache_image(fs, "d/cache", "d/base",
                                                 /*quota=*/4_MiB);
    if (!cr.ok()) co_return false;
    // Warm 4 KiB at 1 MiB through the normal chain (CoR fill), then close.
    {
      auto dev = co_await qcow2::open_image(fs, "d/cache");
      if (!dev.ok()) co_return false;
      std::vector<std::uint8_t> buf(4096);
      if (!(co_await (*dev)->read(1_MiB, buf)).ok()) co_return false;
      if (buf != warm_sig) co_return false;
      (void)co_await (*dev)->close();
    }

    // Standalone reopen: no resolver, no backing device.
    auto be = fs.open_file("d/cache", /*writable=*/false);
    if (!be.ok()) co_return false;
    block::OpenOptions o;
    o.writable = false;
    o.no_backing = true;
    auto sd = co_await qcow2::open_any(std::move(*be), o);
    if (!sd.ok()) co_return false;
    if ((*sd)->backing() != nullptr) co_return false;

    // The warmed cluster serves its bytes; the cold one reads as zeros —
    // the base's 0xCD must NOT leak through a no-backing device.
    std::vector<std::uint8_t> got(4096);
    if (!(co_await (*sd)->read(1_MiB, got)).ok()) co_return false;
    if (got != warm_sig) co_return false;
    if (!(co_await (*sd)->read(2_MiB, got)).ok()) co_return false;
    if (got != std::vector<std::uint8_t>(4096, 0)) co_return false;

    // map_status distinguishes the two, which is how the peer path
    // decides servability.
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(sd->get());
    if (q == nullptr) co_return false;
    auto warm = co_await q->map_status(1_MiB, 4096);
    auto cold = co_await q->map_status(2_MiB, 4096);
    if (!warm.ok() || !cold.ok()) co_return false;
    if (warm->kind != qcow2::Qcow2Device::MapKind::data) co_return false;
    if (cold->kind != qcow2::Qcow2Device::MapKind::unallocated) {
      co_return false;
    }
    (void)co_await (*sd)->close();
    co_return true;
  }());
  EXPECT_TRUE(ok);
}

sim::Task<Result<bool>> hook_fill_ee(std::uint64_t /*vaddr*/,
                                     std::span<std::uint8_t> dst) {
  std::fill(dst.begin(), dst.end(), std::uint8_t{0xEE});
  co_return true;
}

sim::Task<Result<bool>> hook_decline(std::uint64_t /*vaddr*/,
                                     std::span<std::uint8_t> /*dst*/) {
  co_return false;
}

TEST(FetchHook, DivertsBackingFetchesAndObserverTracksFills) {
  SimEnv env;
  storage::MemMedium mem{env};
  storage::SimDirectory dir{mem};
  io::MountTable fs;
  fs.mount("d", &dir);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> fills;
  const bool ok = sim::run_sync(env, [&]() -> Task<bool> {
    (void)dir.create_file("base");
    (*dir.buffer("base"))->resize(8_MiB);
    const std::vector<std::uint8_t> base_sig(4096, 0xAB);
    (*dir.buffer("base"))->write(1_MiB, base_sig);

    auto cr = co_await qcow2::create_cache_image(fs, "d/cache", "d/base",
                                                 /*quota=*/4_MiB);
    if (!cr.ok()) co_return false;
    auto dev = co_await qcow2::open_image(fs, "d/cache");
    if (!dev.ok()) co_return false;
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    if (q == nullptr) co_return false;
    q->set_cor_fill_observer(
        [&fills](std::uint64_t lo, std::uint64_t hi) {
          fills.emplace_back(lo, hi);
        });

    // A declining hook falls through to the real backing image.
    q->set_backing_fetch_hook(&hook_decline);
    std::vector<std::uint8_t> got(4096);
    if (!(co_await (*dev)->read(1_MiB, got)).ok()) co_return false;
    if (got != base_sig) co_return false;

    // A serving hook replaces the backing fetch entirely: bytes come from
    // the hook and the base is never consulted for this range.
    q->set_backing_fetch_hook(&hook_fill_ee);
    if (!(co_await (*dev)->read(2_MiB, got)).ok()) co_return false;
    if (got != std::vector<std::uint8_t>(4096, 0xEE)) co_return false;

    // Both fills were stored locally and published to the observer; a
    // re-read is served from the cache without invoking anything.
    q->set_backing_fetch_hook({});
    if (!(co_await (*dev)->read(2_MiB, got)).ok()) co_return false;
    if (got != std::vector<std::uint8_t>(4096, 0xEE)) co_return false;
    (void)co_await (*dev)->close();
    co_return true;
  }());
  EXPECT_TRUE(ok);
  ASSERT_EQ(fills.size(), 2u);
  // Fill publications are cluster-aligned and contain the read ranges.
  EXPECT_LE(fills[0].first, 1_MiB);
  EXPECT_GE(fills[0].second, 1_MiB + 4096);
  EXPECT_LE(fills[1].first, 2_MiB);
  EXPECT_GE(fills[1].second, 2_MiB + 4096);
}

// --- seed pinning under eviction pressure (regression) ----------------------

TEST(SeedPinning, PinnedSeedIsNeverTheEvictionVictim) {
  // The pool-level contract the peer upload path depends on: while a
  // seed's cache file is pinned for an upload, an admission that needs
  // space must evict someone else (or fail), never the pinned entry.
  cache::CachePool pool{100, cache::EvictionPolicy::lru};
  EXPECT_TRUE(pool.admit("img-0", 50).admitted);
  EXPECT_TRUE(pool.admit("img-1", 50).admitted);
  pool.pin("img-0");  // upload in flight; img-0 is also the LRU victim
  const auto ar = pool.admit("img-2", 50);
  EXPECT_TRUE(ar.admitted);
  ASSERT_EQ(ar.evicted.size(), 1u);
  EXPECT_EQ(ar.evicted[0], "img-1");
  EXPECT_TRUE(pool.contains("img-0"));
  pool.unpin("img-0");
}

// --- cloud engine integration -----------------------------------------------

cloud::CloudConfig peer_cloud_config(std::uint64_t seed, bool peer_on) {
  cloud::CloudConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 360.0;
  cfg.workload.num_vmis = 12;
  cfg.workload.zipf_exponent = 1.1;
  cfg.workload.mean_interarrival_s = 7.2;  // ~500 arrivals/hour
  cfg.peer_transfer = peer_on;
  return cfg;
}

TEST(PeerCloud, PeerTierCutsStorageTrafficWithoutChangingOutcomes) {
  const cloud::CloudResult off = run_cloud(peer_cloud_config(9, false));
  const cloud::CloudResult on = run_cloud(peer_cloud_config(9, true));
  // Same workload, same admission outcomes; only the fill paths differ.
  EXPECT_EQ(on.arrivals, off.arrivals);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.aborted, off.aborted);
  EXPECT_EQ(on.leaked_slots, 0);
  EXPECT_EQ(on.leaked_cache_refs, 0);
  EXPECT_GT(on.peer_seed_hits, 0u);
  EXPECT_GT(on.peer_bytes_served, 0u);
  EXPECT_LT(on.storage_payload_bytes, off.storage_payload_bytes);
  // CloudResult mirrors agree with the registry counters.
  EXPECT_EQ(on.metrics.counter_total("peer.seed_hits"), on.peer_seed_hits);
  EXPECT_EQ(on.metrics.counter_total("peer.fallback_fills"),
            on.peer_fallback_fills);
  // Off-run snapshots carry no peer.* series at all (golden-pin safety).
  EXPECT_EQ(off.metrics.find("peer.seed_hits"), nullptr);
  EXPECT_EQ(off.metrics.find("peer.fallback_fills"), nullptr);
  EXPECT_EQ(off.peer_seed_hits, 0u);
  EXPECT_EQ(off.peer_fallback_fills, 0u);
}

TEST(PeerCloud, PeerOnRunsAreByteIdentical) {
  cloud::CloudConfig cfg = peer_cloud_config(11, true);
  cfg.horizon_s = 240.0;  // two full runs; keep the suite fast
  const cloud::CloudResult a = run_cloud(cfg);
  const cloud::CloudResult b = run_cloud(cfg);
  EXPECT_EQ(a.leaked_cache_refs, 0);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.peer_seed_hits, b.peer_seed_hits);
  EXPECT_EQ(a.metrics.to_text(), b.metrics.to_text());
}

TEST(PeerCloud, EvictionPressureCannotYankSeedFilesMidUpload) {
  // Tight per-node cache budget: evictions race peer uploads constantly.
  // The run completing with clean accounting is the regression signal —
  // an unpinned seed victim would have its file deleted under an open
  // backend, which the storage layer treats as a hard fault.
  cloud::CloudConfig cfg = peer_cloud_config(13, true);
  cfg.cluster.node_cache_capacity = 96 * MiB;  // 2 quotas per node
  const cloud::CloudResult r = run_cloud(cfg);
  EXPECT_GT(r.cache_evictions, 0u);
  EXPECT_GT(r.peer_seed_hits, 0u);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.completed + r.aborted + r.rejected, r.arrivals);
}

TEST(PeerCloud, CrashesDeregisterSeedsAndFillsFallBackToNfs) {
  cloud::CloudConfig cfg = peer_cloud_config(17, true);
  Rng plan_rng(cfg.seed ^ 0xFA11ull);
  cfg.failures = cloud::plan_failures(3, 0, cfg.cluster.compute_nodes,
                                      cfg.horizon_s, plan_rng);
  const cloud::CloudResult r = run_cloud(cfg);
  EXPECT_GT(r.node_crashes, 0);
  EXPECT_EQ(r.leaked_slots, 0);
  EXPECT_EQ(r.leaked_cache_refs, 0);
  EXPECT_EQ(r.completed + r.aborted + r.rejected, r.arrivals);
  // Deregistrations happened (eviction or crash); the run still served
  // peer traffic around them.
  EXPECT_GT(r.metrics.counter_total("peer.deregistrations"), 0u);
  EXPECT_GT(r.peer_seed_hits, 0u);
}

}  // namespace
}  // namespace vmic::peer
