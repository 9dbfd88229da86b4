// Tests for the extension features: full-copy deployment, mixed warm/cold
// fractions, boot-time prefetch, snapshot-restore profiles, and the
// InlineMutex that makes concurrent CoR safe.
#include <gtest/gtest.h>

#include "boot/profile.hpp"
#include "boot/trace.hpp"
#include "boot/vm.hpp"
#include "cluster/scenario.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "sim/run.hpp"
#include "sim/sync.hpp"
#include "util/units.hpp"

namespace vmic {
namespace {

using namespace vmic::cluster;
using vmic::literals::operator""_MiB;
using vmic::literals::operator""_GiB;

boot::OsProfile tiny_profile() {
  boot::OsProfile p = boot::centos63();
  p.image_size = 256_MiB;
  p.unique_read_bytes = 4_MiB;
  p.cpu_seconds = 1.0;
  p.write_bytes = 1_MiB;
  return p;
}

ClusterParams small_cluster(int nodes) {
  ClusterParams cp;
  cp.compute_nodes = nodes;
  cp.network = net::gigabit_ethernet();
  return cp;
}

// ---------------------------------------------------------------------------
// Full-copy deployment (§2 baseline)
// ---------------------------------------------------------------------------

TEST(FullCopy, MuchSlowerThanOnDemand) {
  ScenarioConfig sc;
  sc.profile = tiny_profile();
  sc.num_vms = 2;
  sc.num_vmis = 1;
  sc.mode = CacheMode::full_copy;
  const auto full = run_scenario(small_cluster(2), sc);

  sc.mode = CacheMode::none;
  const auto ondemand = run_scenario(small_cluster(2), sc);

  // 256 MiB image vs a 4 MiB working set: the full copy dominates.
  EXPECT_GT(full.mean_boot, ondemand.mean_boot + 1.5);
  EXPECT_GE(full.storage_payload_bytes, 2 * 256_MiB);
}

TEST(FullCopy, EveryVmOfOneImageOnOneNodeCopiesItsOwn) {
  // Three VMs of one image on one node: each streams the whole image into
  // its own file, so no copy replaces another that is still being written.
  ScenarioConfig sc;
  sc.profile = tiny_profile();
  sc.num_vms = 3;
  sc.num_vmis = 1;
  sc.mode = CacheMode::full_copy;
  const auto r = run_scenario(small_cluster(1), sc);

  ASSERT_EQ(r.vms.size(), 3u);
  for (const auto& vm : r.vms) EXPECT_GT(vm.boot.boot_seconds, 0.0);
  EXPECT_GE(r.storage_payload_bytes, 3 * 256_MiB);
}

// ---------------------------------------------------------------------------
// Mixed warm/cold (§5.3.1)
// ---------------------------------------------------------------------------

TEST(MixedWarmCold, FractionSplitsOutcomes) {
  ScenarioConfig sc;
  sc.profile = tiny_profile();
  sc.num_vms = 4;
  sc.num_vmis = 1;
  sc.mode = CacheMode::compute_disk;
  sc.state = CacheState::warm;
  sc.warm_node_fraction = 0.5;
  sc.cache_quota = 64_MiB;
  const auto r = run_scenario(small_cluster(4), sc);

  int warm = 0, cold = 0;
  for (const auto& vm : r.vms) (vm.warm ? warm : cold)++;
  EXPECT_EQ(warm, 2);
  EXPECT_EQ(cold, 2);
  // Cold nodes still had to reach the storage node.
  EXPECT_GT(r.storage_payload_bytes, 4_MiB);
}

TEST(MixedWarmCold, FullFractionAllWarm) {
  ScenarioConfig sc;
  sc.profile = tiny_profile();
  sc.num_vms = 4;
  sc.num_vmis = 1;
  sc.mode = CacheMode::compute_disk;
  sc.state = CacheState::warm;
  sc.warm_node_fraction = 1.0;
  sc.cache_quota = 64_MiB;
  const auto r = run_scenario(small_cluster(4), sc);
  for (const auto& vm : r.vms) EXPECT_TRUE(vm.warm);
}

// ---------------------------------------------------------------------------
// Prefetch (§7.3)
// ---------------------------------------------------------------------------

TEST(Prefetch, WarmsCacheWithoutBreakingCorrectness) {
  io::MemImageStore store;
  const auto p = tiny_profile();
  {
    auto be = store.create_file("base.img");
    ASSERT_TRUE(sim::sync_wait((*be)->truncate(p.image_size)).ok());
  }
  sim::SimEnv env;
  const auto trace = boot::generate_boot_trace(p);
  const auto res = sim::run_sync(
      env, [&]() -> sim::Task<Result<boot::BootResult>> {
        VMIC_CO_TRY_VOID(co_await qcow2::create_cache_image(
            store, "c.cache", "base.img", 64_MiB,
            {.cluster_bits = 9, .virtual_size = p.image_size}));
        VMIC_CO_TRY_VOID(co_await qcow2::create_cow_image(
            store, "vm.cow", "c.cache",
            {.cluster_bits = 16, .virtual_size = p.image_size}));
        VMIC_CO_TRY(dev, co_await qcow2::open_image(store, "vm.cow"));
        boot::BootOptions opts;
        opts.prefetch_bytes = 64 * 1024;
        auto r = co_await boot::boot_vm(env, *dev, trace, opts);
        // The cache must be internally consistent despite concurrent CoR
        // from guest reads and prefetch.
        auto* cache = dynamic_cast<qcow2::Qcow2Device*>(dev->backing());
        auto chk = co_await cache->check();
        if (!chk.ok() || !chk->clean()) co_return Errc::corrupt;
        VMIC_CO_TRY_VOID(co_await dev->close());
        co_return r;
      }());
  ASSERT_TRUE(res.ok()) << to_string(res.error());
  EXPECT_GT(res->prefetched_bytes, 0u);
}

TEST(Prefetch, ScenarioDeterministicWithPrefetch) {
  ScenarioConfig sc;
  sc.profile = tiny_profile();
  sc.num_vms = 2;
  sc.num_vmis = 1;
  sc.mode = CacheMode::compute_disk;
  sc.state = CacheState::cold;
  sc.cache_quota = 64_MiB;
  sc.prefetch_bytes = 32 * 1024;
  const auto a = run_scenario(small_cluster(2), sc);
  const auto b = run_scenario(small_cluster(2), sc);
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.vms[i].boot.boot_seconds, b.vms[i].boot.boot_seconds);
    EXPECT_GT(a.vms[i].boot.prefetched_bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot-restore profile (§8)
// ---------------------------------------------------------------------------

TEST(SnapshotProfile, DerivesSensibly) {
  const auto os = boot::centos63();
  const auto snap = boot::snapshot_restore_profile(os);
  EXPECT_LT(snap.cpu_seconds, os.cpu_seconds / 5);
  EXPECT_GT(snap.unique_read_bytes, os.unique_read_bytes);
  EXPECT_EQ(snap.image_size, 2_GiB);
  // The trace generator honours the derived profile.
  const auto t = boot::generate_boot_trace(snap);
  EXPECT_NEAR(static_cast<double>(t.unique_read_bytes),
              static_cast<double>(snap.unique_read_bytes),
              0.06 * static_cast<double>(snap.unique_read_bytes));
}

TEST(SnapshotProfile, WarmCachedResumeIsFast) {
  boot::OsProfile snap =
      boot::snapshot_restore_profile(tiny_profile());
  snap.unique_read_bytes = 4_MiB;
  ScenarioConfig sc;
  sc.profile = snap;
  sc.num_vms = 4;
  sc.num_vmis = 1;
  sc.mode = CacheMode::compute_disk;
  sc.state = CacheState::warm;
  sc.cache_quota = 64_MiB;
  const auto r = run_scenario(small_cluster(4), sc);
  // Resume ~ cpu_seconds (2.5 s) + local reads, far below a boot.
  EXPECT_LT(r.mean_boot, 4.0);
}

// ---------------------------------------------------------------------------
// InlineMutex
// ---------------------------------------------------------------------------

sim::Task<void> inline_critical(sim::SimEnv& env, sim::InlineMutex& m,
                                std::vector<int>& log, int id) {
  auto g = co_await m.lock();
  log.push_back(id);
  co_await env.delay(10);
  log.push_back(-id);
}

TEST(InlineMutex, SerializesAcrossSuspension) {
  sim::SimEnv env;
  sim::InlineMutex m;
  std::vector<int> log;
  env.spawn(inline_critical(env, m, log, 1));
  env.spawn(inline_critical(env, m, log, 2));
  env.spawn(inline_critical(env, m, log, 3));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{1, -1, 2, -2, 3, -3}));
  EXPECT_FALSE(m.locked());
}

TEST(InlineMutex, WorksWithoutEnvironment) {
  // Host-side (sync_wait) usage: uncontended lock/unlock without any
  // event loop.
  sim::InlineMutex m;
  auto once = [&]() -> sim::Task<int> {
    auto g = co_await m.lock();
    co_return 7;
  };
  EXPECT_EQ(sim::sync_wait(once()), 7);
  EXPECT_FALSE(m.locked());
}

}  // namespace
}  // namespace vmic
