// Tests for the paper's VMI-cache extension: copy-on-read population,
// quota enforcement (ENOSPC semantics), immutability w.r.t. the base,
// close()-time size persistence, standalone boot from a warm cache, and
// the cluster-granularity traffic amplification of §5.1/Fig 9.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace vmic::qcow2 {
namespace {

using block::DevicePtr;
using io::MemImageStore;
using sim::sync_wait;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

std::vector<std::uint8_t> pattern_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  Rng rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

class CacheTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBaseSize = 8_MiB;
  static constexpr std::uint64_t kBaseSeed = 77;

  MemImageStore store_;

  void SetUp() override {
    auto be = store_.create_file("base.img");
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(kBaseSeed, kBaseSize);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }

  /// Build the paper's chain: base <- cache(quota) <- cow. Returns the CoW
  /// device the "VM" boots from.
  DevicePtr make_chain(std::uint64_t quota, std::uint32_t cache_bits = 9) {
    auto c = sync_wait(create_cache_image(
        store_, "vmi.cache", "base.img", quota,
        {.cluster_bits = cache_bits, .virtual_size = 0}));
    EXPECT_TRUE(c.ok()) << to_string(c.error());
    auto w = sync_wait(create_cow_image(store_, "vm.cow", "vmi.cache"));
    EXPECT_TRUE(w.ok());
    auto dev = sync_wait(open_image(store_, "vm.cow"));
    EXPECT_TRUE(dev.ok()) << to_string(dev.error());
    return dev.ok() ? std::move(*dev) : nullptr;
  }

  Qcow2Device* cache_of(const DevicePtr& cow) {
    auto* c = dynamic_cast<Qcow2Device*>(cow->backing());
    EXPECT_NE(c, nullptr);
    return c;
  }

  std::uint64_t file_digest(const std::string& name) {
    auto buf = store_.buffer(name);
    EXPECT_TRUE(buf.ok());
    std::vector<std::uint8_t> all((*buf)->size());
    (*buf)->read(0, all);
    return fnv1a(all);
  }
};

TEST_F(CacheTest, ChainShape) {
  auto cow = make_chain(2_MiB);
  ASSERT_NE(cow, nullptr);
  EXPECT_FALSE(cow->is_cache_image());
  auto* cache = cache_of(cow);
  EXPECT_TRUE(cache->is_cache_image());
  EXPECT_EQ(cache->cache_quota(), 2_MiB);
  EXPECT_EQ(cache->cluster_size(), 512u);
  // The cache's backing is the (read-only demoted) raw base.
  ASSERT_NE(cache->backing(), nullptr);
  EXPECT_EQ(cache->backing()->format_name(), "raw");
  EXPECT_TRUE(cache->backing()->read_only());
  // The cache itself kept write permission (it is a cache image).
  EXPECT_FALSE(cache->read_only());
}

TEST_F(CacheTest, ReadsAreCorrectThroughCache) {
  auto cow = make_chain(4_MiB);
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  std::vector<std::uint8_t> out(300000);
  ASSERT_TRUE(sync_wait(cow->read(1_MiB + 512, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 1_MiB + 512,
                           out.size()));
}

TEST_F(CacheTest, CopyOnReadPopulatesCache) {
  auto cow = make_chain(4_MiB);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> buf(64_KiB);
  ASSERT_TRUE(sync_wait(cow->read(0, buf)).ok());
  EXPECT_GT(cache->stats().cor_bytes, 0u);
  EXPECT_GE(cache->allocated_data_bytes(), buf.size());
  // The same range again: served from the cache, no new base traffic.
  const auto base_reads_before = cache->stats().backing_reads;
  ASSERT_TRUE(sync_wait(cow->read(0, buf)).ok());
  EXPECT_EQ(cache->stats().backing_reads, base_reads_before);
}

// A fill aligned to the cache cluster at both ends is stored straight
// from the reader's buffer; one with a head or tail is staged and
// completed from the base. Either way the cache holds the base's bytes.
TEST_F(CacheTest, AlignedAndPartialFillsStoreBaseBytes) {
  auto cow = make_chain(4_MiB, /*cache_bits=*/12);
  ASSERT_NE(cow, nullptr);
  auto* cache = cache_of(cow);
  const auto base = pattern_bytes(kBaseSeed, kBaseSize);
  struct Range {
    std::uint64_t off, len;
  };
  // Cluster-aligned at both ends; head and tail inside one cluster; a
  // short read straddling two clusters.
  for (const Range r : {Range{16_KiB, 8_KiB}, Range{40_KiB + 100, 3000},
                        Range{60_KiB + 4000, 200}}) {
    std::vector<std::uint8_t> out(r.len);
    ASSERT_TRUE(sync_wait(cow->read(r.off, out)).ok());
    ASSERT_EQ(0, std::memcmp(out.data(), base.data() + r.off, r.len));
  }
  EXPECT_EQ(cache->stats().cor_fills, 3u);
  EXPECT_EQ(cache->stats().cor_bytes, 8_KiB + 4_KiB + 8_KiB);
  // Whole clusters read back from the cache come from its file.
  const auto backing_reads = cache->stats().backing_reads;
  for (const Range r : {Range{16_KiB, 8_KiB}, Range{40_KiB, 4_KiB},
                        Range{60_KiB, 8_KiB}}) {
    std::vector<std::uint8_t> out(r.len);
    ASSERT_TRUE(sync_wait(cache->read(r.off, out)).ok());
    EXPECT_EQ(0, std::memcmp(out.data(), base.data() + r.off, r.len))
        << "cluster run at " << r.off;
  }
  EXPECT_EQ(cache->stats().backing_reads, backing_reads);
}

TEST_F(CacheTest, WarmCacheServesWithoutBase) {
  // §3: "the cache is standalone; a VM can start booting using it" —
  // once the working set is cached, the base sees zero reads.
  const std::uint64_t ws = 1_MiB;
  {
    auto cow = make_chain(4_MiB);
    std::vector<std::uint8_t> buf(ws);
    ASSERT_TRUE(sync_wait(cow->read(0, buf)).ok());
    ASSERT_TRUE(sync_wait(cow->close()).ok());
  }
  // New "VM", fresh CoW, same warm cache.
  ASSERT_TRUE(
      sync_wait(create_cow_image(store_, "vm2.cow", "vmi.cache")).ok());
  auto cow2 = sync_wait(open_image(store_, "vm2.cow"));
  ASSERT_TRUE(cow2.ok());
  auto* cache = dynamic_cast<Qcow2Device*>((*cow2)->backing());
  std::vector<std::uint8_t> buf(ws);
  ASSERT_TRUE(sync_wait((*cow2)->read(0, buf)).ok());
  EXPECT_EQ(cache->stats().backing_reads, 0u);
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  EXPECT_EQ(0, std::memcmp(buf.data(), expect.data(), ws));
}

TEST_F(CacheTest, QuotaIsNeverExceeded) {
  const std::uint64_t quota = 1_MiB;
  auto cow = make_chain(quota);
  auto* cache = cache_of(cow);
  // Read far more than the quota.
  std::vector<std::uint8_t> buf(256_KiB);
  for (std::uint64_t off = 0; off + buf.size() <= kBaseSize;
       off += buf.size()) {
    ASSERT_TRUE(sync_wait(cow->read(off, buf)).ok());
    ASSERT_LE(cache->file_bytes(), quota) << "off=" << off;
  }
  EXPECT_FALSE(cache->cor_active());  // population stopped
  EXPECT_GT(cache->stats().cor_stopped, 0u);
  EXPECT_LE(cache->file_bytes(), quota);
  // And reads remain correct after the quota hit.
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  std::vector<std::uint8_t> out(100000);
  ASSERT_TRUE(sync_wait(cow->read(kBaseSize - out.size(), out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(),
                           expect.data() + kBaseSize - out.size(),
                           out.size()));
}

TEST_F(CacheTest, CacheStaysConsistentAfterQuotaHit) {
  auto cow = make_chain(1_MiB);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> buf(512_KiB);
  ASSERT_TRUE(sync_wait(cow->read(0, buf)).ok());
  ASSERT_TRUE(sync_wait(cow->read(2_MiB, buf)).ok());
  ASSERT_TRUE(sync_wait(cow->read(4_MiB, buf)).ok());
  auto chk = sync_wait(cache->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

TEST_F(CacheTest, GuestWritesToCacheRejected) {
  auto cow = make_chain(2_MiB);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> data(512, 0xAA);
  EXPECT_EQ(sync_wait(cache->write(0, data)).error(), Errc::read_only);
}

TEST_F(CacheTest, ImmutableWrtBase) {
  // Guest writes land in the CoW image; neither cache nor base change.
  auto cow = make_chain(4_MiB);
  std::vector<std::uint8_t> warm(1_MiB);
  ASSERT_TRUE(sync_wait(cow->read(0, warm)).ok());

  const auto base_digest = file_digest("base.img");
  const auto cache_digest = file_digest("vmi.cache");

  const auto data = pattern_bytes(5, 600000);
  ASSERT_TRUE(sync_wait(cow->write(100000, data)).ok());

  EXPECT_EQ(file_digest("base.img"), base_digest);
  EXPECT_EQ(file_digest("vmi.cache"), cache_digest);

  // And the write is visible through the chain.
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sync_wait(cow->read(100000, out)).ok());
  EXPECT_EQ(data, out);
}

TEST_F(CacheTest, CowFillMayPopulateCache) {
  // A sub-cluster guest write to the CoW image fetches the fill from the
  // chain below — data coming *from the base* is allowed into the cache.
  auto cow = make_chain(4_MiB);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> tiny(100, 0xCD);
  ASSERT_TRUE(sync_wait(cow->write(3 * 64_KiB + 7, tiny)).ok());
  EXPECT_GT(cache->stats().cor_bytes, 0u);
  // Correctness: the merged cluster reads back as base-with-patch.
  auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  std::memcpy(expect.data() + 3 * 64_KiB + 7, tiny.data(), tiny.size());
  std::vector<std::uint8_t> out(128_KiB);
  ASSERT_TRUE(sync_wait(cow->read(2 * 64_KiB, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 2 * 64_KiB,
                           out.size()));
}

TEST_F(CacheTest, ClosePersistsCurrentSize) {
  // §4.3 "close": the current size is written back into the header ext.
  std::uint64_t size_at_close = 0;
  {
    auto cow = make_chain(4_MiB);
    std::vector<std::uint8_t> buf(1_MiB);
    ASSERT_TRUE(sync_wait(cow->read(0, buf)).ok());
    size_at_close = cache_of(cow)->file_bytes();
    ASSERT_TRUE(sync_wait(cow->close()).ok());
  }
  auto be = store_.open_file("vmi.cache", /*writable=*/false);
  ASSERT_TRUE(be.ok());
  std::vector<std::uint8_t> hdr(512);
  ASSERT_TRUE(sync_wait((*be)->pread(0, hdr)).ok());
  auto parsed = parse_header_area(hdr);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->cache.has_value());
  EXPECT_EQ(parsed->cache->current_size, size_at_close);
  EXPECT_GT(size_at_close, 0u);
}

TEST_F(CacheTest, ReopenedWarmCacheKeepsServing) {
  {
    auto cow = make_chain(4_MiB);
    std::vector<std::uint8_t> buf(2_MiB);
    ASSERT_TRUE(sync_wait(cow->read(1_MiB, buf)).ok());
    ASSERT_TRUE(sync_wait(cow->close()).ok());
  }
  auto cow = sync_wait(open_image(store_, "vm.cow"));
  ASSERT_TRUE(cow.ok());
  auto* cache = dynamic_cast<Qcow2Device*>((*cow)->backing());
  std::vector<std::uint8_t> out(2_MiB);
  ASSERT_TRUE(sync_wait((*cow)->read(1_MiB, out)).ok());
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 1_MiB, out.size()));
  EXPECT_EQ(cache->stats().backing_reads, 0u);  // all warm
}

// ---------------------------------------------------------------------------
// Cluster-granularity amplification (the Fig 9 mechanism, unit level)
// ---------------------------------------------------------------------------

TEST_F(CacheTest, SmallReadAmplifiedAt64KClusters) {
  auto cow = make_chain(4_MiB, /*cache_bits=*/16);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> tiny(512);
  ASSERT_TRUE(sync_wait(cow->read(100 * 512, tiny)).ok());
  // CoR had to fill the whole 64 KiB cluster from the base: the cache
  // pulled >= 64 KiB for a 512 B guest read.
  EXPECT_GE(cache->stats().bytes_from_backing, 64_KiB);
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);
  EXPECT_EQ(0, std::memcmp(tiny.data(), expect.data() + 100 * 512, 512));
}

TEST_F(CacheTest, SmallReadNotAmplifiedAt512Clusters) {
  auto cow = make_chain(4_MiB, /*cache_bits=*/9);
  auto* cache = cache_of(cow);
  std::vector<std::uint8_t> tiny(512);
  ASSERT_TRUE(sync_wait(cow->read(100 * 512, tiny)).ok());
  // Sector-aligned sector-sized read: exactly one cluster fetched.
  EXPECT_EQ(cache->stats().bytes_from_backing, 512u);
}

// Parameterized property: for any cache cluster size and quota, reads
// through the chain always match the base, the quota holds, and the cache
// metadata stays consistent.
class CachePropertyTest
    : public CacheTest,
      public ::testing::WithParamInterface<std::tuple<std::uint32_t, int>> {};

TEST_P(CachePropertyTest, RandomReadsAlwaysCorrectAndBounded) {
  const auto [cache_bits, quota_mb] = GetParam();
  const std::uint64_t quota = static_cast<std::uint64_t>(quota_mb) * 1_MiB;
  auto cow = make_chain(quota, cache_bits);
  ASSERT_NE(cow, nullptr);
  auto* cache = cache_of(cow);
  const auto expect = pattern_bytes(kBaseSeed, kBaseSize);

  Rng rng{2024};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t len = 512 * (1 + rng.below(128));
    const std::uint64_t off = 512 * rng.below((kBaseSize - len) / 512);
    std::vector<std::uint8_t> out(len);
    ASSERT_TRUE(sync_wait(cow->read(off, out)).ok());
    ASSERT_EQ(0, std::memcmp(out.data(), expect.data() + off, len))
        << "step " << i;
    ASSERT_LE(cache->file_bytes(), quota);
  }
  auto chk = sync_wait(cache->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CachePropertyTest,
    ::testing::Combine(::testing::Values(9u, 12u, 16u),
                       ::testing::Values(1, 4, 16)),
    [](const auto& info) {
      return "cb" + std::to_string(std::get<0>(info.param)) + "_q" +
             std::to_string(std::get<1>(info.param)) + "mb";
    });

// ---------------------------------------------------------------------------
// Concurrent copy-on-read: K readers racing on one cache image, with
// sim-timed I/O (SimDirectory over a MemMedium) so reads genuinely
// overlap. Covers the single-flight in-flight-fill protocol, the legacy
// (duplicate-fetch) ablation mode, determinism, and the quota edge.
// ---------------------------------------------------------------------------

struct ConcurrentResult {
  std::uint64_t backing_reads = 0;
  std::uint64_t inflight_waits = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t bytes_from_backing = 0;
  std::uint64_t cor_clusters = 0;
  std::uint64_t cor_stopped = 0;
  std::uint64_t file_bytes = 0;
  sim::SimTime makespan = 0;
  bool bytes_ok = false;
  bool check_clean = false;

  bool operator==(const ConcurrentResult&) const = default;
};

sim::Task<bool> write_file(io::BlockBackend& be,
                           std::span<const std::uint8_t> data) {
  auto r = co_await be.pwrite(0, data);
  co_return r.ok();
}

sim::Task<void> reader_task(block::BlockDevice& dev, std::uint64_t off,
                            std::span<std::uint8_t> dst, bool& ok) {
  auto r = co_await dev.read(off, dst);
  ok = r.ok();
}

/// Boot a base <- cache <- cow chain on a simulated medium and race `k`
/// readers, reader i reading `read_len` bytes at offset i * stride.
ConcurrentResult run_concurrent_readers(bool single_flight, int k,
                                        std::uint64_t stride,
                                        std::uint64_t read_len,
                                        std::uint64_t quota = 4_MiB,
                                        std::uint32_t cache_bits = 16) {
  constexpr std::uint64_t kSize = 8_MiB;
  constexpr std::uint64_t kSeed = 77;
  ConcurrentResult res;

  sim::SimEnv env;
  storage::MemMedium mem{env, {.latency_us = 200.0, .bandwidth_bps = 200e6}};
  storage::SimDirectory dir{mem};

  const auto expect = pattern_bytes(kSeed, kSize);
  {
    auto be = dir.create_file("base.img");
    EXPECT_TRUE(be.ok());
    if (!be.ok()) return res;
    EXPECT_TRUE(sim::run_sync(env, write_file(**be, expect)));
  }
  auto c = sim::run_sync(
      env, create_cache_image(dir, "vmi.cache", "base.img", quota,
                              {.cluster_bits = cache_bits, .virtual_size = 0}));
  EXPECT_TRUE(c.ok()) << to_string(c.error());
  auto w = sim::run_sync(env, create_cow_image(dir, "vm.cow", "vmi.cache"));
  EXPECT_TRUE(w.ok());
  auto opened = sim::run_sync(env, open_image(dir, "vm.cow"));
  EXPECT_TRUE(opened.ok()) << to_string(opened.error());
  if (!opened.ok()) return res;
  DevicePtr cow = std::move(*opened);
  for (block::BlockDevice* b = cow.get(); b != nullptr; b = b->backing())
    if (auto* q = dynamic_cast<Qcow2Device*>(b))
      q->set_cor_single_flight(single_flight);
  auto* cache = dynamic_cast<Qcow2Device*>(cow->backing());
  EXPECT_NE(cache, nullptr);
  if (cache == nullptr) return res;

  std::vector<std::vector<std::uint8_t>> bufs(k);
  std::deque<bool> oks(k, false);  // deque: real bool lvalues, not proxies
  const sim::SimTime start = env.now();
  for (int i = 0; i < k; ++i) {
    bufs[i].resize(read_len);
    env.spawn(reader_task(*cow, i * stride, bufs[i], oks[i]));
  }
  env.run();
  res.makespan = env.now() - start;

  res.bytes_ok = true;
  for (int i = 0; i < k; ++i) {
    if (!oks[i] ||
        std::memcmp(bufs[i].data(), expect.data() + i * stride, read_len) != 0)
      res.bytes_ok = false;
  }
  const auto& st = cache->stats();
  res.backing_reads = st.backing_reads;
  res.inflight_waits = st.cor_inflight_waits;
  res.dedup_hits = st.cor_dedup_hits;
  res.bytes_from_backing = st.bytes_from_backing;
  res.cor_clusters = st.cor_clusters;
  res.cor_stopped = st.cor_stopped;
  res.file_bytes = cache->file_bytes();
  auto chk = sim::run_sync(env, cache->check());
  EXPECT_TRUE(chk.ok());
  res.check_clean = chk.ok() && chk->clean();
  return res;
}

TEST(ConcurrentCoR, SameClusterSingleFlightFetchesOnce) {
  // 16 readers of the same 64 KiB cluster: exactly one backing fetch; the
  // other 15 queue on the in-flight range and are served locally.
  const auto r = run_concurrent_readers(/*single_flight=*/true, 16,
                                        /*stride=*/0, /*read_len=*/64_KiB);
  EXPECT_TRUE(r.bytes_ok);
  EXPECT_TRUE(r.check_clean);
  EXPECT_EQ(r.backing_reads, 1u);
  EXPECT_EQ(r.bytes_from_backing, 64_KiB);
  EXPECT_EQ(r.inflight_waits, 15u);
  EXPECT_EQ(r.dedup_hits, 15u);
  EXPECT_EQ(r.cor_clusters, 1u);
  EXPECT_EQ(r.cor_stopped, 0u);
}

TEST(ConcurrentCoR, LegacyModeDuplicatesFetches) {
  // Ablation baseline: with single-flight off every reader fetches the
  // cluster from the base for itself; only one copy lands in the cache.
  const auto r = run_concurrent_readers(/*single_flight=*/false, 16,
                                        /*stride=*/0, /*read_len=*/64_KiB);
  EXPECT_TRUE(r.bytes_ok);
  EXPECT_TRUE(r.check_clean);
  EXPECT_EQ(r.backing_reads, 16u);
  EXPECT_EQ(r.bytes_from_backing, 16 * 64_KiB);
  EXPECT_EQ(r.dedup_hits, 0u);
  EXPECT_EQ(r.cor_clusters, 1u);
}

TEST(ConcurrentCoR, DisjointClustersNoWaitsAndFasterThanLegacy) {
  // 8 readers on 8 different clusters: no contention, one fetch each, and
  // the cold population finishes sooner than the serialized legacy mode.
  const auto on = run_concurrent_readers(/*single_flight=*/true, 8,
                                         /*stride=*/1_MiB, /*read_len=*/64_KiB);
  EXPECT_TRUE(on.bytes_ok);
  EXPECT_TRUE(on.check_clean);
  EXPECT_EQ(on.backing_reads, 8u);
  EXPECT_EQ(on.inflight_waits, 0u);
  EXPECT_EQ(on.dedup_hits, 0u);
  EXPECT_EQ(on.cor_clusters, 8u);

  const auto off = run_concurrent_readers(/*single_flight=*/false, 8,
                                          /*stride=*/1_MiB,
                                          /*read_len=*/64_KiB);
  EXPECT_TRUE(off.bytes_ok);
  EXPECT_EQ(off.cor_clusters, 8u);
  EXPECT_LT(on.makespan, off.makespan);
}

TEST(ConcurrentCoR, DeterministicAcrossRuns) {
  const auto a = run_concurrent_readers(/*single_flight=*/true, 12,
                                        /*stride=*/256_KiB, /*read_len=*/96_KiB);
  const auto b = run_concurrent_readers(/*single_flight=*/true, 12,
                                        /*stride=*/256_KiB, /*read_len=*/96_KiB);
  EXPECT_TRUE(a.bytes_ok);
  EXPECT_TRUE(a == b);
}

TEST(ConcurrentCoR, QuotaEdgeUnderConcurrency) {
  // 16 racing readers want 1 MiB of 4 KiB clusters but the cache may only
  // grow to 256 KiB: the quota stop must fire exactly once, the file must
  // respect the quota, and every reader still gets correct bytes.
  const auto r = run_concurrent_readers(/*single_flight=*/true, 16,
                                        /*stride=*/64_KiB, /*read_len=*/64_KiB,
                                        /*quota=*/256_KiB, /*cache_bits=*/12);
  EXPECT_TRUE(r.bytes_ok);
  EXPECT_TRUE(r.check_clean);
  EXPECT_EQ(r.cor_stopped, 1u);
  EXPECT_LE(r.file_bytes, 256_KiB);
  EXPECT_GT(r.backing_reads, 0u);
}

}  // namespace
}  // namespace vmic::qcow2
