// Tests for the storage substrates: rotational-disk timing model, page
// cache, cached medium (miss coalescing), simulated directories.
#include <gtest/gtest.h>

#include <vector>

#include "sim/run.hpp"
#include "storage/cached_medium.hpp"
#include "storage/disk.hpp"
#include "storage/page_cache.hpp"
#include "storage/sim_directory.hpp"
#include "util/units.hpp"

namespace vmic::storage {
namespace {

using sim::SimEnv;
using sim::SimTime;
using sim::Task;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;
using vmic::literals::operator""_GiB;

Task<void> do_read(Medium& m, std::uint64_t pos, std::uint64_t len) {
  co_await m.read(pos, len);
}
Task<void> do_write(Medium& m, std::uint64_t pos, std::uint64_t len,
                    bool sync) {
  co_await m.write(pos, len, sync);
}

TEST(RotationalDisk, RandomReadPaysPositioning) {
  SimEnv env;
  RotationalDisk disk{env};
  run_sync(env, do_read(disk, file_pos(1, 0), 64_KiB));
  // ~8.5 ms positioning + 64KiB / 240MB/s ~ 0.27 ms.
  const double secs = sim::to_seconds(env.now());
  EXPECT_NEAR(secs, 8.5e-3 + 65536.0 / 240e6, 1e-4);
  EXPECT_EQ(disk.stats().positioning_ops, 1u);
}

TEST(RotationalDisk, SequentialReadsSkipPositioning) {
  SimEnv env;
  RotationalDisk disk{env};
  run_sync(env, do_read(disk, file_pos(1, 0), 64_KiB));
  const SimTime t1 = env.now();
  run_sync(env, do_read(disk, file_pos(1, 64_KiB), 64_KiB));
  const double secs = sim::to_seconds(env.now() - t1);
  EXPECT_NEAR(secs, 65536.0 / 240e6, 1e-5);
  EXPECT_EQ(disk.stats().positioning_ops, 1u);  // only the first
}

TEST(RotationalDisk, NearSequentialWithinWindow) {
  SimEnv env;
  RotationalDisk disk{env};
  run_sync(env, do_read(disk, file_pos(1, 0), 4_KiB));
  const SimTime t1 = env.now();
  // 100 KiB gap < 256 KiB window: no positioning, gap at transfer speed.
  run_sync(env, do_read(disk, file_pos(1, 4_KiB + 100_KiB), 4_KiB));
  const double secs = sim::to_seconds(env.now() - t1);
  EXPECT_LT(secs, 1e-3);
  EXPECT_EQ(disk.stats().positioning_ops, 1u);
}

TEST(RotationalDisk, DifferentFilesNeverSequential) {
  SimEnv env;
  RotationalDisk disk{env};
  run_sync(env, do_read(disk, file_pos(1, 0), 4_KiB));
  run_sync(env, do_read(disk, file_pos(2, 0), 4_KiB));
  EXPECT_EQ(disk.stats().positioning_ops, 2u);
}

TEST(RotationalDisk, FcfsQueueSerializes) {
  SimEnv env;
  RotationalDisk disk{env};
  // 10 concurrent random readers: service is serialized, so total time is
  // ~10x one access.
  for (int i = 0; i < 10; ++i) {
    env.spawn(do_read(disk, file_pos(100 + i, 0), 64_KiB));
  }
  env.run();
  const double secs = sim::to_seconds(env.now());
  EXPECT_NEAR(secs, 10 * (8.5e-3 + 65536.0 / 240e6), 1e-3);
}

TEST(RotationalDisk, SyncWritesCostMoreThanAsync) {
  SimEnv env;
  RotationalDisk disk{env};
  run_sync(env, do_write(disk, file_pos(1, 0), 512, /*sync=*/true));
  const SimTime t_sync = env.now();
  SimEnv env2;
  RotationalDisk disk2{env2};
  run_sync(env2, do_write(disk2, file_pos(1, 0), 512, /*sync=*/false));
  EXPECT_GT(t_sync, env2.now());
}

TEST(MemMedium, FastAndLinear) {
  SimEnv env;
  MemMedium mem{env};
  run_sync(env, do_read(mem, 0, 1_MiB));
  const double secs = sim::to_seconds(env.now());
  EXPECT_NEAR(secs, 0.5e-6 + 1048576.0 / 6e9, 1e-6);
}

// ---------------------------------------------------------------------------
// PageCache
// ---------------------------------------------------------------------------

TEST(PageCache, HitAfterInsert) {
  PageCache pc{1_MiB};
  EXPECT_FALSE(pc.lookup(0));
  pc.insert(0);
  EXPECT_TRUE(pc.lookup(0));
  EXPECT_TRUE(pc.lookup(100));       // same 64 KiB block
  EXPECT_FALSE(pc.lookup(64_KiB));   // next block
}

TEST(PageCache, LruEviction) {
  PageCache pc{128_KiB};  // room for exactly 2 blocks
  pc.insert(0 * 64_KiB);
  pc.insert(1 * 64_KiB);
  EXPECT_TRUE(pc.lookup(0));  // refresh block 0 => block 1 becomes LRU
  pc.insert(2 * 64_KiB);      // evicts block 1
  EXPECT_TRUE(pc.lookup(0));
  EXPECT_FALSE(pc.lookup(1 * 64_KiB));
  EXPECT_TRUE(pc.lookup(2 * 64_KiB));
  EXPECT_EQ(pc.evictions(), 1u);
}

TEST(PageCache, UsedNeverExceedsCapacity) {
  PageCache pc{512_KiB};
  for (std::uint64_t i = 0; i < 100; ++i) pc.insert(i * 64_KiB);
  EXPECT_LE(pc.used_bytes(), pc.capacity());
}

TEST(PageCache, OversizedBlockNeverInsertsOrEvicts) {
  // Degenerate configuration: a single block is larger than the whole
  // cache. insert() must refuse outright rather than evict the (empty)
  // resident set and then over-commit.
  PageCache pc{32_KiB, 64_KiB};
  pc.insert(0);
  pc.insert(64_KiB);
  EXPECT_EQ(pc.used_bytes(), 0u);
  EXPECT_EQ(pc.evictions(), 0u);
  EXPECT_FALSE(pc.lookup(0));
}

// ---------------------------------------------------------------------------
// CachedMedium
// ---------------------------------------------------------------------------

TEST(CachedMedium, SecondReadHitsMemory) {
  SimEnv env;
  RotationalDisk disk{env};
  CachedMedium cm{env, disk, 1_GiB};
  run_sync(env, do_read(cm, file_pos(1, 0), 64_KiB));
  const SimTime t1 = env.now();
  EXPECT_GT(sim::to_seconds(t1), 8e-3);  // disk miss
  run_sync(env, do_read(cm, file_pos(1, 0), 64_KiB));
  EXPECT_LT(sim::to_seconds(env.now() - t1), 1e-4);  // memory hit
  EXPECT_EQ(disk.stats().reads, 1u);
}

TEST(CachedMedium, ConcurrentMissesCoalesce) {
  SimEnv env;
  RotationalDisk disk{env};
  CachedMedium cm{env, disk, 1_GiB};
  // 64 readers of the same block: one disk access total (this is what
  // keeps Fig 2's InfiniBand curve flat).
  for (int i = 0; i < 64; ++i) env.spawn(do_read(cm, file_pos(1, 0), 64_KiB));
  env.run();
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_LT(sim::to_seconds(env.now()), 10e-3);
}

TEST(CachedMedium, DistinctBlocksEachFault) {
  SimEnv env;
  RotationalDisk disk{env};
  CachedMedium cm{env, disk, 1_GiB};
  for (int i = 0; i < 8; ++i) {
    env.spawn(do_read(cm, file_pos(i + 1, 0), 64_KiB));
  }
  env.run();
  EXPECT_EQ(disk.stats().reads, 8u);
  // Serialized by the disk queue: ~8 positioning ops.
  EXPECT_NEAR(sim::to_seconds(env.now()), 8 * (8.5e-3 + 65536.0 / 240e6),
              2e-3);
}

TEST(CachedMedium, WriteThroughPopulates) {
  SimEnv env;
  RotationalDisk disk{env};
  CachedMedium cm{env, disk, 1_GiB};
  run_sync(env, do_write(cm, file_pos(1, 0), 64_KiB, false));
  EXPECT_EQ(disk.stats().writes, 1u);
  const SimTime t1 = env.now();
  run_sync(env, do_read(cm, file_pos(1, 0), 64_KiB));
  EXPECT_EQ(disk.stats().reads, 0u);  // served from page cache
  EXPECT_LT(sim::to_seconds(env.now() - t1), 1e-4);
}

// ---------------------------------------------------------------------------
// SimDirectory + SimFileBackend
// ---------------------------------------------------------------------------

Task<void> write_then_read(SimDirectory& dir, bool& ok) {
  auto be = dir.create_file("f");
  std::vector<std::uint8_t> data(10000, 0xAB);
  ok = (co_await (*be)->pwrite(0, data)).ok();
  std::vector<std::uint8_t> out(10000);
  ok = ok && (co_await (*be)->pread(0, out)).ok();
  ok = ok && (data == out);
}

TEST(SimDirectory, RoundTripChargesMedium) {
  SimEnv env;
  RotationalDisk disk{env};
  SimDirectory dir{disk};
  bool ok = false;
  run_sync(env, write_then_read(dir, ok));
  EXPECT_TRUE(ok);
  EXPECT_GT(env.now(), 0);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_TRUE(dir.exists("f"));
  EXPECT_EQ(*dir.file_size("f"), 10000u);
}

TEST(SimDirectory, CloneFileCopiesBytes) {
  SimEnv env;
  MemMedium mem{env};
  SimDirectory a{mem}, b{mem};
  // Non-zero pages on both sides of a multi-MiB hole, and a logical size
  // that ends mid-page past the last written byte.
  const std::uint64_t far = 3_MiB + 100;
  const std::uint64_t size = far + 5000 + 777;
  {
    auto be = a.create_file("src");
    std::vector<std::uint8_t> data(5000, 7);
    ASSERT_TRUE(sim::run_sync(env, [&]() -> Task<bool> {
      co_return (co_await (*be)->pwrite(0, data)).ok() &&
                (co_await (*be)->pwrite(far, data)).ok() &&
                (co_await (*be)->truncate(size)).ok();
    }()));
  }
  ASSERT_TRUE(SimDirectory::clone_file(a, "src", b, "dst").ok());
  EXPECT_EQ(*b.file_size("dst"), size);
  std::vector<std::uint8_t> want(size), got(size);
  (*a.buffer("src"))->read(0, want);
  (*b.buffer("dst"))->read(0, got);
  EXPECT_TRUE(got == want);
  EXPECT_EQ(got[4999], 7);
  EXPECT_EQ(got[5000], 0);  // the hole reads as zeros
  EXPECT_EQ(got[far - 1], 0);
  EXPECT_EQ(got[far], 7);
  EXPECT_EQ(got[size - 1], 0);

  // The clone is independent of its source, in both directions.
  const std::uint8_t x = 0xA5, y = 0x3C;
  (*b.buffer("dst"))->write(2_MiB, {&x, 1});
  (*a.buffer("src"))->write(10, {&y, 1});
  std::uint8_t v = 0;
  (*a.buffer("src"))->read(2_MiB, {&v, 1});
  EXPECT_EQ(v, 0);
  (*b.buffer("dst"))->read(10, {&v, 1});
  EXPECT_EQ(v, 7);
  a.remove("src");
  (*b.buffer("dst"))->read(far, {&v, 1});
  EXPECT_EQ(v, 7);
}

TEST(SimDirectory, OpenMissingFails) {
  SimEnv env;
  MemMedium mem{env};
  SimDirectory dir{mem};
  EXPECT_EQ(dir.open_file("nope", true).error(), Errc::not_found);
}

}  // namespace
}  // namespace vmic::storage
