// Unit tests for src/util: Result, alignment, endian helpers, buffers,
// interval sets, RNG and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "util/align.hpp"
#include "util/compress.hpp"
#include "util/pool.hpp"
#include "util/bytes.hpp"
#include "util/interval_set.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/sparse_buffer.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace vmic {
namespace {

// --------------------------------------------------------------------------
// Result
// --------------------------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.error(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r{Errc::no_space};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::no_space);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r{std::make_unique<int>(5)};
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

TEST(Result, CopySemantics) {
  Result<std::vector<int>> a{std::vector<int>{1, 2, 3}};
  Result<std::vector<int>> b = a;
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 3u);
  b = Result<std::vector<int>>{Errc::io_error};
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(a.ok());
}

TEST(Result, VoidVariant) {
  Result<void> good = ok_result();
  EXPECT_TRUE(good.ok());
  Result<void> bad{Errc::read_only};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::read_only);
}

Result<int> try_helper(Result<int> in) {
  VMIC_TRY(v, std::move(in));
  return v + 1;
}

TEST(Result, TryMacroPropagates) {
  EXPECT_EQ(*try_helper(Result<int>{1}), 2);
  EXPECT_EQ(try_helper(Result<int>{Errc::corrupt}).error(), Errc::corrupt);
}

TEST(Result, ErrcToString) {
  EXPECT_EQ(to_string(Errc::no_space), "no_space");
  EXPECT_EQ(to_string(Errc::ok), "ok");
}

// --------------------------------------------------------------------------
// Alignment
// --------------------------------------------------------------------------

TEST(Align, PowersOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(512));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
}

TEST(Align, UpDown) {
  EXPECT_EQ(align_down(1000, 512), 512u);
  EXPECT_EQ(align_up(1000, 512), 1024u);
  EXPECT_EQ(align_up(1024, 512), 1024u);
  EXPECT_EQ(align_down(1024, 512), 1024u);
  EXPECT_TRUE(is_aligned(65536, 65536));
  EXPECT_FALSE(is_aligned(65537, 65536));
}

TEST(Align, DivCeilAndLog2) {
  EXPECT_EQ(div_ceil(10, 3), 4u);
  EXPECT_EQ(div_ceil(9, 3), 3u);
  EXPECT_EQ(log2_exact(512), 9u);
  EXPECT_EQ(log2_exact(65536), 16u);
}

// --------------------------------------------------------------------------
// Endian / bytes
// --------------------------------------------------------------------------

TEST(Bytes, BigEndianRoundTrip) {
  std::uint8_t buf[8];
  store_be16(buf, 0xBEEF);
  EXPECT_EQ(load_be16(buf), 0xBEEF);
  EXPECT_EQ(buf[0], 0xBE);  // genuinely big-endian on disk
  store_be32(buf, 0xDEADBEEF);
  EXPECT_EQ(load_be32(buf), 0xDEADBEEFu);
  EXPECT_EQ(buf[0], 0xDE);
  store_be64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(load_be64(buf), 0x0123456789ABCDEFull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xEF);
}

TEST(Bytes, IsAllZero) {
  std::vector<std::uint8_t> z(10000, 0);
  EXPECT_TRUE(is_all_zero(z));
  z[9999] = 1;
  EXPECT_FALSE(is_all_zero(z));
  z[9999] = 0;
  z[0] = 1;
  EXPECT_FALSE(is_all_zero(z));
  EXPECT_TRUE(is_all_zero({z.data() + 1, 3}));  // unaligned short span
}

TEST(Bytes, IsAllZeroFindsEveryByte) {
  // Every length through two 64-byte blocks plus a word and byte tail, at
  // every alignment within a word, with the one non-zero byte anywhere.
  std::vector<std::uint8_t> buf(8 + 200, 0);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 200; ++len) {
      const std::span<const std::uint8_t> s{buf.data() + align, len};
      ASSERT_TRUE(is_all_zero(s));
      for (std::size_t i = 0; i < len; ++i) {
        buf[align + i] = 0x80;
        ASSERT_FALSE(is_all_zero(s)) << "align " << align << " len " << len
                                     << " byte " << i;
        buf[align + i] = 0;
      }
    }
  }
}

TEST(Bytes, Fnv1aStable) {
  const std::uint8_t d[] = {'a', 'b', 'c'};
  // Reference value for "abc" under 64-bit FNV-1a.
  EXPECT_EQ(fnv1a(d), 0xe71fa2190541574bull);
}

// --------------------------------------------------------------------------
// Units
// --------------------------------------------------------------------------

TEST(Units, Format) {
  using namespace vmic::literals;
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(93_MiB), "93.0 MiB");
  EXPECT_EQ(format_bytes(4_GiB), "4.0 GiB");
  EXPECT_EQ(format_seconds(1.5), "1.50 s");
  EXPECT_EQ(format_seconds(0.0171), "17.1 ms");
}

// --------------------------------------------------------------------------
// IntervalSet
// --------------------------------------------------------------------------

TEST(IntervalSet, InsertAndTotal) {
  IntervalSet s;
  s.insert(0, 100);
  s.insert(200, 300);
  EXPECT_EQ(s.total(), 200u);
  EXPECT_EQ(s.interval_count(), 2u);
}

TEST(IntervalSet, CoalescesOverlap) {
  IntervalSet s;
  s.insert(0, 100);
  s.insert(50, 150);
  EXPECT_EQ(s.total(), 150u);
  EXPECT_EQ(s.interval_count(), 1u);
}

TEST(IntervalSet, CoalescesAdjacent) {
  IntervalSet s;
  s.insert(0, 100);
  s.insert(100, 200);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 200u);
}

TEST(IntervalSet, BridgeMerge) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(5, 25);  // bridges both
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_EQ(s.total(), 30u);
}

TEST(IntervalSet, CoversAndIntersects) {
  IntervalSet s;
  s.insert(100, 200);
  EXPECT_TRUE(s.covers(100, 200));
  EXPECT_TRUE(s.covers(150, 160));
  EXPECT_FALSE(s.covers(50, 150));
  EXPECT_TRUE(s.intersects(150, 250));
  EXPECT_TRUE(s.intersects(50, 101));
  EXPECT_FALSE(s.intersects(50, 100));  // half-open: touch is no overlap
  EXPECT_FALSE(s.intersects(200, 300));
  EXPECT_TRUE(s.covers(120, 120));     // empty range trivially covered
  EXPECT_FALSE(s.intersects(120, 120));
}

TEST(IntervalSet, IdempotentReinsert) {
  IntervalSet s;
  for (int i = 0; i < 10; ++i) s.insert(1000, 2000);
  EXPECT_EQ(s.total(), 1000u);
  EXPECT_EQ(s.interval_count(), 1u);
}

// Property: total() always equals a brute-force bitmap count.
TEST(IntervalSet, PropertyMatchesBitmap) {
  Rng rng{123};
  IntervalSet s;
  std::vector<bool> bits(4096, false);
  for (int i = 0; i < 500; ++i) {
    const auto b = rng.below(4000);
    const auto e = b + 1 + rng.below(96);
    s.insert(b, e);
    for (auto j = b; j < e; ++j) bits[j] = true;
    std::uint64_t expect = 0;
    for (bool bit : bits) expect += bit ? 1 : 0;
    ASSERT_EQ(s.total(), expect) << "iteration " << i;
  }
}

// --------------------------------------------------------------------------
// SparseBuffer
// --------------------------------------------------------------------------

TEST(SparseBuffer, ReadsZeroWhenEmpty) {
  SparseBuffer b;
  std::vector<std::uint8_t> buf(100, 0xFF);
  b.read(1234, buf);
  EXPECT_TRUE(is_all_zero(buf));
  EXPECT_EQ(b.size(), 0u);
}

TEST(SparseBuffer, WriteReadRoundTrip) {
  SparseBuffer b;
  std::vector<std::uint8_t> data(10000);
  Rng rng{7};
  for (auto& x : data) x = static_cast<std::uint8_t>(rng.next());
  b.write(5000, data);
  EXPECT_EQ(b.size(), 15000u);
  std::vector<std::uint8_t> out(10000);
  b.read(5000, out);
  EXPECT_EQ(data, out);
  // Straddling read: 4096 zeros then the first data bytes.
  std::vector<std::uint8_t> straddle(2000);
  b.read(4000, straddle);
  EXPECT_TRUE(is_all_zero({straddle.data(), 1000}));
  EXPECT_EQ(0, std::memcmp(straddle.data() + 1000, data.data(), 1000));
}

TEST(SparseBuffer, ZeroWritesNotMaterialized) {
  SparseBuffer b;
  std::vector<std::uint8_t> zeros(1 * MiB, 0);
  b.write(0, zeros);
  EXPECT_EQ(b.size(), 1 * MiB);
  EXPECT_EQ(b.materialized_bytes(), 0u);
  // But a subsequent non-zero write into the same region still works.
  std::uint8_t one = 1;
  b.write(12345, {&one, 1});
  std::uint8_t out = 0;
  b.read(12345, {&out, 1});
  EXPECT_EQ(out, 1);
  EXPECT_EQ(b.materialized_bytes(), SparseBuffer::kPageSize);
}

TEST(SparseBuffer, OverwriteWithZerosInMaterializedPage) {
  SparseBuffer b;
  std::uint8_t v = 42;
  b.write(100, {&v, 1});
  std::uint8_t z = 0;
  b.write(100, {&z, 1});
  std::uint8_t out = 9;
  b.read(100, {&out, 1});
  EXPECT_EQ(out, 0);
}

TEST(SparseBuffer, ResizeTruncates) {
  SparseBuffer b;
  std::vector<std::uint8_t> data(8192, 0xAB);
  b.write(0, data);
  b.resize(100);
  EXPECT_EQ(b.size(), 100u);
  b.resize(8192);
  std::vector<std::uint8_t> out(8192);
  b.read(0, out);
  for (std::size_t i = 0; i < 100; ++i) ASSERT_EQ(out[i], 0xAB);
  EXPECT_TRUE(is_all_zero({out.data() + 100, out.size() - 100}));
}

// Differential test of the chunked page store against a flat byte vector,
// plus a page-set model of the elision rule: a page is materialised only
// when a non-zero byte lands on a page that is absent, and only truncation
// drops pages. The chunk span (512 pages = 2 MiB) is an implementation
// detail, so writes cluster around every 2 MiB boundary of a space that
// spans three chunks: any power-of-two chunk size up to 2 MiB is crossed.
TEST(SparseBuffer, DifferentialAgainstFlatReference) {
  constexpr std::uint64_t kPage = SparseBuffer::kPageSize;
  constexpr std::uint64_t kChunk = 2 * MiB;
  constexpr std::uint64_t kSpace = 2 * kChunk + kChunk / 4;

  struct Model {
    SparseBuffer buf;
    std::vector<std::uint8_t> ref = std::vector<std::uint8_t>(kSpace, 0);
    std::uint64_t size = 0;
    std::set<std::uint64_t> pages;

    void write(std::uint64_t off, std::span<const std::uint8_t> src) {
      buf.write(off, src);
      for (std::uint64_t p = off; p < off + src.size();) {
        const std::uint64_t end =
            std::min(off + src.size(), (p / kPage + 1) * kPage);
        if (!is_all_zero(src.subspan(p - off, end - p))) {
          pages.insert(p / kPage);
        }
        p = end;
      }
      std::copy(src.begin(), src.end(), ref.begin() + off);
      size = std::max(size, off + src.size());
    }
    void resize(std::uint64_t n) {
      buf.resize(n);
      if (n < size) {
        pages.erase(pages.lower_bound((n + kPage - 1) / kPage), pages.end());
        std::fill(ref.begin() + n, ref.begin() + size, 0);
      }
      size = n;
    }
    void check(const char* what, int step) const {
      ASSERT_EQ(buf.size(), size) << what << " step " << step;
      ASSERT_EQ(buf.materialized_bytes(), pages.size() * kPage)
          << what << " step " << step;
      // The whole space, including bytes past size() (which read as zero).
      std::vector<std::uint8_t> out(kSpace, 0xEE);
      buf.read(0, out);
      ASSERT_TRUE(out == ref) << what << " step " << step;
    }
  };

  Rng rng{0x5b0f};
  auto offset_near_boundary = [&]() {
    const std::uint64_t boundary = kChunk * (1 + rng.below(2));
    return boundary - 3 * kPage + rng.below(6 * kPage);
  };
  auto bytes = [&](std::uint64_t n, int kind) {
    std::vector<std::uint8_t> v(n, 0);
    if (kind == 0) {
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next() | 1);
    } else if (kind == 1 && n > 0) {
      v[rng.below(n)] = 0x42;  // one non-zero byte in a zero run
    }  // kind 2: all zero
    return v;
  };

  Model m;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 6) {
      // Random, partial-page, or all-zero writes, often chunk-crossing.
      const std::uint64_t len =
          rng.below(4) == 0 ? rng.below(3 * kChunk / 2) : rng.below(3 * kPage);
      std::uint64_t off =
          rng.below(2) == 0 ? offset_near_boundary() : rng.below(kSpace);
      off = std::min(off, kSpace - len);
      const auto v = bytes(len, static_cast<int>(rng.below(3)));
      m.write(off, v);
      ASSERT_NO_FATAL_FAILURE(m.check("write", step));
    } else if (op < 8) {
      // Straddling read at any offset, also past the logical size.
      const std::uint64_t len = rng.below(2 * kPage + 100);
      const std::uint64_t off = rng.below(kSpace - len);
      std::vector<std::uint8_t> out(len, 0xEE);
      m.buf.read(off, out);
      ASSERT_EQ(0, std::memcmp(out.data(), m.ref.data() + off, len))
          << "read step " << step;
      ASSERT_NO_FATAL_FAILURE(m.check("read", step));
    } else if (op == 8) {
      // Shrink mid-page or mid-chunk, then maybe grow straight back.
      const std::uint64_t n = rng.below(2) == 0
                                  ? offset_near_boundary() + rng.below(kPage)
                                  : rng.below(m.size + 1);
      m.resize(std::min(n, kSpace));
      ASSERT_NO_FATAL_FAILURE(m.check("shrink", step));
      if (rng.below(2) == 0) {
        m.resize(std::max(m.size, rng.below(kSpace)));
        ASSERT_NO_FATAL_FAILURE(m.check("grow", step));
      }
    } else {
      // Clone, then mutate both copies differently: neither sees the
      // other's write.
      Model c;
      c.buf = m.buf.clone();
      c.ref = m.ref;
      c.size = m.size;
      c.pages = m.pages;
      ASSERT_NO_FATAL_FAILURE(c.check("clone", step));
      const std::uint64_t off = offset_near_boundary();
      c.write(off, bytes(2 * kPage, 0));
      m.write(off + kPage / 2, bytes(kPage, 1));
      ASSERT_NO_FATAL_FAILURE(c.check("clone mutated", step));
      ASSERT_NO_FATAL_FAILURE(m.check("source mutated", step));
      if (rng.below(2) == 0) m = std::move(c);
      ASSERT_NO_FATAL_FAILURE(m.check("clone kept", step));
    }
  }
  // Truncate to nothing: every page goes.
  m.resize(0);
  ASSERT_NO_FATAL_FAILURE(m.check("truncate all", 400));
  EXPECT_EQ(m.buf.materialized_bytes(), 0u);
}

TEST(SparseBuffer, HugeOffsetMaterializesOnePage) {
  SparseBuffer b;
  const std::uint64_t off = std::uint64_t{1} << 62;
  const std::uint8_t v = 0x5A;
  b.write(off, {&v, 1});
  EXPECT_EQ(b.size(), off + 1);
  EXPECT_EQ(b.materialized_bytes(), SparseBuffer::kPageSize);
  std::uint8_t out[3] = {1, 1, 1};
  b.read(off - 1, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0x5A);
  EXPECT_EQ(out[2], 0);
  const SparseBuffer c = b.clone();
  EXPECT_EQ(c.materialized_bytes(), SparseBuffer::kPageSize);
  b.resize(off);
  EXPECT_EQ(b.materialized_bytes(), 0u);
  EXPECT_EQ(c.size(), off + 1);
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange) {
  Rng rng{9};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.below(17), 17u);
    const auto v = rng.range(5, 10);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 10u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng{13};
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  Rng a{1};
  Rng child = a.fork();
  // The child stream should not replay the parent stream.
  Rng b{1};
  b.next();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

// --------------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------------

TEST(Stats, OnlineMeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptySamplesReportZero) {
  const Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SlotPool, AllocFreeReusesLifo) {
  util::SlotPool<int, 4> pool;
  const std::uint32_t a = pool.alloc();
  const std::uint32_t b = pool.alloc();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.capacity(), 2u);
  pool.free(a);
  pool.free(b);
  EXPECT_EQ(pool.free_slots(), 2u);
  // LIFO: the most recently freed slot comes back first.
  EXPECT_EQ(pool.alloc(), b);
  EXPECT_EQ(pool.alloc(), a);
  EXPECT_EQ(pool.capacity(), 2u);  // no new slots created
}

TEST(SlotPool, SlabGrowthKeepsAddressesStable) {
  constexpr std::size_t kSlab = 4;
  util::SlotPool<int, kSlab> pool;
  std::vector<int*> addrs;
  for (std::uint32_t i = 0; i < 3 * kSlab; ++i) {
    const std::uint32_t idx = pool.alloc();
    pool[idx] = static_cast<int>(i);
    addrs.push_back(&pool[idx]);
  }
  // Growing by whole slabs never moves existing slots.
  for (std::uint32_t i = 0; i < 3 * kSlab; ++i) {
    EXPECT_EQ(&pool[i], addrs[i]);
    EXPECT_EQ(pool[i], static_cast<int>(i));
  }
}

TEST(FramePool, ReusesFreedBlocksInClass) {
#if VMIC_POOL_PASSTHROUGH
  GTEST_SKIP() << "pool is a passthrough under sanitizers";
#else
  const std::uint64_t reuses0 = util::FramePool::reuses();
  void* p = util::FramePool::allocate(100);  // class 1 (65..128 bytes)
  ASSERT_NE(p, nullptr);
  util::FramePool::deallocate(p, 100);
  void* q = util::FramePool::allocate(128);  // same class, reused block
  EXPECT_EQ(q, p);
  EXPECT_EQ(util::FramePool::reuses(), reuses0 + 1);
  util::FramePool::deallocate(q, 128);
#endif
}

TEST(FramePool, OversizeFallsThroughToHeap) {
  // Larger than the largest pooled class: must still round-trip.
  void* p = util::FramePool::allocate(64 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64 * 1024);
  util::FramePool::deallocate(p, 64 * 1024);
}

// --------------------------------------------------------------------------
// LZSS codec (qcow2 compressed clusters)
// --------------------------------------------------------------------------

TEST(Compress, RoundTripCompressible) {
  // Repetitive content (what OS images are full of) must shrink and
  // round-trip exactly.
  std::vector<std::uint8_t> src(4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>((i / 64) % 7);
  }
  std::vector<std::uint8_t> comp(src.size());
  const std::size_t n = lzss_compress(src, comp, src.size() - 512);
  ASSERT_GT(n, 0u);
  ASSERT_LT(n, src.size() - 512);
  std::vector<std::uint8_t> back(src.size(), 0xaa);
  ASSERT_TRUE(lzss_decompress({comp.data(), n}, back));
  EXPECT_EQ(src, back);
}

TEST(Compress, IncompressibleReturnsZero) {
  std::vector<std::uint8_t> src(4096);
  Rng rng{1234};
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> comp(src.size());
  EXPECT_EQ(lzss_compress(src, comp, src.size() - 512), 0u);
}

TEST(Compress, DecompressToleratesSectorPadding) {
  // Compressed payloads are stored sector-padded; the decoder must accept
  // trailing garbage once the output is complete.
  std::vector<std::uint8_t> src(4096, 0x5a);
  std::vector<std::uint8_t> comp(src.size());
  const std::size_t n = lzss_compress(src, comp, src.size() - 512);
  ASSERT_GT(n, 0u);
  const std::size_t padded = (n + 511) / 512 * 512;
  std::vector<std::uint8_t> stream(comp.begin(),
                                   comp.begin() + static_cast<long>(n));
  stream.resize(padded, 0);
  std::vector<std::uint8_t> back(src.size());
  ASSERT_TRUE(lzss_decompress(stream, back));
  EXPECT_EQ(src, back);
}

TEST(Compress, OverlappingRleMatches) {
  // A run of one byte forces offset-1 self-overlapping matches — the
  // classic LZSS RLE encoding. Each copied byte depends on the one just
  // written, so the decoder's word-at-a-time copies (offsets >= 8) must
  // not serve these.
  std::vector<std::uint8_t> src(1000, 0x00);
  src[0] = 0x41;
  std::vector<std::uint8_t> comp(src.size());
  const std::size_t n = lzss_compress(src, comp, src.size());
  ASSERT_GT(n, 0u);
  std::vector<std::uint8_t> back(src.size(), 0xff);
  ASSERT_TRUE(lzss_decompress({comp.data(), n}, back));
  EXPECT_EQ(src, back);
}

TEST(Compress, TruncatedStreamRejected) {
  std::vector<std::uint8_t> src(2048, 0x11);
  std::vector<std::uint8_t> comp(src.size());
  const std::size_t n = lzss_compress(src, comp, src.size());
  ASSERT_GT(n, 1u);
  std::vector<std::uint8_t> back(src.size());
  EXPECT_FALSE(lzss_decompress({comp.data(), n / 2}, back));
}

TEST(Compress, RandomBuffersRoundTripWhenCompressible) {
  Rng rng{77};
  for (int iter = 0; iter < 50; ++iter) {
    // Mixed content: random runs + literal noise, varying sizes.
    std::vector<std::uint8_t> src(512 + rng.below(8192));
    std::size_t i = 0;
    while (i < src.size()) {
      const std::size_t run =
          std::min<std::size_t>(1 + rng.below(200), src.size() - i);
      const bool repeat = rng.below(2) == 0;
      const std::uint8_t v = static_cast<std::uint8_t>(rng.next());
      for (std::size_t k = 0; k < run; ++k) {
        src[i + k] = repeat ? v : static_cast<std::uint8_t>(rng.next());
      }
      i += run;
    }
    std::vector<std::uint8_t> comp(src.size());
    const std::size_t n = lzss_compress(src, comp, src.size());
    if (n == 0) continue;  // did not shrink — valid outcome
    std::vector<std::uint8_t> back(src.size());
    ASSERT_TRUE(lzss_decompress({comp.data(), n}, back));
    ASSERT_EQ(src, back) << "iteration " << iter;
  }
}

// --------------------------------------------------------------------------
// LZSS differential oracle: the byte-at-a-time codec the word-at-a-time
// one replaced, kept verbatim. Compressed bytes are part of the golden
// contract (cache footprints, quota edges and sim timings depend on
// them), so the fast codec must make exactly this parse and reject
// exactly these streams.
// --------------------------------------------------------------------------

namespace ref {

constexpr std::size_t kWindowBits = 12;
constexpr std::size_t kWindow = 1u << kWindowBits;  // 4096
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = kMinMatch + 15;  // 4-bit length field

constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // 3-byte multiplicative hash; deterministic and platform-independent.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::size_t lzss_compress(std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst, std::size_t max_out) {
  const std::size_t n = src.size();
  if (n == 0 || max_out == 0 || dst.size() < max_out) return 0;

  // head[h] = most recent source position with hash h (+1; 0 = empty).
  std::vector<std::uint32_t> head(kHashSize, 0);

  std::size_t out = 0;
  std::size_t pos = 0;
  while (pos < n) {
    // Reserve the flag byte for the next (up to) 8 tokens.
    if (out >= max_out) return 0;
    const std::size_t flag_at = out++;
    std::uint8_t flags = 0;
    for (int bit = 0; bit < 8 && pos < n; ++bit) {
      std::size_t best_len = 0;
      std::size_t best_off = 0;
      if (pos + kMinMatch <= n) {
        const std::uint32_t h = hash3(src.data() + pos);
        const std::uint32_t cand1 = head[h];
        if (cand1 != 0) {
          const std::size_t cand = cand1 - 1;
          if (cand < pos && pos - cand <= kWindow) {
            const std::size_t limit =
                (n - pos) < kMaxMatch ? (n - pos) : kMaxMatch;
            std::size_t len = 0;
            while (len < limit && src[cand + len] == src[pos + len]) ++len;
            if (len >= kMinMatch) {
              best_len = len;
              best_off = pos - cand;
            }
          }
        }
        head[h] = static_cast<std::uint32_t>(pos + 1);
      }
      if (best_len >= kMinMatch) {
        if (out + 2 > max_out) return 0;
        flags |= static_cast<std::uint8_t>(1u << bit);
        // 12-bit offset-1 in the low bits, 4-bit length-3 in the top.
        const std::uint32_t tok =
            static_cast<std::uint32_t>(best_off - 1) |
            (static_cast<std::uint32_t>(best_len - kMinMatch) << kWindowBits);
        dst[out++] = static_cast<std::uint8_t>(tok & 0xff);
        dst[out++] = static_cast<std::uint8_t>((tok >> 8) & 0xff);
        // Index the interior of the match too (cheaply: every position),
        // so runs keep matching against their own tail.
        const std::size_t end = pos + best_len;
        for (std::size_t p = pos + 1; p + kMinMatch <= n && p < end; ++p) {
          head[hash3(src.data() + p)] = static_cast<std::uint32_t>(p + 1);
        }
        pos = end;
      } else {
        if (out + 1 > max_out) return 0;
        dst[out++] = src[pos++];
      }
    }
    dst[flag_at] = flags;
  }
  return out < n ? out : 0;
}

bool lzss_decompress(std::span<const std::uint8_t> src,
                     std::span<std::uint8_t> dst) {
  const std::size_t n = dst.size();
  std::size_t in = 0;
  std::size_t out = 0;
  while (out < n) {
    if (in >= src.size()) return false;
    const std::uint8_t flags = src[in++];
    for (int bit = 0; bit < 8 && out < n; ++bit) {
      if ((flags >> bit) & 1u) {
        if (in + 2 > src.size()) return false;
        const std::uint32_t tok =
            static_cast<std::uint32_t>(src[in]) |
            (static_cast<std::uint32_t>(src[in + 1]) << 8);
        in += 2;
        const std::size_t off = (tok & (kWindow - 1)) + 1;
        const std::size_t len = (tok >> kWindowBits) + kMinMatch;
        if (off > out || out + len > n) return false;
        // Byte-by-byte: matches may overlap their own output (RLE).
        for (std::size_t i = 0; i < len; ++i) {
          dst[out] = dst[out - off];
          ++out;
        }
      } else {
        if (in >= src.size()) return false;
        dst[out++] = src[in++];
      }
    }
  }
  // Trailing input bytes are tolerated: compressed payloads are stored
  // sector-padded, so the stream may be followed by zero fill.
  return out == n;
}

}  // namespace ref

/// Seeded codec inputs of the shapes the simulator and real images
/// produce. kind 0: sibling-tile clusters (a 32-byte tile plus an 8-byte
/// stamp, as the cloud engine's content model writes them); 1: periodic
/// runs with periods 1-7 (RLE matches at offsets 1-7); 2: random bytes;
/// 3: mixed runs of repeats, noise and copies of earlier bytes.
std::vector<std::uint8_t> codec_input(int kind, std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  switch (kind) {
    case 0: {
      std::uint8_t tile[32];
      for (auto& b : tile) b = static_cast<std::uint8_t>(rng.next());
      for (std::size_t i = 0; i < n; ++i) v[i] = tile[i % sizeof(tile)];
      const std::uint64_t stamp = rng.next();
      std::memcpy(v.data(), &stamp, std::min<std::size_t>(8, n));
      break;
    }
    case 1: {
      std::size_t i = 0;
      while (i < n) {
        const std::size_t period = 1 + rng.below(7);
        std::uint8_t pat[7];
        for (auto& b : pat) b = static_cast<std::uint8_t>(rng.next());
        const std::size_t run =
            std::min<std::size_t>(1 + rng.below(300), n - i);
        for (std::size_t k = 0; k < run; ++k) v[i + k] = pat[k % period];
        i += run;
      }
      break;
    }
    case 2:
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
      break;
    default: {
      std::size_t i = 0;
      while (i < n) {
        const std::size_t run = std::min<std::size_t>(1 + rng.below(64), n - i);
        const std::uint64_t shape = rng.below(4);
        if (shape == 0) {
          std::memset(v.data() + i, static_cast<int>(rng.below(256)), run);
        } else if (shape == 1 || i == 0) {
          for (std::size_t k = 0; k < run; ++k) {
            v[i + k] = static_cast<std::uint8_t>(rng.next());
          }
        } else {
          // Copy from up to ~5 KiB back: matches inside and just past the
          // 4 KiB window.
          const std::size_t dist =
              1 + rng.below(std::min<std::size_t>(i, 5000));
          for (std::size_t k = 0; k < run; ++k) v[i + k] = v[i + k - dist];
        }
        i += run;
      }
      break;
    }
  }
  return v;
}

TEST(CompressOracle, CompressMatchesReferenceBytes) {
  const std::size_t sizes[] = {1,    2,    3,     4,     7,     8,
                               9,    17,   18,    19,    31,    64,
                               100,  511,  512,   513,   1000,  4095,
                               4096, 4097, 12345, 65536, 2 << 20};
  Rng rng{20241};
  std::size_t compressed = 0;
  for (const std::size_t n : sizes) {
    for (int kind = 0; kind < 4; ++kind) {
      // Big inputs run once per kind; small ones vary their content.
      const int reps = n >= 65536 ? 1 : 6;
      for (int rep = 0; rep < reps; ++rep) {
        const auto src = codec_input(kind, n, rng);
        const std::size_t max_outs[] = {n > 512 ? n - 512 : n, n,
                                        1 + rng.below(n / 8 + 1)};
        for (const std::size_t max_out : max_outs) {
          std::vector<std::uint8_t> want(max_out, 0xee);
          std::vector<std::uint8_t> got(max_out, 0xee);
          const std::size_t wn = ref::lzss_compress(src, want, max_out);
          const std::size_t gn = lzss_compress(src, got, max_out);
          ASSERT_EQ(gn, wn) << "kind " << kind << " n " << n << " max_out "
                            << max_out;
          ASSERT_TRUE(std::equal(got.begin(), got.begin() + gn, want.begin()))
              << "kind " << kind << " n " << n << " max_out " << max_out;
          compressed += gn > 0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(compressed, 100u);  // the oracle saw real streams, not just 0s
}

TEST(CompressOracle, DecompressMatchesReferenceOnHostileStreams) {
  Rng rng{9001};
  std::size_t both_ok = 0;
  std::size_t both_rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int kind = static_cast<int>(rng.below(4));
    const std::size_t n =
        iter % 50 == 0 ? 65536 : (rng.chance(0.5) ? 4096 : 1 + rng.below(6000));
    const auto plain = codec_input(kind, n, rng);
    std::vector<std::uint8_t> stream(n + 64);
    std::size_t sn = ref::lzss_compress(plain, stream, n);
    if (sn == 0) {
      // Incompressible: decode noise instead.
      sn = 1 + rng.below(n);
      for (std::size_t i = 0; i < sn; ++i) {
        stream[i] = static_cast<std::uint8_t>(rng.next());
      }
    }
    stream.resize(sn);

    // Mutate: 0 valid, 1 truncated, 2 bit flips, 3 sector-padded (zeros
    // or garbage after the stream).
    switch (rng.below(4)) {
      case 1:
        stream.resize(rng.below(stream.size()));
        break;
      case 2:
        for (std::uint64_t f = 1 + rng.below(4); f > 0; --f) {
          stream[rng.below(stream.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 3: {
        const bool garbage = rng.chance(0.5);
        const std::size_t padded = (stream.size() + 511) / 512 * 512;
        while (stream.size() < padded) {
          stream.push_back(garbage ? static_cast<std::uint8_t>(rng.next())
                                   : 0);
        }
        break;
      }
      default:
        break;
    }

    // dst exact, short or long.
    std::size_t dn = n;
    const std::uint64_t shape = rng.below(4);
    if (shape == 1) dn = rng.below(n + 1);
    if (shape == 2) dn = n + 1 + rng.below(300);
    std::vector<std::uint8_t> want(dn, 0x5c);
    std::vector<std::uint8_t> got(dn, 0xc5);
    const bool wok = ref::lzss_decompress(stream, want);
    const bool gok = lzss_decompress(stream, got);
    ASSERT_EQ(gok, wok) << "iteration " << iter;
    if (wok) {
      ASSERT_EQ(got, want) << "iteration " << iter;
      ++both_ok;
    } else {
      ++both_rejected;
    }
  }
  // Both outcomes are exercised in volume.
  EXPECT_GT(both_ok, 300u);
  EXPECT_GT(both_rejected, 300u);
}

}  // namespace
}  // namespace vmic
