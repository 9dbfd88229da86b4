// Qcow2Device tests: create/open/read/write/CoW, backing chains,
// persistence, refcount consistency — parameterized across cluster sizes
// (512 B ... 64 KiB), including the paper's two interesting points.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/raw.hpp"
#include "io_log.hpp"
#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
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

/// Fixture parameterized on cluster_bits.
class Qcow2DeviceTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  std::uint32_t bits() const { return GetParam(); }
  std::uint64_t cs() const { return 1ull << bits(); }

  MemImageStore store_;

  void create_image(const std::string& name, std::uint64_t size,
                    const std::string& backing = "",
                    std::uint64_t quota = 0) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = size;
    opt.cluster_bits = bits();
    opt.backing_file = backing;
    opt.cache_quota = quota;
    auto r = sync_wait(Qcow2Device::create(**be, opt));
    ASSERT_TRUE(r.ok()) << to_string(r.error());
  }

  DevicePtr open(const std::string& name, bool writable = true) {
    auto dev = sync_wait(open_image(store_, name, writable));
    EXPECT_TRUE(dev.ok()) << to_string(dev.error());
    return dev.ok() ? std::move(*dev) : nullptr;
  }

  /// Create a raw base image filled with a deterministic pattern.
  void create_raw_base(const std::string& name, std::uint64_t size,
                       std::uint64_t seed = 1) {
    auto be = store_.create_file(name);
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(seed, size);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }

  std::uint64_t file_digest(const std::string& name) {
    auto buf = store_.buffer(name);
    EXPECT_TRUE(buf.ok());
    std::vector<std::uint8_t> all((*buf)->size());
    (*buf)->read(0, all);
    return fnv1a(all);
  }
};

TEST_P(Qcow2DeviceTest, CreateAndOpen) {
  create_image("a.qcow2", 100_MiB);
  auto dev = open("a.qcow2");
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->size(), 100_MiB);
  EXPECT_EQ(dev->format_name(), "qcow2");
  EXPECT_FALSE(dev->is_cache_image());
  EXPECT_FALSE(dev->read_only());
  EXPECT_EQ(dev->backing(), nullptr);
}

TEST_P(Qcow2DeviceTest, FreshImageReadsZero) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  std::vector<std::uint8_t> buf(123456, 0xFF);
  ASSERT_TRUE(sync_wait(dev->read(777, buf)).ok());
  EXPECT_TRUE(is_all_zero(buf));
}

TEST_P(Qcow2DeviceTest, WriteReadRoundTrip) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  const auto data = pattern_bytes(7, 300000);
  // Deliberately unaligned offset.
  ASSERT_TRUE(sync_wait(dev->write(12345, data)).ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sync_wait(dev->read(12345, out)).ok());
  EXPECT_EQ(data, out);
  // Around the write, still zeros.
  std::vector<std::uint8_t> edge(12345);
  ASSERT_TRUE(sync_wait(dev->read(0, edge)).ok());
  EXPECT_TRUE(is_all_zero(edge));
}

TEST_P(Qcow2DeviceTest, OverwriteAllocatedCluster) {
  create_image("a.qcow2", 10_MiB);
  auto dev = open("a.qcow2");
  const auto a = pattern_bytes(1, 100000);
  const auto b = pattern_bytes(2, 100000);
  ASSERT_TRUE(sync_wait(dev->write(0, a)).ok());
  ASSERT_TRUE(sync_wait(dev->write(0, b)).ok());
  std::vector<std::uint8_t> out(b.size());
  ASSERT_TRUE(sync_wait(dev->read(0, out)).ok());
  EXPECT_EQ(b, out);
}

TEST_P(Qcow2DeviceTest, PersistsAcrossReopen) {
  create_image("a.qcow2", 10_MiB);
  const auto data = pattern_bytes(3, 200000);
  {
    auto dev = open("a.qcow2");
    ASSERT_TRUE(sync_wait(dev->write(1_MiB + 17, data)).ok());
    ASSERT_TRUE(sync_wait(dev->close()).ok());
  }
  auto dev = open("a.qcow2", /*writable=*/false);
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(sync_wait(dev->read(1_MiB + 17, out)).ok());
  EXPECT_EQ(data, out);
}

TEST_P(Qcow2DeviceTest, OutOfRangeRejected) {
  create_image("a.qcow2", 1_MiB);
  auto dev = open("a.qcow2");
  std::vector<std::uint8_t> buf(100);
  EXPECT_EQ(sync_wait(dev->read(1_MiB - 50, buf)).error(),
            Errc::out_of_range);
  EXPECT_EQ(sync_wait(dev->write(1_MiB, buf)).error(), Errc::out_of_range);
  // Boundary-exact access is fine.
  EXPECT_TRUE(sync_wait(dev->read(1_MiB - 100, buf)).ok());
}

TEST_P(Qcow2DeviceTest, ReadOnlyOpenRejectsWrites) {
  create_image("a.qcow2", 1_MiB);
  auto dev = open("a.qcow2", /*writable=*/false);
  std::vector<std::uint8_t> buf(100, 1);
  EXPECT_TRUE(dev->read_only());
  EXPECT_EQ(sync_wait(dev->write(0, buf)).error(), Errc::read_only);
}

TEST_P(Qcow2DeviceTest, UnalignedVirtualSizeTail) {
  // Virtual size deliberately not cluster-aligned.
  const std::uint64_t size = 4_MiB + 1234;
  create_image("a.qcow2", size);
  auto dev = open("a.qcow2");
  const auto data = pattern_bytes(5, 1000);
  ASSERT_TRUE(sync_wait(dev->write(size - 1000, data)).ok());
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(sync_wait(dev->read(size - 1000, out)).ok());
  EXPECT_EQ(data, out);
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

// ---------------------------------------------------------------------------
// Backing chains (plain CoW, §2)
// ---------------------------------------------------------------------------

TEST_P(Qcow2DeviceTest, CowReadsThroughToBase) {
  create_raw_base("base.img", 4_MiB, /*seed=*/11);
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");
  ASSERT_NE(dev->backing(), nullptr);
  EXPECT_EQ(dev->backing()->format_name(), "raw");

  const auto expect = pattern_bytes(11, 4_MiB);
  std::vector<std::uint8_t> out(100000);
  ASSERT_TRUE(sync_wait(dev->read(1_MiB + 3, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 1_MiB + 3, out.size()));
}

TEST_P(Qcow2DeviceTest, CowWritesDoNotTouchBase) {
  create_raw_base("base.img", 4_MiB, 11);
  const auto base_digest_before = file_digest("base.img");
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");

  const auto data = pattern_bytes(12, 500000);
  ASSERT_TRUE(sync_wait(dev->write(100000, data)).ok());
  ASSERT_TRUE(sync_wait(dev->close()).ok());
  EXPECT_EQ(file_digest("base.img"), base_digest_before);
}

TEST_P(Qcow2DeviceTest, PartialClusterWriteFillsFromBase) {
  // A sub-cluster write to an unallocated cluster must merge with base
  // content (copy-on-write fill).
  create_raw_base("base.img", 4_MiB, 11);
  create_image("cow.qcow2", 4_MiB, "base.img");
  auto dev = open("cow.qcow2");

  auto expect = pattern_bytes(11, 4_MiB);
  const std::uint64_t off = 2 * cs() + 100;  // inside cluster 2
  const auto data = pattern_bytes(13, 50);
  ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
  std::memcpy(expect.data() + off, data.data(), data.size());

  // The whole surrounding cluster must now read as base-with-patch.
  std::vector<std::uint8_t> out(3 * cs());
  ASSERT_TRUE(sync_wait(dev->read(cs(), out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + cs(), out.size()));
}

TEST_P(Qcow2DeviceTest, BaseIsDemotedToReadOnly) {
  // §4.3: backing images are opened RW, then demoted to RO when they turn
  // out not to be cache images.
  create_raw_base("base.img", 1_MiB, 11);
  create_image("cow.qcow2", 1_MiB, "base.img");
  auto dev = open("cow.qcow2");
  ASSERT_NE(dev->backing(), nullptr);
  EXPECT_TRUE(dev->backing()->read_only());
  std::vector<std::uint8_t> buf(10, 1);
  EXPECT_EQ(sync_wait(dev->backing()->write(0, buf)).error(),
            Errc::read_only);
}

TEST_P(Qcow2DeviceTest, QcowOverQcowChain) {
  // qcow2 base <- qcow2 overlay (not a cache): two-level chain.
  create_image("mid.qcow2", 2_MiB);
  {
    auto mid = open("mid.qcow2");
    const auto data = pattern_bytes(21, 1_MiB);
    ASSERT_TRUE(sync_wait(mid->write(0, data)).ok());
    ASSERT_TRUE(sync_wait(mid->close()).ok());
  }
  create_image("top.qcow2", 2_MiB, "mid.qcow2");
  auto top = open("top.qcow2");
  const auto expect = pattern_bytes(21, 1_MiB);
  std::vector<std::uint8_t> out(100000);
  ASSERT_TRUE(sync_wait(top->read(500000, out)).ok());
  EXPECT_EQ(0, std::memcmp(out.data(), expect.data() + 500000, out.size()));
}

TEST_P(Qcow2DeviceTest, MissingBackingFails) {
  create_image("cow.qcow2", 1_MiB, "nonexistent.img");
  auto dev = sync_wait(open_image(store_, "cow.qcow2", true));
  EXPECT_FALSE(dev.ok());
  EXPECT_EQ(dev.error(), Errc::not_found);
}

// ---------------------------------------------------------------------------
// Consistency / refcounts
// ---------------------------------------------------------------------------

TEST_P(Qcow2DeviceTest, CheckCleanAfterRandomWrites) {
  create_image("a.qcow2", 16_MiB);
  auto dev = open("a.qcow2");
  Rng rng{42};
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t off = rng.below(16_MiB - 64_KiB);
    const auto data = pattern_bytes(i, 1 + rng.below(64_KiB));
    ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  EXPECT_GT(chk->data_clusters, 0u);
}

TEST_P(Qcow2DeviceTest, RefcountTableGrowth) {
  // Force the refcount table to be undersized so allocations must grow it.
  auto be = store_.create_file("tiny-rt.qcow2");
  ASSERT_TRUE(be.ok());
  Qcow2Device::CreateOptions opt;
  opt.virtual_size = 64_MiB;
  opt.cluster_bits = bits();
  opt.expected_file_size = 1;  // comically small => 1 refcount-table cluster
  ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());

  auto dev = open("tiny-rt.qcow2");
  // Write enough data to overflow the initial refcount coverage
  // (clusters_per_rt_cluster * cs bytes for one table cluster).
  const Layout ly{bits()};
  const std::uint64_t coverage = ly.clusters_per_rt_cluster() * cs();
  const std::uint64_t to_write = std::min<std::uint64_t>(
      48_MiB, coverage + 8 * cs());
  const auto chunk = pattern_bytes(9, 1_MiB);
  for (std::uint64_t off = 0; off + chunk.size() <= to_write;
       off += chunk.size()) {
    ASSERT_TRUE(sync_wait(dev->write(off, chunk)).ok()) << off;
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  // And the data is still intact after the table moved.
  std::vector<std::uint8_t> out(chunk.size());
  ASSERT_TRUE(sync_wait(dev->read(0, out)).ok());
  EXPECT_EQ(chunk, out);
}

// Property test: random interleaved reads/writes against a flat
// reference model must agree at every step.
TEST_P(Qcow2DeviceTest, PropertyMatchesReferenceModel) {
  const std::uint64_t size = 8_MiB;
  create_raw_base("base.img", size, 31);
  create_image("cow.qcow2", size, "base.img");
  auto dev = open("cow.qcow2");

  auto model = pattern_bytes(31, size);
  Rng rng{99};
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t len = 1 + rng.below(150000);
    const std::uint64_t off = rng.below(size - len);
    if (rng.chance(0.5)) {
      const auto data = pattern_bytes(1000 + i, len);
      ASSERT_TRUE(sync_wait(dev->write(off, data)).ok());
      std::memcpy(model.data() + off, data.data(), len);
    } else {
      std::vector<std::uint8_t> out(len);
      ASSERT_TRUE(sync_wait(dev->read(off, out)).ok());
      ASSERT_EQ(0, std::memcmp(out.data(), model.data() + off, len))
          << "step " << i << " off=" << off << " len=" << len;
    }
  }
  auto* q = dynamic_cast<Qcow2Device*>(dev.get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, Qcow2DeviceTest,
                         ::testing::Values(9u, 12u, 16u),
                         [](const auto& info) {
                           return "cb" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Probing & helpers (not cluster-size dependent)
// ---------------------------------------------------------------------------

TEST(Qcow2OpenAny, ProbesRawVsQcow2) {
  MemImageStore store;
  {
    auto be = store.create_file("raw.img");
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(1, 1_MiB);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }
  {
    auto be = store.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  auto raw = sync_wait(open_image(store, "raw.img"));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)->format_name(), "raw");
  auto q = sync_wait(open_image(store, "img.qcow2"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->format_name(), "qcow2");
}

TEST(Qcow2Chain, CreateCowInheritsBackingSize) {
  MemImageStore store;
  {
    auto be = store.create_file("base.img");
    ASSERT_TRUE(be.ok());
    auto data = pattern_bytes(1, 3_MiB);
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
  }
  ASSERT_TRUE(sync_wait(create_cow_image(store, "vm.cow", "base.img")).ok());
  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ((*dev)->size(), 3_MiB);
  EXPECT_FALSE((*dev)->is_cache_image());
}

TEST(Qcow2Chain, BackingCycleRejected) {
  // a <- b <- a: resolving the chain must fail instead of recursing
  // forever.
  MemImageStore store;
  auto make = [&](const std::string& name, const std::string& backing) {
    auto be = store.create_file(name);
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.backing_file = backing;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  };
  make("a.qcow2", "b.qcow2");
  make("b.qcow2", "a.qcow2");
  auto dev = sync_wait(open_image(store, "a.qcow2"));
  EXPECT_FALSE(dev.ok());
}

TEST(Qcow2Chain, DeepButAcyclicChainOpens) {
  MemImageStore store;
  {
    auto be = store.create_file("l0");
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  const auto layer = [](int i) {
    std::string name = "l";
    name += std::to_string(i);
    return name;
  };
  for (int i = 1; i <= 5; ++i) {
    auto be = store.create_file(layer(i));
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.backing_file = layer(i - 1);
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  auto dev = sync_wait(open_image(store, "l5"));
  ASSERT_TRUE(dev.ok());
  int depth = 0;
  for (const block::BlockDevice* d = dev->get(); d != nullptr;
       d = d->backing()) {
    ++depth;
  }
  EXPECT_EQ(depth, 6);
}

TEST(Qcow2Create, RejectsInvalidOptions) {
  MemImageStore store;
  auto be = store.create_file("x");
  ASSERT_TRUE(be.ok());
  Qcow2Device::CreateOptions opt;
  opt.virtual_size = 0;
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  opt.virtual_size = 1_MiB;
  opt.cluster_bits = 8;
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  opt.cluster_bits = 9;
  opt.cache_quota = 512;  // cannot even hold the metadata skeleton
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  // The largest disk whose L1 table fits the limit open() enforces (4 Mi
  // entries of 32 KiB at 512 B clusters) is created and opens; one byte
  // more is refused, by create and by resize.
  opt.cache_quota = 0;
  const std::uint64_t max_size = kMaxL1Bytes / 8 * 32_KiB;
  opt.virtual_size = max_size + 1;
  EXPECT_EQ(sync_wait(Qcow2Device::create(**be, opt)).error(),
            Errc::invalid_argument);
  opt.virtual_size = max_size;
  ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  auto dev = sync_wait(open_image(store, "x"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  EXPECT_EQ((*dev)->size(), max_size);
  auto* q = dynamic_cast<Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(sync_wait(q->resize(max_size + 1)).error(),
            Errc::invalid_argument);
}

// Crafted headers: each field open() sizes a buffer from is bounded
// before anything is allocated, and a bad value is a typed error.

/// Create a 64 MiB image (64 KiB clusters, optionally journaled), let
/// `poke` rewrite header bytes in place, then open it read-only. Returns
/// the open's error (Errc::ok when it succeeds).
Errc open_crafted(const std::function<void(SparseBuffer&)>& poke,
                  std::uint32_t journal_sectors = 0) {
  MemImageStore store;
  auto be = store.create_file("img");
  EXPECT_TRUE(be.ok());
  Qcow2Device::CreateOptions opt;
  opt.virtual_size = 64_MiB;
  opt.journal_sectors = journal_sectors;
  EXPECT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  poke(**store.buffer("img"));
  auto file = store.open_file("img", /*writable=*/false);
  EXPECT_TRUE(file.ok());
  return sync_wait(Qcow2Device::open(std::move(*file), {})).error();
}

void poke_be32(SparseBuffer& b, std::uint64_t off, std::uint32_t v) {
  std::uint8_t be[4];
  store_be32(be, v);
  b.write(off, be);
}

void poke_be64(SparseBuffer& b, std::uint64_t off, std::uint64_t v) {
  std::uint8_t be[8];
  store_be64(be, v);
  b.write(off, be);
}

std::uint64_t peek_be64(const SparseBuffer& b, std::uint64_t off) {
  std::uint8_t be[8];
  b.read(off, be);
  return load_be64(be);
}

TEST(Qcow2CraftedHeader, OversizedL1TableRefused) {
  constexpr std::uint32_t kLimit = kMaxL1Bytes / 8;  // entries
  for (const std::uint32_t l1 : {0xFFFFFFFFu, kLimit + 1}) {
    EXPECT_EQ(open_crafted([&](SparseBuffer& b) { poke_be32(b, 36, l1); }),
              Errc::unsupported)
        << l1;
  }
}

TEST(Qcow2CraftedHeader, OversizedRefcountTableRefused) {
  constexpr std::uint32_t kLimit = kMaxRefcountTableBytes / 64_KiB;
  for (const std::uint32_t rt : {0x00FFFFFFu, kLimit + 1}) {
    EXPECT_EQ(open_crafted([&](SparseBuffer& b) { poke_be32(b, 56, rt); }),
              Errc::unsupported)
        << rt;
  }
  // At the limit the table is loaded (the bytes past the real table read
  // as unused entries) once the file is long enough to hold it.
  EXPECT_EQ(open_crafted([&](SparseBuffer& b) {
              poke_be32(b, 56, kLimit);
              b.resize(peek_be64(b, 48) + kMaxRefcountTableBytes);
            }),
            Errc::ok);
}

TEST(Qcow2CraftedHeader, L1TableMustCoverVirtualSize) {
  // One L2 table maps 512 MiB at 64 KiB clusters; the image has one L1
  // entry.
  EXPECT_EQ(open_crafted([](SparseBuffer& b) { poke_be64(b, 24, 512_MiB); }),
            Errc::ok);
  EXPECT_EQ(
      open_crafted([](SparseBuffer& b) { poke_be64(b, 24, 512_MiB + 1); }),
      Errc::corrupt);
  EXPECT_EQ(open_crafted([](SparseBuffer& b) { poke_be32(b, 36, 0); }),
            Errc::corrupt);
}

// The L1 table (offset field 40, u32 entry count at 36) and the refcount
// table (offset field 48, u32 cluster count at 56) must lie inside the
// file; a table ending exactly at end of file is fine.

TEST(Qcow2CraftedHeader, L1TablePastEndOfFileRefused) {
  // Sets the entry count to what the file holds after the table, plus
  // `extra`.
  const auto l1_to_eof = [](std::int64_t extra) {
    return [extra](SparseBuffer& b) {
      const std::uint64_t room = b.size() - peek_be64(b, 40);
      poke_be32(b, 36, static_cast<std::uint32_t>(
                           static_cast<std::int64_t>(room / 8) + extra));
    };
  };
  EXPECT_EQ(open_crafted(l1_to_eof(0)), Errc::ok);
  EXPECT_EQ(open_crafted(l1_to_eof(1)), Errc::corrupt);
  // A 32 MiB table (within the size bound) in a file of a few clusters.
  EXPECT_EQ(
      open_crafted([](SparseBuffer& b) { poke_be32(b, 36, kMaxL1Bytes / 8); }),
      Errc::corrupt);
  // Offsets past the end, including one whose end would wrap 2^64.
  for (const std::uint64_t off : {1ull << 40, ~0ull << 16}) {
    EXPECT_EQ(open_crafted([&](SparseBuffer& b) { poke_be64(b, 40, off); }),
              Errc::corrupt)
        << off;
  }
}

TEST(Qcow2CraftedHeader, RefcountTablePastEndOfFileRefused) {
  // Sets the cluster count (64 KiB clusters) to what the file holds
  // after the table, plus `extra`.
  const auto rt_to_eof = [](std::int64_t extra) {
    return [extra](SparseBuffer& b) {
      const std::uint64_t room = b.size() - peek_be64(b, 48);
      poke_be32(b, 56, static_cast<std::uint32_t>(
                           static_cast<std::int64_t>(room / 64_KiB) + extra));
    };
  };
  EXPECT_EQ(open_crafted(rt_to_eof(0)), Errc::ok);
  EXPECT_EQ(open_crafted(rt_to_eof(1)), Errc::corrupt);
  for (const std::uint64_t off : {1ull << 40, ~0ull << 16}) {
    EXPECT_EQ(open_crafted([&](SparseBuffer& b) { poke_be64(b, 48, off); }),
              Errc::corrupt)
        << off;
  }
}

TEST(Qcow2CraftedHeader, JournalRegionPastEndOfFileRefused) {
  // The journal extension follows the 104-byte header: magic, length,
  // then the region's u64 offset and u64 size.
  constexpr std::uint64_t kSizeField = kHeaderLength + 8 + 8;
  EXPECT_EQ(open_crafted([](SparseBuffer&) {}, /*journal_sectors=*/16),
            Errc::ok);
  EXPECT_EQ(open_crafted(
                [](SparseBuffer& b) { poke_be64(b, kSizeField, 1ull << 40); },
                /*journal_sectors=*/16),
            Errc::corrupt);
}

// --------------------------------------------------------------------------
// Pinned create/open I/O. Image creation and open must make the same
// backend calls (kind, offset, length, in order) and write the same bytes
// whatever host-side shortcuts they take; every value below was captured
// from the implementation that visited every refcount-block slot and
// decoded the tables inside the open coroutine.
// --------------------------------------------------------------------------

using testutil::IoLog;
using testutil::RecordingBackend;

std::uint64_t buffer_digest(const SparseBuffer& b) {
  std::vector<std::uint8_t> all(b.size());
  b.read(0, all);
  return fnv1a(all);
}

struct CreatePin {
  const char* name;
  std::uint32_t cluster_bits;
  std::uint64_t virtual_size;
  std::uint64_t cache_quota;
  std::uint32_t journal_sectors;
  const char* backing;
  // Pinned results of create.
  std::uint64_t file_digest;
  std::uint64_t file_size;
  std::uint64_t pwrites;
  std::uint64_t flushes;
  std::uint64_t truncates;
  std::uint64_t create_log;
  // Pinned calls of a writable open (no backing chain), check, and close.
  std::uint64_t open_preads;
  std::uint64_t open_log;
};

constexpr CreatePin kCreatePins[] = {
    // name, bits, size, quota, journal, backing, then the pinned values.
    {"plain9", 9, 16_MiB, 0, 0, "",
     0x6a19a97ded1b3aa7ull, 7680, 4, 1, 1, 0x32a78ede09d5f22bull, 4,
     0x91e71f59d17a2af1ull},
    {"cache9", 9, 16_MiB, 8_MiB, 0, "base.img",
     0x88ff325685f7a1c0ull, 7168, 4, 1, 1, 0xa54454205be64e5bull, 4,
     0x3552fe25fb84cf2eull},
    {"journal9", 9, 16_MiB, 0, 64, "",
     0xf78ad0037fcf5b69ull, 40448, 5, 1, 1, 0x86f8a4520cf5c5eaull, 5,
     0xea09c67a0b47bdbdull},
    {"backing9", 9, 16_MiB, 0, 0, "base.img",
     0x3490e588dbdfd37ull, 7680, 4, 1, 1, 0x32a78ede09d5f22bull, 4,
     0x91e71f59d17a2af1ull},
    // 648 initial clusters at 512 B: three refcount blocks, the last one
    // partial.
    {"multiblock9", 9, 1024_MiB, 0, 0, "",
     0xafb7fe35571b4b9aull, 331776, 6, 1, 1, 0x495dc36fc3b708b1ull, 6,
     0x14463d56e345d35cull},
    {"plain12", 12, 16_MiB, 0, 0, "",
     0xb8eab8f3c1bfb279ull, 16384, 4, 1, 1, 0x84b7c95c68a6364bull, 4,
     0x74d473be84e988c9ull},
    {"cache12", 12, 16_MiB, 8_MiB, 0, "base.img",
     0xa48d286168afcabeull, 16384, 4, 1, 1, 0x84b7c95c68a6364bull, 4,
     0xa2a0b021fe02a930ull},
    {"journal12", 12, 16_MiB, 0, 64, "",
     0xaa8ada55cc13050dull, 49152, 5, 1, 1, 0x44bb63f004d264cull, 5,
     0xad38c842ea1d50bull},
    {"backing12", 12, 16_MiB, 0, 0, "base.img",
     0xa326909f6ab8f3d5ull, 16384, 4, 1, 1, 0x84b7c95c68a6364bull, 4,
     0x74d473be84e988c9ull},
    {"plain16", 16, 16_MiB, 0, 0, "",
     0x6391cc7d423c2ceaull, 262144, 4, 1, 1, 0xf6479ed9de2d16f3ull, 4,
     0x26dd0c5635574e7dull},
    {"cache16", 16, 16_MiB, 8_MiB, 0, "base.img",
     0xd798c7c9fcf60e59ull, 262144, 4, 1, 1, 0xf6479ed9de2d16f3ull, 4,
     0x44a622a7da485024ull},
    {"journal16", 16, 16_MiB, 0, 64, "",
     0xe5c6393e11aec23dull, 327680, 5, 1, 1, 0x22b839ffcb23db66ull, 5,
     0x8aa7d0af1fa677e1ull},
    {"backing16", 16, 16_MiB, 0, 0, "base.img",
     0xe36c509aff28d85aull, 262144, 4, 1, 1, 0xf6479ed9de2d16f3ull, 4,
     0x26dd0c5635574e7dull},
};

TEST(Qcow2Create, PinnedFileBytesAndCalls) {
  for (const CreatePin& pin : kCreatePins) {
    SCOPED_TRACE(pin.name);
    MemImageStore store;
    auto be = store.create_file("img");
    ASSERT_TRUE(be.ok());
    IoLog log;
    {
      RecordingBackend rec(**be, log);
      Qcow2Device::CreateOptions opt;
      opt.virtual_size = pin.virtual_size;
      opt.cluster_bits = pin.cluster_bits;
      opt.cache_quota = pin.cache_quota;
      opt.journal_sectors = pin.journal_sectors;
      opt.backing_file = pin.backing;
      ASSERT_TRUE(sync_wait(Qcow2Device::create(rec, opt)).ok());
    }
    const SparseBuffer& buf = **store.buffer("img");
    const std::uint64_t digest = buffer_digest(buf);
    EXPECT_EQ(digest, pin.file_digest);
    EXPECT_EQ(buf.size(), pin.file_size);
    EXPECT_EQ(log.pwrites, pin.pwrites);
    EXPECT_EQ(log.flushes, pin.flushes);
    EXPECT_EQ(log.truncates, pin.truncates);
    EXPECT_EQ(log.digest, pin.create_log);
    if (std::string_view(pin.name) == "multiblock9") {
      // The case covers more than one initial refcount block.
      const std::uint64_t rt = peek_be64(buf, 48);
      EXPECT_NE(peek_be64(buf, rt + 16), 0u);
    }

    IoLog open_log;
    auto file = store.open_file("img", /*writable=*/true);
    ASSERT_TRUE(file.ok());
    block::OpenOptions oo;
    oo.no_backing = true;
    auto dev = sync_wait(Qcow2Device::open(
        std::make_unique<RecordingBackend>(std::move(*file), open_log), oo));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* q = dynamic_cast<Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean());
    ASSERT_TRUE(sync_wait(q->close()).ok());
    EXPECT_EQ(open_log.preads, pin.open_preads);
    EXPECT_EQ(open_log.digest, pin.open_log);
  }
}

TEST(Qcow2Open, RefcountTableWithGapsAndAFinalSlotEntry) {
  // A 64 MiB image at 4 KiB clusters holds 4 clusters (header, refcount
  // table, refcount block 0, L1) and a one-cluster refcount table of 512
  // entries. Hook two more refcount blocks into it, at clusters 4 and 5:
  // one in slot 3 (slots 1 and 2 stay zero) and one in the table's final
  // slot, which carries a stale count for a cluster far past the end of
  // the file.
  constexpr std::uint64_t kCs = 4_KiB;
  MemImageStore store;
  {
    auto be = store.create_file("img");
    ASSERT_TRUE(be.ok());
    Qcow2Device::CreateOptions opt;
    opt.virtual_size = 64_MiB;
    opt.cluster_bits = 12;
    ASSERT_TRUE(sync_wait(Qcow2Device::create(**be, opt)).ok());
  }
  SparseBuffer& b = **store.buffer("img");
  ASSERT_EQ(b.size(), 4 * kCs);
  const std::uint64_t rt = peek_be64(b, 48);
  const std::uint64_t block0 = peek_be64(b, rt);
  std::vector<std::uint8_t> block(kCs, 0);
  b.write(4 * kCs, block);
  store_be16(block.data(), 1);
  b.write(5 * kCs, block);
  poke_be64(b, rt + 3 * 8, 4 * kCs);
  poke_be64(b, rt + 511 * 8, 5 * kCs);
  std::uint8_t one[2];
  store_be16(one, 1);
  b.write(block0 + 4 * 2, one);
  b.write(block0 + 5 * 2, one);

  IoLog log;  // every call from open to close: check and one write between
  {
    auto file = store.open_file("img", /*writable=*/true);
    ASSERT_TRUE(file.ok());
    auto dev = sync_wait(Qcow2Device::open(
        std::make_unique<RecordingBackend>(std::move(*file), log), {}));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* q = dynamic_cast<Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                              << " corrupt=" << chk->corruptions;
    // The next allocations: an L2 table and a data cluster.
    const auto data = pattern_bytes(9, kCs);
    ASSERT_TRUE(sync_wait(q->write(8_MiB, data)).ok());
    ASSERT_TRUE(sync_wait(q->close()).ok());
  }
  EXPECT_EQ(log.preads, 6u);
  EXPECT_EQ(log.digest, 0xf2f1856b131b0b80ull);
  const std::uint64_t l1 = peek_be64(b, 40);
  const std::uint64_t l2 = peek_be64(b, l1 + 4 * 8) & kOffsetMask;
  const std::uint64_t host = peek_be64(b, l2) & kOffsetMask;
  EXPECT_EQ(l2, 6 * kCs);
  EXPECT_EQ(host, 7 * kCs);
  EXPECT_EQ(b.size(), 8 * kCs);
  EXPECT_EQ(buffer_digest(b), 0x33050995a9222c88ull);

  auto r = sync_wait(open_image(store, "img"));
  ASSERT_TRUE(r.ok());
  auto* q = dynamic_cast<Qcow2Device*>(r->get());
  ASSERT_NE(q, nullptr);
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean());
  std::vector<std::uint8_t> out(kCs);
  ASSERT_TRUE(sync_wait(q->read(8_MiB, out)).ok());
  EXPECT_EQ(out, pattern_bytes(9, kCs));
}

}  // namespace
}  // namespace vmic::qcow2
