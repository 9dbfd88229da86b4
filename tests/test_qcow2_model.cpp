// Randomized differential test of the QCOW2 driver (with the VMI-cache
// extension) against a flat in-memory reference model.
//
// The reference is trivial: a byte array initialized with the base
// image's content, updated on every guest write. The device under test
// is the paper's full chain — raw base <- cache image (quota'd,
// copy-on-read) <- CoW overlay — driven with a seeded random mix of
// reads and writes. Any translation, CoR-fill, COW, or quota bug shows
// up as a byte mismatch; the op log printed on failure replays the
// shortest prefix that matters (ops are independent given the model).
//
// Invariants checked after each run:
//  * every read returns exactly the model's bytes;
//  * the cache image's data growth is entirely copy-on-read:
//    cor_clusters * cluster_size == allocated_data_bytes;
//  * the cache never exceeds its quota (file high-water mark);
//  * metadata stays consistent (refcount walk finds no leaks/corruption).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "io/mem_store.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "qcow2/format.hpp"
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

/// Compressible base content: runs of repeated bytes mixed with literal
/// noise, the shape OS images actually have. Seeded and deterministic.
std::vector<std::uint8_t> mixed_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  Rng rng{seed};
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = std::min<std::size_t>(1 + rng.below(512), n - i);
    if (rng.chance(0.7)) {
      const auto b = static_cast<std::uint8_t>(rng.next());
      std::memset(v.data() + i, b, run);
    } else {
      for (std::size_t k = 0; k < run; ++k) {
        v[i + k] = static_cast<std::uint8_t>(rng.next());
      }
    }
    i += run;
  }
  return v;
}

struct ModelParams {
  std::uint64_t seed = 1;
  std::uint32_t cache_bits = 9;
  std::uint64_t quota = 2_MiB;
  int ops = 300;
  std::uint64_t image_size = 1_MiB;
  std::uint64_t max_op_len = 200 * 1024;
  /// Store CoR fills compressed (cache tier only).
  bool compress = false;
  /// Use compressible mixed content for the base instead of pure noise.
  bool compressible_base = false;
};

/// Run one seeded differential session. Uses ASSERT_* internally — call
/// via ASSERT_NO_FATAL_FAILURE.
void run_differential(const ModelParams& p) {
  MemImageStore store;

  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = p.compressible_base
                             ? mixed_bytes(p.seed ^ 0x9e3779b9, p.image_size)
                             : pattern_bytes(p.seed ^ 0x9e3779b9, p.image_size);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());

  auto c = sync_wait(create_cache_image(
      store, "vmi.cache", "base.img", p.quota,
      {.cluster_bits = p.cache_bits, .virtual_size = 0}));
  ASSERT_TRUE(c.ok()) << to_string(c.error());
  ASSERT_TRUE(sync_wait(create_cow_image(store, "vm.cow", "vmi.cache")).ok());
  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  if (p.compress) {
    auto* c0 = dynamic_cast<Qcow2Device*>((*dev)->backing());
    ASSERT_NE(c0, nullptr);
    ASSERT_TRUE(c0->set_cor_compress(true).ok());
  }

  // The flat reference: what a correct virtual disk must read as.
  std::vector<std::uint8_t> model = base_data;

  Rng rng{p.seed};
  std::string oplog = "seed=" + std::to_string(p.seed) +
                      " cluster=" + std::to_string(1u << p.cache_bits) +
                      " quota=" + std::to_string(p.quota) + "\n";
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < p.ops; ++i) {
    const std::uint64_t off = rng.below(p.image_size);
    const std::uint64_t len =
        1 + rng.below(std::min(p.image_size - off, p.max_op_len));
    if (rng.chance(0.35)) {
      oplog += "  op " + std::to_string(i) + ": write off=" +
               std::to_string(off) + " len=" + std::to_string(len) + "\n";
      const auto data = pattern_bytes(rng.next(), len);
      ASSERT_TRUE(sync_wait((*dev)->write(off, data)).ok()) << oplog;
      std::memcpy(model.data() + off, data.data(), len);
    } else {
      oplog += "  op " + std::to_string(i) + ": read off=" +
               std::to_string(off) + " len=" + std::to_string(len) + "\n";
      buf.assign(len, 0);
      ASSERT_TRUE(sync_wait((*dev)->read(off, buf)).ok()) << oplog;
      ASSERT_EQ(0, std::memcmp(buf.data(), model.data() + off, len))
          << oplog << "mismatch on read of [" << off << ", " << off + len
          << ")";
    }
  }

  // Full-image sweep: catches stale clusters the random walk missed.
  buf.assign(p.image_size, 0);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok()) << oplog;
  ASSERT_EQ(0, std::memcmp(buf.data(), model.data(), p.image_size)) << oplog;

  auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->is_cache_image());

  // CoR accounting invariant: the cache's data clusters exist only
  // because copy-on-read stored them. cor_bytes counts logical bytes in
  // both modes; the physical allocation matches it exactly when plain,
  // and can only shrink when compressed (payload packing).
  EXPECT_EQ(cache->stats().cor_bytes,
            cache->stats().cor_clusters * cache->cluster_size())
      << oplog;
  if (!p.compress) {
    EXPECT_EQ(cache->stats().cor_clusters * cache->cluster_size(),
              cache->allocated_data_bytes())
        << oplog;
  } else {
    EXPECT_LE(cache->allocated_data_bytes(),
              cache->stats().cor_clusters * cache->cluster_size())
        << oplog;
    auto cst = sync_wait(cache->compression_stats());
    ASSERT_TRUE(cst.ok());
    EXPECT_EQ(cst->logical_bytes, cst->compressed_clusters *
                                      cache->cluster_size())
        << oplog;
    EXPECT_LE(cst->physical_bytes, cst->logical_bytes) << oplog;
    if (p.compressible_base) {
      EXPECT_GT(cst->compressed_clusters, 0u) << oplog;
    }
  }

  // Quota is a hard bound on the cache file (§3: "maximum file size").
  EXPECT_LE(cache->file_bytes(), p.quota) << oplog;
  if (!cache->cor_active()) {
    EXPECT_EQ(cache->stats().cor_stopped, 1u) << oplog;
  }

  // Metadata consistency of both overlay and cache.
  auto cow_check = sync_wait(
      dynamic_cast<Qcow2Device*>(dev->get())->check());
  ASSERT_TRUE(cow_check.ok());
  EXPECT_TRUE(cow_check->clean())
      << oplog << "cow: leaked=" << cow_check->leaked_clusters
      << " corrupt=" << cow_check->corruptions;
  auto cache_check = sync_wait(cache->check());
  ASSERT_TRUE(cache_check.ok());
  EXPECT_TRUE(cache_check->clean())
      << oplog << "cache: leaked=" << cache_check->leaked_clusters
      << " corrupt=" << cache_check->corruptions;

  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, Small512Clusters) {
  // Paper's recommended cache geometry, roomy quota: CoR never stops.
  ASSERT_NO_FATAL_FAILURE(run_differential(
      {.seed = 101, .cache_bits = 9, .quota = 4_MiB, .ops = 300}));
}

TEST(Qcow2Model, Small512ClustersTightQuota) {
  // Quota far below the working set: ENOSPC mid-run, reads must keep
  // bypassing population correctly.
  ASSERT_NO_FATAL_FAILURE(run_differential(
      {.seed = 202, .cache_bits = 9, .quota = 256_KiB, .ops = 300}));
}

TEST(Qcow2Model, Default64KClusters) {
  // QEMU's default geometry: every CoR fill is cluster-expanded (the
  // Fig 9 amplification path).
  ASSERT_NO_FATAL_FAILURE(run_differential(
      {.seed = 303, .cache_bits = 16, .quota = 4_MiB, .ops = 200}));
}

TEST(Qcow2Model, Default64KClustersTightQuota) {
  ASSERT_NO_FATAL_FAILURE(run_differential(
      {.seed = 404, .cache_bits = 16, .quota = 512_KiB, .ops = 200}));
}

TEST(Qcow2Model, WriteHeavyMix) {
  // More writes than reads: stresses COW-over-cache interactions (the
  // overlay's clusters must win over both cache and base).
  ModelParams p{.seed = 505, .cache_bits = 9, .quota = 1_MiB, .ops = 400};
  p.max_op_len = 64 * 1024;
  ASSERT_NO_FATAL_FAILURE(run_differential(p));
}

TEST(Qcow2Model, Compressed4KClusters) {
  // Compressed CoR fills against the flat reference: translation,
  // payload packing and the physical-bytes accounting all run under the
  // same differential harness. The guest writes land in the CoW overlay;
  // writes over compressed clusters are covered by
  // WritesOverCompressedClusters below.
  ASSERT_NO_FATAL_FAILURE(run_differential({.seed = 707,
                                            .cache_bits = 12,
                                            .quota = 4_MiB,
                                            .ops = 300,
                                            .compress = true,
                                            .compressible_base = true}));
}

TEST(Qcow2Model, CompressedIncompressibleContent) {
  // Pure noise: every cluster falls back to the plain store — the mixed
  // plain/compressed bookkeeping must still balance exactly.
  ASSERT_NO_FATAL_FAILURE(run_differential({.seed = 808,
                                            .cache_bits = 12,
                                            .quota = 4_MiB,
                                            .ops = 200,
                                            .compress = true,
                                            .compressible_base = false}));
}

TEST(Qcow2Model, CompressedTightQuota) {
  // ENOSPC mid-run with packed payloads: the run stops at the quota edge
  // and reads keep bypassing population correctly.
  ASSERT_NO_FATAL_FAILURE(run_differential({.seed = 909,
                                            .cache_bits = 12,
                                            .quota = 256_KiB,
                                            .ops = 300,
                                            .compress = true,
                                            .compressible_base = true}));
}

TEST(Qcow2Model, Compressed64KClusters) {
  ASSERT_NO_FATAL_FAILURE(run_differential({.seed = 1010,
                                            .cache_bits = 16,
                                            .quota = 4_MiB,
                                            .ops = 150,
                                            .compress = true,
                                            .compressible_base = true}));
}

TEST(Qcow2Model, CompressedSurvivesReopen) {
  // Compressed clusters are an on-disk format feature, not a session
  // flag: a reopen that never calls set_cor_compress must still read
  // them, count them, and check clean.
  MemImageStore store;
  constexpr std::uint64_t kSize = 1_MiB;
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = mixed_bytes(42, kSize);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, "vmi.cache", "base.img", 4_MiB,
                  {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(sync_wait(create_cow_image(store, "vm.cow", "vmi.cache")).ok());

  std::uint64_t compressed = 0;
  {
    auto dev = sync_wait(open_image(store, "vm.cow"));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->set_cor_compress(true).ok());
    std::vector<std::uint8_t> buf(kSize, 0);
    ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());  // fill everything
    ASSERT_EQ(0, std::memcmp(buf.data(), base_data.data(), kSize));
    auto cst = sync_wait(cache->compression_stats());
    ASSERT_TRUE(cst.ok());
    compressed = cst->compressed_clusters;
    EXPECT_GT(compressed, 0u);
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }

  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);
  auto cst = sync_wait(cache->compression_stats());
  ASSERT_TRUE(cst.ok());
  EXPECT_EQ(cst->compressed_clusters, compressed);
  std::vector<std::uint8_t> buf(kSize, 0);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  EXPECT_EQ(0, std::memcmp(buf.data(), base_data.data(), kSize));
  auto chk = sync_wait(cache->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, CorruptCompressedPayloadRejected) {
  // A compressed cache built as in Compressed4KClusters, then one
  // payload's first token rewritten into a back-reference before the
  // start of its stream. The decoder must reject it on both read paths —
  // a whole-cluster read decodes straight into the caller's buffer, a
  // sub-cluster read into scratch — while the payloads packed around it
  // keep reading back intact.
  MemImageStore store;
  constexpr std::uint64_t kSize = 1_MiB;
  constexpr std::uint64_t kCluster = 4_KiB;
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = mixed_bytes(707 ^ 0x9e3779b9, kSize);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, "vmi.cache", "base.img", 4_MiB,
                  {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  ASSERT_TRUE(sync_wait(create_cow_image(store, "vm.cow", "vmi.cache")).ok());
  {
    auto dev = sync_wait(open_image(store, "vm.cow"));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->set_cor_compress(true).ok());
    std::vector<std::uint8_t> buf(kSize, 0);
    ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());  // fill everything
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }

  // Walk the cache's first L2 table for a compressed cluster whose two
  // neighbours are compressed too, and corrupt its payload: flag bit 0
  // set, then token 0x0000 = a 3-byte match at offset 1 with nothing
  // decoded yet.
  SparseBuffer* file = *store.buffer("vmi.cache");
  std::uint8_t hdr[kHeaderLength];
  file->read(0, hdr);
  const std::uint64_t l1_off = load_be64(hdr + 40);
  std::uint8_t l1e[8];
  file->read(l1_off, l1e);
  const std::uint64_t l2_off = load_be64(l1e) & kOffsetMask;
  ASSERT_NE(l2_off, 0u);
  std::vector<std::uint8_t> l2(kCluster);
  file->read(l2_off, l2);
  auto compressed = [&](std::uint64_t i) {
    return (load_be64(l2.data() + i * 8) & kFlagCompressed) != 0;
  };
  std::uint64_t victim = 0;
  for (std::uint64_t i = 1; i + 1 < kSize / kCluster; ++i) {
    if (compressed(i - 1) && compressed(i) && compressed(i + 1)) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "no compressed cluster with compressed neighbours";
  const Layout ly(12);
  const Layout::CompressedDesc d =
      ly.decode_compressed(load_be64(l2.data() + victim * 8));
  const std::uint8_t bad_token[3] = {0x01, 0x00, 0x00};
  file->write(d.offset, bad_token);

  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  const std::uint64_t at = victim * kCluster;
  std::vector<std::uint8_t> whole(kCluster);
  EXPECT_EQ(sync_wait((*dev)->read(at, whole)).error(), Errc::corrupt);
  std::vector<std::uint8_t> part(1536);
  EXPECT_EQ(sync_wait((*dev)->read(at + 512, part)).error(), Errc::corrupt);
  for (const std::uint64_t n : {victim - 1, victim + 1}) {
    ASSERT_TRUE(sync_wait((*dev)->read(n * kCluster, whole)).ok());
    EXPECT_EQ(0, std::memcmp(whole.data(), base_data.data() + n * kCluster,
                             kCluster))
        << "neighbour cluster " << n;
    ASSERT_TRUE(sync_wait((*dev)->read(n * kCluster + 512, part)).ok());
    EXPECT_EQ(0, std::memcmp(part.data(),
                             base_data.data() + n * kCluster + 512,
                             part.size()))
        << "neighbour cluster " << n;
  }
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, CompressRefusedOnJournaledImage) {
  // The refcount journal's replay assumes one reference per recorded
  // slot, which shared packing clusters break: turning compression on
  // must fail loudly, and fills must stay plain.
  MemImageStore store;
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = mixed_bytes(31, 256_KiB);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, "vmi.cache", "base.img", 4_MiB,
                  {.cluster_bits = 12, .virtual_size = 0,
                   .journal_sectors = 8}))
                  .ok());
  auto dev = sync_wait(open_image(store, "vmi.cache"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* cache = dynamic_cast<Qcow2Device*>(dev->get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->has_journal());
  EXPECT_EQ(cache->set_cor_compress(true).error(), Errc::unsupported);
  EXPECT_FALSE(cache->cor_compress());
  EXPECT_TRUE(cache->set_cor_compress(false).ok());
  std::vector<std::uint8_t> buf(base_data.size(), 0);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  EXPECT_EQ(buf, base_data);
  auto cst = sync_wait(cache->compression_stats());
  ASSERT_TRUE(cst.ok());
  EXPECT_EQ(cst->compressed_clusters, 0u);
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, CompressAcceptedOnPlainCache) {
  MemImageStore store;
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = mixed_bytes(32, 256_KiB);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, "vmi.cache", "base.img", 4_MiB,
                  {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  auto dev = sync_wait(open_image(store, "vmi.cache"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* cache = dynamic_cast<Qcow2Device*>(dev->get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->set_cor_compress(true).ok());
  EXPECT_TRUE(cache->cor_compress());
  std::vector<std::uint8_t> buf(base_data.size(), 0);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  EXPECT_EQ(buf, base_data);
  auto cst = sync_wait(cache->compression_stats());
  ASSERT_TRUE(cst.ok());
  EXPECT_GT(cst->compressed_clusters, 0u);
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

/// A standalone image whose clusters are compressed payloads packed into
/// shared host clusters, the layout `qemu-img convert -c` writes: a cache
/// filled by compressed copy-on-read from `base_data`, whose header area
/// is then rewritten without the cache extension and the backing name.
/// Writes over its clusters take the guest-write path, not copy-on-read.
void make_compressed_image(MemImageStore& store, const std::string& name,
                           const std::vector<std::uint8_t>& base_data) {
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, name, "base.img", 8_MiB,
                  {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  {
    auto dev = sync_wait(open_image(store, name));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* cache = dynamic_cast<Qcow2Device*>(dev->get());
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->set_cor_compress(true).ok());
    std::vector<std::uint8_t> buf(base_data.size(), 0);
    ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  SparseBuffer* file = *store.buffer(name);
  std::vector<std::uint8_t> area(4_KiB);
  file->read(0, area);
  auto parsed = parse_header_area(area);
  ASSERT_TRUE(parsed.ok());
  Header h = parsed->h;
  h.backing_file_offset = 0;
  h.backing_file_size = 0;
  std::fill(area.begin(), area.end(), std::uint8_t{0});
  write_header_area(h, std::nullopt, std::nullopt, "", area);
  file->write(0, area);
  store.remove("base.img");
}

/// Raw on-disk L2 entries of the image's first L2 table.
std::vector<std::uint64_t> first_l2_table(MemImageStore& store,
                                          const std::string& name) {
  SparseBuffer* file = *store.buffer(name);
  std::uint8_t hdr[kHeaderLength];
  file->read(0, hdr);
  std::uint8_t l1e[8];
  file->read(load_be64(hdr + 40), l1e);
  std::vector<std::uint8_t> raw(4_KiB);
  file->read(load_be64(l1e) & kOffsetMask, raw);
  std::vector<std::uint64_t> out(raw.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = load_be64(raw.data() + i * 8);
  }
  return out;
}

/// On-disk refcount of host cluster `idx` (4 KiB clusters).
std::uint16_t refcount_of(MemImageStore& store, const std::string& name,
                          std::uint64_t idx) {
  SparseBuffer* file = *store.buffer(name);
  std::uint8_t hdr[kHeaderLength];
  file->read(0, hdr);
  const Layout ly(12);
  std::uint8_t rte[8];
  file->read(load_be64(hdr + 48) + idx / ly.refcounts_per_block() * 8, rte);
  std::uint8_t rc[2];
  file->read((load_be64(rte) & kOffsetMask) +
                 idx % ly.refcounts_per_block() * 2,
             rc);
  return load_be16(rc);
}

void expect_image_matches(block::BlockDevice& dev,
                          const std::vector<std::uint8_t>& model,
                          const std::string& log) {
  std::vector<std::uint8_t> buf(model.size(), 0);
  ASSERT_TRUE(sync_wait(dev.read(0, buf)).ok()) << log;
  ASSERT_EQ(0, std::memcmp(buf.data(), model.data(), model.size())) << log;
  auto chk = sync_wait(static_cast<Qcow2Device&>(dev).check());
  ASSERT_TRUE(chk.ok()) << log;
  ASSERT_TRUE(chk->clean()) << log << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

TEST(Qcow2Model, WritesOverCompressedClusters) {
  // Partial writes, write_zeroes and discard over a standalone image full
  // of packed compressed clusters, against the flat reference. A write
  // replaces a compressed cluster with a plain one (edges from the old
  // payload); zeroing and discarding drop the reference. Without a backing
  // image, discard deallocates whole clusters and ignores fragments.
  constexpr std::uint64_t kSize = 1_MiB;
  constexpr std::uint64_t kCluster = 4_KiB;
  MemImageStore store;
  const auto base_data = mixed_bytes(1111, kSize);
  ASSERT_NO_FATAL_FAILURE(make_compressed_image(store, "img", base_data));
  auto dev = sync_wait(open_image(store, "img"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* q = dynamic_cast<Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  ASSERT_FALSE(q->is_cache_image());
  auto before = sync_wait(q->check());
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->compressed_clusters, kSize / kCluster / 2);

  std::vector<std::uint8_t> model = base_data;
  ASSERT_NO_FATAL_FAILURE(expect_image_matches(**dev, model, "initial"));
  Rng rng{1111};
  std::string log;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t off = rng.below(kSize - 1);
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(
                                      kSize - off, 3 * kCluster));
    const std::uint64_t kind = rng.below(3);
    log += "op " + std::to_string(i) + " kind=" + std::to_string(kind) +
           " off=" + std::to_string(off) + " len=" + std::to_string(len) +
           "\n";
    if (kind == 0) {
      const auto data = pattern_bytes(rng.next(), len);
      ASSERT_TRUE(sync_wait((*dev)->write(off, data)).ok()) << log;
      std::memcpy(model.data() + off, data.data(), len);
    } else if (kind == 1) {
      ASSERT_TRUE(sync_wait(q->write_zeroes(off, len)).ok()) << log;
      std::memset(model.data() + off, 0, len);
    } else {
      ASSERT_TRUE(sync_wait(q->discard(off, len)).ok()) << log;
      const std::uint64_t lo = (off + kCluster - 1) / kCluster * kCluster;
      const std::uint64_t hi = (off + len) / kCluster * kCluster;
      if (hi > lo) std::memset(model.data() + lo, 0, hi - lo);
    }
    ASSERT_NO_FATAL_FAILURE(expect_image_matches(**dev, model, log));
  }
  auto after = sync_wait(q->check());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->compressed_clusters, before->compressed_clusters);
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());

  // The result survives a reopen.
  auto again = sync_wait(open_image(store, "img"));
  ASSERT_TRUE(again.ok());
  ASSERT_NO_FATAL_FAILURE(expect_image_matches(**again, model, "reopened"));
}

TEST(Qcow2Model, SharedPackingClusterFreedByLastSharer) {
  // Find the host cluster that packs the most compressed payloads, then make
  // its sharers leave one at a time — a partial write, a whole-cluster
  // write_zeroes, a discard, in turn. The host cluster's refcount must
  // count the sharers left, and drop to zero only when the last leaves.
  constexpr std::uint64_t kSize = 1_MiB;
  constexpr std::uint64_t kCluster = 4_KiB;
  MemImageStore store;
  const auto base_data = mixed_bytes(2222, kSize);
  ASSERT_NO_FATAL_FAILURE(make_compressed_image(store, "img", base_data));

  const Layout ly(12);
  const auto l2 = first_l2_table(store, "img");
  std::map<std::uint64_t, std::vector<std::uint64_t>> sharers;
  for (std::uint64_t i = 0; i < kSize / kCluster; ++i) {
    if ((l2[i] & kFlagCompressed) == 0) continue;
    sharers[ly.decode_compressed(l2[i]).offset / kCluster].push_back(i);
  }
  std::uint64_t host = 0;
  std::vector<std::uint64_t> guests;
  for (const auto& [h, g] : sharers) {
    if (g.size() > guests.size()) {
      host = h;
      guests = g;
    }
  }
  ASSERT_GE(guests.size(), 3u) << "no host cluster packs three payloads";
  ASSERT_EQ(refcount_of(store, "img", host), guests.size());

  auto dev = sync_wait(open_image(store, "img"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* q = dynamic_cast<Qcow2Device*>(dev->get());
  std::vector<std::uint8_t> model = base_data;
  for (std::size_t k = 0; k < guests.size(); ++k) {
    const std::uint64_t at = guests[k] * kCluster;
    const std::string log = "sharer " + std::to_string(k);
    switch (k % 3) {
      case 0: {
        const auto data = pattern_bytes(k, 1000);
        ASSERT_TRUE(sync_wait(q->write(at + 700, data)).ok()) << log;
        std::memcpy(model.data() + at + 700, data.data(), data.size());
        break;
      }
      case 1:
        ASSERT_TRUE(sync_wait(q->write_zeroes(at, kCluster)).ok()) << log;
        std::memset(model.data() + at, 0, kCluster);
        break;
      default:
        ASSERT_TRUE(sync_wait(q->discard(at, kCluster)).ok()) << log;
        std::memset(model.data() + at, 0, kCluster);
        break;
    }
    EXPECT_EQ(refcount_of(store, "img", host), guests.size() - k - 1) << log;
    ASSERT_NO_FATAL_FAILURE(expect_image_matches(**dev, model, log));
  }
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, JournalRoundTrip) {
  // Differential session on a journaled chain (both cache and overlay
  // carry a refcount journal, deliberately tiny so checkpoints fire
  // mid-run), then close and reopen: content must match the model, the
  // journal must survive the round trip, and both images must check
  // clean — a clean close retires every record.
  MemImageStore store;
  constexpr std::uint64_t kSize = 1_MiB;
  auto base = store.create_file("base.img");
  ASSERT_TRUE(base.ok());
  const auto base_data = pattern_bytes(606 ^ 0x9e3779b9, kSize);
  ASSERT_TRUE(sync_wait((*base)->pwrite(0, base_data)).ok());
  ASSERT_TRUE(sync_wait(create_cache_image(
                  store, "vmi.cache", "base.img", 4_MiB,
                  {.cluster_bits = 9, .virtual_size = 0,
                   .journal_sectors = 8}))
                  .ok());
  ASSERT_TRUE(sync_wait(create_cow_image(
                  store, "vm.cow", "vmi.cache",
                  {.cluster_bits = 16, .virtual_size = 0,
                   .journal_sectors = 8}))
                  .ok());

  std::vector<std::uint8_t> model = base_data;
  {
    auto dev = sync_wait(open_image(store, "vm.cow"));
    ASSERT_TRUE(dev.ok()) << to_string(dev.error());
    auto* cow = dynamic_cast<Qcow2Device*>(dev->get());
    ASSERT_NE(cow, nullptr);
    ASSERT_TRUE(cow->has_journal());
    EXPECT_EQ(cow->journal_sector_count(), 8u);
    Rng rng{606};
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t off = rng.below(kSize);
      const std::uint64_t len =
          1 + rng.below(std::min<std::uint64_t>(kSize - off, 64_KiB));
      if (rng.chance(0.5)) {
        const auto data = pattern_bytes(rng.next(), len);
        ASSERT_TRUE(sync_wait((*dev)->write(off, data)).ok());
        std::memcpy(model.data() + off, data.data(), len);
      } else {
        buf.assign(len, 0);
        ASSERT_TRUE(sync_wait((*dev)->read(off, buf)).ok());
        ASSERT_EQ(0, std::memcmp(buf.data(), model.data() + off, len));
      }
    }
    // The 8-sector journal fills after 7 records: the run above must have
    // checkpointed at least once for the round trip to mean anything.
    EXPECT_GT(cow->journal_generation(), 1u);
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }

  auto dev = sync_wait(open_image(store, "vm.cow"));
  ASSERT_TRUE(dev.ok()) << to_string(dev.error());
  auto* cow = dynamic_cast<Qcow2Device*>(dev->get());
  ASSERT_NE(cow, nullptr);
  ASSERT_TRUE(cow->has_journal());
  EXPECT_FALSE(cow->dirty());
  std::vector<std::uint8_t> buf(kSize, 0);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  ASSERT_EQ(0, std::memcmp(buf.data(), model.data(), kSize));
  auto cow_check = sync_wait(cow->check());
  ASSERT_TRUE(cow_check.ok());
  EXPECT_TRUE(cow_check->clean())
      << "cow: leaked=" << cow_check->leaked_clusters
      << " corrupt=" << cow_check->corruptions;
  auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->has_journal());
  auto cache_check = sync_wait(cache->check());
  ASSERT_TRUE(cache_check.ok());
  EXPECT_TRUE(cache_check->clean())
      << "cache: leaked=" << cache_check->leaked_clusters
      << " corrupt=" << cache_check->corruptions;
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
}

TEST(Qcow2Model, DeterministicAcrossRuns) {
  // Same seed, two sessions: identical device-level counters. Guards the
  // generator (and the driver) against hidden nondeterminism.
  auto run_counters = [](std::uint64_t seed) {
    MemImageStore store;
    auto base = store.create_file("base.img");
    EXPECT_TRUE(base.ok());
    const auto data = pattern_bytes(seed, 256_KiB);
    EXPECT_TRUE(sync_wait((*base)->pwrite(0, data)).ok());
    EXPECT_TRUE(sync_wait(create_cache_image(store, "c", "base.img", 1_MiB,
                                             {.cluster_bits = 9,
                                              .virtual_size = 0}))
                    .ok());
    EXPECT_TRUE(sync_wait(create_cow_image(store, "w", "c")).ok());
    auto dev = sync_wait(open_image(store, "w"));
    EXPECT_TRUE(dev.ok());
    Rng rng{seed};
    std::vector<std::uint8_t> buf;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t off = rng.below(256_KiB);
      const std::uint64_t len = 1 + rng.below(256_KiB - off);
      buf.assign(len, 0);
      EXPECT_TRUE(sync_wait((*dev)->read(off, buf)).ok());
    }
    auto* cache = dynamic_cast<Qcow2Device*>((*dev)->backing());
    return std::pair<std::uint64_t, std::uint64_t>(
        cache->stats().cor_clusters, cache->stats().backing_reads);
  };
  EXPECT_EQ(run_counters(7), run_counters(7));
}

}  // namespace
}  // namespace vmic::qcow2
