// Failure-injection tests: the block layer must propagate (not mask, not
// crash on) backend I/O errors, and a failing cache medium must degrade
// to pass-through reads rather than failing the guest.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "io/mem_store.hpp"
#include "io_log.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "qcow2/format.hpp"
#include "qcow2/journal.hpp"
#include "sim/task.hpp"
#include "util/align.hpp"
#include "util/bytes.hpp"
#include "util/units.hpp"

namespace vmic {
namespace {

using sim::sync_wait;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;

/// Backend wrapper that starts failing after a programmable number of
/// operations (reads and writes counted separately).
class FaultyBackend final : public io::BlockBackend {
 public:
  FaultyBackend(io::BackendPtr inner, std::int64_t reads_before_fail,
                std::int64_t writes_before_fail)
      : inner_(std::move(inner)),
        reads_left_(reads_before_fail),
        writes_left_(writes_before_fail) {}

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    if (reads_left_-- <= 0) co_return Errc::io_error;
    co_return co_await inner_->pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    if (writes_left_-- <= 0) co_return Errc::io_error;
    co_return co_await inner_->pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    co_return co_await inner_->flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    co_return co_await inner_->truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::string describe() const override { return "faulty"; }

 private:
  io::BackendPtr inner_;
  std::int64_t reads_left_;
  std::int64_t writes_left_;
};

/// Directory that wraps every opened file in a FaultyBackend.
class FaultyStore final : public io::ImageDirectory {
 public:
  explicit FaultyStore(io::MemImageStore& inner) : inner_(inner) {}

  std::int64_t reads_before_fail = 1'000'000'000;
  std::int64_t writes_before_fail = 1'000'000'000;
  std::string faulty_file;  // only this file misbehaves ("" = none)

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(be, inner_.open_file(name, writable));
    if (name == faulty_file) {
      return io::BackendPtr{std::make_unique<FaultyBackend>(
          std::move(be), reads_before_fail, writes_before_fail)};
    }
    return io::BackendPtr{std::move(be)};
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

struct Rig {
  io::MemImageStore mem;
  FaultyStore store{mem};

  Rig() {
    auto be = mem.create_file("base.img");
    EXPECT_TRUE(be.ok());
    std::vector<std::uint8_t> data(4_MiB, 0x5A);
    EXPECT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
    EXPECT_TRUE(
        sync_wait(qcow2::create_cache_image(mem, "vmi.cache", "base.img",
                                            2_MiB, {.cluster_bits = 9,
                                                    .virtual_size = 0}))
            .ok());
    EXPECT_TRUE(
        sync_wait(qcow2::create_cow_image(mem, "vm.cow", "vmi.cache")).ok());
  }
};

TEST(FaultInjection, BaseReadFailurePropagates) {
  Rig rig;
  rig.store.faulty_file = "base.img";
  // Budget 1: the open-time format probe succeeds, the first real read
  // against the base fails.
  rig.store.reads_before_fail = 1;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  std::vector<std::uint8_t> buf(64_KiB);
  EXPECT_EQ(sync_wait((*dev)->read(0, buf)).error(), Errc::io_error);
}

TEST(FaultInjection, DeadBaseFailsOpen) {
  // A base that cannot even be probed fails the chain open cleanly.
  Rig rig;
  rig.store.faulty_file = "base.img";
  rig.store.reads_before_fail = 0;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error(), Errc::io_error);
}

TEST(FaultInjection, CacheWriteFailureDegradesToPassThrough) {
  // A cache that cannot be written must not fail the guest read: the
  // driver stops populating and serves from the base (same path as the
  // quota ENOSPC case).
  Rig rig;
  rig.store.faulty_file = "vmi.cache";
  rig.store.writes_before_fail = 0;  // CoR writes fail immediately
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  auto* cache = dynamic_cast<qcow2::Qcow2Device*>((*dev)->backing());
  ASSERT_NE(cache, nullptr);

  std::vector<std::uint8_t> buf(64_KiB);
  ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
  for (auto b : buf) ASSERT_EQ(b, 0x5A);
  EXPECT_FALSE(cache->cor_active());
  // Subsequent reads keep working (pass-through, no more cache writes).
  ASSERT_TRUE(sync_wait((*dev)->read(1_MiB, buf)).ok());
  for (auto b : buf) ASSERT_EQ(b, 0x5A);
}

TEST(FaultInjection, WarmCacheReadFailureSurfaces) {
  Rig rig;
  // Warm the cache fault-free first.
  {
    auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
    ASSERT_TRUE(dev.ok());
    std::vector<std::uint8_t> buf(1_MiB);
    ASSERT_TRUE(sync_wait((*dev)->read(0, buf)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  // Now the cache medium dies shortly after open: warm reads that hit the
  // cache surface the error.
  rig.store.faulty_file = "vmi.cache";
  rig.store.reads_before_fail = 30;  // enough for open-time metadata
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  if (!dev.ok()) {
    EXPECT_EQ(dev.error(), Errc::io_error);
    return;
  }
  std::vector<std::uint8_t> buf(64_KiB);
  Errc last = Errc::ok;
  for (int i = 0; i < 16 && last == Errc::ok; ++i) {
    last = sync_wait((*dev)->read(static_cast<std::uint64_t>(i) * buf.size(),
                                  buf))
               .error();
  }
  EXPECT_EQ(last, Errc::io_error);
}

TEST(FaultInjection, CowWriteFailurePropagates) {
  Rig rig;
  rig.store.faulty_file = "vm.cow";
  rig.store.writes_before_fail = 0;
  auto dev = sync_wait(qcow2::open_image(rig.store, "vm.cow"));
  ASSERT_TRUE(dev.ok());
  std::vector<std::uint8_t> data(4_KiB, 1);
  EXPECT_EQ(sync_wait((*dev)->write(0, data)).error(), Errc::io_error);
  // Reads still work (they don't touch the failing write path).
  std::vector<std::uint8_t> buf(4_KiB);
  EXPECT_TRUE(sync_wait((*dev)->read(1_MiB, buf)).ok());
}

TEST(FaultInjection, TruncatedImageFileRejected) {
  io::MemImageStore store;
  {
    auto be = store.create_file("img.qcow2");
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  (*store.buffer("img.qcow2"))->resize(50);  // decapitate
  auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
  EXPECT_FALSE(dev.ok());
}

TEST(FaultInjection, CorruptL1PointerDetectedByCheck) {
  io::MemImageStore store;
  {
    auto be = store.create_file("img.qcow2");
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 4_MiB;
    opt.cluster_bits = 12;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  {
    auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
    ASSERT_TRUE(dev.ok());
    std::vector<std::uint8_t> data(64_KiB, 7);
    ASSERT_TRUE(sync_wait((*dev)->write(0, data)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  // Corrupt the first L1 entry: point it past the end of the file.
  {
    auto* buf = *store.buffer("img.qcow2");
    std::uint8_t hdr[104];
    buf->read(0, hdr);
    const std::uint64_t l1_off = load_be64(hdr + 40);
    std::uint8_t evil[8];
    store_be64(evil, (1ull << 40) | (1ull << 63));
    buf->write(l1_off, evil);
  }
  auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_GT(chk->corruptions, 0u);
}

// --------------------------------------------------------------------------
// Single-call failure sweep: every failure exit of the cluster-store path
// must free what it took and leave the in-memory tables describing the
// file. Two operations run over a fresh image whose file fails exactly one
// call — each pwrite index and each flush index of a fault-free run in
// turn — a failed guest write is retried once, then a follow-up operation
// runs, and the image must still check clean (no leaked cluster, no
// corruption). Closed and reopened fault-free, it must map the same
// clusters, read back every acknowledged write and check clean again.
// Among the cases: the plain write's pwrite 3 and 6 (64 KiB clusters) are
// its L1-entry and L2-entry publishes; the refcount-block write's pwrite 4
// and 5 are the new block and its refcount-table entry.
// --------------------------------------------------------------------------

/// Counts the pwrite and flush calls of one file and fails exactly one:
/// call number `at` (0-based) of kind `kind`; at < 0 fails none. With
/// `log` set, every call of the file is also recorded there.
struct OneFault {
  enum class Kind { pwrite, flush };
  Kind kind = Kind::pwrite;
  std::int64_t at = -1;
  std::int64_t pwrites = 0;
  std::int64_t flushes = 0;
  testutil::IoLog* log = nullptr;
};

class OneFaultBackend final : public io::BlockBackend {
 public:
  OneFaultBackend(io::BackendPtr inner, OneFault* fault)
      : inner_(std::move(inner)), fault_(fault) {}

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    co_return co_await inner_->pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    if (hit(OneFault::Kind::pwrite, fault_->pwrites++)) {
      co_return Errc::io_error;
    }
    co_return co_await inner_->pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    if (hit(OneFault::Kind::flush, fault_->flushes++)) {
      co_return Errc::io_error;
    }
    co_return co_await inner_->flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    co_return co_await inner_->truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] std::string describe() const override { return "one-fault"; }

 private:
  [[nodiscard]] bool hit(OneFault::Kind kind, std::int64_t index) const {
    return fault_->kind == kind && fault_->at == index;
  }

  io::BackendPtr inner_;
  OneFault* fault_;
};

/// Directory that puts a OneFaultBackend under one file.
class OneFaultStore final : public io::ImageDirectory {
 public:
  OneFaultStore(io::MemImageStore& inner, std::string file, OneFault* fault)
      : inner_(inner), file_(std::move(file)), fault_(fault) {}

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(be, inner_.open_file(name, writable));
    if (name != file_) return io::BackendPtr{std::move(be)};
    io::BackendPtr faulty =
        std::make_unique<OneFaultBackend>(std::move(be), fault_);
    if (fault_->log == nullptr) return faulty;
    return io::BackendPtr{std::make_unique<testutil::RecordingBackend>(
        std::move(faulty), *fault_->log)};
  }
  Result<io::BackendPtr> create_file(const std::string& name) override {
    return inner_.create_file(name);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }

 private:
  io::MemImageStore& inner_;
  std::string file_;
  OneFault* fault_;
};

enum class StoreOp {
  cow_write,
  cor_fill,
  compressed_fill,
  refcount_block_write,  ///< a guest write that needs a new refcount block
  refcount_table_write,  ///< a guest write that grows the refcount table
  /// The same growth on an image with a 2-sector refcount journal, which
  /// checkpoints on nearly every allocation.
  journaled_table_write,
  /// A CoR fill of a 512 B-cluster cache that needs a new refcount block
  /// (a fill is never retried: a failed one stops population).
  refcount_block_fill,
};

constexpr std::uint64_t kSweepImage = 1_MiB;

/// The guest writes of a write sweep: two that may fail, then the
/// follow-up that must succeed.
struct WritePlan {
  std::uint64_t len;
  std::uint64_t off[2];
  std::uint64_t follow_up;
};

WritePlan write_plan(StoreOp op) {
  switch (op) {
    case StoreOp::refcount_block_write:
      return {8_KiB, {512_KiB, 768_KiB}, 256_KiB};
    case StoreOp::refcount_table_write:
    case StoreOp::journaled_table_write:
      return {8_KiB, {12_MiB, 13_MiB}, 14_MiB};
    default:
      return {4_KiB, {0, 512_KiB}, 256_KiB};
  }
}

/// Base content: three 4 KiB clusters in four are 64-byte runs of one
/// byte value (compressible), every fourth is noise.
std::vector<std::uint8_t> sweep_base() {
  std::vector<std::uint8_t> v(kSweepImage);
  std::uint64_t x = 0x5eed;
  for (std::size_t i = 0; i < v.size(); ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const bool run = (i >> 12) % 4 != 3 && i % 64 != 0;
    v[i] = run ? v[i - 1] : static_cast<std::uint8_t>(x >> 56);
  }
  return v;
}

/// The bytes of a plain image of 512 B clusters whose guest data, written
/// from offset 0 fault-free, has grown the file to at least `fill` bytes
/// (built once per argument set).
const std::vector<std::uint8_t>& filled_plain_image(
    std::uint64_t virtual_size, std::uint64_t expected_file_size,
    std::uint64_t fill, std::uint32_t journal_sectors = 0) {
  static std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             std::uint32_t>,
                  std::vector<std::uint8_t>>
      built;
  auto& bytes =
      built[{virtual_size, expected_file_size, fill, journal_sectors}];
  if (!bytes.empty()) return bytes;
  io::MemImageStore mem;
  auto be = mem.create_file("img.qcow2");
  EXPECT_TRUE(be.ok());
  qcow2::Qcow2Device::CreateOptions opt;
  opt.virtual_size = virtual_size;
  opt.cluster_bits = 9;
  opt.expected_file_size = expected_file_size;
  opt.journal_sectors = journal_sectors;
  EXPECT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  auto dev = sync_wait(qcow2::open_image(mem, "img.qcow2"));
  EXPECT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  const std::vector<std::uint8_t> data(512, 0x3C);
  for (std::uint64_t off = 0; q->file_bytes() < fill; off += data.size()) {
    EXPECT_TRUE(sync_wait(q->write(off, data)).ok());
  }
  EXPECT_TRUE(sync_wait((*dev)->close()).ok());
  const SparseBuffer& file = **mem.buffer("img.qcow2");
  bytes.resize(file.size());
  file.read(0, bytes);
  return bytes;
}

/// The bytes of a 512 B-cluster cache over `base` whose copy-on-read fills,
/// read from offset 0 fault-free, have grown the file to at least 250
/// clusters (built once).
const std::vector<std::uint8_t>& filled_cache_image(
    const std::vector<std::uint8_t>& base) {
  static std::vector<std::uint8_t> bytes;
  if (!bytes.empty()) return bytes;
  io::MemImageStore mem;
  auto be = mem.create_file("base.img");
  EXPECT_TRUE(be.ok());
  EXPECT_TRUE(sync_wait((*be)->pwrite(0, base)).ok());
  EXPECT_TRUE(sync_wait(qcow2::create_cache_image(
                            mem, "vmi.cache", "base.img", 2_MiB,
                            {.cluster_bits = 9, .virtual_size = 0}))
                  .ok());
  auto dev = sync_wait(qcow2::open_image(mem, "vmi.cache"));
  EXPECT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  std::vector<std::uint8_t> buf(512);
  for (std::uint64_t off = 0; q->file_bytes() < 250 * 512; off += 512) {
    EXPECT_TRUE(sync_wait(q->read(off, buf)).ok());
  }
  EXPECT_TRUE(sync_wait((*dev)->close()).ok());
  const SparseBuffer& file = **mem.buffer("vmi.cache");
  bytes.resize(file.size());
  file.read(0, bytes);
  return bytes;
}

/// Fresh images for `op` in `mem`; returns the file the fault targets.
std::string make_sweep_images(StoreOp op, io::MemImageStore& mem,
                              const std::vector<std::uint8_t>& base) {
  if (op == StoreOp::refcount_block_write ||
      op == StoreOp::refcount_table_write ||
      op == StoreOp::journaled_table_write) {
    // 512 B clusters: a refcount block covers 256 clusters, a one-cluster
    // refcount table 64 blocks (8 MiB of file). The block image holds 250
    // clusters, so the 8 KiB write's 17 new ones need block 1; the table
    // images (one-cluster table) end 8 clusters short of 8 MiB, so their
    // first write needs block 64 and a larger table.
    const std::uint32_t journal =
        op == StoreOp::journaled_table_write ? 2 : 0;
    const auto& image =
        op == StoreOp::refcount_block_write
            ? filled_plain_image(kSweepImage, 0, 250 * 512)
            : filled_plain_image(16_MiB, 1_MiB, 8_MiB - 8 * 512, journal);
    auto be = mem.create_file("img.qcow2");
    EXPECT_TRUE(be.ok());
    EXPECT_TRUE(sync_wait((*be)->pwrite(0, image)).ok());
    return "img.qcow2";
  }
  if (op == StoreOp::cow_write) {
    auto be = mem.create_file("img.qcow2");
    EXPECT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = kSweepImage;
    opt.cluster_bits = 16;
    EXPECT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
    return "img.qcow2";
  }
  auto be = mem.create_file("base.img");
  EXPECT_TRUE(be.ok());
  EXPECT_TRUE(sync_wait((*be)->pwrite(0, base)).ok());
  if (op == StoreOp::refcount_block_fill) {
    // The second fill's 19 clusters at 512 KiB need a new L2 table and,
    // past cluster 255, refcount block 1.
    auto cache = mem.create_file("vmi.cache");
    EXPECT_TRUE(cache.ok());
    EXPECT_TRUE(sync_wait((*cache)->pwrite(0, filled_cache_image(base))).ok());
    return "vmi.cache";
  }
  EXPECT_TRUE(sync_wait(qcow2::create_cache_image(
                            mem, "vmi.cache", "base.img", 8_MiB,
                            {.cluster_bits = 12, .virtual_size = 0}))
                  .ok());
  return "vmi.cache";
}

/// Which clusters of `q` are allocated, one flag per cluster.
std::vector<bool> allocation_map(qcow2::Qcow2Device& q) {
  std::vector<bool> out;
  for (std::uint64_t v = 0; v < q.size(); v += q.cluster_size()) {
    auto a = sync_wait(q.is_allocated(v));
    EXPECT_TRUE(a.ok());
    out.push_back(a.ok() && *a);
  }
  return out;
}

/// How run_store_ops drives a write sweep. `retry`: both writes of the
/// plan, a failed one retried once, then the follow-up. `once`: the first
/// write only, with no retry and no follow-up, so the reopened image shows
/// exactly what a failed write left behind (a retry takes the same
/// clusters again and rewrites their counts).
enum class Drive { retry, once };

/// Two operations (either may fail; a failed guest write is retried
/// once), then a follow-up that must succeed, then check(), then a close
/// and a fault-free reopen that must agree with what the device
/// acknowledged. `counted` receives the pwrite/flush counts after the two
/// operations. Drive::once makes one guest write instead (see Drive).
void run_store_ops(StoreOp op, OneFault* fault, OneFault* counted,
                   Drive drive = Drive::retry) {
  const auto base = sweep_base();
  io::MemImageStore mem;
  const std::string file = make_sweep_images(op, mem, base);
  OneFaultStore store{mem, file, fault};
  auto dev = sync_wait(qcow2::open_image(store, file));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  std::vector<std::uint8_t> buf;
  // Guest writes the device acknowledged: offset -> bytes.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> acked;
  const bool fill = op == StoreOp::cor_fill ||
                    op == StoreOp::compressed_fill ||
                    op == StoreOp::refcount_block_fill;
  if (!fill) {
    const WritePlan plan = write_plan(op);
    const std::vector<std::uint8_t> data(plan.len, 0xA1);
    const std::size_t writes = drive == Drive::once ? 1 : 2;
    for (std::size_t k = 0; k < writes; ++k) {
      const std::uint64_t off = plan.off[k];
      if (sync_wait(q->write(off, data)).ok() ||
          (drive == Drive::retry && sync_wait(q->write(off, data)).ok())) {
        acked.emplace_back(off, data);
      }
    }
  } else {
    if (op == StoreOp::compressed_fill) {
      ASSERT_TRUE(q->set_cor_compress(true).ok());
    }
    // A failed store stops population; the guest reads still succeed.
    for (const auto& [off, len] :
         {std::pair<std::uint64_t, std::uint64_t>{1000, 6_KiB},
          {512_KiB + 3000, 9000}}) {
      buf.resize(len);
      ASSERT_TRUE(sync_wait(q->read(off, buf)).ok());
      ASSERT_EQ(0, std::memcmp(buf.data(), base.data() + off, len));
    }
  }
  *counted = *fault;
  // The recorded size (what a cache's quota bounds and close() persists)
  // never counts clusters past the end of the file; a compressed payload
  // may end the file inside its last cluster.
  EXPECT_LE(q->file_bytes(),
            align_up((**mem.buffer(file)).size(), q->cluster_size()));
  if (!fill && drive == Drive::retry) {
    const std::uint64_t at = write_plan(op).follow_up;
    const std::vector<std::uint8_t> more(4_KiB, 0xB2);
    ASSERT_TRUE(sync_wait(q->write(at, more)).ok());
    acked.emplace_back(at, more);
    buf.resize(more.size());
    ASSERT_TRUE(sync_wait(q->read(at, buf)).ok());
    EXPECT_EQ(buf, more);
  } else if (fill) {
    buf.resize(12_KiB);
    ASSERT_TRUE(sync_wait(q->read(256_KiB + 100, buf)).ok());
    ASSERT_EQ(0, std::memcmp(buf.data(), base.data() + 256_KiB + 100,
                             buf.size()));
  }
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  if (drive == Drive::retry) {
    EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                              << " corrupt=" << chk->corruptions;
  } else {
    // A replaced refcount table whose release failed stays counted until
    // close() retries the release, so only the reopen must be leak-free.
    EXPECT_EQ(chk->corruptions, 0u);
  }
  const std::vector<bool> mapped = allocation_map(*q);
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  dev->reset();

  auto again = sync_wait(qcow2::open_image(mem, file, /*writable=*/false));
  ASSERT_TRUE(again.ok());
  auto* r = dynamic_cast<qcow2::Qcow2Device*>(again->get());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(allocation_map(*r), mapped);
  for (const auto& [off, bytes] : acked) {
    buf.resize(bytes.size());
    ASSERT_TRUE(sync_wait(r->read(off, buf)).ok());
    EXPECT_EQ(buf, bytes) << "acknowledged write at " << off << " lost";
  }
  chk = sync_wait(r->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "reopened: leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  EXPECT_LE(r->file_bytes(),
            align_up((**mem.buffer(file)).size(), r->cluster_size()));
}

/// A resize from 1 MiB to 2 GiB that moves the L1 table of a 4 KiB-cluster
/// image into two new clusters (it may fail; a failure is retried once,
/// which must succeed), then a write only the new table can map, then
/// check(), then a close and a fault-free reopen that must see the new
/// size and both writes.
void run_l1_relocation(OneFault* fault, OneFault* counted) {
  constexpr std::uint64_t kNewSize = 2048_MiB;
  io::MemImageStore mem;
  const std::vector<std::uint8_t> first(4_KiB, 0xC3);
  {
    auto be = mem.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.cluster_bits = 12;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
    auto dev = sync_wait(qcow2::open_image(mem, "img.qcow2"));
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(sync_wait((*dev)->write(0, first)).ok());
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  OneFaultStore store{mem, "img.qcow2", fault};
  auto dev = sync_wait(qcow2::open_image(store, "img.qcow2"));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  if (!sync_wait(q->resize(kNewSize)).ok()) {
    ASSERT_TRUE(sync_wait(q->resize(kNewSize)).ok());
  }
  *counted = *fault;
  EXPECT_EQ(q->size(), kNewSize);
  EXPECT_LE(q->file_bytes(), (**mem.buffer("img.qcow2")).size());
  const std::vector<std::uint8_t> last(4_KiB, 0xD4);
  ASSERT_TRUE(sync_wait(q->write(kNewSize - 4_KiB, last)).ok());
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
  ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  dev->reset();

  auto again =
      sync_wait(qcow2::open_image(mem, "img.qcow2", /*writable=*/false));
  ASSERT_TRUE(again.ok());
  auto* r = dynamic_cast<qcow2::Qcow2Device*>(again->get());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), kNewSize);
  std::vector<std::uint8_t> buf(4_KiB);
  ASSERT_TRUE(sync_wait(r->read(0, buf)).ok());
  EXPECT_EQ(buf, first);
  ASSERT_TRUE(sync_wait(r->read(kNewSize - 4_KiB, buf)).ok());
  EXPECT_EQ(buf, last);
  chk = sync_wait(r->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "reopened: leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

/// Run `run` fault-free to count its pwrites and flushes, then once per
/// pwrite and once per flush with that one call failing.
template <typename Run>
void sweep_single_faults(Run run) {
  OneFault none;
  OneFault total;
  ASSERT_NO_FATAL_FAILURE(run(&none, &total));
  ASSERT_GT(total.pwrites, 3);
  ASSERT_GT(total.flushes, 1);
  for (const auto kind : {OneFault::Kind::pwrite, OneFault::Kind::flush}) {
    const std::int64_t n =
        kind == OneFault::Kind::pwrite ? total.pwrites : total.flushes;
    for (std::int64_t at = 0; at < n; ++at) {
      SCOPED_TRACE((kind == OneFault::Kind::pwrite ? "pwrite " : "flush ") +
                   std::to_string(at));
      OneFault fault{.kind = kind, .at = at};
      OneFault counted;
      ASSERT_NO_FATAL_FAILURE(run(&fault, &counted));
    }
  }
}

void sweep_single_faults(StoreOp op, Drive drive = Drive::retry) {
  sweep_single_faults([op, drive](OneFault* fault, OneFault* counted) {
    run_store_ops(op, fault, counted, drive);
  });
}

TEST(FaultInjection, CowWriteFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::cow_write);
}

TEST(FaultInjection, CorFillFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::cor_fill);
}

TEST(FaultInjection, CompressedCorFillFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::compressed_fill);
}

TEST(FaultInjection, RefcountBlockWriteFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::refcount_block_write);
}

TEST(FaultInjection, RefcountTableGrowthFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::refcount_table_write);
}

TEST(FaultInjection, JournaledRefcountTableGrowthFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::journaled_table_write);
}

TEST(FaultInjection, RefcountBlockFillFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(StoreOp::refcount_block_fill);
}

TEST(FaultInjection, L1RelocationFreesWhatItTookOnAnyFailure) {
  sweep_single_faults(run_l1_relocation);
}

// The same refcount sweeps without the retry: whatever counts a failed
// allocation already wrote to the file (a new refcount block is written
// whole from the in-memory counts, a journal checkpoint writes dirty
// blocks back) must be taken back there too, or the reopened image leaks.

TEST(FaultInjection, RefcountBlockWriteFreesWhatItTookWithoutRetry) {
  sweep_single_faults(StoreOp::refcount_block_write, Drive::once);
}

TEST(FaultInjection, RefcountTableGrowthFreesWhatItTookWithoutRetry) {
  sweep_single_faults(StoreOp::refcount_table_write, Drive::once);
}

TEST(FaultInjection, JournaledRefcountTableGrowthFreesWhatItTookWithoutRetry) {
  sweep_single_faults(StoreOp::journaled_table_write, Drive::once);
}

// --------------------------------------------------------------------------
// Pinned refcount-path calls. The fault-free runs of the refcount sweeps
// above, an L1 relocation, lazy refcounts and packed compressed payloads
// must make the same pwrite, flush and truncate calls (kind, offset,
// length and bytes, in order): every path that changes a cluster count
// is fixed by one of them. Each case records one file from open to close.
// --------------------------------------------------------------------------

struct CallPin {
  std::uint64_t pwrites;
  std::uint64_t flushes;
  std::uint64_t truncates;
  std::uint64_t writes;  ///< IoLog::writes
};

void expect_calls(const testutil::IoLog& log, const CallPin& pin) {
  EXPECT_EQ(log.pwrites, pin.pwrites);
  EXPECT_EQ(log.flushes, pin.flushes);
  EXPECT_EQ(log.truncates, pin.truncates);
  EXPECT_EQ(log.writes, pin.writes) << std::hex << "0x" << log.writes;
}

/// The calls of run_store_ops' fault-free run of `op`.
void expect_store_op_calls(StoreOp op, const CallPin& pin) {
  testutil::IoLog log;
  OneFault none{.log = &log};
  OneFault counted;
  ASSERT_NO_FATAL_FAILURE(run_store_ops(op, &none, &counted));
  expect_calls(log, pin);
}

TEST(Qcow2RefcountCalls, NewRefcountBlock) {
  // The 8 KiB write at 512 KiB creates refcount block 1.
  expect_store_op_calls(StoreOp::refcount_block_write,
                        {23, 11, 0, 0xfb5a8d3f37684455ull});
}

TEST(Qcow2RefcountCalls, RefcountTableGrowth) {
  // The 8 KiB write at 12 MiB grows the refcount table and releases the
  // old one.
  expect_store_op_calls(StoreOp::refcount_table_write,
                        {27, 13, 0, 0xf09906ba311cf829ull});
}

TEST(Qcow2RefcountCalls, JournaledRefcountTableGrowth) {
  expect_store_op_calls(StoreOp::journaled_table_write,
                        {47, 22, 0, 0xeb8893474864a51cull});
}

TEST(Qcow2RefcountCalls, L1Relocation) {
  testutil::IoLog log;
  OneFault none{.log = &log};
  OneFault counted;
  ASSERT_NO_FATAL_FAILURE(run_l1_relocation(&none, &counted));
  expect_calls(log, {13, 8, 0, 0x837355cfb1da18edull});
}

TEST(Qcow2RefcountCalls, LazyDecrementsPersistAtClose) {
  // The refcount-block image opened with lazy refcounts: the 8 KiB write
  // at 512 KiB creates refcount block 1, a discard and a write_zeroes
  // free clusters counted in both blocks (the decrements stay in memory),
  // and the clean close writes both blocks back.
  io::MemImageStore mem;
  {
    const auto& image = filled_plain_image(kSweepImage, 0, 250 * 512);
    auto be = mem.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    ASSERT_TRUE(sync_wait((*be)->pwrite(0, image)).ok());
  }
  testutil::IoLog log;
  {
    auto file = mem.open_file("img.qcow2", /*writable=*/true);
    ASSERT_TRUE(file.ok());
    block::OpenOptions oo;
    oo.lazy_refcounts = true;
    auto dev = sync_wait(qcow2::Qcow2Device::open(
        std::make_unique<testutil::RecordingBackend>(std::move(*file), log),
        oo));
    ASSERT_TRUE(dev.ok());
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    const std::vector<std::uint8_t> data(8_KiB, 0xA1);
    ASSERT_TRUE(sync_wait(q->write(512_KiB, data)).ok());
    ASSERT_TRUE(sync_wait(q->discard(512_KiB + 2_KiB, 4_KiB)).ok());
    ASSERT_TRUE(sync_wait(q->write_zeroes(16_KiB, 8_KiB)).ok());
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                              << " corrupt=" << chk->corruptions;
    ASSERT_TRUE(sync_wait(q->close()).ok());
  }
  expect_calls(log, {15, 9, 0, 0xd3daf5dc0260fd21ull});
  auto again =
      sync_wait(qcow2::open_image(mem, "img.qcow2", /*writable=*/false));
  ASSERT_TRUE(again.ok());
  auto* r = dynamic_cast<qcow2::Qcow2Device*>(again->get());
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->dirty());
  auto chk = sync_wait(r->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "reopened: leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

TEST(Qcow2RefcountCalls, PackedCompressedPayloads) {
  // A compressed CoR fill of the sweep cache packs several payloads into
  // each host cluster, and every payload after a cluster's first raises
  // its count in place. Made standalone (no cache extension, no backing
  // file), the image then takes a write over one packed cluster, which
  // drops that payload's count.
  const auto base = sweep_base();
  io::MemImageStore mem;
  const std::string file =
      make_sweep_images(StoreOp::compressed_fill, mem, base);
  testutil::IoLog fill_log;
  {
    OneFault none{.log = &fill_log};
    OneFaultStore store{mem, file, &none};
    auto dev = sync_wait(qcow2::open_image(store, file));
    ASSERT_TRUE(dev.ok());
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    ASSERT_TRUE(q->set_cor_compress(true).ok());
    std::vector<std::uint8_t> buf(64_KiB);
    ASSERT_TRUE(sync_wait(q->read(0, buf)).ok());
    ASSERT_EQ(0, std::memcmp(buf.data(), base.data(), buf.size()));
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean());
    // Fewer host clusters than guest clusters: payloads share.
    ASSERT_LT(chk->data_clusters, buf.size() / 4_KiB);
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  expect_calls(fill_log, {33, 6, 0, 0x26b9c7f03a3e4f69ull});

  SparseBuffer& bytes = **mem.buffer(file);
  std::vector<std::uint8_t> area(4_KiB);
  bytes.read(0, area);
  auto parsed = qcow2::parse_header_area(area);
  ASSERT_TRUE(parsed.ok());
  qcow2::Header h = parsed->h;
  h.backing_file_offset = 0;
  h.backing_file_size = 0;
  std::fill(area.begin(), area.end(), std::uint8_t{0});
  qcow2::write_header_area(h, std::nullopt, std::nullopt, "", area);
  bytes.write(0, area);

  testutil::IoLog write_log;
  {
    OneFault none{.log = &write_log};
    OneFaultStore store{mem, file, &none};
    auto dev = sync_wait(qcow2::open_image(store, file));
    ASSERT_TRUE(dev.ok());
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
    ASSERT_NE(q, nullptr);
    ASSERT_FALSE(q->is_cache_image());
    const std::vector<std::uint8_t> data(1_KiB, 0xE5);
    ASSERT_TRUE(sync_wait(q->write(4_KiB + 512, data)).ok());
    auto chk = sync_wait(q->check());
    ASSERT_TRUE(chk.ok());
    EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                              << " corrupt=" << chk->corruptions;
    ASSERT_TRUE(sync_wait((*dev)->close()).ok());
  }
  expect_calls(write_log, {6, 6, 0, 0xb35774a2b5b4c14eull});
}

TEST(FaultInjection, FailedL2ZeroFillKeepsCacheSizeWithinTheFile) {
  // The first CoR fill of a 4 KiB-cluster cache allocates its L2 table at
  // the end of the file; its zero fill (pwrite 2, after the dirty bit and
  // the table's refcount) fails. The fill stops population, the guest
  // read succeeds, and the cache size must not count the cluster the
  // failed write never created.
  const auto base = sweep_base();
  io::MemImageStore mem;
  const std::string file = make_sweep_images(StoreOp::cor_fill, mem, base);
  OneFault fault{.kind = OneFault::Kind::pwrite, .at = 2};
  OneFaultStore store{mem, file, &fault};
  auto dev = sync_wait(qcow2::open_image(store, file));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  const std::uint64_t before = (**mem.buffer(file)).size();
  std::vector<std::uint8_t> buf(6_KiB);
  ASSERT_TRUE(sync_wait(q->read(1000, buf)).ok());
  ASSERT_EQ(0, std::memcmp(buf.data(), base.data() + 1000, buf.size()));
  EXPECT_FALSE(q->cor_active());
  EXPECT_EQ(q->l2_table_bytes(), 0u);
  EXPECT_EQ((**mem.buffer(file)).size(), before);
  EXPECT_LE(q->file_bytes(), before);
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_TRUE(chk->clean()) << "leaked=" << chk->leaked_clusters
                            << " corrupt=" << chk->corruptions;
}

TEST(FaultInjection, CheckCountsAReferenceCountPastEndOfFileAsALeak) {
  // A dirty journaled 4 KiB-cluster image whose journal durably counts
  // two clusters past the end of the file. The refcount blocks cannot put
  // a count there (the loaded mirror is sized to the file), but an
  // unrepaired image's journal overlays its counts, and this record's
  // reference slot (the L1 entry after the last one in use) points at
  // the first of them. Nothing check() walks references those clusters:
  // it must report them as leaks, not corruption.
  io::MemImageStore mem;
  {
    auto be = mem.create_file("img.qcow2");
    ASSERT_TRUE(be.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1_MiB;
    opt.cluster_bits = 12;
    opt.journal_sectors = 4;
    ASSERT_TRUE(sync_wait(qcow2::Qcow2Device::create(**be, opt)).ok());
  }
  SparseBuffer& file = **mem.buffer("img.qcow2");
  const std::uint64_t file_size = file.size();
  ASSERT_EQ(file_size % 4_KiB, 0u);
  std::vector<std::uint8_t> head(4_KiB);
  file.read(0, head);
  auto ph = qcow2::parse_header_area(head);
  ASSERT_TRUE(ph.ok());
  ASSERT_TRUE(ph->journal.has_value());
  std::vector<std::uint8_t> sector(qcow2::kJournalSectorSize);
  file.read(ph->journal->offset, sector);
  qcow2::JournalHeader jh;
  ASSERT_TRUE(qcow2::decode_journal_header(sector, jh));
  const std::uint64_t slot =
      ph->h.l1_table_offset + std::uint64_t{ph->h.l1_size} * 8;
  ASSERT_LT(slot % 4_KiB, 4_KiB - 8);  // inside the L1 table's cluster
  std::uint8_t be8[8];
  store_be64(be8, file_size);
  file.write(slot, be8);
  qcow2::JournalRecord rec;
  rec.flags = qcow2::kJournalOpAlloc | qcow2::kJournalRefRun;
  rec.generation = jh.generation;
  rec.first_cluster = file_size / 4_KiB;
  rec.count = 2;
  rec.ref_off = slot;
  qcow2::encode_journal_record(rec, sector);
  file.write(ph->journal->offset + qcow2::kJournalSectorSize, sector);
  store_be64(be8, ph->h.incompatible_features | qcow2::kIncompatDirty);
  file.write(72, be8);

  // Read-only: no repair runs, so check() sees the image as it is.
  auto dev = sync_wait(qcow2::open_image(mem, "img.qcow2", /*writable=*/false));
  ASSERT_TRUE(dev.ok());
  auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->get());
  ASSERT_NE(q, nullptr);
  auto chk = sync_wait(q->check());
  ASSERT_TRUE(chk.ok());
  EXPECT_EQ(q->file_bytes(), file_size + 2 * 4_KiB);
  EXPECT_EQ(chk->leaked_clusters, 2u);
  EXPECT_EQ(chk->corruptions, 0u);
}

}  // namespace
}  // namespace vmic
