#include "crash/explore.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include "block/raw.hpp"
#include "crash/crash_backend.hpp"
#include "io/mem_backend.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/sparse_buffer.hpp"

namespace vmic::crash {

namespace {

constexpr std::size_t kNoFlush = ~std::size_t{0};

/// One scripted guest operation. The same list replays against every
/// crash point, so every run takes the identical path up to its cut.
struct GuestOp {
  enum class Kind { write, flush, zeroes, discard, read };
  Kind kind;
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  std::uint64_t tag = 0;  ///< pattern seed for writes
};

void fill_pattern(std::uint64_t tag, std::span<std::uint8_t> dst) {
  std::uint64_t sm = tag;
  for (auto& b : dst) b = static_cast<std::uint8_t>(splitmix64(sm));
}

std::vector<GuestOp> make_ops(const ExploreConfig& cfg) {
  std::vector<GuestOp> ops;
  Rng rng(cfg.seed ^ 0x0b5e55edull);
  const std::uint64_t cs = 1ull << cfg.cluster_bits;
  for (int i = 0; i < cfg.guest_ops; ++i) {
    const double roll = rng.uniform();
    if (roll < cfg.flush_probability) {
      ops.push_back({GuestOp::Kind::flush});
      continue;
    }
    if (cfg.cor_chain) {
      // Cache images reject guest writes; the workload that matters is
      // reads pulling clusters in through copy-on-read.
      const std::uint64_t len = 512 * rng.range(1, (2 * cs) / 512);
      const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
      ops.push_back({GuestOp::Kind::read, off, len});
      continue;
    }
    if (cfg.two_file) {
      // Overlay-over-cache: reads pull clusters into the cache (CoR
      // writes file 1), writes CoW into the overlay (writes file 2) —
      // both files mutate, so a shared cut exercises their interplay.
      const std::uint64_t len = 512 * rng.range(1, (2 * cs) / 512);
      const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
      if (rng.chance(0.5)) {
        ops.push_back({GuestOp::Kind::read, off, len});
      } else {
        ops.push_back({GuestOp::Kind::write, off, len, rng.next()});
      }
      continue;
    }
    if (roll < cfg.flush_probability + cfg.zero_probability ||
        roll < cfg.flush_probability + cfg.zero_probability +
                   cfg.discard_probability) {
      const bool zero = roll < cfg.flush_probability + cfg.zero_probability;
      // Cluster-aligned so the guest-visible effect is exactly
      // "range reads zero" in both the zero-flag and deallocation paths.
      const std::uint64_t clusters = rng.range(1, 3);
      const std::uint64_t off =
          cs * rng.below(cfg.image_size / cs - clusters + 1);
      ops.push_back({zero ? GuestOp::Kind::zeroes : GuestOp::Kind::discard, off,
                     clusters * cs});
      continue;
    }
    const std::uint64_t len = 512 * rng.range(1, (3 * cs) / 512);
    const std::uint64_t off = 512 * rng.below((cfg.image_size - len) / 512 + 1);
    ops.push_back({GuestOp::Kind::write, off, len, rng.next()});
  }
  // End on a barrier so the final crash point verifies the full content.
  ops.push_back({GuestOp::Kind::flush});
  return ops;
}

Result<void> create_image(SparseBuffer& disk, const ExploreConfig& cfg) {
  io::MemBackend direct(&disk);
  qcow2::Qcow2Device::CreateOptions copt;
  copt.virtual_size = cfg.image_size;
  copt.cluster_bits = cfg.cluster_bits;
  copt.journal_sectors = cfg.journal_sectors;
  if (cfg.cor_chain) {
    copt.backing_file = "base";
    copt.cache_quota = cfg.image_size * 4;
  }
  return sim::sync_wait(qcow2::Qcow2Device::create(direct, copt));
}

/// Two files: a copy-on-read cache over the raw base, and a CoW overlay
/// whose backing is the cache.
Result<void> create_two_file(SparseBuffer& cache_disk,
                             SparseBuffer& overlay_disk,
                             const ExploreConfig& cfg) {
  {
    io::MemBackend direct(&cache_disk);
    qcow2::Qcow2Device::CreateOptions copt;
    copt.virtual_size = cfg.image_size;
    copt.cluster_bits = cfg.cluster_bits;
    copt.journal_sectors = cfg.journal_sectors;
    copt.backing_file = "base";
    copt.cache_quota = cfg.image_size * 4;
    auto r = sim::sync_wait(qcow2::Qcow2Device::create(direct, copt));
    if (!r.ok()) return r;
  }
  io::MemBackend direct(&overlay_disk);
  qcow2::Qcow2Device::CreateOptions copt;
  copt.virtual_size = cfg.image_size;
  copt.cluster_bits = cfg.cluster_bits;
  copt.journal_sectors = cfg.journal_sectors;
  copt.backing_file = "cache";
  return sim::sync_wait(qcow2::Qcow2Device::create(direct, copt));
}

/// Base image content: splitmix noise. In cor_compress mode three
/// clusters in four become runs of 64 equal bytes, which the codec
/// shrinks; every fourth stays noise and is stored plain.
SparseBuffer make_base(const ExploreConfig& cfg) {
  SparseBuffer base;
  std::vector<std::uint8_t> tmp(64 * 1024);
  std::uint64_t sm = cfg.seed ^ 0xba5eba11ull;
  for (std::uint64_t off = 0; off < cfg.image_size; off += tmp.size()) {
    for (auto& b : tmp) b = static_cast<std::uint8_t>(splitmix64(sm));
    if (cfg.cor_compress) {
      for (std::size_t i = 0; i < tmp.size(); ++i) {
        if (((off + i) >> cfg.cluster_bits) % 4 != 3) {
          tmp[i] = tmp[i & ~std::size_t{63}];
        }
      }
    }
    base.write(off, tmp);
  }
  return base;
}

sim::Task<Result<block::DevicePtr>> open_base(SparseBuffer* buf,
                                              std::uint64_t size) {
  co_return block::RawDevice::open(
      io::BackendPtr{std::make_unique<io::MemBackend>(buf)}, size);
}

Result<block::DevicePtr> open_image(io::BackendPtr file,
                                    const ExploreConfig& cfg, SparseBuffer* base,
                                    bool auto_repair) {
  block::OpenOptions opt;
  opt.writable = true;
  opt.lazy_refcounts = cfg.lazy_refcounts;
  opt.auto_repair_dirty = auto_repair;
  opt.hub = cfg.hub;
  if (cfg.cor_chain) {
    opt.resolver = [base, size = cfg.image_size](const std::string&, bool) {
      return open_base(base, size);
    };
  }
  auto dev = sim::sync_wait(qcow2::Qcow2Device::open(std::move(file), opt));
  if (dev.ok() && cfg.cor_chain && cfg.cor_compress) {
    VMIC_TRY_VOID(
        static_cast<qcow2::Qcow2Device*>(dev->get())->set_cor_compress(true));
  }
  return dev;
}

/// Middle link of the two-file chain (everything by value: the coroutine
/// must not reference a resolver lambda that may be gone by resume time).
sim::Task<Result<block::DevicePtr>> open_cache_link(io::BackendPtr file,
                                                    std::uint64_t size,
                                                    SparseBuffer* base,
                                                    bool lazy, bool auto_repair,
                                                    obs::Hub* hub) {
  block::OpenOptions opt;
  opt.writable = true;
  opt.lazy_refcounts = lazy;
  opt.auto_repair_dirty = auto_repair;
  opt.hub = hub;
  opt.resolver = [base, size](const std::string&, bool) {
    return open_base(base, size);
  };
  co_return co_await qcow2::Qcow2Device::open(std::move(file), opt);
}

Result<block::DevicePtr> open_overlay_chain(io::BackendPtr overlay_file,
                                            io::BackendPtr cache_file,
                                            const ExploreConfig& cfg,
                                            SparseBuffer* base,
                                            bool auto_repair) {
  block::OpenOptions opt;
  opt.writable = true;
  opt.lazy_refcounts = cfg.lazy_refcounts;
  opt.auto_repair_dirty = auto_repair;
  opt.hub = cfg.hub;
  auto holder = std::make_shared<io::BackendPtr>(std::move(cache_file));
  opt.resolver = [holder, size = cfg.image_size, base,
                  lazy = cfg.lazy_refcounts, auto_repair,
                  hub = cfg.hub](const std::string&, bool) {
    return open_cache_link(std::move(*holder), size, base, lazy, auto_repair,
                           hub);
  };
  return sim::sync_wait(qcow2::Qcow2Device::open(std::move(overlay_file), opt));
}

struct RunOutcome {
  std::size_t completed = 0;  ///< guest ops that returned ok
  Errc err = Errc::ok;        ///< first failure (io_error = the cut)
};

RunOutcome run_ops(block::BlockDevice& dev, const std::vector<GuestOp>& ops,
                   const SparseBuffer* base) {
  auto& q = static_cast<qcow2::Qcow2Device&>(dev);
  RunOutcome out;
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> want;
  for (const GuestOp& op : ops) {
    Result<void> r = ok_result();
    switch (op.kind) {
      case GuestOp::Kind::write:
        buf.resize(op.len);
        fill_pattern(op.tag, buf);
        r = sim::sync_wait(dev.write(op.off, buf));
        break;
      case GuestOp::Kind::read:
        buf.resize(op.len);
        r = sim::sync_wait(dev.read(op.off, buf));
        if (r.ok() && base != nullptr) {
          // Pre-crash reads through the cache must already be faithful.
          want.resize(op.len);
          base->read(op.off, want);
          if (buf != want) r = Errc::corrupt;
        }
        break;
      case GuestOp::Kind::flush:
        r = sim::sync_wait(dev.flush());
        break;
      case GuestOp::Kind::zeroes:
        r = sim::sync_wait(q.write_zeroes(op.off, op.len));
        break;
      case GuestOp::Kind::discard:
        r = sim::sync_wait(q.discard(op.off, op.len));
        break;
    }
    if (!r.ok()) {
      out.err = r.error();
      return out;
    }
    ++out.completed;
  }
  return out;
}

/// Bytes of flush-covered guest data the reopened (repaired) image gets
/// wrong. In cor_chain mode every byte must match the base — lost CoR
/// fills are refetched through the backing chain, so there is no dirty
/// window at all.
std::uint64_t verify_content(block::BlockDevice& dev, const ExploreConfig& cfg,
                             const std::vector<GuestOp>& ops,
                             std::size_t completed, const SparseBuffer* base) {
  const auto n = static_cast<std::size_t>(cfg.image_size);
  std::vector<std::uint8_t> expect(n, 0);
  std::vector<std::uint8_t> dirty(n, 0);
  // Unwritten regions read as the base through the chain (or as zeros
  // standalone). A flush makes every guest op *before* it durable;
  // anything after the last completed flush (including the op the cut
  // interrupted) may hold old, new, or torn content — excluded from
  // comparison. Pure-read workloads (cor_chain) mark nothing dirty, so
  // every byte must match the base.
  if (base != nullptr) base->read(0, expect);
  std::size_t last_flush = kNoFlush;
  for (std::size_t i = 0; i < completed; ++i) {
    if (ops[i].kind == GuestOp::Kind::flush) last_flush = i;
  }
  const std::size_t attempted = std::min(completed + 1, ops.size());
  for (std::size_t i = 0; i < attempted; ++i) {
    const GuestOp& op = ops[i];
    if (op.kind == GuestOp::Kind::flush || op.kind == GuestOp::Kind::read) {
      continue;
    }
    if (last_flush != kNoFlush && i < last_flush) {
      if (op.kind == GuestOp::Kind::write) {
        fill_pattern(op.tag, {expect.data() + op.off,
                              static_cast<std::size_t>(op.len)});
      } else {
        std::memset(expect.data() + op.off, 0,
                    static_cast<std::size_t>(op.len));
      }
    } else {
      std::memset(dirty.data() + op.off, 1, static_cast<std::size_t>(op.len));
    }
  }
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint64_t mismatches = 0;
  for (std::size_t off = 0; off < n; off += buf.size()) {
    const std::size_t len = std::min(buf.size(), n - off);
    auto r = sim::sync_wait(dev.read(off, {buf.data(), len}));
    if (!r.ok()) {
      mismatches += len;
      continue;
    }
    for (std::size_t j = 0; j < len; ++j) {
      if (!dirty.empty() && dirty[off + j] != 0) continue;
      if (buf[j] != expect[off + j]) ++mismatches;
    }
  }
  return mismatches;
}

ExploreReport explore_two_file(const ExploreConfig& cfg);

}  // namespace

ExploreReport explore(const ExploreConfig& cfg) {
  assert(cfg.image_size % (1ull << cfg.cluster_bits) == 0);
  if (cfg.two_file) return explore_two_file(cfg);
  ExploreReport rep;
  rep.leaks_allowed = cfg.journal_sectors > 0;
  const std::vector<GuestOp> ops = make_ops(cfg);

  SparseBuffer base;
  if (cfg.cor_chain) base = make_base(cfg);
  SparseBuffer* base_p = cfg.cor_chain ? &base : nullptr;

  // Recording run: never cut, count the backend events the workload
  // produces. Every crash point k in [0, total] replays identically up to
  // its cut (k = total models a crash after the last op, before close).
  {
    SparseBuffer disk;
    if (!create_image(disk, cfg).ok()) {
      ++rep.replay_failures;
      return rep;
    }
    io::MemBackend inner(&disk);
    auto cb = std::make_unique<CrashBackend>(inner, CrashPlan{}, nullptr);
    CrashBackend* cbp = cb.get();
    auto dev = open_image(io::BackendPtr{std::move(cb)}, cfg, base_p,
                          /*auto_repair=*/true);
    if (!dev.ok()) {
      ++rep.replay_failures;
      return rep;
    }
    const RunOutcome out = run_ops(**dev, ops, base_p);
    if (out.err != Errc::ok) {
      ++rep.replay_failures;
      return rep;
    }
    rep.total_events = cbp->events();
  }

  std::vector<std::uint64_t> points;
  const std::uint64_t all = rep.total_events + 1;
  if (cfg.max_crash_points > 0 && all > cfg.max_crash_points) {
    for (std::uint64_t i = 0; i + 1 < cfg.max_crash_points; ++i) {
      points.push_back(i * all / cfg.max_crash_points);
    }
    points.push_back(rep.total_events);
  } else {
    for (std::uint64_t k = 0; k < all; ++k) points.push_back(k);
  }
  rep.crash_points = points.size();

  std::uint64_t fnv = 0xcbf29ce484222325ull;
  const auto mix = [&fnv](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (8 * i)) & 0xff;
      fnv *= 0x100000001b3ull;
    }
  };

  for (const std::uint64_t k : points) {
    bool point_ok = true;
    SparseBuffer disk;
    if (!create_image(disk, cfg).ok()) {
      ++rep.replay_failures;
      continue;
    }
    CrashStats cstats;
    std::size_t completed = 0;
    {
      io::MemBackend inner(&disk);
      auto cb = std::make_unique<CrashBackend>(
          inner, CrashPlan{.cut_after_events = k, .seed = cfg.seed}, cfg.hub);
      CrashBackend* cbp = cb.get();
      auto dev = open_image(io::BackendPtr{std::move(cb)}, cfg, base_p,
                            /*auto_repair=*/true);
      if (!dev.ok()) {
        ++rep.replay_failures;
        continue;
      }
      const RunOutcome out = run_ops(**dev, ops, base_p);
      completed = out.completed;
      if (out.err != Errc::ok && out.err != Errc::io_error) {
        ++rep.replay_failures;
        point_ok = false;
      }
      // Points at/after the workload's end: force the cut, then drop the
      // device without close() — the process just died.
      if (cbp->alive()) (void)sim::sync_wait(cbp->power_cut());
      cstats = cbp->stats();
    }
    rep.power_cuts += cstats.power_cuts;

    // Snapshot the crashed state before the primary repair mutates it —
    // the repair-of-repair loop below replays repair from this state.
    SparseBuffer crashed;
    if (cfg.crash_during_repair) crashed = disk.clone();

    auto reopened =
        open_image(io::BackendPtr{std::make_unique<io::MemBackend>(&disk)}, cfg,
                   base_p, /*auto_repair=*/false);
    if (!reopened.ok()) {
      ++rep.replay_failures;
      continue;
    }
    auto* q = static_cast<qcow2::Qcow2Device*>(reopened->get());
    if (q->dirty()) ++rep.dirty_images;

    const auto pre = sim::sync_wait(q->check());
    if (!pre.ok()) {
      ++rep.replay_failures;
      continue;
    }
    rep.pre_repair_corruptions += pre->corruptions;
    rep.pre_repair_leaks += pre->leaked_clusters;
    if (pre->corruptions != 0) point_ok = false;

    const auto fixed = sim::sync_wait(q->repair());
    if (!fixed.ok()) {
      ++rep.replay_failures;
      continue;
    }
    rep.entries_cleared += fixed->entries_cleared;
    rep.leaks_dropped += fixed->leaks_dropped;
    rep.corruptions_fixed += fixed->corruptions_fixed;
    if (fixed->journal_replayed) ++rep.journal_replays;
    if (fixed->journal_fallback) ++rep.journal_fallbacks;

    const auto post = sim::sync_wait(q->check());
    if (!post.ok()) {
      ++rep.replay_failures;
      continue;
    }
    rep.post_repair_corruptions += post->corruptions;
    rep.post_repair_leaks += post->leaked_clusters;
    if (post->corruptions != 0 ||
        (post->leaked_clusters != 0 && !rep.leaks_allowed)) {
      point_ok = false;
    }

    const std::uint64_t lost =
        verify_content(**reopened, cfg, ops, completed, base_p);
    rep.lost_flushed_bytes += lost;
    if (lost != 0) point_ok = false;
    (void)sim::sync_wait((*reopened)->close());

    // Repair-of-repair: the power can fail again at any instant of the
    // repair the crash forced. Replay that repair against a clone of the
    // crashed disk, cutting at every one of its own mutating events; the
    // half-repaired image must reopen, repair, and verify like any other
    // crash state.
    if (cfg.crash_during_repair) {
      for (std::uint64_t j = 0; j < 100000; ++j) {
        SparseBuffer rdisk = crashed.clone();
        bool cut_fired = false;
        {
          io::MemBackend rinner(&rdisk);
          auto rcb = std::make_unique<CrashBackend>(
              rinner,
              CrashPlan{.cut_after_events = j, .seed = cfg.seed ^ 0x5ec0ecull},
              nullptr);
          CrashBackend* rcbp = rcb.get();
          auto rdev = open_image(io::BackendPtr{std::move(rcb)}, cfg, base_p,
                                 /*auto_repair=*/true);
          if (rdev.ok()) {
            cut_fired = !rcbp->alive();
            // Drop without close(): the process died with the cut (or we
            // only cared about the repair window).
          } else if (rdev.error() == Errc::io_error) {
            cut_fired = true;
          } else {
            ++rep.replay_failures;
            point_ok = false;
            break;
          }
        }
        if (!cut_fired) break;  // repair ran to completion before event j
        ++rep.repair_crash_points;
        auto r2 = open_image(
            io::BackendPtr{std::make_unique<io::MemBackend>(&rdisk)}, cfg,
            base_p, /*auto_repair=*/true);
        if (!r2.ok()) {
          ++rep.replay_failures;
          point_ok = false;
          break;
        }
        auto* q2 = static_cast<qcow2::Qcow2Device*>(r2->get());
        const auto chk = sim::sync_wait(q2->check());
        if (!chk.ok()) {
          ++rep.replay_failures;
          point_ok = false;
          break;
        }
        rep.post_repair_corruptions += chk->corruptions;
        rep.post_repair_leaks += chk->leaked_clusters;
        if (chk->corruptions != 0 ||
            (chk->leaked_clusters != 0 && !rep.leaks_allowed)) {
          point_ok = false;
        }
        const std::uint64_t rlost =
            verify_content(**r2, cfg, ops, completed, base_p);
        rep.lost_flushed_bytes += rlost;
        if (rlost != 0) point_ok = false;
        (void)sim::sync_wait((*r2)->close());
      }
    }

    if (point_ok) ++rep.verified_points;
    mix(k);
    mix(cstats.writes_kept);
    mix(cstats.writes_dropped);
    mix(cstats.writes_torn);
    mix(pre->leaked_clusters);
    mix(pre->corruptions);
    mix(fixed->entries_cleared);
    mix(fixed->leaks_dropped);
    mix(fixed->corruptions_fixed);
    mix(lost);
    if (cfg.journal_sectors > 0) {
      mix(fixed->journal_replayed ? 1 : 0);
      mix(fixed->journal_entries);
    }
  }
  rep.digest = fnv;
  return rep;
}

namespace {

/// Two-file sweep: overlay + cache fall off the same power rail. The
/// invariants are the single-file ones on *both* images, plus content:
/// flushed guest writes survive in the overlay, and everything else must
/// still read as the base through the (repaired) chain.
ExploreReport explore_two_file(const ExploreConfig& cfg) {
  ExploreReport rep;
  rep.leaks_allowed = cfg.journal_sectors > 0;
  const std::vector<GuestOp> ops = make_ops(cfg);

  SparseBuffer base = make_base(cfg);

  // Recording run across the shared event clock.
  {
    SparseBuffer cache_disk;
    SparseBuffer overlay_disk;
    if (!create_two_file(cache_disk, overlay_disk, cfg).ok()) {
      ++rep.replay_failures;
      return rep;
    }
    CrashDomain dom;
    io::MemBackend cache_inner(&cache_disk);
    io::MemBackend overlay_inner(&overlay_disk);
    auto ccb = std::make_unique<CrashBackend>(cache_inner, dom);
    auto ocb = std::make_unique<CrashBackend>(overlay_inner, dom);
    auto dev = open_overlay_chain(io::BackendPtr{std::move(ocb)},
                                  io::BackendPtr{std::move(ccb)}, cfg, &base,
                                  /*auto_repair=*/true);
    if (!dev.ok()) {
      ++rep.replay_failures;
      return rep;
    }
    const RunOutcome out = run_ops(**dev, ops, nullptr);
    if (out.err != Errc::ok) {
      ++rep.replay_failures;
      return rep;
    }
    rep.total_events = dom.events;
  }

  std::vector<std::uint64_t> points;
  const std::uint64_t all = rep.total_events + 1;
  if (cfg.max_crash_points > 0 && all > cfg.max_crash_points) {
    for (std::uint64_t i = 0; i + 1 < cfg.max_crash_points; ++i) {
      points.push_back(i * all / cfg.max_crash_points);
    }
    points.push_back(rep.total_events);
  } else {
    for (std::uint64_t k = 0; k < all; ++k) points.push_back(k);
  }
  rep.crash_points = points.size();

  std::uint64_t fnv = 0xcbf29ce484222325ull;
  const auto mix = [&fnv](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fnv ^= (v >> (8 * i)) & 0xff;
      fnv *= 0x100000001b3ull;
    }
  };

  for (const std::uint64_t k : points) {
    bool point_ok = true;
    SparseBuffer cache_disk;
    SparseBuffer overlay_disk;
    if (!create_two_file(cache_disk, overlay_disk, cfg).ok()) {
      ++rep.replay_failures;
      continue;
    }
    CrashStats cache_stats;
    CrashStats overlay_stats;
    std::size_t completed = 0;
    {
      CrashDomain dom;
      dom.cut_after_events = k;
      dom.seed = cfg.seed;
      io::MemBackend cache_inner(&cache_disk);
      io::MemBackend overlay_inner(&overlay_disk);
      auto ccb = std::make_unique<CrashBackend>(cache_inner, dom, 512,
                                                cfg.hub);
      auto ocb = std::make_unique<CrashBackend>(overlay_inner, dom, 512,
                                                cfg.hub);
      CrashBackend* ccbp = ccb.get();
      CrashBackend* ocbp = ocb.get();
      auto dev = open_overlay_chain(io::BackendPtr{std::move(ocb)},
                                    io::BackendPtr{std::move(ccb)}, cfg, &base,
                                    /*auto_repair=*/true);
      if (!dev.ok()) {
        ++rep.replay_failures;
        continue;
      }
      const RunOutcome out = run_ops(**dev, ops, nullptr);
      completed = out.completed;
      if (out.err != Errc::ok && out.err != Errc::io_error) {
        ++rep.replay_failures;
        point_ok = false;
      }
      if (ocbp->alive()) (void)sim::sync_wait(ocbp->power_cut());
      cache_stats = ccbp->stats();
      overlay_stats = ocbp->stats();
      rep.power_cuts += 1;
    }

    auto reopened = open_overlay_chain(
        io::BackendPtr{std::make_unique<io::MemBackend>(&overlay_disk)},
        io::BackendPtr{std::make_unique<io::MemBackend>(&cache_disk)}, cfg,
        &base, /*auto_repair=*/false);
    if (!reopened.ok()) {
      ++rep.replay_failures;
      continue;
    }
    auto* overlay = static_cast<qcow2::Qcow2Device*>(reopened->get());
    auto* cache = static_cast<qcow2::Qcow2Device*>(overlay->backing());
    if (overlay->dirty()) ++rep.dirty_images;
    if (cache->dirty()) ++rep.dirty_images;

    bool failed = false;
    for (qcow2::Qcow2Device* q : {overlay, cache}) {
      const auto pre = sim::sync_wait(q->check());
      if (!pre.ok()) {
        ++rep.replay_failures;
        failed = true;
        break;
      }
      rep.pre_repair_corruptions += pre->corruptions;
      rep.pre_repair_leaks += pre->leaked_clusters;
      if (pre->corruptions != 0) point_ok = false;
      mix(pre->leaked_clusters);
      mix(pre->corruptions);

      const auto fixed = sim::sync_wait(q->repair());
      if (!fixed.ok()) {
        ++rep.replay_failures;
        failed = true;
        break;
      }
      rep.entries_cleared += fixed->entries_cleared;
      rep.leaks_dropped += fixed->leaks_dropped;
      rep.corruptions_fixed += fixed->corruptions_fixed;
      if (fixed->journal_replayed) ++rep.journal_replays;
      if (fixed->journal_fallback) ++rep.journal_fallbacks;
      mix(fixed->entries_cleared);
      mix(fixed->leaks_dropped);
      mix(fixed->corruptions_fixed);

      const auto post = sim::sync_wait(q->check());
      if (!post.ok()) {
        ++rep.replay_failures;
        failed = true;
        break;
      }
      rep.post_repair_corruptions += post->corruptions;
      rep.post_repair_leaks += post->leaked_clusters;
      if (post->corruptions != 0 ||
          (post->leaked_clusters != 0 && !rep.leaks_allowed)) {
        point_ok = false;
      }
    }
    if (failed) continue;

    const std::uint64_t lost =
        verify_content(**reopened, cfg, ops, completed, &base);
    rep.lost_flushed_bytes += lost;
    if (lost != 0) point_ok = false;
    (void)sim::sync_wait((*reopened)->close());

    if (point_ok) ++rep.verified_points;
    mix(k);
    mix(cache_stats.writes_kept + overlay_stats.writes_kept);
    mix(cache_stats.writes_dropped + overlay_stats.writes_dropped);
    mix(cache_stats.writes_torn + overlay_stats.writes_torn);
    mix(lost);
  }
  rep.digest = fnv;
  return rep;
}

}  // namespace

std::string to_json(const ExploreReport& r, const ExploreConfig& cfg) {
  std::string s = "{\n";
  const auto field = [&s](const char* k, std::uint64_t v, bool comma = true) {
    s += "  \"";
    s += k;
    s += "\": ";
    s += std::to_string(v);
    if (comma) s += ",";
    s += "\n";
  };
  field("seed", cfg.seed);
  field("cluster_bits", cfg.cluster_bits);
  field("image_size", cfg.image_size);
  field("guest_ops", static_cast<std::uint64_t>(cfg.guest_ops));
  field("lazy_refcounts", cfg.lazy_refcounts ? 1 : 0);
  field("cor_chain", cfg.cor_chain ? 1 : 0);
  if (cfg.cor_compress) field("cor_compress", 1);
  field("journal_sectors", cfg.journal_sectors);
  field("crash_during_repair", cfg.crash_during_repair ? 1 : 0);
  field("two_file", cfg.two_file ? 1 : 0);
  field("max_crash_points", cfg.max_crash_points);
  field("total_events", r.total_events);
  field("crash_points", r.crash_points);
  field("power_cuts", r.power_cuts);
  field("replay_failures", r.replay_failures);
  field("pre_repair_corruptions", r.pre_repair_corruptions);
  field("pre_repair_leaks", r.pre_repair_leaks);
  field("dirty_images", r.dirty_images);
  field("entries_cleared", r.entries_cleared);
  field("leaks_dropped", r.leaks_dropped);
  field("corruptions_fixed", r.corruptions_fixed);
  field("post_repair_corruptions", r.post_repair_corruptions);
  field("post_repair_leaks", r.post_repair_leaks);
  field("lost_flushed_bytes", r.lost_flushed_bytes);
  field("verified_points", r.verified_points);
  field("journal_replays", r.journal_replays);
  field("journal_fallbacks", r.journal_fallbacks);
  field("repair_crash_points", r.repair_crash_points);
  field("leaks_allowed", r.leaks_allowed ? 1 : 0);
  field("digest", r.digest);
  field("pass", r.pass() ? 1 : 0, /*comma=*/false);
  s += "}\n";
  return s;
}

}  // namespace vmic::crash
