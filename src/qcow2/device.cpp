#include "qcow2/device.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <limits>

#include "block/raw.hpp"
#include "qcow2/journal.hpp"
#include "util/align.hpp"
#include "util/bytes.hpp"
#include "util/compress.hpp"
#include "util/log.hpp"

namespace vmic::qcow2 {

namespace {

/// Serialise host-endian u64 entries to a big-endian byte buffer.
void pack_be64(const std::uint64_t* src, std::size_t n,
               std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) store_be64(out + i * 8, src[i]);
}

// The loops below run outside coroutine bodies on purpose: GCC keeps a
// coroutine's locals in its heap frame, so a per-entry loop written inline
// in one costs a memory round trip per step.

/// One past the last non-zero entry of `t`. Tables are sized for growth,
/// so their tail is mostly zero: test 32 entries per branch (the OR loop
/// vectorises), then find the entry.
std::size_t nonzero_prefix(const std::vector<std::uint64_t>& t) {
  const std::uint64_t* e = t.data();
  std::size_t n = t.size();
  while (n >= 32) {
    std::uint64_t any = 0;
    for (std::size_t k = n - 32; k < n; ++k) any |= e[k];
    if (any != 0) break;
    n -= 32;
  }
  while (n > 0 && e[n - 1] == 0) --n;
  return n;
}

/// The bytes of `t`, for reading a table from disk straight into it.
std::span<std::uint8_t> table_bytes(std::vector<std::uint64_t>& t) {
  return {reinterpret_cast<std::uint8_t*>(t.data()), t.size() * 8};
}

/// Turn big-endian entries read into `t` into host order, in place (the
/// inverse of pack_be64). Zero reads the same in either byte order, so
/// only the prefix up to the last non-zero entry needs converting.
void be64_to_host(std::vector<std::uint64_t>& t) {
  const std::size_t n = nonzero_prefix(t);
  const std::uint8_t* b = table_bytes(t).data();
  for (std::size_t i = 0; i < n; ++i) t[i] = load_be64(b + i * 8);
}

/// Make the first `n` 16-bit entries of a refcount block read 1 and the
/// rest 0, given that only its first `set` entries are non-zero now: the
/// cost follows the entries that change, not the block size.
void set_leading_refcounts(std::span<std::uint8_t> block, std::uint64_t n,
                           std::uint64_t set) {
  for (std::uint64_t k = set; k < n; ++k) store_be16(block.data() + k * 2, 1);
  if (set > n) std::memset(block.data() + n * 2, 0, (set - n) * 2);
}

/// A count change that needs no write now.
sim::Task<Result<void>> no_write() { co_return ok_result(); }

/// Copy the mirror entries that exist from `first` into refcount block
/// `block`, which is zero (the inverse of unpack_refcounts).
void pack_refcounts(const std::vector<std::uint16_t>& mirror,
                    std::uint64_t first, std::span<std::uint8_t> block) {
  if (first >= mirror.size()) return;
  const std::uint64_t n =
      std::min<std::uint64_t>(block.size() / 2, mirror.size() - first);
  for (std::uint64_t k = 0; k < n; ++k) {
    store_be16(block.data() + k * 2, mirror[first + k]);
  }
}

/// Copy refcount block `block`, which covers clusters from `first`, into
/// the mirror entries that exist.
void unpack_refcounts(std::span<const std::uint8_t> block, std::uint64_t first,
                      std::vector<std::uint16_t>& mirror) {
  if (first >= mirror.size()) return;
  const std::uint64_t n =
      std::min<std::uint64_t>(block.size() / 2, mirror.size() - first);
  for (std::uint64_t k = 0; k < n; ++k) {
    mirror[first + k] = load_be16(block.data() + k * 2);
  }
}

}  // namespace

// ===========================================================================
// create
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::create(io::BlockBackend& file,
                                            CreateOptions opt) {
  if (opt.virtual_size == 0) co_return Errc::invalid_argument;
  if (opt.cluster_bits < kMinClusterBits ||
      opt.cluster_bits > kMaxClusterBits) {
    co_return Errc::invalid_argument;
  }
  if (opt.backing_file.size() > 1023) co_return Errc::invalid_argument;
  if (file.read_only()) co_return Errc::read_only;

  const Layout ly{opt.cluster_bits};
  const std::uint64_t cs = ly.cluster_size();
  // The L1 table must stay within the limit open() enforces.
  if (opt.virtual_size > kMaxL1Bytes / 8 * ly.bytes_per_l2()) {
    co_return Errc::invalid_argument;
  }

  std::optional<CacheExtension> cache;
  if (opt.cache_quota != 0) {
    cache = CacheExtension{opt.cache_quota, 0};
  }
  std::optional<JournalExtension> journal;
  if (opt.journal_sectors != 0) {
    if (opt.journal_sectors < 2) co_return Errc::invalid_argument;
    // Offset is filled in below once the layout is known; the header-area
    // size only depends on the extension's presence.
    journal = JournalExtension{
        0, std::uint64_t{opt.journal_sectors} * kJournalSectorSize};
  }

  const std::uint64_t header_bytes =
      header_area_size(cache, journal, opt.backing_file);
  const std::uint64_t header_clusters = div_ceil(header_bytes, cs);

  const std::uint32_t l1_entries = ly.l1_entries_for(opt.virtual_size);
  const std::uint64_t l1_clusters =
      div_ceil(std::uint64_t{l1_entries} * 8, cs);

  // Refcount-table sizing: cover the expected maximum file size with some
  // slack; the table can still grow at runtime if exceeded.
  std::uint64_t expected_file = opt.expected_file_size;
  if (expected_file == 0) {
    const std::uint64_t l2_estimate = opt.virtual_size / 64;
    expected_file = opt.cache_quota != 0
                        ? opt.cache_quota * 2 + 16 * 1024 * 1024
                        : opt.virtual_size + l2_estimate + 16 * 1024 * 1024;
  }
  const std::uint64_t expected_clusters = div_ceil(expected_file, cs);
  const std::uint64_t rt_clusters = std::clamp<std::uint64_t>(
      div_ceil(div_ceil(expected_clusters, ly.refcounts_per_block()),
               ly.rt_entries_per_cluster()),
      1, kMaxRefcountTableBytes / cs);

  const std::uint64_t journal_clusters =
      journal ? div_ceil(journal->size, cs) : 0;

  // Initial refcount blocks must cover all initial clusters, whose count
  // depends on the block count — iterate to the fixed point.
  std::uint64_t nrb = 1;
  std::uint64_t total = 0;
  for (int iter = 0; iter < 8; ++iter) {
    total =
        header_clusters + rt_clusters + nrb + l1_clusters + journal_clusters;
    const std::uint64_t need = div_ceil(total, ly.refcounts_per_block());
    if (need == nrb) break;
    nrb = need;
  }
  total = header_clusters + rt_clusters + nrb + l1_clusters + journal_clusters;

  if (opt.cache_quota != 0 && opt.cache_quota < total * cs) {
    // Quota cannot even hold the metadata skeleton.
    co_return Errc::invalid_argument;
  }

  const std::uint64_t rt_off = header_clusters * cs;
  const std::uint64_t rb_off = rt_off + rt_clusters * cs;
  const std::uint64_t l1_off = rb_off + nrb * cs;
  const std::uint64_t journal_off = l1_off + l1_clusters * cs;
  if (journal) journal->offset = journal_off;

  Header h;
  h.cluster_bits = opt.cluster_bits;
  h.size = opt.virtual_size;
  h.l1_size = l1_entries;
  h.l1_table_offset = l1_off;
  h.refcount_table_offset = rt_off;
  h.refcount_table_clusters = static_cast<std::uint32_t>(rt_clusters);
  if (journal) h.incompatible_features |= kIncompatJournal;
  if (!opt.backing_file.empty()) {
    h.backing_file_offset = header_bytes - opt.backing_file.size();
    h.backing_file_size =
        static_cast<std::uint32_t>(opt.backing_file.size());
  }
  if (cache) cache->current_size = total * cs;

  // Header area (cluster 0 .. header_clusters-1).
  std::vector<std::uint8_t> hdr(header_clusters * cs, 0);
  write_header_area(h, cache, journal, opt.backing_file, hdr);
  VMIC_CO_TRY_VOID(co_await file.pwrite(0, hdr));

  // Refcount table: first nrb entries point at the initial blocks.
  {
    std::vector<std::uint8_t> rt(rt_clusters * cs, 0);
    for (std::uint64_t j = 0; j < nrb; ++j) {
      store_be64(rt.data() + j * 8, rb_off + j * cs);
    }
    VMIC_CO_TRY_VOID(co_await file.pwrite(rt_off, rt));
  }

  // Refcount blocks: clusters [0, total) have refcount 1. Only the last
  // block can be partial, so one buffer serves every block, and only the
  // entries of the initial clusters are ever touched.
  {
    const std::uint64_t rpb = ly.refcounts_per_block();
    std::vector<std::uint8_t> rb(cs, 0);
    std::uint64_t set = 0;  // leading entries of rb that read 1
    for (std::uint64_t j = 0; j < nrb; ++j) {
      const std::uint64_t first = j * rpb;
      const std::uint64_t n = first < total ? std::min(rpb, total - first) : 0;
      set_leading_refcounts(rb, n, set);
      set = n;
      VMIC_CO_TRY_VOID(co_await file.pwrite(rb_off + j * cs, rb));
    }
  }

  // L1 table: all zero (fully unallocated).
  {
    std::vector<std::uint8_t> zeros(l1_clusters * cs, 0);
    VMIC_CO_TRY_VOID(co_await file.pwrite(l1_off, zeros));
  }

  // Journal region: header sector at generation 0, all record slots
  // zeroed (zero sectors fail the record magic check and are ignored).
  if (journal) {
    std::vector<std::uint8_t> jr(journal_clusters * cs, 0);
    encode_journal_header(
        JournalHeader{0, journal->size / kJournalSectorSize},
        std::span(jr.data(), kJournalSectorSize));
    VMIC_CO_TRY_VOID(co_await file.pwrite(journal_off, jr));
  }

  VMIC_CO_TRY_VOID(co_await file.truncate(total * cs));
  VMIC_CO_TRY_VOID(co_await file.flush());
  co_return ok_result();
}

// ===========================================================================
// open
// ===========================================================================

Qcow2Device::Qcow2Device(io::BackendPtr file, ParsedHeader parsed)
    : file_(std::move(file)),
      h_(parsed.h),
      ly_(parsed.h.cluster_bits),
      cache_(parsed.cache),
      journal_(parsed.journal),
      cache_ext_payload_offset_(parsed.cache_ext_payload_offset),
      backing_path_(std::move(parsed.backing_file)) {
  if (journal_) journal_sector_count_ = journal_->size / kJournalSectorSize;
}

sim::Task<Result<block::DevicePtr>> Qcow2Device::open(
    io::BackendPtr file, const block::OpenOptions& opt) {
  if (file == nullptr) co_return Errc::invalid_argument;
  if (opt.max_chain_depth <= 0) co_return Errc::invalid_format;

  // The header area always fits in the first 4 KiB (our create() keeps
  // extensions + backing name short); reading a bit of L1 alongside is
  // harmless.
  std::vector<std::uint8_t> hdr(
      std::min<std::uint64_t>(4096, file->size()), 0);
  if (hdr.size() < kHeaderLength) co_return Errc::invalid_format;
  VMIC_CO_TRY_VOID(co_await file->pread(0, hdr));
  VMIC_CO_TRY(parsed, parse_header_area(hdr));
  // The L1 table, the refcount table and the journal region must lie
  // inside the file: open() reads the tables whole (and open() and
  // repair() the journal), so a header claiming more than the file holds
  // is refused before anything is allocated for them.
  const auto inside = [size = file->size()](std::uint64_t off,
                                            std::uint64_t len) {
    return len <= size && off <= size - len;
  };
  const Header& h = parsed.h;
  if (!inside(h.l1_table_offset, std::uint64_t{h.l1_size} * 8) ||
      !inside(h.refcount_table_offset,
              std::uint64_t{h.refcount_table_clusters} << h.cluster_bits) ||
      (parsed.journal &&
       !inside(parsed.journal->offset, parsed.journal->size))) {
    co_return Errc::corrupt;
  }

  auto dev = std::unique_ptr<Qcow2Device>(
      new Qcow2Device(std::move(file), std::move(parsed)));
  dev->ro_mode_ = !opt.writable;

  // Load the L1 table and the refcount table (QEMU keeps both in memory
  // as well); the per-cluster mirror is loaded lazily on first allocation
  // (read-only consumers never pay for it). pread fills every byte, so
  // each table is read straight into its own storage, with no staging
  // buffer to allocate and fill.
  dev->l1_.resize(dev->h_.l1_size);
  VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->h_.l1_table_offset,
                                              table_bytes(dev->l1_)));
  dev->rt_.resize((std::uint64_t{dev->h_.refcount_table_clusters}
                   << dev->h_.cluster_bits) / 8);
  VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->h_.refcount_table_offset,
                                              table_bytes(dev->rt_)));
  be64_to_host(dev->l1_);
  be64_to_host(dev->rt_);

  dev->lazy_ = opt.lazy_refcounts;
  if (opt.hub != nullptr) dev->bind_obs(opt.hub);

  // Read the journal header (one sector). It is only ever rewritten as a
  // single atomic sector, so a crash leaves either the old or the new
  // header — a failed decode means external corruption and forces repair
  // onto the full-rebuild path.
  if (dev->journal_) {
    std::uint8_t sec[kJournalSectorSize];
    VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->journal_->offset, sec));
    JournalHeader jh;
    if (decode_journal_header(sec, jh) &&
        jh.sector_count == dev->journal_sector_count_) {
      dev->journal_gen_ = jh.generation;
    } else {
      dev->journal_header_bad_ = true;
      // Recover a safe generation floor: any future bump must not
      // collide with a surviving record's generation (a collision could
      // replay a stale record against state it no longer describes).
      std::vector<std::uint8_t> region(dev->journal_->size, 0);
      VMIC_CO_TRY_VOID(co_await dev->file_->pread(dev->journal_->offset,
                                                  region));
      for (std::uint64_t s = 1; s < dev->journal_sector_count_; ++s) {
        JournalRecord r;
        if (decode_journal_record(
                std::span(region.data() + s * kJournalSectorSize,
                          kJournalSectorSize),
                r)) {
          dev->journal_gen_ = std::max(dev->journal_gen_, r.generation);
        }
      }
    }
  }

  // The dirty bit marks an unclean shutdown: on-disk refcounts may be
  // stale (over-counted only — see the barrier argument in DESIGN.md).
  // Writable opens rebuild them before trusting the allocator (qemu
  // auto-repairs dirty images the same way); journaled images replay the
  // journal instead — O(journal), which is why repair runs *before*
  // load_refcounts pays the O(image) mirror load. Tools that want to
  // report the damage first pass auto_repair_dirty = false.
  if ((dev->h_.incompatible_features & kIncompatDirty) != 0) {
    dev->dirty_ = true;
    dev->keep_dirty_ = true;
    bump(dev->agg_.repair_dirty_opens);
    if (opt.writable && !dev->file_->read_only() && opt.auto_repair_dirty) {
      VMIC_CO_TRY(rep, co_await dev->repair());
      (void)rep;
    }
  }

  if (opt.writable && !dev->file_->read_only()) {
    VMIC_CO_TRY_VOID(co_await dev->load_refcounts());
  }

  // Open the backing chain. Per the paper (§4.3): open writable first —
  // a cache image needs write permission for copy-on-read — then demote
  // to read-only if it turns out not to be a cache image.
  if (!dev->backing_path_.empty() && !opt.no_backing) {
    if (!opt.resolver) co_return Errc::invalid_argument;
    VMIC_CO_TRY(backing, co_await opt.resolver(dev->backing_path_,
                                               /*writable=*/true));
    if (!backing->is_cache_image() || opt.cache_backing_ro) {
      backing->set_read_only_mode(true);
    }
    dev->backing_ = std::move(backing);
  }

  co_return block::DevicePtr{std::move(dev)};
}

/// The aggregates and the trace track of one image kind on one hub: the
/// first device of the kind resolves them, every later one copies the
/// pointers.
struct Qcow2Device::ObsKind {
  AggCounters agg;  ///< comp stays null: set_cor_compress binds it
  CompCounters comp;
  std::uint32_t track = 0;
};

Qcow2Device::ObsKind& Qcow2Device::obs_memo() {
  // [0] plain images, [1] cache images.
  return hub_->memo<std::array<ObsKind, 2>>()[is_cache_image() ? 1 : 0];
}

void Qcow2Device::bind_obs(obs::Hub* hub) {
  hub_ = hub;
  ObsKind& k = obs_memo();
  if (k.agg.guest_reads == nullptr) {
    // First device of its kind on this hub: register the series, in this
    // order (snapshots break ties on registration order), then the track.
    const obs::Labels ls{{"image", is_cache_image() ? "cache" : "plain"}};
    auto& r = hub_->registry;
    AggCounters& a = k.agg;
    a.guest_reads = &r.counter("qcow2.guest_reads", ls);
    a.guest_writes = &r.counter("qcow2.guest_writes", ls);
    a.bytes_read = &r.counter("qcow2.bytes_read", ls);
    a.bytes_written = &r.counter("qcow2.bytes_written", ls);
    a.backing_reads = &r.counter("qcow2.backing_reads", ls);
    a.bytes_from_backing = &r.counter("qcow2.bytes_from_backing", ls);
    a.cor_fills = &r.counter("qcow2.cor_fills", ls);
    a.cor_clusters = &r.counter("qcow2.cor_clusters", ls);
    a.cor_bytes = &r.counter("qcow2.cor_bytes", ls);
    a.cor_stopped = &r.counter("qcow2.cor_stopped", ls);
    a.cor_inflight_waits = &r.counter("qcow2.cor.inflight_waits", ls);
    a.cor_dedup_hits = &r.counter("qcow2.cor.dedup_hits", ls);
    a.alloc_lock_waits = &r.counter("qcow2.alloc_lock_waits", ls);
    a.repair_runs = &r.counter("qcow2.repair.runs", ls);
    a.repair_dirty_opens = &r.counter("qcow2.repair.dirty_opens", ls);
    a.repair_entries_cleared = &r.counter("qcow2.repair.entries_cleared", ls);
    a.repair_leaks_dropped = &r.counter("qcow2.repair.leaks_dropped", ls);
    a.repair_corruptions_fixed =
        &r.counter("qcow2.repair.corruptions_fixed", ls);
    a.journal_appends = &r.counter("qcow2.journal.appends", ls);
    a.journal_checkpoints = &r.counter("qcow2.journal.checkpoints", ls);
    a.journal_replays = &r.counter("qcow2.journal.replays", ls);
    a.journal_entries_replayed =
        &r.counter("qcow2.journal.entries_replayed", ls);
    a.journal_fallbacks = &r.counter("qcow2.journal.fallbacks", ls);
    k.track = hub_->tracer.track("qcow2");
  }
  agg_ = k.agg;
  track_ = k.track;
}

sim::Task<Result<void>> Qcow2Device::load_refcounts() {
  if (refcounts_loaded_) co_return ok_result();
  const std::uint64_t cs = ly_.cluster_size();
  refcounts_.assign(div_ceil(file_->size(), cs), 0);
  // pread fills every byte. Slots past the last non-zero one hold no
  // block; the bound is taken now, not at open, because a dirty open's
  // repair() may have rebuilt rt_ in between.
  const auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(cs);
  const std::span<std::uint8_t> block(buf.get(), cs);
  const std::size_t used = nonzero_prefix(rt_);
  for (std::size_t bi = 0; bi < used; ++bi) {
    const std::uint64_t block_off = rt_[bi] & kOffsetMask;
    if (block_off == 0) continue;
    VMIC_CO_TRY_VOID(co_await file_->pread(block_off, block));
    unpack_refcounts(block, bi * ly_.refcounts_per_block(), refcounts_);
  }
  // Dirty journaled image: the on-disk blocks are stale for every
  // journaled mutation since the last checkpoint. Overlay the journal's
  // verified effective counts so the mirror (and check()) see the real
  // durable state mid-window.
  if (journal_ && (h_.incompatible_features & kIncompatDirty) != 0 &&
      !journal_header_bad_) {
    VMIC_CO_TRY(scan, co_await journal_scan());
    if (scan.header_ok) {
      for (const auto& [c, v] : scan.effective) {
        if (c >= refcounts_.size()) refcounts_.resize(c + 1, 0);
        refcounts_[c] = v;
      }
    }
  }
  refcounts_loaded_ = true;
  index_free_runs();
  co_return ok_result();
}

// ===========================================================================
// address translation
// ===========================================================================

sim::Task<Result<std::vector<std::uint64_t>*>> Qcow2Device::load_l2(
    std::uint64_t l2_host_off) {
  auto it = l2_tables_.find(l2_host_off);
  if (it != l2_tables_.end()) co_return it->second.get();

  auto table = std::make_unique<std::vector<std::uint64_t>>(ly_.l2_entries());
  VMIC_CO_TRY_VOID(co_await file_->pread(l2_host_off, table_bytes(*table)));
  // Another coroutine may have loaded (and possibly mutated) this table
  // while we awaited the read — keep theirs, or emplace() would silently
  // fail and return a pointer the caller believes is cached.
  if (auto again = l2_tables_.find(l2_host_off); again != l2_tables_.end()) {
    co_return again->second.get();
  }
  be64_to_host(*table);
  auto* raw = table.get();
  l2_tables_.emplace(l2_host_off, std::move(table));
  co_return raw;
}

sim::Task<Result<Qcow2Device::Extent>> Qcow2Device::map_range(
    std::uint64_t vaddr, std::uint64_t len) {
  assert(vaddr < h_.size);
  len = std::min(len, h_.size - vaddr);
  // Cap at the coverage boundary of one L2 table.
  const std::uint64_t l2_span = ly_.bytes_per_l2();
  len = std::min(len, l2_span - (vaddr & (l2_span - 1)));

  const std::uint64_t i1 = ly_.l1_index(vaddr);
  if (i1 >= l1_.size()) co_return Errc::corrupt;
  const std::uint64_t l2_off = l1_[i1] & kOffsetMask;
  if (l2_off == 0) co_return Extent{MapKind::unallocated, 0, len};

  VMIC_CO_TRY(l2, co_await load_l2(l2_off));
  const std::uint64_t cs = ly_.cluster_size();
  std::uint64_t i2 = ly_.l2_index(vaddr);
  const std::uint64_t in_cl = ly_.in_cluster(vaddr);

  auto classify = [](std::uint64_t entry) {
    // Compressed before anything else: a compressed descriptor's offset
    // and sector-count fields overlap both kFlagZero and kOffsetMask.
    if ((entry & kFlagCompressed) != 0) return MapKind::compressed;
    if ((entry & kFlagZero) != 0) return MapKind::zero;
    if ((entry & kOffsetMask) == 0) return MapKind::unallocated;
    return MapKind::data;
  };

  const std::uint64_t first_entry = (*l2)[i2];
  const MapKind kind = classify(first_entry);
  const std::uint64_t first = first_entry & kOffsetMask;

  std::uint64_t run = cs - in_cl;
  if (kind == MapKind::compressed) {
    // Compressed extents never coalesce: each carries its own descriptor.
    co_return Extent{MapKind::compressed, 0, std::min(len, run), first_entry};
  }
  if (kind != MapKind::data) {
    while (run < len && ++i2 < ly_.l2_entries() &&
           classify((*l2)[i2]) == kind) {
      run += cs;
    }
    co_return Extent{kind, 0, std::min(len, run)};
  }
  std::uint64_t expect = first + cs;
  while (run < len && ++i2 < ly_.l2_entries() &&
         classify((*l2)[i2]) == MapKind::data &&
         ((*l2)[i2] & kOffsetMask) == expect) {
    run += cs;
    expect += cs;
  }
  co_return Extent{MapKind::data, first + in_cl, std::min(len, run)};
}

sim::Task<Result<Qcow2Device::MapStatus>> Qcow2Device::map_status(
    std::uint64_t vaddr, std::uint64_t max_len) {
  if (vaddr >= h_.size) co_return Errc::out_of_range;
  VMIC_CO_TRY(ext, co_await map_range(vaddr, max_len));
  co_return MapStatus{ext.kind, ext.len};
}

sim::Task<Result<bool>> Qcow2Device::is_allocated(std::uint64_t vaddr) {
  if (vaddr >= h_.size) co_return Errc::out_of_range;
  VMIC_CO_TRY(ext, co_await map_range(vaddr, 1));
  co_return ext.kind != MapKind::unallocated;
}

sim::Task<Result<void>> Qcow2Device::ensure_l2_table(std::uint64_t vaddr) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t i1 = ly_.l1_index(vaddr);
  if (i1 >= l1_.size()) co_return Errc::corrupt;
  if ((l1_[i1] & kOffsetMask) != 0) co_return ok_result();

  // Allocate and zero a fresh L2 table, then hook it into the L1. The
  // in-memory L1 and table cache take it only once the L1 entry is
  // written: until then the file does not map it, so neither may they.
  const RefHint hint{h_.l1_table_offset + i1 * 8, /*run=*/true};
  VMIC_CO_TRY(l2_off, co_await alloc_clusters(1, hint));
  std::vector<std::uint8_t> zeros(cs, 0);
  auto wr = co_await file_->pwrite(l2_off, zeros);
  // Barrier: the table must be durably zeroed before the L1 publishes it
  // (a crash must never expose a table of leftover garbage entries).
  if (wr.ok()) wr = co_await file_->flush();
  const std::uint64_t entry = l2_off | kFlagCopied;
  if (wr.ok()) {
    std::uint8_t be[8];
    store_be64(be, entry);
    wr = co_await file_->pwrite(h_.l1_table_offset + i1 * 8, be);
  }
  if (!wr.ok()) {
    // Nothing maps the table: release its cluster (nothing leaks), and
    // drop the mirror's free tail past the end of the file, which the
    // failed zero fill never reached.
    VMIC_CO_TRY_VOID(co_await free_clusters(l2_off, 1, hint));
    trim_refcounts();
    co_return wr.error();
  }
  l2_tables_.emplace(
      l2_off, std::make_unique<std::vector<std::uint64_t>>(ly_.l2_entries()));
  l1_[i1] = entry;
  ++l2_clusters_;
  co_return ok_result();
}

// ===========================================================================
// allocation & refcounts
// ===========================================================================

void Qcow2Device::index_free_runs() {
  free_runs_.clear();
  const std::uint64_t size = refcounts_.size();
  std::uint64_t i = 0;
  while (i < size) {
    if (refcounts_[i] != 0) {
      ++i;
      continue;
    }
    std::uint64_t j = i + 1;
    while (j < size && refcounts_[j] == 0) ++j;
    free_runs_.emplace(i, j);
    i = j;
  }
}

void Qcow2Device::trim_refcounts() {
  const std::uint64_t file_clusters =
      div_ceil(file_->size(), ly_.cluster_size());
  if (refcounts_.size() <= file_clusters || refcounts_.back() != 0) return;
  while (refcounts_.size() > file_clusters && refcounts_.back() == 0) {
    refcounts_.pop_back();
  }
  index_free_runs();  // rare failure path
}

void Qcow2Device::claim_run(std::uint64_t first, std::uint64_t end) {
  // Remove [first, end) from the index; runs are maximal and disjoint, so
  // at most the straddling edges survive as clipped remainders.
  auto it = free_runs_.upper_bound(first);
  if (it != free_runs_.begin()) --it;
  while (it != free_runs_.end() && it->first < end) {
    const std::uint64_t s = it->first;
    const std::uint64_t e = it->second;
    if (e <= first) {
      ++it;
      continue;
    }
    it = free_runs_.erase(it);
    if (s < first) free_runs_.emplace(s, first);
    if (e > end) {
      free_runs_.emplace(end, e);
      break;
    }
  }
}

void Qcow2Device::release_run(std::uint64_t first, std::uint64_t end) {
  // Insert [first, end), merging with adjacent or overlapping runs so the
  // index stays maximal.
  auto next = free_runs_.lower_bound(first);
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    if (prev->second >= first) {
      first = prev->first;
      end = std::max(end, prev->second);
      free_runs_.erase(prev);
    }
  }
  while (next != free_runs_.end() && next->first <= end) {
    end = std::max(end, next->second);
    next = free_runs_.erase(next);
  }
  free_runs_.emplace(first, end);
}

std::uint64_t Qcow2Device::find_free_run(std::uint64_t n) {
  // First fit over the free-run index, reproducing the placement of the
  // legacy linear scan exactly: candidates are considered from
  // max(run start, free_guess_) upwards, and the run touching the end of
  // the file always fits (the file grows underneath it). The region
  // beyond the end of the file counts as free.
  const std::uint64_t size = refcounts_.size();
  auto it = free_runs_.upper_bound(free_guess_);
  if (it != free_runs_.begin()) {
    auto p = std::prev(it);
    if (p->second > free_guess_) it = p;
  }
  for (; it != free_runs_.end(); ++it) {
    const std::uint64_t s = std::max(it->first, free_guess_);
    if (it->second == size) return s;  // trailing run: append/straddle
    if (it->second - s >= n) return s;
  }
  return size;  // append at the end of the file
}

Result<std::uint64_t> Qcow2Device::take_clusters(std::uint64_t n) {
  const std::uint64_t idx = find_free_run(n);
  const std::uint64_t end = idx + n;
  // A cache's file may not outgrow its quota.
  if (cache_ && std::max<std::uint64_t>(end, refcounts_.size()) *
                        ly_.cluster_size() >
                    cache_->quota) {
    return Errc::no_space;
  }
  if (end > refcounts_.size()) refcounts_.resize(end, 0);
  for (std::uint64_t i = idx; i < end; ++i) refcounts_[i] = 1;
  claim_run(idx, end);
  return idx;
}

sim::Task<Result<void>> Qcow2Device::record_counts(CountChange op,
                                                   std::uint64_t first,
                                                   std::uint64_t n,
                                                   RefHint hint) {
  // Not a coroutine: it picks the write and hands it to the caller to
  // await, so the store path pays no extra frame per allocation.
  // Lazy refcounts: lowered counts stay in the mirror while the dirty bit
  // is set — a crash leaves the on-disk count stale-high (a leak repair()
  // drops), never stale-low. Clean close writes the mirror back.
  if (lazy_ && op != CountChange::up) return no_write();
  if (!journal_) return write_refcount_entries(first, n);
  // Journal mode: the record IS the persistence — the blocks are only
  // written back at checkpoints, and the record rides the caller's
  // barriers. A free record that never becomes durable leaves a
  // replay-surviving leak, never a corruption (the dereference was flushed
  // before the record was appended). An undo needs no record: a raise's
  // record names a slot that never came to reference the run, so replay
  // recomputes the old count; but a checkpoint may have written the raise
  // back already, so its blocks go stale like any other.
  if (op == CountChange::undo) {
    mark_stale(first, n);
    return no_write();
  }
  const std::uint32_t kind =
      op == CountChange::up ? kJournalOpAlloc : kJournalOpFree;
  return journal_append(kind | (hint.run ? kJournalRefRun : 0), first, n,
                        hint);
}

sim::Task<Result<void>> Qcow2Device::record_taken(std::uint64_t first,
                                                  std::uint64_t n,
                                                  RefHint hint) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::uint64_t bi = first / rpb; bi <= (first + n - 1) / rpb; ++bi) {
    if (!holds_block(bi)) {
      VMIC_CO_TRY_VOID(co_await ensure_refcount_block(bi * rpb));
    }
  }
  co_return co_await record_counts(CountChange::up, first, n, hint);
}

sim::Task<void> Qcow2Device::undo_counts(std::uint64_t first,
                                         std::uint64_t n) {
  const std::uint64_t end = first + n;
  for (std::uint64_t i = first; i < end; ++i) {
    if (--refcounts_[i] == 0) release_run(i, i + 1);
  }
  // The raise may have reached the file through any block that covers the
  // run: a new block is written whole from the mirror, and a journal
  // checkpoint writes dirty blocks back from it.
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::uint64_t bi = first / rpb; bi <= (end - 1) / rpb; ++bi) {
    if (!holds_block(bi)) continue;
    const std::uint64_t lo = std::max(first, bi * rpb);
    const std::uint64_t hi = std::min(end, (bi + 1) * rpb);
    auto r = co_await record_counts(CountChange::undo, lo, hi - lo, {});
    // The file may still count what the mirror gave back: the dirty bit
    // stays, so the next writable open repairs the image.
    if (!r.ok()) keep_dirty_ = true;
  }
  // Clusters past the end of the file that the failed operation never
  // wrote are not part of the image's size.
  trim_refcounts();
}

sim::Task<Result<std::uint64_t>> Qcow2Device::alloc_clusters(
    std::uint64_t n, RefHint hint) {
  assert(n > 0);
  assert(alloc_mutex_.locked() && "allocation requires alloc_mutex_");
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  if (old_table_.count != 0) {
    VMIC_CO_TRY_VOID(co_await release_old_table());
  }
  VMIC_CO_TRY(idx, take_clusters(n));
  auto r = co_await record_taken(idx, n, hint);
  if (!r.ok()) {
    // Refcount blocks created on the way stay: the refcount table
    // references them.
    co_await undo_counts(idx, n);
    co_return r.error();
  }
  free_guess_ = idx + n;
  co_return idx * ly_.cluster_size();
}

sim::Task<Result<void>> Qcow2Device::ensure_refcount_block(
    std::uint64_t cluster_idx) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  const std::uint64_t bi = cluster_idx / rpb;
  if (bi >= rt_.size()) {
    VMIC_CO_TRY_VOID(co_await grow_refcount_table(bi));
  }
  if (holds_block(bi)) co_return ok_result();

  // Take a cluster for the new block by hand (cannot recurse through
  // alloc_clusters: that is what calls us). The in-memory refcount table
  // takes the block only once its table entry is written: until then the
  // file does not reference it, so neither may rt_.
  VMIC_CO_TRY(b, take_clusters(1));
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t block_off = b * cs;

  // b's own count: when another block covers b, record it there (creating
  // that block first if absent; recursion terminates because each level
  // covers rpb clusters). When this block covers b, the full-block write
  // below stores it, and only a journal records it as well: the record
  // retires at the next checkpoint and lets replay verify the allocation.
  const auto slot = [&] {
    return RefHint{h_.refcount_table_offset + bi * 8, /*run=*/true};
  };
  Result<void> r = ok_result();
  if (b / rpb != bi) {
    r = co_await ensure_refcount_block(b);
    if (r.ok()) r = co_await record_counts(CountChange::up, b, 1, slot());
  } else if (journal_) {
    r = co_await record_counts(CountChange::up, b, 1, slot());
  }

  // Persist the whole new block from the mirror, then its table entry.
  if (r.ok()) {
    std::vector<std::uint8_t> buf(cs, 0);
    pack_refcounts(refcounts_, bi * rpb, buf);
    r = co_await file_->pwrite(block_off, buf);
  }
  // Barrier: the block's contents must be durable before the table entry
  // publishes it.
  if (r.ok()) r = co_await file_->flush();
  if (r.ok()) {
    std::uint8_t be[8];
    store_be64(be, block_off);
    r = co_await file_->pwrite(slot().ref_off, be);
  }
  if (!r.ok()) {
    // Nothing references the block.
    co_await undo_counts(b, 1);
    co_return r.error();
  }
  rt_[bi] = block_off;
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_refcount_entries(
    std::uint64_t first, std::uint64_t count) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  std::uint64_t i = first;
  const std::uint64_t end = first + count;
  while (i < end) {
    const std::uint64_t bi = i / rpb;
    const std::uint64_t block_end = std::min(end, (bi + 1) * rpb);
    const std::uint64_t block_off = rt_[bi] & kOffsetMask;
    assert(block_off != 0 && "refcount block must exist");
    std::vector<std::uint8_t> buf((block_end - i) * 2);
    for (std::uint64_t k = 0; k < block_end - i; ++k) {
      store_be16(buf.data() + k * 2, refcounts_[i + k]);
    }
    VMIC_CO_TRY_VOID(
        co_await file_->pwrite(block_off + (i - bi * rpb) * 2, buf));
    i = block_end;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_back_block(std::uint64_t bi) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  const std::uint64_t first = bi * rpb;
  if (!holds_block(bi) || first >= refcounts_.size()) co_return ok_result();
  co_return co_await write_refcount_entries(
      first, std::min<std::uint64_t>(rpb, refcounts_.size() - first));
}

sim::Task<Result<void>> Qcow2Device::grow_refcount_table(
    std::uint64_t min_block_index) {
  const std::uint64_t cs = ly_.cluster_size();
  // Stay within the table size open() accepts.
  const std::uint64_t max_entries = kMaxRefcountTableBytes / 8;
  if (min_block_index >= max_entries) co_return Errc::no_space;
  const std::uint64_t needed_entries = std::min(
      max_entries,
      std::max<std::uint64_t>(min_block_index + 1, rt_.size() * 2));
  const std::uint64_t new_clusters = div_ceil(needed_entries * 8, cs);
  VMIC_CO_TRY(idx, take_clusters(new_clusters));

  // The new table's own refcount blocks and refcounts, and any journal
  // checkpoint on the way, already address the new table, so the device
  // switches to it in memory now. Until the header write below publishes
  // it, a failure switches back.
  const std::uint64_t old_off = h_.refcount_table_offset;
  const std::uint64_t old_clusters = h_.refcount_table_clusters;
  std::vector<std::uint64_t> old_rt = rt_;
  rt_.resize(new_clusters * (cs / 8), 0);
  h_.refcount_table_offset = idx * cs;
  h_.refcount_table_clusters = static_cast<std::uint32_t>(new_clusters);

  // The new table's clusters are referenced by the header's own
  // refcount-table pointer (offset 48) once the switch-over publishes.
  Result<void> r = co_await record_taken(idx, new_clusters,
                                        RefHint{48, /*run=*/true});
  // Persist the full new table.
  if (r.ok()) {
    std::vector<std::uint8_t> buf(new_clusters * cs, 0);
    pack_be64(rt_.data(), rt_.size(), buf.data());
    r = co_await file_->pwrite(h_.refcount_table_offset, buf);
  }
  // Barrier: the new table must be durable before the header points at it.
  if (r.ok()) r = co_await file_->flush();
  // Point the header at it.
  if (r.ok()) {
    std::uint8_t be[12];
    store_be64(be, h_.refcount_table_offset);
    store_be32(be + 8, h_.refcount_table_clusters);
    r = co_await file_->pwrite(48, be);
  }
  if (!r.ok()) {
    // The file still references the old table only: switch back, then
    // give back the new table's clusters and every block created for it.
    std::vector<std::uint64_t> blocks;
    for (std::uint64_t bi = 0; bi < rt_.size(); ++bi) {
      if (holds_block(bi) &&
          (bi >= old_rt.size() || (old_rt[bi] & kOffsetMask) == 0)) {
        blocks.push_back((rt_[bi] & kOffsetMask) / cs);
      }
    }
    rt_ = std::move(old_rt);
    h_.refcount_table_offset = old_off;
    h_.refcount_table_clusters = static_cast<std::uint32_t>(old_clusters);
    co_await undo_counts(idx, new_clusters);
    for (const std::uint64_t b : blocks) co_await undo_counts(b, 1);
    co_return r.error();
  }
  assert(old_table_.count == 0);
  old_table_ = {old_off / cs, old_clusters, 48};
  co_return co_await release_old_table();
}

sim::Task<Result<void>> Qcow2Device::release_old_table() {
  const auto [first, count, ref_off] = old_table_;
  // Barrier: the switch-over must be durable before the old table's
  // clusters are released for reuse — a crash in between may leak the
  // old table, never point at a reclaimed one.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  auto r = co_await free_clusters(first * ly_.cluster_size(), count,
                                  RefHint{ref_off, /*run=*/true});
  if (r.ok() && journal_) {
    // Earlier records may reference slots inside the *old* table (a
    // refcount block's record names its table entry, an L2 table's its L1
    // slot, by file offset). Those clusters are free for reuse now, and
    // reused bytes would break the records' reference checks — checkpoint
    // to retire every record before any reuse can happen.
    r = co_await journal_checkpoint();
  }
  if (!r.ok()) {
    // Still counted on disk: keep counting it here too, and try again at
    // the next allocation or close(). (Replaying a free record twice is
    // harmless: replay rebuilds counts from references.)
    for (std::uint64_t i = first; i < first + count; ++i) refcounts_[i] = 1;
    claim_run(first, first + count);
    co_return r.error();
  }
  old_table_ = {};
  co_return ok_result();
}

// ===========================================================================
// read path (incl. copy-on-read)
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::read_from_backing(
    std::uint64_t vaddr, std::span<std::uint8_t> dst) {
  if (fetch_hook_) {
    // Peer tier first; a miss/timeout there (false or an error) falls
    // through to the normal backing read, so the hook can only ever
    // divert traffic, never lose it.
    auto served = co_await fetch_hook_(vaddr, dst);
    if (served.ok() && *served) co_return ok_result();
  }
  if (!backing_) {
    std::memset(dst.data(), 0, dst.size());
    co_return ok_result();
  }
  ++stats_.backing_reads;
  stats_.bytes_from_backing += dst.size();
  bump(agg_.backing_reads);
  bump(agg_.bytes_from_backing, dst.size());
  if (vaddr >= backing_->size()) {
    std::memset(dst.data(), 0, dst.size());
    co_return ok_result();
  }
  const std::uint64_t avail = backing_->size() - vaddr;
  if (dst.size() <= avail) {
    co_return co_await backing_->read(vaddr, dst);
  }
  VMIC_CO_TRY_VOID(co_await backing_->read(vaddr, dst.first(avail)));
  std::memset(dst.data() + avail, 0, dst.size() - avail);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::read(std::uint64_t off,
                                          std::span<std::uint8_t> dst) {
  if (off + dst.size() > h_.size) co_return Errc::out_of_range;
  ++stats_.guest_reads;
  stats_.bytes_read += dst.size();
  bump(agg_.guest_reads);
  bump(agg_.bytes_read, dst.size());

  std::uint64_t pos = off;
  const std::uint64_t end = off + dst.size();
  while (pos < end) {
    VMIC_CO_TRY(ext, co_await map_range(pos, end - pos));
    auto sub = dst.subspan(pos - off, ext.len);
    if (ext.kind == MapKind::data) {
      VMIC_CO_TRY_VOID(co_await file_->pread(ext.host_off, sub));
    } else if (ext.kind == MapKind::compressed) {
      VMIC_CO_TRY_VOID(co_await read_compressed(pos, ext, sub));
    } else if (ext.kind == MapKind::zero) {
      std::memset(sub.data(), 0, sub.size());
    } else if (backing_) {
      if (cache_ && cor_enabled_ && !read_only()) {
        VMIC_CO_TRY_VOID(co_await cor_fill_read(pos, sub));
      } else {
        VMIC_CO_TRY_VOID(co_await read_from_backing(pos, sub));
      }
    } else {
      std::memset(sub.data(), 0, sub.size());
    }
    pos += ext.len;
  }
  co_return ok_result();
}

sim::InlineMutex::Awaiter Qcow2Device::lock_alloc() noexcept {
  if (alloc_mutex_.locked()) {
    ++stats_.alloc_lock_waits;
    bump(agg_.alloc_lock_waits);
  }
  return alloc_mutex_.lock();
}

void Qcow2Device::cor_stop(Errc cause) {
  // Transition-once: the first quota (or medium) failure disables
  // population for the rest of this open; concurrent fills that fail in
  // the same window must not double-count the stop event (§4.3 "read" —
  // the guest reads themselves all succeed).
  if (!cor_enabled_) return;
  cor_enabled_ = false;
  ++stats_.cor_stopped;
  bump(agg_.cor_stopped);
  VMIC_LOG_DEBUG("cache population stopped: %s",
                 std::string(to_string(cause)).c_str());
}

/// Unallocated-extent read on a CoR-active cache image. With single-flight
/// enabled the first reader of a cluster range becomes the fill owner:
/// it holds the range in cor_inflight_ across backing fetch + store, so
/// fills to disjoint ranges proceed in parallel while overlapping readers
/// queue and are served locally afterwards — exactly one backing fetch
/// per cluster. Legacy mode reproduces the pre-range-lock behaviour:
/// every reader fetches from the backing image first (duplicates
/// possible), then fills serialise device-wide.
sim::Task<Result<void>> Qcow2Device::cor_fill_read(
    std::uint64_t pos, std::span<std::uint8_t> dst) {
  if (!cor_single_flight_) {
    VMIC_CO_TRY_VOID(co_await read_from_backing(pos, dst));
    if (!cor_enabled_) co_return ok_result();
    auto guard = co_await cor_inflight_.acquire(0, ~std::uint64_t{0});
    if (guard.waited()) {
      ++stats_.cor_inflight_waits;
      bump(agg_.cor_inflight_waits);
      if (!cor_enabled_) co_return ok_result();
    }
    obs::Span fill;
    if (obs::tracing(hub_)) {
      fill = hub_->tracer.span(track_, "qcow2.cor_fill", "qcow2",
                               "\"bytes\":" + std::to_string(dst.size()));
    }
    auto r = co_await cor_store(pos, dst);
    if (!r.ok()) cor_stop(r.error());
    co_return ok_result();
  }

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(pos, cs);
  const std::uint64_t hi = align_up(pos + dst.size(), cs);
  auto guard = co_await cor_inflight_.acquire(lo, hi);
  if (guard.waited()) {
    // Someone filled (or tried to fill) our clusters while we queued:
    // serve from the cache where possible instead of re-fetching.
    ++stats_.cor_inflight_waits;
    bump(agg_.cor_inflight_waits);
    co_return co_await cor_read_after_wait(pos, dst);
  }
  VMIC_CO_TRY_VOID(co_await read_from_backing(pos, dst));
  if (!cor_enabled_) co_return ok_result();  // stop raced with our fetch
  obs::Span fill;
  if (obs::tracing(hub_)) {
    fill = hub_->tracer.span(track_, "qcow2.cor_fill", "qcow2",
                             "\"bytes\":" + std::to_string(dst.size()));
  }
  auto r = co_await cor_store(pos, dst);
  if (!r.ok()) {
    // Quota exhausted (or the medium failed): stop populating, but the
    // guest read itself has succeeded (§4.3 "read").
    cor_stop(r.error());
  }
  co_return ok_result();
}

/// Re-examine a range whose fill we waited out (we now own the range
/// lock): allocated clusters are served locally (the dedup win), anything
/// still absent — the fill failed or stopped at the quota edge — falls
/// back to the backing image with a fill attempt of our own.
sim::Task<Result<void>> Qcow2Device::cor_read_after_wait(
    std::uint64_t pos, std::span<std::uint8_t> dst) {
  const std::uint64_t cs = ly_.cluster_size();
  std::uint64_t p = pos;
  const std::uint64_t end = pos + dst.size();
  while (p < end) {
    VMIC_CO_TRY(ext, co_await map_range(p, end - p));
    auto sub = dst.subspan(p - pos, ext.len);
    if (ext.kind == MapKind::data || ext.kind == MapKind::compressed) {
      if (ext.kind == MapKind::data) {
        VMIC_CO_TRY_VOID(co_await file_->pread(ext.host_off, sub));
      } else {
        VMIC_CO_TRY_VOID(co_await read_compressed(p, ext, sub));
      }
      const std::uint64_t clusters =
          (align_up(p + ext.len, cs) - align_down(p, cs)) / cs;
      stats_.cor_dedup_hits += clusters;
      bump(agg_.cor_dedup_hits, clusters);
    } else if (ext.kind == MapKind::zero) {
      std::memset(sub.data(), 0, sub.size());
    } else {
      VMIC_CO_TRY_VOID(co_await read_from_backing(p, sub));
      if (cor_enabled_ && !read_only()) {
        auto r = co_await cor_store(p, sub);
        if (!r.ok()) cor_stop(r.error());
      }
    }
    p += ext.len;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::cor_store(
    std::uint64_t vaddr, std::span<const std::uint8_t> data) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(vaddr, cs);
  const std::uint64_t hi = align_up(vaddr + data.size(), cs);

  // Cluster-granularity expansion: the head/tail fill is fetched from the
  // backing image. This is exactly the effect the paper measures in
  // Fig 9 — at 64 KiB clusters a small read forces a large fill, causing
  // *more* storage-node traffic than plain QCOW2; at 512 B clusters the
  // fill is empty for sector-aligned guest I/O.
  std::vector<std::uint8_t> staging;
  VMIC_CO_TRY(fill, co_await stage_run(vaddr, data,
                                       Extent{MapKind::unallocated, 0, 0},
                                       staging));

  // Store the runs of clusters that are still absent; the expanded edges
  // may already be cached. Readers of this range are excluded by the
  // range lock, so nothing else maps these clusters meanwhile.
  std::uint64_t pos = lo;
  bool stored = false;
  while (pos < hi && pos < h_.size) {
    VMIC_CO_TRY(ext, co_await map_range(pos, hi - pos));
    if (ext.kind != MapKind::unallocated) {
      pos += ext.len;
      continue;
    }
    const std::uint64_t n = div_ceil(ext.len, cs);
    VMIC_CO_TRY(got, co_await store_run(pos, fill.subspan(pos - lo, n * cs),
                                        ext, cor_compress_));
    stored = true;
    pos += got * cs;
  }
  if (stored) {
    ++stats_.cor_fills;
    bump(agg_.cor_fills);
    if (fill_observer_) {
      // Every cluster in [lo, hi) within the disk is now servable from
      // this file: the loop published the previously-absent runs and
      // skipped only ranges that were already allocated.
      fill_observer_(lo, std::min(hi, h_.size));
    }
  }
  co_return ok_result();
}

// ===========================================================================
// cluster store: the one place–write–publish path
// ===========================================================================

sim::Task<Result<std::span<const std::uint8_t>>> Qcow2Device::stage_run(
    std::uint64_t vaddr, std::span<const std::uint8_t> data, const Extent& old,
    std::vector<std::uint8_t>& staging) {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_down(vaddr, cs);
  const std::uint64_t end = vaddr + data.size();
  const std::uint64_t hi = align_up(end, cs);
  // A run aligned at both ends is stored straight from the caller's bytes.
  if (vaddr == lo && end == hi) co_return data;
  staging.assign(hi - lo, 0);
  if (old.kind == MapKind::compressed) {
    VMIC_CO_TRY_VOID(co_await read_compressed(lo, old, staging));
  } else if (old.kind == MapKind::unallocated) {
    if (vaddr > lo) {
      VMIC_CO_TRY_VOID(co_await read_from_backing(
          lo, std::span(staging.data(), vaddr - lo)));
    }
    const std::uint64_t fill_end = std::min(hi, h_.size);
    if (fill_end > end) {
      VMIC_CO_TRY_VOID(co_await read_from_backing(
          end, std::span(staging.data() + (end - lo), fill_end - end)));
    }
  }
  std::memcpy(staging.data() + (vaddr - lo), data.data(), data.size());
  co_return std::span<const std::uint8_t>(staging);
}

sim::Task<Result<std::uint64_t>> Qcow2Device::store_run(
    std::uint64_t vaddr, std::span<const std::uint8_t> src, const Extent& old,
    bool compress) {
  const std::uint64_t cs = ly_.cluster_size();
  assert((vaddr & (cs - 1)) == 0 && !src.empty() && src.size() % cs == 0);
  assert(ly_.l1_index(vaddr) == ly_.l1_index(vaddr + src.size() - 1));

  // 1. Plan. A plain run is one piece. Compressed mode decides per cluster
  // up front (pure CPU, no locks): payloads are sector-granular, so only a
  // shrink of at least one full sector saves anything; a cluster that
  // does not shrink is stored plain.
  Piece whole;
  whole.vaddr = vaddr;
  whole.bytes = src;
  std::vector<Piece> plan;
  if (compress) {
    plan.resize(src.size() / cs);
    for (std::size_t k = 0; k < plan.size(); ++k) {
      Piece& p = plan[k];
      p.vaddr = vaddr + k * cs;
      p.bytes = src.subspan(k * cs, cs);
      if (cs <= 512) continue;
      // The payload buffer is the compressor's output: a stream that fits
      // cs - 512 bytes also fits once padded to whole sectors, so only
      // the padding needs zeroing.
      auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(cs - 512);
      const std::size_t csize =
          lzss_compress(p.bytes, {buf.get(), cs - 512}, cs - 512);
      if (csize == 0) continue;
      p.sectors = div_ceil(static_cast<std::uint64_t>(csize),
                           std::uint64_t{512});
      std::memset(buf.get() + csize, 0, p.sectors * 512 - csize);
      p.bytes = {buf.get(), p.sectors * 512};
      p.payload = std::move(buf);
    }
  }
  const std::span<Piece> pieces =
      compress ? std::span<Piece>(plan) : std::span<Piece>(&whole, 1);

  // 2. Place every piece under one lock hold. The L2 table comes first:
  // a quota failure then never strands an unreferenced data cluster. A
  // plain run places its clusters or fails at once; a compressed run
  // stops at its first failed placement and still writes and publishes
  // what it placed, so the cache fills up to the quota edge either way.
  std::size_t placed = 0;
  Result<void> stop = ok_result();
  {
    auto guard = co_await lock_alloc();
    stop = co_await ensure_l2_table(vaddr);
    while (stop.ok() && placed < pieces.size()) {
      stop = co_await place(pieces[placed]);
      if (stop.ok()) ++placed;
    }
    if (!stop.ok() && !compress) co_return stop.error();
  }

  // 3. One pwrite per file-contiguous group of pieces (outside the lock:
  // disjoint fills overlap on the bulk transfer), a lone piece straight
  // from its bytes, then ONE flush. Barrier: every payload is durable
  // before any L2 entry publishes it — a crash may leak a cluster, never
  // expose a mapped cluster of torn bytes. A flush per cluster would
  // charge a positioning cost per 4 KiB and dominate fill latency.
  Result<void> wr = ok_result();
  std::vector<std::uint8_t> gather;
  for (std::size_t i = 0; i < placed && wr.ok();) {
    std::size_t j = i + 1;
    std::uint64_t next = pieces[i].off + pieces[i].bytes.size();
    while (j < placed && pieces[j].off == next) {
      next += pieces[j++].bytes.size();
    }
    std::span<const std::uint8_t> bytes = pieces[i].bytes;
    if (j > i + 1) {
      gather.clear();
      for (std::size_t k = i; k < j; ++k) {
        gather.insert(gather.end(), pieces[k].bytes.begin(),
                      pieces[k].bytes.end());
      }
      bytes = gather;
    }
    wr = co_await file_->pwrite(pieces[i].off, bytes);
    i = j;
  }
  if (wr.ok() && placed > 0) wr = co_await file_->flush();

  // 4. Publish every placed cluster with one L2 write, or, if the data
  // never landed or the L2 write failed, drop every reference the run took
  // (a clean failure must not leak; packing-cluster over-counts are a
  // crash-only artefact).
  std::uint64_t clusters = 0;
  std::uint64_t plain = 0;
  std::uint64_t saved = 0;
  {
    auto guard = co_await lock_alloc();
    if (wr.ok() && placed > 0) {
      std::vector<std::uint64_t> entries;
      entries.reserve(src.size() / cs);
      for (std::size_t i = 0; i < placed; ++i) {
        const Piece& p = pieces[i];
        if (p.sectors != 0) {
          entries.push_back(ly_.encode_compressed({p.off, p.sectors}));
          saved += cs - p.sectors * 512;
          continue;
        }
        for (std::uint64_t k = 0; k < p.bytes.size(); k += cs) {
          entries.push_back((p.off + k) | kFlagCopied);
        }
        plain += p.bytes.size() / cs;
      }
      clusters = entries.size();
      wr = co_await set_l2_raw_run(vaddr, std::move(entries));
    }
    if (!wr.ok()) {
      for (std::size_t i = 0; i < placed; ++i) {
        const Piece& p = pieces[i];
        if (p.sectors != 0) {
          VMIC_CO_TRY_VOID(co_await free_compressed_entry(
              ly_.encode_compressed({p.off, p.sectors}), l2_slot(p.vaddr)));
        } else {
          VMIC_CO_TRY_VOID(co_await free_clusters(
              p.off, p.bytes.size() / cs, l2_slot(p.vaddr)));
        }
      }
      // Clusters past the end of the file that the payload write never
      // reached are not part of the cache's size.
      trim_refcounts();
      co_return wr.error();
    }
    if (placed > 0) {
      if (old.kind == MapKind::compressed) {
        // A write over a compressed cluster drops the old payload's
        // reference behind a barrier (free could hand the shared cluster
        // out again while the old mapping is still the durable one).
        VMIC_CO_TRY_VOID(co_await free_extent(vaddr, old));
      }
    }
  }
  data_clusters_ += plain;
  if (cache_) {
    // Every cluster a cache stores is a copy-on-read fill: guests cannot
    // write to caches.
    stats_.cor_clusters += clusters;
    stats_.cor_bytes += clusters * cs;
    bump(agg_.cor_clusters, clusters);
    bump(agg_.cor_bytes, clusters * cs);
  }
  if (compress) {
    bump(agg_.comp.clusters, clusters - plain);
    bump(agg_.comp.bytes_saved, saved);
    bump(agg_.comp.fallbacks, plain);
  }
  if (!stop.ok()) co_return stop.error();
  co_return clusters;
}

sim::Task<Result<void>> Qcow2Device::place(Piece& p) {
  const std::uint64_t cs = ly_.cluster_size();
  const RefHint hint = l2_slot(p.vaddr);
  if (p.sectors == 0) {
    const std::uint64_t n = p.bytes.size() / cs;
    auto r = co_await alloc_clusters(n, hint);
    if (!r.ok() && r.error() == Errc::no_space && n > 1 && cache_) {
      // Near a cache's quota edge, degrade to one cluster so the cache
      // fills up to the quota exactly ("the first n blocks are stored
      // until the quota is reached", §3.2); the caller stores the rest
      // next.
      p.bytes = p.bytes.first(cs);
      r = co_await alloc_clusters(1, hint);
    }
    VMIC_CO_TRY(host, std::move(r));
    p.off = host;
    co_return ok_result();
  }
  // A compressed payload packs into the open packing cluster. The incref
  // lands before the payload and the publish: a crash in between leaves
  // an over-count only, which repair() drops.
  const std::uint64_t spc = cs / 512;  // sectors per cluster
  if (comp_cluster_off_ != 0 && comp_next_sector_ + p.sectors <= spc) {
    VMIC_CO_TRY_VOID(co_await incref_cluster(comp_cluster_off_ / cs));
  } else {
    // Fresh packing cluster; the old one's free tail is wasted.
    VMIC_CO_TRY(host, co_await alloc_clusters(1, hint));
    comp_cluster_off_ = host;
    comp_next_sector_ = 0;
    ++data_clusters_;
  }
  p.off = comp_cluster_off_ + comp_next_sector_ * 512;
  comp_next_sector_ += p.sectors;
  if (comp_next_sector_ >= spc) {
    comp_cluster_off_ = 0;
    comp_next_sector_ = 0;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::free_extent(std::uint64_t vaddr,
                                                 const Extent& ext) {
  if (ext.kind != MapKind::data && ext.kind != MapKind::compressed) {
    co_return ok_result();
  }
  // Barrier: the L2 dereference must be durable before the refcounts drop
  // — the reverse order could persist the decrement alone and hand a
  // still-referenced cluster to the allocator.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  if (ext.kind == MapKind::compressed) {
    // The payload's host cluster frees only when its last sharer leaves.
    co_return co_await free_compressed_entry(ext.entry, l2_slot(vaddr));
  }
  const std::uint64_t clusters = div_ceil(ext.len, ly_.cluster_size());
  VMIC_CO_TRY_VOID(
      co_await free_clusters(ext.host_off, clusters, l2_slot(vaddr)));
  data_clusters_ -= clusters;
  co_return ok_result();
}

// ===========================================================================
// compressed clusters
// ===========================================================================

Result<void> Qcow2Device::set_cor_compress(bool on) {
  if (on && journal_) {
    // The refcount journal's verified-recompute replay checks one
    // reference slot per recorded run and masks entries with kOffsetMask —
    // both break for shared compressed host clusters (DESIGN.md).
    return Errc::unsupported;
  }
  cor_compress_ = on;
  if (on && hub_ != nullptr && agg_.comp.clusters == nullptr) {
    CompCounters& c = obs_memo().comp;
    if (c.clusters == nullptr) {
      const obs::Labels ls{{"image", is_cache_image() ? "cache" : "plain"}};
      auto& r = hub_->registry;
      c.clusters = &r.counter("qcow2.compressed.clusters", ls);
      c.bytes_saved = &r.counter("qcow2.compressed.bytes_saved", ls);
      c.fallbacks = &r.counter("qcow2.compressed.fallbacks", ls);
      c.reads = &r.counter("qcow2.compressed.reads", ls);
    }
    agg_.comp = c;
  }
  return ok_result();
}

sim::Task<Result<void>> Qcow2Device::read_compressed(
    std::uint64_t pos, const Extent& ext, std::span<std::uint8_t> dst) {
  const std::uint64_t cs = ly_.cluster_size();
  const Layout::CompressedDesc d = ly_.decode_compressed(ext.entry);
  if (!ly_.compressed_desc_sane(d)) co_return Errc::corrupt;
  // Scratch stays uninitialised: pread fills the payload completely and
  // the decoder writes every byte of a cluster it accepts.
  const std::size_t plen = d.sectors * 512;
  const auto payload = std::make_unique_for_overwrite<std::uint8_t[]>(plen);
  const std::span<std::uint8_t> stream(payload.get(), plen);
  VMIC_CO_TRY_VOID(co_await file_->pread(d.offset, stream));
  if (dst.size() == cs) {
    // Whole-cluster read: decode straight into the caller's buffer.
    if (!lzss_decompress(stream, dst)) co_return Errc::corrupt;
  } else {
    const auto cluster = std::make_unique_for_overwrite<std::uint8_t[]>(cs);
    if (!lzss_decompress(stream, {cluster.get(), cs})) {
      co_return Errc::corrupt;
    }
    const std::uint64_t in_cl = pos & (cs - 1);
    std::memcpy(dst.data(), cluster.get() + in_cl, dst.size());
  }
  bump(agg_.comp.reads);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::incref_cluster(std::uint64_t cluster_idx) {
  assert(alloc_mutex_.locked() && "incref requires alloc_mutex_");
  assert(!journal_ && "compression is refused on journaled images");
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  if (cluster_idx >= refcounts_.size() || refcounts_[cluster_idx] == 0 ||
      refcounts_[cluster_idx] == 0xffff) {
    co_return Errc::corrupt;
  }
  ++refcounts_[cluster_idx];
  auto r = co_await record_counts(CountChange::up, cluster_idx, 1, {});
  // Not persisted: take the count back, nothing references it yet.
  if (!r.ok()) co_await undo_counts(cluster_idx, 1);
  co_return r;
}

sim::Task<Result<void>> Qcow2Device::free_compressed_entry(
    std::uint64_t entry, RefHint hint) {
  const std::uint64_t cs = ly_.cluster_size();
  const Layout::CompressedDesc d = ly_.decode_compressed(entry);
  if (!ly_.compressed_desc_sane(d)) co_return Errc::corrupt;
  const std::uint64_t host = align_down(d.offset, cs);
  VMIC_CO_TRY_VOID(co_await free_clusters(host, 1, hint));
  const std::uint64_t idx = host / cs;
  if (idx < refcounts_.size() && refcounts_[idx] == 0) {
    --data_clusters_;
    if (comp_cluster_off_ == host) {
      // Never append new payloads into a freed packing cluster.
      comp_cluster_off_ = 0;
      comp_next_sector_ = 0;
    }
  }
  co_return ok_result();
}

sim::Task<Result<Qcow2Device::CompressionStats>>
Qcow2Device::compression_stats() {
  CompressionStats out;
  const std::uint64_t cs = ly_.cluster_size();
  for (const std::uint64_t l1e : l1_) {
    const std::uint64_t l2_off = l1e & kOffsetMask;
    if (l2_off == 0) continue;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    for (const std::uint64_t e : *l2) {
      if ((e & kFlagCompressed) == 0) continue;
      const Layout::CompressedDesc d = ly_.decode_compressed(e);
      ++out.compressed_clusters;
      out.physical_bytes += d.sectors * 512;
      out.logical_bytes += cs;
    }
  }
  co_return out;
}

// ===========================================================================
// write path (guest writes, copy-on-write)
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::write(
    std::uint64_t off, std::span<const std::uint8_t> src) {
  if (off + src.size() > h_.size) co_return Errc::out_of_range;
  if (read_only()) co_return Errc::read_only;
  if (is_cache_image()) {
    // Immutability w.r.t. the base (§3): the guest never writes a cache;
    // only internal copy-on-read populates it.
    co_return Errc::read_only;
  }
  ++stats_.guest_writes;
  stats_.bytes_written += src.size();
  bump(agg_.guest_writes);
  bump(agg_.bytes_written, src.size());

  std::uint64_t pos = off;
  const std::uint64_t end = off + src.size();
  while (pos < end) {
    VMIC_CO_TRY(ext, co_await map_range(pos, end - pos));
    auto sub = src.subspan(pos - off, ext.len);
    if (ext.kind == MapKind::data) {
      VMIC_CO_TRY_VOID(co_await file_->pwrite(ext.host_off, sub));
    } else {
      // Copy-on-write: unallocated, zero-flagged and compressed clusters
      // get fresh plain clusters. Their edges come from the backing chain
      // (which may itself populate a cache image below us — data from the
      // base is allowed into the cache), zeros, or the old payload.
      std::vector<std::uint8_t> staging;
      VMIC_CO_TRY(run, co_await stage_run(pos, sub, ext, staging));
      VMIC_CO_TRY_VOID(co_await store_run(align_down(pos, ly_.cluster_size()),
                                          run, ext, /*compress=*/false));
    }
    pos += ext.len;
  }
  co_return ok_result();
}

// ===========================================================================
// zero clusters / discard / resize
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::free_clusters(std::uint64_t host_off,
                                                   std::uint64_t count,
                                                   RefHint hint) {
  assert(alloc_mutex_.locked() && "freeing requires alloc_mutex_");
  const std::uint64_t first = host_off / ly_.cluster_size();
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (i >= refcounts_.size() || refcounts_[i] == 0) {
      co_return Errc::corrupt;
    }
    --refcounts_[i];
    if (refcounts_[i] == 0) release_run(i, i + 1);
  }
  VMIC_CO_TRY_VOID(
      co_await record_counts(CountChange::down, first, count, hint));
  free_guess_ = std::min(free_guess_, first);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::set_l2_raw_run(
    std::uint64_t vaddr, std::vector<std::uint64_t> entries) {
  VMIC_CO_TRY_VOID(co_await ensure_dirty());
  VMIC_CO_TRY_VOID(co_await ensure_l2_table(vaddr));
  const std::uint64_t l2_off = l1_[ly_.l1_index(vaddr)] & kOffsetMask;
  VMIC_CO_TRY(l2, co_await load_l2(l2_off));
  const std::uint64_t i2 = ly_.l2_index(vaddr);
  assert(i2 + entries.size() <= ly_.l2_entries());
  // Pack the entries big-endian in place (the vector doubles as the write
  // buffer); the cached table takes them only once the write succeeded,
  // so a failure leaves it describing the file.
  const std::size_t n = entries.size();
  auto* be = reinterpret_cast<std::uint8_t*>(entries.data());
  pack_be64(entries.data(), n, be);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(l2_off + i2 * 8, {be, n * 8}));
  for (std::size_t k = 0; k < n; ++k) (*l2)[i2 + k] = load_be64(be + k * 8);
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::unmap_clusters(std::uint64_t lo,
                                                    std::uint64_t hi,
                                                    std::uint64_t entry) {
  const std::uint64_t cs = ly_.cluster_size();
  const MapKind target = entry == 0 ? MapKind::unallocated : MapKind::zero;
  auto guard = co_await lock_alloc();
  for (std::uint64_t pos = lo; pos < hi;) {
    VMIC_CO_TRY(ext, co_await map_range(pos, hi - pos));
    const std::uint64_t clusters = div_ceil(ext.len, cs);
    if (ext.kind != target) {
      // Extents from map_range never cross an L2 boundary.
      VMIC_CO_TRY_VOID(co_await set_l2_raw_run(
          pos, std::vector<std::uint64_t>(clusters, entry)));
    }
    VMIC_CO_TRY_VOID(co_await free_extent(pos, ext));
    pos += clusters * cs;
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_zeroes(std::uint64_t off,
                                                  std::uint64_t len) {
  if (off + len > h_.size) co_return Errc::out_of_range;
  if (read_only() || is_cache_image()) co_return Errc::read_only;
  if (len == 0) co_return ok_result();
  const std::uint64_t cs = ly_.cluster_size();

  const std::uint64_t lo = align_up(off, cs);
  const std::uint64_t hi = align_down(off + len, cs);

  if (hi <= lo) {
    // Entire range inside one cluster: plain zero write.
    std::vector<std::uint8_t> zeros(len, 0);
    co_return co_await write(off, zeros);
  }
  // Head fragment.
  if (off < lo) {
    std::vector<std::uint8_t> zeros(lo - off, 0);
    VMIC_CO_TRY_VOID(co_await write(off, zeros));
  }
  // Whole clusters: flip to the zero flag, releasing what they held (the
  // head/tail write() fragments above/below stay outside the allocator
  // mutex the unmap loop holds: the store path acquires it itself).
  VMIC_CO_TRY_VOID(co_await unmap_clusters(lo, hi, kFlagZero));
  // Tail fragment.
  if (off + len > hi) {
    std::vector<std::uint8_t> zeros(off + len - hi, 0);
    VMIC_CO_TRY_VOID(co_await write(hi, zeros));
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::discard(std::uint64_t off,
                                             std::uint64_t len) {
  if (off + len > h_.size) co_return Errc::out_of_range;
  if (read_only() || is_cache_image()) co_return Errc::read_only;
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t lo = align_up(off, cs);
  const std::uint64_t hi = align_down(off + len, cs);
  // Sub-cluster fragments of a discard are dropped (advisory semantics,
  // like real discard).
  if (hi <= lo) co_return ok_result();

  if (backing_ != nullptr) {
    // With a backing image, plain deallocation would resurface stale
    // backing data; leave zero clusters instead (QEMU does the same).
    co_return co_await write_zeroes(lo, hi - lo);
  }
  co_return co_await unmap_clusters(lo, hi, 0);
}

sim::Task<Result<void>> Qcow2Device::resize(std::uint64_t new_size) {
  if (read_only()) co_return Errc::read_only;
  if (new_size < h_.size) co_return Errc::invalid_argument;  // grow-only
  if (new_size == h_.size) co_return ok_result();
  if (new_size > kMaxL1Bytes / 8 * ly_.bytes_per_l2()) {
    co_return Errc::invalid_argument;  // L1 would outgrow open()'s limit
  }

  const std::uint32_t needed = ly_.l1_entries_for(new_size);
  if (needed > l1_.size()) {
    // Relocate the L1 table into a larger run of clusters.
    auto guard = co_await lock_alloc();
    const std::uint64_t cs = ly_.cluster_size();
    const std::uint64_t new_clusters =
        div_ceil(std::uint64_t{needed} * 8, cs);
    // The relocated L1 is referenced by the header's l1_table_offset
    // field (offset 40) once the switch-over publishes.
    const RefHint hint{40, /*run=*/true};
    VMIC_CO_TRY(new_off, co_await alloc_clusters(new_clusters, hint));

    std::vector<std::uint64_t> new_l1(new_clusters * cs / 8, 0);
    std::copy(l1_.begin(), l1_.end(), new_l1.begin());
    std::vector<std::uint8_t> be(new_clusters * cs, 0);
    pack_be64(new_l1.data(), new_l1.size(), be.data());
    auto wr = co_await file_->pwrite(new_off, be);
    // Barrier: the new table must be durable before the header points at
    // it.
    if (wr.ok()) wr = co_await file_->flush();
    if (wr.ok()) {
      std::uint8_t hdr[12];
      store_be32(hdr, static_cast<std::uint32_t>(new_l1.size()));
      store_be64(hdr + 4, new_off);
      wr = co_await file_->pwrite(36, hdr);
    }
    if (!wr.ok()) {
      // The file still maps the old table only: release the new one's
      // clusters, and drop the mirror's tail past the end of the file,
      // which a failed table write never reached.
      VMIC_CO_TRY_VOID(co_await free_clusters(new_off, new_clusters, hint));
      trim_refcounts();
      co_return wr.error();
    }
    // The header names the new table; the in-memory copy follows it. The
    // old table's clusters are released behind the switch-over's flush
    // barrier, now or, if that fails, at the next allocation or close().
    assert(old_table_.count == 0);
    old_table_ = {h_.l1_table_offset / cs,
                  div_ceil(std::uint64_t{h_.l1_size} * 8, cs), 40};
    l1_ = std::move(new_l1);
    h_.l1_table_offset = new_off;
    h_.l1_size = static_cast<std::uint32_t>(l1_.size());
    VMIC_CO_TRY_VOID(co_await release_old_table());
  }

  std::uint8_t be[8];
  store_be64(be, new_size);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(24, be));
  h_.size = new_size;
  co_return ok_result();
}

// ===========================================================================
// flush / close
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::flush() {
  VMIC_CO_TRY_VOID(co_await file_->flush());
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::close() {
  if (cache_ && !read_only() && !file_->read_only()) {
    // §4.3 "close": persist the cache's current size into the header
    // extension.
    cache_->current_size = file_bytes();
    std::uint8_t be[8];
    store_be64(be, cache_->current_size);
    VMIC_CO_TRY_VOID(
        co_await file_->pwrite(cache_ext_payload_offset_ + 8, be));
  }
  if (old_table_.count != 0) {
    auto guard = co_await lock_alloc();
    VMIC_CO_TRY_VOID(co_await release_old_table());
  }
  if (dirty_ && !keep_dirty_ && !file_->read_only()) {
    // Clean shutdown: settle deferred refcounts, then drop the dirty
    // mark behind a barrier. In journal mode the on-disk blocks are
    // stale for every journaled mutation — a checkpoint writes them back
    // and retires the records; in lazy mode the mirror holds deferred
    // decrements. Dirt this session cannot vouch for (keep_dirty_) stays
    // — only repair() earns a clean mark for it.
    if (journal_) {
      VMIC_CO_TRY_VOID(co_await journal_checkpoint());
      if (lazy_) {
        VMIC_CO_TRY_VOID(co_await persist_refcounts());
      }
    } else if (lazy_) {
      VMIC_CO_TRY_VOID(co_await persist_refcounts());
    }
    VMIC_CO_TRY_VOID(co_await write_clean_bit());
  }
  VMIC_CO_TRY_VOID(co_await file_->flush());
  if (backing_) {
    VMIC_CO_TRY_VOID(co_await backing_->close());
  }
  co_return ok_result();
}

// ===========================================================================
// durability: dirty bit, lazy refcounts, repair
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::ensure_dirty() {
  if (dirty_) co_return ok_result();
  assert(alloc_mutex_.locked() && "dirty transition requires alloc_mutex_");
  h_.incompatible_features |= kIncompatDirty;
  std::uint8_t be[8];
  store_be64(be, h_.incompatible_features);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(72, be));
  // New session generation: retires any record a previous session left
  // behind (e.g. after a clean close, which does not rewind the journal).
  // The bump rides the same flush as the dirty bit, so every record this
  // session appends — all issued after this flush — sees a durable
  // generation; a cut before the flush leaves only stale-generation
  // records, which replay as no-ops against the cleanly persisted state.
  if (journal_) {
    ++journal_gen_;
    journal_seq_ = 0;
    journal_head_ = 1;
    journal_dirty_blocks_.clear();
    journal_header_bad_ = false;
    VMIC_CO_TRY_VOID(co_await journal_write_header());
  }
  // Barrier: the dirty mark must be durable before any metadata mutation
  // it covers — otherwise a crash could leave stale refcounts behind a
  // header that claims the image is clean.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  dirty_ = true;
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::persist_refcounts() {
  assert(refcounts_loaded_);
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::size_t bi = 0; bi < rt_.size() && bi * rpb < refcounts_.size();
       ++bi) {
    VMIC_CO_TRY_VOID(co_await write_back_block(bi));
  }
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::write_clean_bit() {
  // Barrier: every metadata write of this session must be durable before
  // the image may claim to be clean again.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  h_.incompatible_features &= ~kIncompatDirty;
  std::uint8_t be[8];
  store_be64(be, h_.incompatible_features);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(72, be));
  VMIC_CO_TRY_VOID(co_await file_->flush());
  dirty_ = false;
  co_return ok_result();
}

// ===========================================================================
// refcount journal
// ===========================================================================

sim::Task<Result<void>> Qcow2Device::journal_write_header() {
  assert(journal_);
  std::uint8_t sec[kJournalSectorSize];
  encode_journal_header(JournalHeader{journal_gen_, journal_sector_count_},
                        sec);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(journal_->offset, sec));
  co_return ok_result();
}

sim::Task<Result<void>> Qcow2Device::journal_append(std::uint32_t flags,
                                                    std::uint64_t first_cluster,
                                                    std::uint64_t count,
                                                    RefHint hint) {
  assert(journal_);
  assert(alloc_mutex_.locked() && "journal append requires alloc_mutex_");
  if (journal_head_ >= journal_sector_count_) {
    VMIC_CO_TRY_VOID(co_await journal_checkpoint());
  }
  JournalRecord r;
  r.flags = flags;
  r.generation = journal_gen_;
  r.seq = journal_seq_++;
  r.first_cluster = first_cluster;
  r.count = count;
  r.ref_off = hint.ref_off;
  std::uint8_t sec[kJournalSectorSize];
  encode_journal_record(r, sec);
  VMIC_CO_TRY_VOID(co_await file_->pwrite(
      journal_->offset + journal_head_ * std::uint64_t{kJournalSectorSize},
      sec));
  ++journal_head_;
  mark_stale(first_cluster, count);
  bump(agg_.journal_appends);
  co_return ok_result();
}

void Qcow2Device::mark_stale(std::uint64_t first, std::uint64_t n) {
  const std::uint64_t rpb = ly_.refcounts_per_block();
  for (std::uint64_t bi = first / rpb; bi <= (first + n - 1) / rpb; ++bi) {
    journal_dirty_blocks_.insert(bi);
  }
}

sim::Task<Result<void>> Qcow2Device::journal_checkpoint() {
  assert(journal_);
  assert(refcounts_loaded_);
  // Write every stale block back from the mirror, then retire the records
  // behind a barrier by bumping the header generation. Ordering: a cut
  // that keeps the bump but drops a block write-back is impossible — the
  // flush below makes the blocks durable before the header write is even
  // issued; a cut the other way round simply replays the (idempotent)
  // records again.
  for (const std::uint64_t bi : journal_dirty_blocks_) {
    VMIC_CO_TRY_VOID(co_await write_back_block(bi));
  }
  VMIC_CO_TRY_VOID(co_await file_->flush());
  ++journal_gen_;
  journal_seq_ = 0;
  journal_head_ = 1;
  journal_dirty_blocks_.clear();
  VMIC_CO_TRY_VOID(co_await journal_write_header());
  bump(agg_.journal_checkpoints);
  co_return ok_result();
}

sim::Task<Result<Qcow2Device::JournalScan>> Qcow2Device::journal_scan() {
  assert(journal_);
  JournalScan out;
  std::vector<std::uint8_t> region(journal_->size, 0);
  VMIC_CO_TRY_VOID(co_await file_->pread(journal_->offset, region));

  JournalHeader jh;
  if (!decode_journal_header(std::span(region.data(), kJournalSectorSize),
                             jh) ||
      jh.sector_count != journal_sector_count_) {
    co_return out;  // header_ok stays false
  }
  out.header_ok = true;
  out.generation = jh.generation;

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t file_size = file_->size();
  const std::uint64_t file_clusters = div_ceil(file_size, cs);

  for (std::uint64_t s = 1; s < journal_sector_count_; ++s) {
    JournalRecord r;
    if (!decode_journal_record(
            std::span(region.data() + s * kJournalSectorSize,
                      kJournalSectorSize),
            r)) {
      continue;  // torn/stale/garbage sector: discard
    }
    if (r.generation != jh.generation) continue;  // retired record
    ++out.entries;
    if (r.count == 0 ||
        r.count > file_clusters + ly_.refcounts_per_block()) {
      out.inconsistent = true;  // checksum-valid but nonsensical
      continue;
    }
    // Verified recompute: a cluster's effective refcount is 1 iff its
    // recorded reference slot durably points at it. Barrier ordering
    // guarantees at most one slot can (publishes ride a flush that makes
    // the record durable first), so any-match accumulation is sound and
    // replay is order-independent and idempotent.
    if ((r.flags & kJournalRefRun) != 0) {
      bool referenced = false;
      if (r.ref_off + 8 <= file_size) {
        std::uint8_t be[8];
        VMIC_CO_TRY_VOID(co_await file_->pread(r.ref_off, be));
        referenced = (load_be64(be) & kOffsetMask) == r.first_cluster * cs;
      }
      for (std::uint64_t k = 0; k < r.count; ++k) {
        auto& e = out.effective[r.first_cluster + k];
        if (referenced) e = 1;
      }
      if (referenced && r.first_cluster + r.count > file_clusters) {
        out.inconsistent = true;  // durable reference past EOF
      }
    } else {
      for (std::uint64_t k = 0; k < r.count; ++k) {
        const std::uint64_t c = r.first_cluster + k;
        bool referenced = false;
        const std::uint64_t slot = r.ref_off + k * 8;
        if (slot + 8 <= file_size) {
          std::uint8_t be[8];
          VMIC_CO_TRY_VOID(co_await file_->pread(slot, be));
          referenced = (load_be64(be) & kOffsetMask) == c * cs;
        }
        auto& e = out.effective[c];
        if (referenced) {
          e = 1;
          if (c >= file_clusters) out.inconsistent = true;
        }
      }
    }
  }
  co_return out;
}

sim::Task<Result<bool>> Qcow2Device::journal_repair_fast(RepairReport& rep) {
  assert(journal_);
  if (journal_header_bad_) co_return false;
  VMIC_CO_TRY(scan, co_await journal_scan());
  if (!scan.header_ok || scan.inconsistent) co_return false;

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t rpb = ly_.refcounts_per_block();

  // Patch the touched refcount blocks — O(journal) I/O, no L1/L2 walk.
  // scan.effective is ordered by cluster, so blocks load at most once.
  std::vector<std::uint8_t> buf(cs, 0);
  std::uint64_t cur_bi = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t cur_off = 0;
  bool block_dirty = false;
  const auto flush_block = [&]() -> sim::Task<Result<void>> {
    if (block_dirty) {
      VMIC_CO_TRY_VOID(co_await file_->pwrite(cur_off, buf));
      block_dirty = false;
    }
    co_return ok_result();
  };
  for (const auto& [c, v] : scan.effective) {
    const std::uint64_t bi = c / rpb;
    if (bi >= rt_.size() || (rt_[bi] & kOffsetMask) == 0) {
      // No block to patch. A durable reference with nowhere to store its
      // count means the journal cannot prove consistency — fall back.
      if (v != 0) co_return false;
      continue;  // absent block already reads as refcount 0
    }
    if (bi != cur_bi) {
      VMIC_CO_TRY_VOID(co_await flush_block());
      cur_bi = bi;
      cur_off = rt_[bi] & kOffsetMask;
      VMIC_CO_TRY_VOID(co_await file_->pread(cur_off, buf));
    }
    const std::uint64_t k = c - bi * rpb;
    const std::uint16_t old = load_be16(buf.data() + k * 2);
    if (old == v) continue;
    if (old > v) {
      ++rep.leaks_dropped;
    } else {
      ++rep.corruptions_fixed;
    }
    store_be16(buf.data() + k * 2, v);
    block_dirty = true;
  }
  VMIC_CO_TRY_VOID(co_await flush_block());

  // Barrier: the patched blocks must be durable before the generation
  // bump retires the records they were derived from — a cut that kept the
  // bump but dropped a patch would silence the journal over a stale
  // block. The header write itself rides write_clean_bit()'s flush.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  journal_gen_ = scan.generation + 1;
  journal_seq_ = 0;
  journal_head_ = 1;
  journal_dirty_blocks_.clear();
  VMIC_CO_TRY_VOID(co_await journal_write_header());
  VMIC_CO_TRY_VOID(co_await write_clean_bit());
  keep_dirty_ = false;

  // Drop any stale in-memory mirror so the allocator reloads the repaired
  // truth (repair() at open runs before load_refcounts, but an explicit
  // repair() mid-session must refresh).
  if (refcounts_loaded_) {
    refcounts_loaded_ = false;
    refcounts_.clear();
    free_runs_.clear();
    free_guess_ = 0;
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }

  rep.journal_replayed = true;
  rep.journal_entries = scan.entries;
  bump(agg_.repair_runs);
  bump(agg_.journal_replays);
  bump(agg_.journal_entries_replayed, scan.entries);
  bump(agg_.repair_leaks_dropped, rep.leaks_dropped);
  bump(agg_.repair_corruptions_fixed, rep.corruptions_fixed);
  co_return true;
}

sim::Task<Result<RepairReport>> Qcow2Device::repair() {
  if (file_->read_only()) co_return Errc::read_only;
  RepairReport rep;
  rep.was_dirty = dirty_ || (h_.incompatible_features & kIncompatDirty) != 0;

  // O(journal) fast path: a dirty journaled image is repaired by
  // replaying the journal — no L1/L2 walk, no full refcount rebuild.
  // Falls through to the rebuild when replay cannot prove consistency.
  if (journal_ && rep.was_dirty) {
    VMIC_CO_TRY(done, co_await journal_repair_fast(rep));
    if (done) co_return rep;
    rep.journal_fallback = true;
    bump(agg_.journal_fallbacks);
  }

  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t rpb = ly_.refcounts_per_block();
  std::uint64_t file_clusters = div_ceil(file_->size(), cs);
  std::vector<std::uint16_t> expected(file_clusters, 0);
  std::uint64_t data_clusters = 0;
  std::uint64_t l2_clusters = 0;

  const auto valid = [&](std::uint64_t off) {
    return off != 0 && off % cs == 0 && off / cs < file_clusters;
  };
  const auto mark = [&](std::uint64_t off, std::uint64_t clusters) {
    const std::uint64_t first = off / cs;
    for (std::uint64_t i = 0; i < clusters; ++i) {
      if (expected[first + i] != 0xffff) ++expected[first + i];
    }
  };
  const auto clear_l1_entry = [&](std::size_t i1) -> sim::Task<Result<void>> {
    l1_[i1] = 0;
    ++rep.entries_cleared;
    const std::uint8_t be[8] = {0};
    co_return co_await file_->pwrite(h_.l1_table_offset + i1 * 8, be);
  };

  // The fixed infrastructure (header area, refcount table, L1) must be
  // sane — those offsets come from the header, which is only ever
  // rewritten in single-sector (atomic) writes, so a crash cannot damage
  // them. Anything else is beyond in-place repair.
  const std::uint64_t header_clusters =
      div_ceil(header_area_size(cache_, journal_, backing_path_), cs);
  const std::uint64_t l1_clusters =
      div_ceil(std::uint64_t{h_.l1_size} * 8, cs);
  const std::uint64_t journal_clusters =
      journal_ ? div_ceil(journal_->size, cs) : 0;
  if (header_clusters > file_clusters ||
      h_.refcount_table_offset % cs != 0 ||
      h_.refcount_table_offset / cs + h_.refcount_table_clusters >
          file_clusters ||
      h_.l1_table_offset % cs != 0 ||
      h_.l1_table_offset / cs + l1_clusters > file_clusters ||
      (journal_ &&
       journal_->offset / cs + journal_clusters > file_clusters)) {
    co_return Errc::corrupt;
  }
  mark(0, header_clusters);
  mark(h_.refcount_table_offset, h_.refcount_table_clusters);
  mark(h_.l1_table_offset, l1_clusters);
  if (journal_) mark(journal_->offset, journal_clusters);

  // Walk L1 -> L2, dropping invalid pointers: a cleared entry reads from
  // the backing chain / as zeros again, which is the only safe meaning
  // left for a pointer into nowhere.
  for (std::size_t i1 = 0; i1 < l1_.size(); ++i1) {
    const std::uint64_t l2_off = l1_[i1] & kOffsetMask;
    if (l2_off == 0) {
      if (l1_[i1] != 0) VMIC_CO_TRY_VOID(co_await clear_l1_entry(i1));
      continue;
    }
    if (!valid(l2_off)) {
      VMIC_CO_TRY_VOID(co_await clear_l1_entry(i1));
      continue;
    }
    mark(l2_off, 1);
    ++l2_clusters;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    bool table_changed = false;
    for (std::uint64_t i2 = 0; i2 < l2->size(); ++i2) {
      const std::uint64_t e = (*l2)[i2];
      if ((e & kFlagCompressed) != 0) {
        // A compressed payload holds one reference on its (possibly
        // shared) host cluster. Validate the descriptor's extent; a
        // pointer into nowhere is cleared like any other.
        const Layout::CompressedDesc d = ly_.decode_compressed(e);
        const std::uint64_t payload_end = d.offset + d.sectors * 512;
        if (!ly_.compressed_desc_sane(d) ||
            payload_end > file_clusters * cs) {
          (*l2)[i2] = 0;
          table_changed = true;
          ++rep.entries_cleared;
          continue;
        }
        const std::uint64_t host = align_down(d.offset, cs);
        if (expected[host / cs] == 0) ++data_clusters;
        mark(host, 1);
        continue;
      }
      const std::uint64_t off = e & kOffsetMask;
      if (off != 0 && !valid(off)) {
        (*l2)[i2] = 0;
        table_changed = true;
        ++rep.entries_cleared;
        continue;
      }
      if (off != 0) {
        mark(off, 1);
        ++data_clusters;
      }
    }
    if (table_changed) {
      std::vector<std::uint8_t> be(l2->size() * 8);
      pack_be64(l2->data(), l2->size(), be.data());
      VMIC_CO_TRY_VOID(co_await file_->pwrite(l2_off, be));
    }
  }

  // Keep valid existing refcount blocks (rebuilding reuses their
  // clusters), drop pointers into nowhere.
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    const std::uint64_t off = rt_[bi] & kOffsetMask;
    if (off == 0) {
      if (rt_[bi] != 0) {
        rt_[bi] = 0;
        ++rep.entries_cleared;
      }
      continue;
    }
    if (!valid(off)) {
      rt_[bi] = 0;
      ++rep.entries_cleared;
      continue;
    }
    mark(off, 1);
  }

  // Every referenced cluster needs a covering refcount block; allocate
  // missing blocks from clusters the walk proved free. A new block may
  // itself land in an uncovered range — iterate to the fixed point.
  std::uint64_t scan = 0;
  for (bool again = true; again;) {
    again = false;
    for (std::uint64_t i = 0; i < file_clusters; ++i) {
      if (expected[i] == 0) continue;
      const std::uint64_t bi = i / rpb;
      if (bi >= rt_.size()) {
        // Would need refcount-table growth: impossible for crash states
        // (growth is barrier-ordered), so treat as unrepairable.
        co_return Errc::corrupt;
      }
      if ((rt_[bi] & kOffsetMask) != 0) continue;
      while (scan < file_clusters && expected[scan] != 0) ++scan;
      std::uint64_t b = scan;
      if (b == file_clusters) {
        ++file_clusters;
        expected.resize(file_clusters, 0);
      }
      expected[b] = 1;
      rt_[bi] = b * cs;
      again = true;
    }
  }

  // Diff the rebuilt counts against the on-disk ones for the report.
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  for (std::uint64_t i = 0; i < file_clusters; ++i) {
    const std::uint16_t actual =
        i < refcounts_.size() ? refcounts_[i] : std::uint16_t{0};
    if (actual > expected[i]) {
      ++rep.leaks_dropped;
    } else if (actual < expected[i]) {
      ++rep.corruptions_fixed;
    }
  }

  // Persist: every allocated block from the rebuilt mirror, then the
  // table, then clear the dirty bit behind a barrier.
  //
  // Barrier: the L1/L2 entry clears above must be durable before any
  // lowered refcount lands — a cut that kept the lowered count but
  // dropped the clear would leave a referenced cluster the allocator
  // hands out again (refcount < references). Repair must survive a cut
  // mid-repair as well as any other writer.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  refcounts_ = std::move(expected);
  refcounts_loaded_ = true;
  std::vector<std::uint8_t> buf(cs, 0);
  for (std::size_t bi = 0; bi < rt_.size(); ++bi) {
    const std::uint64_t off = rt_[bi] & kOffsetMask;
    if (off == 0) continue;
    std::memset(buf.data(), 0, buf.size());
    pack_refcounts(refcounts_, bi * rpb, buf);
    VMIC_CO_TRY_VOID(co_await file_->pwrite(off, buf));
  }
  // Barrier: block contents before the table that publishes them — the
  // rebuild may have pointed table entries at fresh block clusters, and
  // a cut that kept such a pointer but dropped the block's contents
  // would publish a block of garbage counts.
  VMIC_CO_TRY_VOID(co_await file_->flush());
  {
    std::vector<std::uint8_t> tbuf(
        std::uint64_t{h_.refcount_table_clusters} * cs, 0);
    pack_be64(rt_.data(), rt_.size(), tbuf.data());
    VMIC_CO_TRY_VOID(co_await file_->pwrite(h_.refcount_table_offset, tbuf));
  }
  if (journal_) {
    // Retire every record: the rebuilt state is authoritative now.
    // Barrier first — the generation bump must not outlive a cut that
    // dropped part of the rebuild, or a re-open would trust a clean
    // journal over a half-persisted rebuild. The header write itself
    // rides write_clean_bit()'s leading flush.
    VMIC_CO_TRY_VOID(co_await file_->flush());
    ++journal_gen_;
    journal_seq_ = 0;
    journal_head_ = 1;
    journal_dirty_blocks_.clear();
    journal_header_bad_ = false;
    VMIC_CO_TRY_VOID(co_await journal_write_header());
  }
  VMIC_CO_TRY_VOID(co_await write_clean_bit());
  keep_dirty_ = false;

  // Refresh the allocator's view of the world. The rebuild counted only
  // referenced clusters, so a replaced refcount table is released too.
  data_clusters_ = data_clusters;
  l2_clusters_ = l2_clusters;
  free_guess_ = 0;
  old_table_ = {};
  index_free_runs();

  bump(agg_.repair_runs);
  bump(agg_.repair_entries_cleared, rep.entries_cleared);
  bump(agg_.repair_leaks_dropped, rep.leaks_dropped);
  bump(agg_.repair_corruptions_fixed, rep.corruptions_fixed);
  co_return rep;
}

// ===========================================================================
// consistency check
// ===========================================================================

sim::Task<Result<CheckResult>> Qcow2Device::check() {
  const std::uint64_t cs = ly_.cluster_size();
  const std::uint64_t file_clusters = div_ceil(file_->size(), cs);
  std::vector<std::uint16_t> expected(file_clusters, 0);
  // What marked each host cluster: 0 = nothing, 1 = a normal (exclusive)
  // reference, 2 = compressed payloads. Compressed payloads may share a
  // host cluster with each other (refcount = number of referencing L2
  // entries), never with a normal reference.
  std::vector<std::uint8_t> mark_kind(file_clusters, 0);
  CheckResult res;

  auto mark = [&](std::uint64_t off, std::uint64_t clusters,
                  bool metadata) -> bool {
    const std::uint64_t first = off / cs;
    if (off % cs != 0 || first + clusters > file_clusters) {
      ++res.corruptions;
      return false;
    }
    for (std::uint64_t i = 0; i < clusters; ++i) {
      if (expected[first + i] != 0) ++res.corruptions;  // overlap
      expected[first + i] = 1;
      mark_kind[first + i] = 1;
    }
    if (metadata) {
      res.metadata_clusters += clusters;
    } else {
      res.data_clusters += clusters;
    }
    return true;
  };

  auto mark_compressed = [&](std::uint64_t entry) {
    const Layout::CompressedDesc d = ly_.decode_compressed(entry);
    const std::uint64_t end = d.offset + d.sectors * 512;
    if (!ly_.compressed_desc_sane(d) || end > file_clusters * cs) {
      ++res.corruptions;
      return;
    }
    const std::uint64_t c = d.offset / cs;
    if (mark_kind[c] == 1) {
      ++res.corruptions;  // collides with an exclusive reference
      return;
    }
    if (mark_kind[c] == 0) {
      mark_kind[c] = 2;
      ++res.data_clusters;
    }
    if (expected[c] != 0xffff) ++expected[c];
    ++res.compressed_clusters;
  };

  // Header area.
  mark(0, div_ceil(header_area_size(cache_, journal_, backing_path_), cs),
       true);
  // Journal region.
  if (journal_) mark(journal_->offset, div_ceil(journal_->size, cs), true);
  // Refcount table and blocks.
  mark(h_.refcount_table_offset, h_.refcount_table_clusters, true);
  for (const std::uint64_t e : rt_) {
    if ((e & kOffsetMask) != 0) mark(e & kOffsetMask, 1, true);
  }
  // L1 and L2 tables, then data clusters.
  mark(h_.l1_table_offset, div_ceil(std::uint64_t{h_.l1_size} * 8, cs), true);
  for (const std::uint64_t l1e : l1_) {
    const std::uint64_t l2_off = l1e & kOffsetMask;
    if (l2_off == 0) continue;
    if (!mark(l2_off, 1, true)) continue;
    VMIC_CO_TRY(l2, co_await load_l2(l2_off));
    for (const std::uint64_t l2e : *l2) {
      if ((l2e & kFlagCompressed) != 0) {
        mark_compressed(l2e);
        continue;
      }
      const std::uint64_t off = l2e & kOffsetMask;
      if (off != 0) mark(off, 1, false);
    }
  }

  // Compare against the on-disk refcounts.
  if (!refcounts_loaded_) {
    VMIC_CO_TRY_VOID(co_await load_refcounts());
  }
  for (std::uint64_t i = 0; i < file_clusters; ++i) {
    const std::uint16_t actual =
        i < refcounts_.size() ? refcounts_[i] : std::uint16_t{0};
    if (actual > expected[i]) {
      ++res.leaked_clusters;
    } else if (actual < expected[i]) {
      ++res.corruptions;
    }
  }
  // Nothing can reference a cluster at or past the end of the file, so a
  // count there is a leak.
  for (std::uint64_t i = file_clusters; i < refcounts_.size(); ++i) {
    if (refcounts_[i] != 0) ++res.leaked_clusters;
  }
  co_return res;
}

// ===========================================================================
// probing
// ===========================================================================

sim::Task<Result<block::DevicePtr>> open_any(io::BackendPtr file,
                                             const block::OpenOptions& opt) {
  if (file == nullptr) co_return Errc::invalid_argument;
  if (file->size() >= 4) {
    std::uint8_t magic[4];
    VMIC_CO_TRY_VOID(co_await file->pread(0, magic));
    if (load_be32(magic) == kMagic) {
      co_return co_await Qcow2Device::open(std::move(file), opt);
    }
  }
  if (!opt.writable) file->set_read_only(true);
  co_return block::RawDevice::open(std::move(file));
}

}  // namespace vmic::qcow2
