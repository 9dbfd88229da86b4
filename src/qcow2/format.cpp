#include "qcow2/format.hpp"

#include <cassert>
#include <cstring>

#include "qcow2/layout.hpp"
#include "util/align.hpp"
#include "util/bytes.hpp"

namespace vmic::qcow2 {

namespace {

constexpr std::uint64_t kExtHeaderBytes = 8;  // magic + length
constexpr std::uint64_t kCacheExtPayload = 16;
constexpr std::uint64_t kJournalExtPayload = 16;

}  // namespace

std::uint64_t header_area_size(const std::optional<CacheExtension>& cache,
                               const std::optional<JournalExtension>& journal,
                               const std::string& backing_file) {
  std::uint64_t n = kHeaderLength;
  if (cache.has_value()) {
    n += kExtHeaderBytes + align_up(kCacheExtPayload, 8);
  }
  if (journal.has_value()) {
    n += kExtHeaderBytes + align_up(kJournalExtPayload, 8);
  }
  n += kExtHeaderBytes;  // end-of-extensions marker
  n += backing_file.size();
  return n;
}

std::uint64_t write_header_area(const Header& h,
                                const std::optional<CacheExtension>& cache,
                                const std::optional<JournalExtension>& journal,
                                const std::string& backing_file,
                                std::span<std::uint8_t> out) {
  assert(out.size() >= header_area_size(cache, journal, backing_file));
  std::memset(out.data(), 0, out.size());
  std::uint8_t* p = out.data();

  store_be32(p + 0, h.magic);
  store_be32(p + 4, h.version);
  store_be64(p + 8, h.backing_file_offset);
  store_be32(p + 16, h.backing_file_size);
  store_be32(p + 20, h.cluster_bits);
  store_be64(p + 24, h.size);
  store_be32(p + 32, h.crypt_method);
  store_be32(p + 36, h.l1_size);
  store_be64(p + 40, h.l1_table_offset);
  store_be64(p + 48, h.refcount_table_offset);
  store_be32(p + 56, h.refcount_table_clusters);
  store_be32(p + 60, h.nb_snapshots);
  store_be64(p + 64, h.snapshots_offset);
  store_be64(p + 72, h.incompatible_features);
  store_be64(p + 80, h.compatible_features);
  store_be64(p + 88, h.autoclear_features);
  store_be32(p + 96, h.refcount_order);
  store_be32(p + 100, h.header_length);

  std::uint64_t off = kHeaderLength;
  std::uint64_t cache_payload_off = 0;
  if (cache.has_value()) {
    store_be32(p + off, kExtVmiCache);
    store_be32(p + off + 4, static_cast<std::uint32_t>(kCacheExtPayload));
    cache_payload_off = off + kExtHeaderBytes;
    store_be64(p + cache_payload_off, cache->quota);
    store_be64(p + cache_payload_off + 8, cache->current_size);
    off = cache_payload_off + align_up(kCacheExtPayload, 8);
  }
  if (journal.has_value()) {
    store_be32(p + off, kExtVmiJournal);
    store_be32(p + off + 4, static_cast<std::uint32_t>(kJournalExtPayload));
    store_be64(p + off + kExtHeaderBytes, journal->offset);
    store_be64(p + off + kExtHeaderBytes + 8, journal->size);
    off += kExtHeaderBytes + align_up(kJournalExtPayload, 8);
  }
  store_be32(p + off, kExtEnd);
  store_be32(p + off + 4, 0);
  off += kExtHeaderBytes;

  if (!backing_file.empty()) {
    std::memcpy(p + off, backing_file.data(), backing_file.size());
  }
  return cache_payload_off;
}

Result<ParsedHeader> parse_header_area(std::span<const std::uint8_t> buf) {
  if (buf.size() < kHeaderLength) return Errc::invalid_format;
  const std::uint8_t* p = buf.data();

  ParsedHeader out;
  Header& h = out.h;
  h.magic = load_be32(p + 0);
  if (h.magic != kMagic) return Errc::invalid_format;
  h.version = load_be32(p + 4);
  if (h.version != 2 && h.version != 3) return Errc::unsupported;
  h.backing_file_offset = load_be64(p + 8);
  h.backing_file_size = load_be32(p + 16);
  h.cluster_bits = load_be32(p + 20);
  if (h.cluster_bits < kMinClusterBits || h.cluster_bits > kMaxClusterBits) {
    return Errc::invalid_format;
  }
  h.size = load_be64(p + 24);
  h.crypt_method = load_be32(p + 32);
  if (h.crypt_method != 0) return Errc::unsupported;  // no encryption
  h.l1_size = load_be32(p + 36);
  h.l1_table_offset = load_be64(p + 40);
  h.refcount_table_offset = load_be64(p + 48);
  h.refcount_table_clusters = load_be32(p + 56);
  h.nb_snapshots = load_be32(p + 60);
  h.snapshots_offset = load_be64(p + 64);
  if (h.nb_snapshots != 0) return Errc::unsupported;  // no snapshots
  if (h.version >= 3) {
    h.incompatible_features = load_be64(p + 72);
    h.compatible_features = load_be64(p + 80);
    h.autoclear_features = load_be64(p + 88);
    h.refcount_order = load_be32(p + 96);
    h.header_length = load_be32(p + 100);
    // Incompatible features we understand: the dirty bit (unclean
    // shutdown, handled by open()/repair()) and the refcount journal
    // (stale refcount blocks, replayed by repair()).
    if ((h.incompatible_features & ~(kIncompatDirty | kIncompatJournal)) != 0)
      return Errc::unsupported;
    if (h.refcount_order != kRefcountOrder) return Errc::unsupported;
    if (h.header_length < kHeaderLength) return Errc::invalid_format;
  } else {
    h.refcount_order = kRefcountOrder;
    h.header_length = 72;
  }

  const std::uint64_t cluster_size = 1ull << h.cluster_bits;
  // Bound the tables open() loads whole, and require the L1 table to map
  // the entire virtual disk.
  if (std::uint64_t{h.l1_size} * 8 > kMaxL1Bytes ||
      (std::uint64_t{h.refcount_table_clusters} << h.cluster_bits) >
          kMaxRefcountTableBytes) {
    return Errc::unsupported;
  }
  const std::uint64_t bytes_per_l2 = Layout{h.cluster_bits}.bytes_per_l2();
  if (h.l1_size < h.size / bytes_per_l2 + (h.size % bytes_per_l2 != 0)) {
    return Errc::corrupt;
  }
  // Basic sanity on table placement.
  if (!is_aligned(h.l1_table_offset, cluster_size) ||
      !is_aligned(h.refcount_table_offset, cluster_size)) {
    return Errc::corrupt;
  }

  // Walk the extension list (v3; v2 has none).
  std::uint64_t off = h.header_length;
  while (h.version >= 3) {
    if (off + 8 > buf.size()) return Errc::corrupt;
    const std::uint32_t magic = load_be32(p + off);
    const std::uint32_t len = load_be32(p + off + 4);
    off += 8;
    if (magic == kExtEnd) break;
    if (off + len > buf.size()) return Errc::corrupt;
    if (magic == kExtVmiCache) {
      if (len != 16) return Errc::corrupt;
      CacheExtension ce;
      ce.quota = load_be64(p + off);
      ce.current_size = load_be64(p + off + 8);
      out.cache = ce;
      out.cache_ext_payload_offset = off;
    } else if (magic == kExtVmiJournal) {
      if (len != 16) return Errc::corrupt;
      JournalExtension je;
      je.offset = load_be64(p + off);
      je.size = load_be64(p + off + 8);
      out.journal = je;
    } else {
      out.unknown_extensions.push_back(magic);
    }
    off += align_up(len, 8);
  }

  // The journal bit and extension travel together: the bit without the
  // region (or vice versa) means a writer only half-understood us.
  const bool journal_bit = (h.incompatible_features & kIncompatJournal) != 0;
  if (journal_bit != out.journal.has_value()) return Errc::corrupt;
  if (out.journal.has_value()) {
    if (!is_aligned(out.journal->offset, cluster_size) ||
        out.journal->size == 0 || out.journal->size % 512 != 0) {
      return Errc::corrupt;
    }
  }

  if (h.backing_file_offset != 0) {
    if (h.backing_file_size == 0 || h.backing_file_size > 1023) {
      return Errc::corrupt;
    }
    if (h.backing_file_offset + h.backing_file_size > buf.size()) {
      return Errc::corrupt;
    }
    out.backing_file.assign(
        reinterpret_cast<const char*>(p + h.backing_file_offset),
        h.backing_file_size);
  }

  return out;
}

}  // namespace vmic::qcow2
