#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace vmic::qcow2 {

// ---------------------------------------------------------------------------
// QCOW2 on-disk format (version 3), per "The QCOW2 Image Format"
// [McLoughlin 2008] and the QEMU docs/interop specification, plus the
// paper's cache header extension (§4.3).
//
// All on-disk integers are big-endian.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kMagic = 0x514649FB;  // "QFI\xfb"
inline constexpr std::uint32_t kVersion = 3;
inline constexpr std::uint32_t kHeaderLength = 104;  // v3 base header

inline constexpr std::uint32_t kMinClusterBits = 9;   // 512 B (paper's pick)
inline constexpr std::uint32_t kMaxClusterBits = 21;  // 2 MiB
inline constexpr std::uint32_t kDefaultClusterBits = 16;  // 64 KiB (QEMU)

/// refcount_order = 4 -> 16-bit refcount entries, QEMU's default.
inline constexpr std::uint32_t kRefcountOrder = 4;

/// Header-extension magics. Extensions sit between the header struct and
/// the backing file name; each is {u32 magic, u32 len, len bytes, pad to 8}.
inline constexpr std::uint32_t kExtEnd = 0x00000000;
/// The paper's cache extension: {u64 quota, u64 current_size}. Implemented
/// as an *extension* for backward compatibility with plain QCOW2 readers
/// (§4.3: "to ensure backward compatibility with normal QCOW2 images").
inline constexpr std::uint32_t kExtVmiCache = 0x76634143;  // "vcAC"
/// Refcount-journal extension: {u64 journal_offset, u64 journal_size}.
/// Points at a fixed-size region of sector-aligned journal records (see
/// qcow2/journal.hpp). Always paired with kIncompatJournal: a reader that
/// skipped the extension would trust stale refcount blocks.
inline constexpr std::uint32_t kExtVmiJournal = 0x764A524E;  // "vJRN"

/// Incompatible-feature bits (header offset 72). Bit 0 is the QCOW2
/// "dirty bit": set before the first metadata mutation of a writable
/// session and cleared on clean close. An image carrying it was not shut
/// down cleanly — its refcounts may be stale (always over-counted, never
/// under-counted, thanks to flush-barrier ordering; see DESIGN.md) and
/// must be rebuilt by `repair()` before the image is trusted again.
inline constexpr std::uint64_t kIncompatDirty = 1ull << 0;

/// Refcount-journal feature bit (incompatible): refcount mutations are
/// appended to the on-disk journal region and written back into the
/// refcount blocks only at checkpoints, so a reader that ignored the
/// journal would see stale refcounts. Repair of a dirty journaled image
/// replays the journal (O(journal)) instead of rebuilding every refcount
/// from L1/L2 reachability (O(image)).
inline constexpr std::uint64_t kIncompatJournal = 1ull << 1;

/// Compatible-feature bits (header offset 80). Lazy refcounts defer
/// refcount *decrements* behind the dirty bit; readers that don't know
/// the bit can still open the image safely (leaks only, never
/// corruption), which is what makes it a compatible feature.
inline constexpr std::uint64_t kCompatLazyRefcounts = 1ull << 0;

/// Limits on the tables open() loads whole, as QEMU's QCOW_MAX_L1_SIZE
/// and QCOW_MAX_REFTABLE_SIZE: a header naming a larger table is refused
/// before anything is allocated from it.
inline constexpr std::uint64_t kMaxL1Bytes = 32ull << 20;
inline constexpr std::uint64_t kMaxRefcountTableBytes = 8ull << 20;

/// L1/L2 table entry bit layout.
inline constexpr std::uint64_t kOffsetMask = 0x00fffffffffffe00ull;
inline constexpr std::uint64_t kFlagCopied = 1ull << 63;
inline constexpr std::uint64_t kFlagCompressed = 1ull << 62;
/// v3 "all zeroes" cluster flag (L2 bit 0): the cluster reads as zeros
/// regardless of the backing chain — what write_zeroes/discard leave
/// behind on backed images.
inline constexpr std::uint64_t kFlagZero = 1ull << 0;

/// The fixed v3 header fields, in file order.
struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint64_t backing_file_offset = 0;
  std::uint32_t backing_file_size = 0;
  std::uint32_t cluster_bits = kDefaultClusterBits;
  std::uint64_t size = 0;  ///< virtual disk size
  std::uint32_t crypt_method = 0;
  std::uint32_t l1_size = 0;  ///< number of L1 entries
  std::uint64_t l1_table_offset = 0;
  std::uint64_t refcount_table_offset = 0;
  std::uint32_t refcount_table_clusters = 0;
  std::uint32_t nb_snapshots = 0;
  std::uint64_t snapshots_offset = 0;
  std::uint64_t incompatible_features = 0;
  std::uint64_t compatible_features = 0;
  std::uint64_t autoclear_features = 0;
  std::uint32_t refcount_order = kRefcountOrder;
  std::uint32_t header_length = kHeaderLength;
};

/// The paper's cache extension payload.
struct CacheExtension {
  std::uint64_t quota = 0;         ///< max file size the cache may grow to
  std::uint64_t current_size = 0;  ///< persisted on close (§4.3 "close")
};

/// Refcount-journal extension payload.
struct JournalExtension {
  std::uint64_t offset = 0;  ///< cluster-aligned start of the journal region
  std::uint64_t size = 0;    ///< region size in bytes (multiple of 512)
};

/// Fully parsed header area: fixed fields + extensions + backing name.
struct ParsedHeader {
  Header h;
  std::optional<CacheExtension> cache;
  std::optional<JournalExtension> journal;
  std::string backing_file;  ///< empty if none
  /// File offset of the cache extension's payload, so close() can update
  /// current_size in place without rewriting the whole header.
  std::uint64_t cache_ext_payload_offset = 0;
  /// Unknown extensions encountered (magic values), preserved for
  /// diagnostics; we skip them like QEMU does.
  std::vector<std::uint32_t> unknown_extensions;
};

/// Serialise a header area (fixed header, optional cache/journal
/// extensions, end marker, backing file name) into `out`, which the
/// caller sizes to at least header_area_size(). Returns the payload
/// offset of the cache extension (0 if absent).
std::uint64_t write_header_area(const Header& h,
                                const std::optional<CacheExtension>& cache,
                                const std::optional<JournalExtension>& journal,
                                const std::string& backing_file,
                                std::span<std::uint8_t> out);

/// Bytes needed for the serialized header area.
std::uint64_t header_area_size(const std::optional<CacheExtension>& cache,
                               const std::optional<JournalExtension>& journal,
                               const std::string& backing_file);

/// Parse and validate a header area read from the start of a file.
/// `buf` must hold at least the first cluster (or the whole file if
/// smaller).
Result<ParsedHeader> parse_header_area(std::span<const std::uint8_t> buf);

}  // namespace vmic::qcow2
