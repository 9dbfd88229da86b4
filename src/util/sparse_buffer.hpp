#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

namespace vmic {

/// Growable sparse byte buffer with zero-page elision.
///
/// Backs every simulated file (image files, cache files) in the cluster
/// experiments. Pages are materialised only when non-zero data is written
/// to a page that does not exist yet; all-zero writes to absent pages are
/// free. This matters: a 64-node scenario moves ~6 GiB of (all-zero)
/// simulated VM-image payload, while the QCOW2 *metadata* written by the
/// drivers — headers, L1/L2 tables, refcounts — is non-zero and is stored
/// faithfully so the format code round-trips bit-exactly.
///
/// Pages live in fixed-size chunks of page slots keyed by chunk number, so
/// a read or write looks up each chunk it touches once and indexes its
/// pages directly. A chunk exists only while it holds a page: a write at
/// any offset allocates at most one chunk and the pages it makes non-zero.
class SparseBuffer {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  SparseBuffer() = default;
  SparseBuffer(SparseBuffer&&) noexcept = default;
  SparseBuffer& operator=(SparseBuffer&&) noexcept = default;
  SparseBuffer(const SparseBuffer&) = delete;
  SparseBuffer& operator=(const SparseBuffer&) = delete;

  /// Copy out [off, off+dst.size()); absent pages read as zeros. Reads
  /// beyond size() also read as zeros (the logical size only grows via
  /// writes or resize()).
  void read(std::uint64_t off, std::span<std::uint8_t> dst) const;

  /// Write src at off, growing the logical size as needed.
  void write(std::uint64_t off, std::span<const std::uint8_t> src);

  /// Logical size: high-water mark of writes/resize.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Grow (or truncate) the logical size. Truncation drops whole pages
  /// beyond the new size and zero-fills the tail of the boundary page.
  void resize(std::uint64_t new_size);

  /// Bytes of actually materialised storage (diagnostics / tests).
  [[nodiscard]] std::uint64_t materialized_bytes() const noexcept;

  /// Deep copy of the present pages (the type is move-only to keep
  /// accidental copies out of hot paths; crash exploration clones disks
  /// deliberately, e.g. to replay repair-time cuts against one post-crash
  /// state, and SimDirectory::clone_file copies files with it).
  [[nodiscard]] SparseBuffer clone() const;

 private:
  static constexpr std::uint64_t kChunkPages = 512;  // 2 MiB of file
  static constexpr std::uint64_t kChunkBytes = kChunkPages * kPageSize;

  using Page = std::unique_ptr<std::uint8_t[]>;
  struct Chunk {
    std::array<Page, kChunkPages> pages{};  // null = absent (reads as zero)
    std::uint64_t live = 0;                 // non-null slots
  };

  std::map<std::uint64_t, std::unique_ptr<Chunk>> chunks_;  // key: chunk no.
  std::uint64_t size_ = 0;
};

}  // namespace vmic
