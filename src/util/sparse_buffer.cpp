#include "util/sparse_buffer.hpp"

#include <algorithm>
#include <cstring>

#include "util/bytes.hpp"

namespace vmic {

void SparseBuffer::read(std::uint64_t off, std::span<std::uint8_t> dst) const {
  std::uint8_t* out = dst.data();
  std::uint64_t remaining = dst.size();
  std::uint64_t pos = off;
  while (remaining > 0) {
    const std::uint64_t in_chunk = pos % kChunkBytes;
    const std::uint64_t len = std::min(remaining, kChunkBytes - in_chunk);
    auto it = chunks_.find(pos / kChunkBytes);
    if (it == chunks_.end()) {
      std::memset(out, 0, len);
    } else {
      const Chunk& c = *it->second;
      for (std::uint64_t done = 0; done < len;) {
        const std::uint64_t at = in_chunk + done;
        const std::uint64_t in_page = at % kPageSize;
        const std::uint64_t n = std::min(len - done, kPageSize - in_page);
        const Page& page = c.pages[at / kPageSize];
        if (page) {
          std::memcpy(out + done, page.get() + in_page, n);
        } else {
          std::memset(out + done, 0, n);
        }
        done += n;
      }
    }
    out += len;
    pos += len;
    remaining -= len;
  }
}

void SparseBuffer::write(std::uint64_t off, std::span<const std::uint8_t> src) {
  const std::uint8_t* in = src.data();
  std::uint64_t remaining = src.size();
  std::uint64_t pos = off;
  while (remaining > 0) {
    const std::uint64_t in_chunk = pos % kChunkBytes;
    const std::uint64_t len = std::min(remaining, kChunkBytes - in_chunk);
    auto it = chunks_.find(pos / kChunkBytes);
    Chunk* c = it == chunks_.end() ? nullptr : it->second.get();
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t at = in_chunk + done;
      const std::uint64_t in_page = at % kPageSize;
      const std::uint64_t n = std::min(len - done, kPageSize - in_page);
      const std::uint8_t* bytes = in + done;
      done += n;
      Page* page = c != nullptr ? &c->pages[at / kPageSize] : nullptr;
      if (page == nullptr || *page == nullptr) {
        // Zero-page elision: absent pages already read back as zeros.
        if (is_all_zero({bytes, static_cast<std::size_t>(n)})) continue;
        if (c == nullptr) {
          c = chunks_.emplace(pos / kChunkBytes, std::make_unique<Chunk>())
                  .first->second.get();
        }
        page = &c->pages[at / kPageSize];
        *page = std::make_unique<std::uint8_t[]>(kPageSize);  // zeroed
        ++c->live;
      }
      std::memcpy(page->get() + in_page, bytes, n);
    }
    in += len;
    pos += len;
    remaining -= len;
  }
  size_ = std::max(size_, off + src.size());
}

std::uint64_t SparseBuffer::materialized_bytes() const noexcept {
  std::uint64_t pages = 0;
  for (const auto& entry : chunks_) pages += entry.second->live;
  return pages * kPageSize;
}

SparseBuffer SparseBuffer::clone() const {
  SparseBuffer out;
  out.size_ = size_;
  for (const auto& [no, chunk] : chunks_) {
    auto copy = std::make_unique<Chunk>();
    copy->live = chunk->live;
    for (std::uint64_t s = 0; s < kChunkPages; ++s) {
      const Page& page = chunk->pages[s];
      if (!page) continue;
      Page& dst = copy->pages[s];
      dst = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
      std::memcpy(dst.get(), page.get(), kPageSize);
    }
    out.chunks_.emplace_hint(out.chunks_.end(), no, std::move(copy));
  }
  return out;
}

void SparseBuffer::resize(std::uint64_t new_size) {
  if (new_size < size_) {
    // Drop whole pages past the boundary: every chunk beyond the one
    // holding the first dead page, then that chunk's dead slots.
    const std::uint64_t first_dead_page =
        new_size / kPageSize + (new_size % kPageSize != 0 ? 1 : 0);
    const std::uint64_t boundary = first_dead_page / kChunkPages;
    const std::uint64_t first_dead_slot = first_dead_page % kChunkPages;
    auto dead = chunks_.lower_bound(first_dead_slot == 0 ? boundary
                                                         : boundary + 1);
    chunks_.erase(dead, chunks_.end());
    if (first_dead_slot != 0) {
      if (auto it = chunks_.find(boundary); it != chunks_.end()) {
        Chunk& c = *it->second;
        for (std::uint64_t s = first_dead_slot; s < kChunkPages; ++s) {
          if (!c.pages[s]) continue;
          c.pages[s].reset();
          --c.live;
        }
        if (c.live == 0) chunks_.erase(it);
      }
    }
    // Zero the tail of the boundary page.
    const std::uint64_t in_page = new_size % kPageSize;
    if (in_page != 0) {
      if (auto it = chunks_.find(new_size / kChunkBytes); it != chunks_.end()) {
        const Page& page =
            it->second->pages[(new_size % kChunkBytes) / kPageSize];
        if (page) std::memset(page.get() + in_page, 0, kPageSize - in_page);
      }
    }
  }
  size_ = new_size;
}

}  // namespace vmic
