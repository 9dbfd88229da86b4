#include "util/compress.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vmic {

namespace {

constexpr std::size_t kWindowBits = 12;
constexpr std::size_t kWindow = 1u << kWindowBits;  // 4096
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = kMinMatch + 15;  // 4-bit length field

constexpr std::size_t kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

/// Eight bytes at p, p[0] in the low byte on every host (word loads must
/// see the same byte order the byte-at-a-time format is defined in).
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void copy8(std::uint8_t* d, const std::uint8_t* s) {
  std::memcpy(d, s, 8);
}

/// 3-byte multiplicative hash of v = p[0] | p[1] << 8 | p[2] << 16;
/// deterministic and platform-independent.
inline std::uint32_t hash24(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint32_t hash3(const std::uint8_t* p) {
  return hash24(static_cast<std::uint32_t>(p[0]) |
                (static_cast<std::uint32_t>(p[1]) << 8) |
                (static_cast<std::uint32_t>(p[2]) << 16));
}

/// Length of the common prefix of a and b, capped at `limit`; compares
/// eight bytes at a time while both words lie inside the limit.
inline std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    const std::uint64_t x = load_le64(a + len) ^ load_le64(b + len);
    if (x != 0) {
      return len + static_cast<std::size_t>(std::countr_zero(x)) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Hash-chain heads: head[h] = the latest position whose next three bytes
/// hash to h. One table per thread, kept on the heap (the sanitizer
/// build's stacks are already near their limit) and never cleared. An
/// entry this call did not write (left by an earlier call, or the initial
/// 0) cannot change the parse: this call has indexed every position
/// before `pos`, so such an entry points at bytes that hash elsewhere and
/// cannot match.
std::uint32_t* head_table() {
  thread_local std::vector<std::uint32_t> head(kHashSize, 0);
  return head.data();
}

}  // namespace

std::size_t lzss_compress(std::span<const std::uint8_t> src_span,
                          std::span<std::uint8_t> dst_span,
                          std::size_t max_out) {
  const std::size_t n = src_span.size();
  if (n == 0 || max_out == 0 || dst_span.size() < max_out) return 0;
  const std::uint8_t* const src = src_span.data();
  std::uint8_t* const dst = dst_span.data();

  std::uint32_t* const head = head_table();

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
        const std::uint32_t h = hash3(src + pos);
        const std::size_t cand = head[h];
        if (cand < pos && pos - cand <= kWindow) {
          const std::size_t len = match_length(src + cand, src + pos,
                                               std::min(n - pos, kMaxMatch));
          if (len >= kMinMatch) {
            best_len = len;
            best_off = pos - cand;
          }
        }
        head[h] = static_cast<std::uint32_t>(pos);
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
        // Index the interior of the match too (every position that still
        // has three bytes), so runs keep matching against their own tail.
        // One word load hashes up to six consecutive positions.
        const std::size_t end = pos + best_len;
        const std::size_t stop = std::min(end, n - kMinMatch + 1);
        std::size_t p = pos + 1;
        while (p < stop && p + 8 <= n) {
          const std::uint64_t w = load_le64(src + p);
          const std::size_t k_end = std::min<std::size_t>(6, stop - p);
          for (std::size_t k = 0; k < k_end; ++k) {
            const auto v = static_cast<std::uint32_t>(w >> (8 * k)) & 0xffffffu;
            head[hash24(v)] = static_cast<std::uint32_t>(p + k);
          }
          p += k_end;
        }
        for (; p < stop; ++p) {
          head[hash3(src + p)] = static_cast<std::uint32_t>(p);
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

bool lzss_decompress(std::span<const std::uint8_t> src_span,
                     std::span<std::uint8_t> dst_span) {
  const std::uint8_t* const src = src_span.data();
  const std::size_t in_n = src_span.size();
  std::uint8_t* const dst = dst_span.data();
  const std::size_t n = dst_span.size();
  // A flag group reads at most 16 token bytes and writes at most
  // 8 * kMaxMatch bytes, plus up to 7 bytes of word-copy overshoot.
  constexpr std::size_t kGroupIn = 16;
  constexpr std::size_t kGroupOut = 8 * kMaxMatch + 8;

  std::size_t in = 0;
  std::size_t out = 0;
  while (out < n) {
    if (in >= in_n) return false;
    const std::uint8_t flags = src[in++];
    if (in + kGroupIn <= in_n && kGroupOut <= n - out) {
      // Fast path: the whole group provably fits both buffers, so only
      // the per-token back-reference check remains. Overshoot bytes past
      // a match are rewritten by the tokens that follow.
      if (flags == 0) {
        copy8(dst + out, src + in);
        in += 8;
        out += 8;
        continue;
      }
      for (int bit = 0; bit < 8; ++bit) {
        if ((flags >> bit) & 1u) {
          const std::uint32_t tok =
              static_cast<std::uint32_t>(src[in]) |
              (static_cast<std::uint32_t>(src[in + 1]) << 8);
          in += 2;
          const std::size_t off = (tok & (kWindow - 1)) + 1;
          const std::size_t len = (tok >> kWindowBits) + kMinMatch;
          if (off > out) return false;
          std::uint8_t* d = dst + out;
          if (off >= 8) {
            // Word i reads [d + i - off, d + i): bytes already final.
            for (std::size_t i = 0; i < len; i += 8) {
              copy8(d + i, d + i - off);
            }
          } else {
            // Short offsets overlap their own output (RLE): byte by byte.
            for (std::size_t i = 0; i < len; ++i) d[i] = *(d + i - off);
          }
          out += len;
        } else {
          dst[out++] = src[in++];
        }
      }
      continue;
    }
    // Near the end of either buffer: bounds-check every token.
    for (int bit = 0; bit < 8 && out < n; ++bit) {
      if ((flags >> bit) & 1u) {
        if (in + 2 > in_n) return false;
        const std::uint32_t tok =
            static_cast<std::uint32_t>(src[in]) |
            (static_cast<std::uint32_t>(src[in + 1]) << 8);
        in += 2;
        const std::size_t off = (tok & (kWindow - 1)) + 1;
        const std::size_t len = (tok >> kWindowBits) + kMinMatch;
        if (off > out || out + len > n) return false;
        for (std::size_t i = 0; i < len; ++i) {
          dst[out] = dst[out - off];
          ++out;
        }
      } else {
        if (in >= in_n) return false;
        dst[out++] = src[in++];
      }
    }
  }
  // Trailing input bytes are tolerated: compressed payloads are stored
  // sector-padded, so the stream may be followed by zero fill.
  return out == n;
}

}  // namespace vmic
