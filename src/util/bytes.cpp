#include "util/bytes.hpp"

#include <cstdio>

namespace vmic {

bool is_all_zero(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // 64-byte blocks with one branch each: OR-ing eight words lets the
  // compiler keep the whole block in vector registers.
  while (n >= 64) {
    std::uint64_t w[8];
    std::memcpy(w, p, 64);
    if ((w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7]) != 0) {
      return false;
    }
    p += 64;
    n -= 64;
  }
  // Word-at-a-time tail; memcpy keeps it alignment-safe and the compiler
  // lowers it to a plain load.
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    if (w != 0) return false;
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    if (*p != 0) return false;
    ++p;
    --n;
  }
  return true;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::span<const std::uint8_t> data, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = data.size() < max_bytes ? data.size() : max_bytes;
  out.reserve(n * 2 + 4);
  char buf[4];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof buf, "%02x", data[i]);
    out += buf;
  }
  if (n < data.size()) out += "...";
  return out;
}

}  // namespace vmic
