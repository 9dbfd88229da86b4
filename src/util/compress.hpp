#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vmic {

// ---------------------------------------------------------------------------
// Deterministic LZSS codec for qcow2 compressed clusters.
//
// QEMU stores compressed clusters as raw deflate streams; pulling in zlib
// is not an option here, so the device uses this self-contained LZSS
// variant instead: a 4 KiB sliding window, one flag byte per 8 tokens,
// literals as single bytes and matches as 2-byte (offset, length) pairs
// (12-bit offset, 4-bit length-3, i.e. match lengths 3..18). Greedy
// matching over a 3-byte hash chain keeps it fast and — critically for
// the simulator's golden pins — bit-exact across platforms and runs: the
// compressed bytes are part of that contract (DESIGN.md, "Codec
// contract"), and tests/test_util.cpp checks both directions against the
// byte-at-a-time reference codec.
// ---------------------------------------------------------------------------

/// Compress `src` into `dst`. Returns the compressed size, or 0 when the
/// input does not shrink below `max_out` bytes (caller then stores the
/// cluster uncompressed). `dst` must hold at least `max_out` bytes.
std::size_t lzss_compress(std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst, std::size_t max_out);

/// Decompress exactly `src` into `dst`, whose size is the known
/// decompressed length. Returns false when the stream is malformed or
/// does not produce exactly dst.size() bytes; `dst` then holds
/// unspecified bytes.
bool lzss_decompress(std::span<const std::uint8_t> src,
                     std::span<std::uint8_t> dst);

}  // namespace vmic
