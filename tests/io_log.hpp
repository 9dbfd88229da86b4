// Backend-call log shared by the tests that pin an image's I/O: a
// forwarding backend records every call of one file into an IoLog.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "io/backend.hpp"
#include "sim/task.hpp"
#include "util/bytes.hpp"

namespace vmic::testutil {

/// Backend calls of one file: counts per kind, an FNV-1a digest over
/// (kind, offset, length) of every call in order, and one over the
/// mutating calls alone that also folds in the FNV-1a hash of each
/// pwrite's bytes.
struct IoLog {
  std::uint64_t preads = 0;
  std::uint64_t pwrites = 0;
  std::uint64_t flushes = 0;
  std::uint64_t truncates = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t writes = 0xcbf29ce484222325ull;  ///< pwrite/flush/truncate

  void note(std::uint8_t kind, std::uint64_t off, std::uint64_t len,
            std::uint64_t bytes_hash = 0) {
    std::uint8_t rec[25];
    rec[0] = kind;
    store_be64(rec + 1, off);
    store_be64(rec + 9, len);
    store_be64(rec + 17, bytes_hash);
    fold(digest, std::span(rec, 17));
    if (kind != 'r') fold(writes, rec);
  }

 private:
  static void fold(std::uint64_t& h, std::span<const std::uint8_t> rec) {
    for (const std::uint8_t b : rec) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
};

/// Forwards to `inner` and records every call into `log`.
class RecordingBackend final : public io::BlockBackend {
 public:
  RecordingBackend(io::BlockBackend& inner, IoLog& log)
      : inner_(inner), log_(log) {}
  RecordingBackend(io::BackendPtr owned, IoLog& log)
      : owned_(std::move(owned)), inner_(*owned_), log_(log) {}

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    ++log_.preads;
    log_.note('r', off, dst.size());
    co_return co_await inner_.pread(off, dst);
  }
  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    ++log_.pwrites;
    log_.note('w', off, src.size(), fnv1a(src));
    co_return co_await inner_.pwrite(off, src);
  }
  sim::Task<Result<void>> flush() override {
    ++log_.flushes;
    log_.note('f', 0, 0);
    co_return co_await inner_.flush();
  }
  sim::Task<Result<void>> truncate(std::uint64_t s) override {
    ++log_.truncates;
    log_.note('t', s, 0);
    co_return co_await inner_.truncate(s);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] bool read_only() const noexcept override {
    return inner_.read_only();
  }
  [[nodiscard]] std::string describe() const override { return "recording"; }

 private:
  io::BackendPtr owned_;
  io::BlockBackend& inner_;
  IoLog& log_;
};

}  // namespace vmic::testutil
