#pragma once

#include <map>
#include <memory>
#include <string>

#include "io/directory.hpp"
#include "storage/medium.hpp"
#include "util/sparse_buffer.hpp"

namespace vmic::storage {

/// A directory of files living on a simulated medium: contents in sparse
/// buffers (zero-eliding), timing charged to the medium. This is what a
/// node's local disk or tmpfs looks like to the block layer.
class SimDirectory final : public io::ImageDirectory {
 public:
  /// `sync_writes`: charge every write as a synchronous one (QEMU image
  /// metadata semantics); the key knob behind Fig 8's cold-cache-on-disk
  /// penalty.
  SimDirectory(Medium& medium, bool sync_writes = true)
      : medium_(medium), sync_writes_(sync_writes) {}

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override;
  Result<io::BackendPtr> create_file(const std::string& name) override;
  [[nodiscard]] bool exists(const std::string& name) const override {
    return files_.count(name) != 0;
  }

  /// Host-side helpers (no simulated time; for setup and inspection).
  Result<SparseBuffer*> buffer(const std::string& name);
  Result<std::uint64_t> file_size(const std::string& name) const;
  /// Stable file identity used for physical-position salting.
  Result<std::uint64_t> file_id(const std::string& name) const;
  void remove(const std::string& name) { files_.erase(name); }
  [[nodiscard]] Medium& medium() noexcept { return medium_; }

  /// Cost of a flush barrier, expressed as a synchronous write of this
  /// many bytes charged to the medium (0 = barriers are free, the
  /// default — sim media persist every write immediately, so a barrier
  /// only orders). Making it non-zero makes flush ordering visible in
  /// sim time, e.g. to measure what the qcow2 barrier discipline costs.
  void set_flush_cost_bytes(std::uint64_t n) noexcept { flush_cost_bytes_ = n; }

  /// Instant, timing-free copy of a file's bytes between directories
  /// (setup plumbing; timed transfers go through NFS / links).
  static Result<void> clone_file(SimDirectory& from, const std::string& src,
                                 SimDirectory& to, const std::string& dst);

 private:
  friend class SimFileBackend;
  struct File {
    SparseBuffer data;
    std::uint64_t id;
  };

  Medium& medium_;
  bool sync_writes_;
  std::uint64_t flush_cost_bytes_ = 0;
  std::map<std::string, std::unique_ptr<File>> files_;
  std::uint64_t next_id_ = 1;
};

/// BlockBackend over a SimDirectory file: every operation charges the
/// directory's medium before touching the bytes.
class SimFileBackend final : public io::BlockBackend {
 public:
  SimFileBackend(SimDirectory& dir, SimDirectory::File& file, bool writable)
      : dir_(dir), file_(file) {
    ro_ = !writable;
  }

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    co_await dir_.medium_.read(file_pos(file_.id, off), dst.size());
    file_.data.read(off, dst);
    co_return ok_result();
  }

  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    VMIC_CO_TRY_VOID(check_writable());
    co_await dir_.medium_.write(file_pos(file_.id, off), src.size(),
                                dir_.sync_writes_);
    file_.data.write(off, src);
    co_return ok_result();
  }

  sim::Task<Result<void>> flush() override {
    if (dir_.flush_cost_bytes_ > 0) {
      co_await dir_.medium_.write(file_pos(file_.id, 0),
                                  dir_.flush_cost_bytes_, /*sync=*/true);
    }
    co_return ok_result();
  }

  sim::Task<Result<void>> truncate(std::uint64_t new_size) override {
    VMIC_CO_TRY_VOID(check_writable());
    file_.data.resize(new_size);
    co_return ok_result();
  }

  [[nodiscard]] std::uint64_t size() const override {
    return file_.data.size();
  }
  [[nodiscard]] std::string describe() const override {
    return "sim:" + dir_.medium_.name();
  }

 private:
  SimDirectory& dir_;
  SimDirectory::File& file_;
};

inline Result<io::BackendPtr> SimDirectory::open_file(const std::string& name,
                                                      bool writable) {
  auto it = files_.find(name);
  if (it == files_.end()) return Errc::not_found;
  return io::BackendPtr{
      std::make_unique<SimFileBackend>(*this, *it->second, writable)};
}

inline Result<io::BackendPtr> SimDirectory::create_file(
    const std::string& name) {
  auto& slot = files_[name];
  slot = std::make_unique<File>();
  slot->id = next_id_++;
  return io::BackendPtr{
      std::make_unique<SimFileBackend>(*this, *slot, /*writable=*/true)};
}

inline Result<SparseBuffer*> SimDirectory::buffer(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return Errc::not_found;
  return &it->second->data;
}

inline Result<std::uint64_t> SimDirectory::file_size(
    const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Errc::not_found;
  return it->second->data.size();
}

inline Result<std::uint64_t> SimDirectory::file_id(
    const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Errc::not_found;
  return it->second->id;
}

inline Result<void> SimDirectory::clone_file(SimDirectory& from,
                                             const std::string& src,
                                             SimDirectory& to,
                                             const std::string& dst) {
  auto it = from.files_.find(src);
  if (it == from.files_.end()) return Errc::not_found;
  SparseBuffer copy = it->second->data.clone();
  auto& slot = to.files_[dst];
  slot = std::make_unique<File>();
  slot->id = to.next_id_++;
  slot->data = std::move(copy);
  return Result<void>{};
}

}  // namespace vmic::storage
