#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "io/directory.hpp"
#include "net/link.hpp"
#include "obs/hub.hpp"
#include "sim/env.hpp"
#include "storage/sim_directory.hpp"
#include "util/align.hpp"

namespace vmic::nfs {

/// NFS tuning knobs. The paper tunes rwsize to 64 KiB because "the
/// default NFS rwsize of 1 MB does not match well with the small-sized
/// read requests during boot time" (§5) — bench_ablation_rwsize
/// reproduces that comparison by raising rwsize/min_fetch back to 1 MiB.
struct NfsParams {
  /// Maximum payload per READ/WRITE RPC *and* the server's fetch
  /// granularity cap.
  std::uint32_t rwsize = 64 * 1024;
  /// Server-side fetch quantum: a READ is served at this alignment/
  /// granularity (kernel page granularity by default).
  std::uint32_t min_fetch = 4096;
  /// Fixed server processing time per RPC.
  double server_proc_us = 15.0;
  /// On-the-wire overhead per RPC message.
  std::uint32_t rpc_overhead_bytes = 120;
};

/// Server-side RPC counters, registry-backed: a bound registry exports
/// them as nfs.server.*{node=...} — nfs.server.bytes_tx is Fig 9/10's
/// y-axis.
struct NfsServerStats {
  obs::Counter read_rpcs;
  obs::Counter write_rpcs;
  obs::Counter other_rpcs;
  obs::Counter tx_payload_bytes;  ///< data served to clients
  obs::Counter rx_payload_bytes;  ///< data written by clients
  /// Total observable traffic at the storage node (Fig 9/10's metric).
  [[nodiscard]] std::uint64_t total_payload() const noexcept {
    return tx_payload_bytes + rx_payload_bytes;
  }
};

/// The storage node's NFS server: a set of exports, each backed by a
/// simulated directory (disk- or tmpfs-resident). All timing flows
/// through the export's medium and the shared network.
class NfsServer {
 public:
  NfsServer(sim::SimEnv& env, NfsParams params) : env_(env), p_(params) {}

  ~NfsServer() {
    if (hub_ != nullptr) hub_->registry.detach(this);
  }

  /// Export RPC counters as nfs.server.*{node=<node>} plus a per-READ
  /// served-size histogram, and trace RPC service onto an "nfs/<node>"
  /// track.
  void bind_obs(obs::Hub* hub, const std::string& node) {
    hub_ = hub;
    if (hub_ == nullptr) return;
    const obs::Labels ls{{"node", node}};
    hub_->registry.attach_counter("nfs.server.read_rpcs", ls,
                                  &stats_.read_rpcs, this);
    hub_->registry.attach_counter("nfs.server.write_rpcs", ls,
                                  &stats_.write_rpcs, this);
    hub_->registry.attach_counter("nfs.server.other_rpcs", ls,
                                  &stats_.other_rpcs, this);
    hub_->registry.attach_counter("nfs.server.bytes_tx", ls,
                                  &stats_.tx_payload_bytes, this);
    hub_->registry.attach_counter("nfs.server.bytes_rx", ls,
                                  &stats_.rx_payload_bytes, this);
    hub_->registry.attach_histogram("nfs.server.read_rpc_bytes", ls,
                                    &read_size_hist_, this);
    track_ = hub_->tracer.track("nfs/" + node);
  }

  void add_export(const std::string& name, storage::SimDirectory* dir) {
    exports_[name] = dir;
  }

  [[nodiscard]] Result<storage::SimDirectory*> lookup_export(
      const std::string& name) const {
    auto it = exports_.find(name);
    if (it == exports_.end()) return Errc::not_found;
    return it->second;
  }

  [[nodiscard]] const NfsParams& params() const noexcept { return p_; }
  [[nodiscard]] const NfsServerStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = NfsServerStats{}; }

 private:
  friend class NfsFileBackend;
  friend class NfsMount;

  sim::SimEnv& env_;
  NfsParams p_;
  std::map<std::string, storage::SimDirectory*> exports_;
  NfsServerStats stats_;
  /// Distribution of per-READ served payload (b - a): the paper's §5
  /// rwsize-tuning argument made measurable.
  obs::Histogram read_size_hist_{
      {512, 4096, 16384, 65536, 262144, 1048576}};
  obs::Hub* hub_ = nullptr;
  std::uint32_t track_ = 0;
};

/// Client-side handle to one file on an NFS export, speaking
/// request/response over the shared network. Reads are chunked at rwsize
/// and served at min_fetch granularity; writes are chunked at rwsize.
class NfsFileBackend final : public io::BlockBackend {
 public:
  NfsFileBackend(NfsServer& server, net::Network& net,
                 io::BackendPtr server_file, std::string path, bool writable)
      : server_(server), net_(net), file_(std::move(server_file)),
        path_(std::move(path)) {
    ro_ = !writable;
  }

  sim::Task<Result<void>> pread(std::uint64_t off,
                                std::span<std::uint8_t> dst) override {
    std::uint64_t pos = off;
    std::uint64_t remaining = dst.size();
    std::uint8_t* out = dst.data();
    // Fetch windows wider than the requested chunk land in one
    // uninitialised buffer, allocated on first use. Alignment adds less
    // than min_fetch at each end, so chunk + 2 * min_fetch holds any window.
    std::unique_ptr<std::uint8_t[]> window;
    while (remaining > 0) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(remaining, server_.p_.rwsize);
      obs::Span rpc;
      if (obs::tracing(server_.hub_)) {
        rpc = server_.hub_->tracer.span(server_.track_, "nfs.read_rpc", "nfs",
                                        "\"bytes\":" + std::to_string(chunk));
      }
      // Request over the wire.
      co_await net_.up.transfer(server_.p_.rpc_overhead_bytes);
      co_await env().delay(sim::from_micros(server_.p_.server_proc_us));
      // The server reads at fetch-quantum granularity (capped at rwsize).
      const std::uint64_t a = align_down(pos, server_.p_.min_fetch);
      std::uint64_t b = align_up(pos + chunk, server_.p_.min_fetch);
      b = std::min(b, a + std::max<std::uint64_t>(server_.p_.rwsize, chunk));
      b = std::max(b, pos + chunk);
      const bool direct = a == pos && b == pos + chunk;
      if (direct) {
        // The window is the chunk itself: read into the caller's buffer.
        VMIC_CO_TRY_VOID(co_await file_->pread(
            a, {out, static_cast<std::size_t>(chunk)}));
      } else {
        if (window == nullptr) {
          window = std::make_unique_for_overwrite<std::uint8_t[]>(
              std::min<std::uint64_t>(dst.size(), server_.p_.rwsize) +
              2 * std::uint64_t{server_.p_.min_fetch});
        }
        VMIC_CO_TRY_VOID(co_await file_->pread(
            a, {window.get(), static_cast<std::size_t>(b - a)}));
      }
      ++server_.stats_.read_rpcs;
      server_.stats_.tx_payload_bytes += b - a;
      if (server_.hub_ != nullptr) {
        server_.read_size_hist_.observe(static_cast<double>(b - a));
      }
      // Response payload back over the wire.
      co_await net_.down.transfer((b - a) + server_.p_.rpc_overhead_bytes);
      if (!direct) std::memcpy(out, window.get() + (pos - a), chunk);
      pos += chunk;
      out += chunk;
      remaining -= chunk;
    }
    co_return ok_result();
  }

  sim::Task<Result<void>> pwrite(std::uint64_t off,
                                 std::span<const std::uint8_t> src) override {
    VMIC_CO_TRY_VOID(check_writable());
    std::uint64_t pos = off;
    std::uint64_t remaining = src.size();
    const std::uint8_t* in = src.data();
    while (remaining > 0) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(remaining, server_.p_.rwsize);
      obs::Span rpc;
      if (obs::tracing(server_.hub_)) {
        rpc = server_.hub_->tracer.span(server_.track_, "nfs.write_rpc",
                                        "nfs",
                                        "\"bytes\":" + std::to_string(chunk));
      }
      co_await net_.up.transfer(chunk + server_.p_.rpc_overhead_bytes);
      co_await env().delay(sim::from_micros(server_.p_.server_proc_us));
      VMIC_CO_TRY_VOID(co_await file_->pwrite(
          pos, {in, static_cast<std::size_t>(chunk)}));
      ++server_.stats_.write_rpcs;
      server_.stats_.rx_payload_bytes += chunk;
      co_await net_.down.transfer(server_.p_.rpc_overhead_bytes);  // reply
      pos += chunk;
      in += chunk;
      remaining -= chunk;
    }
    co_return ok_result();
  }

  sim::Task<Result<void>> flush() override {
    // COMMIT round trip.
    co_await net_.up.transfer(server_.p_.rpc_overhead_bytes);
    co_await env().delay(sim::from_micros(server_.p_.server_proc_us));
    ++server_.stats_.other_rpcs;
    VMIC_CO_TRY_VOID(co_await file_->flush());
    co_await net_.down.transfer(server_.p_.rpc_overhead_bytes);
    co_return ok_result();
  }

  sim::Task<Result<void>> truncate(std::uint64_t new_size) override {
    VMIC_CO_TRY_VOID(check_writable());
    co_await net_.up.transfer(server_.p_.rpc_overhead_bytes);
    ++server_.stats_.other_rpcs;
    VMIC_CO_TRY_VOID(co_await file_->truncate(new_size));
    co_await net_.down.transfer(server_.p_.rpc_overhead_bytes);
    co_return ok_result();
  }

  /// Size attribute (cached by the client between RPCs in real NFS; we
  /// read it from the server-side handle without charging a round trip).
  [[nodiscard]] std::uint64_t size() const override { return file_->size(); }

  [[nodiscard]] std::string describe() const override {
    return "nfs:" + path_;
  }

 private:
  [[nodiscard]] sim::SimEnv& env() const noexcept { return server_.env_; }

  NfsServer& server_;
  net::Network& net_;
  io::BackendPtr file_;  // server-side backend (charges the export medium)
  std::string path_;
};

/// A compute node's view of one export: an ImageDirectory whose files are
/// reached through the NFS client.
class NfsMount final : public io::ImageDirectory {
 public:
  NfsMount(NfsServer& server, net::Network& net, std::string export_name)
      : server_(server), net_(net), export_(std::move(export_name)) {}

  Result<io::BackendPtr> open_file(const std::string& name,
                                   bool writable) override {
    VMIC_TRY(dir, server_.lookup_export(export_));
    VMIC_TRY(file, dir->open_file(name, writable));
    return io::BackendPtr{std::make_unique<NfsFileBackend>(
        server_, net_, std::move(file), export_ + "/" + name, writable)};
  }

  Result<io::BackendPtr> create_file(const std::string& name) override {
    VMIC_TRY(dir, server_.lookup_export(export_));
    VMIC_TRY(file, dir->create_file(name));
    return io::BackendPtr{std::make_unique<NfsFileBackend>(
        server_, net_, std::move(file), export_ + "/" + name, true)};
  }

  [[nodiscard]] bool exists(const std::string& name) const override {
    auto dir = server_.lookup_export(export_);
    return dir.ok() && (*dir)->exists(name);
  }

 private:
  NfsServer& server_;
  net::Network& net_;
  std::string export_;
};

}  // namespace vmic::nfs
