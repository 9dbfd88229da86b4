#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "io/backend.hpp"
#include "obs/hub.hpp"
#include "sim/task.hpp"
#include "util/result.hpp"

namespace vmic::block {

class BlockDevice;
using DevicePtr = std::unique_ptr<BlockDevice>;

/// Per-device operation counters. The evaluation reads these off the
/// storage-node / device stack (e.g. Fig 9's "observed traffic at the
/// storage node" is the byte counters of the base image's backend).
struct DeviceStats {
  obs::Counter guest_reads;       ///< read() calls served
  obs::Counter guest_writes;      ///< write() calls served
  obs::Counter bytes_read;        ///< payload bytes returned
  obs::Counter bytes_written;     ///< payload bytes accepted
  obs::Counter backing_reads;     ///< recursions into the backing image
  obs::Counter bytes_from_backing;
  obs::Counter cor_fills;         ///< CoR population passes that stored data
  obs::Counter cor_clusters;      ///< clusters copied into a cache (CoR)
  obs::Counter cor_bytes;         ///< bytes copied into a cache (CoR)
  obs::Counter cor_stopped;       ///< quota exhaustion events (ENOSPC)
  obs::Counter cor_inflight_waits;  ///< readers that queued behind a fill
  obs::Counter cor_dedup_hits;    ///< clusters served locally after a wait
                                  ///< instead of a duplicate backing fetch
  obs::Counter alloc_lock_waits;  ///< contended allocator-mutex acquisitions
};

/// A virtual block device: what the guest (or an overlay image) reads and
/// writes. Drivers: RawDevice (src/block/raw.hpp) and Qcow2Device
/// (src/qcow2), the latter optionally acting as the paper's cache image.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual sim::Task<Result<void>> read(std::uint64_t off,
                                       std::span<std::uint8_t> dst) = 0;
  virtual sim::Task<Result<void>> write(std::uint64_t off,
                                        std::span<const std::uint8_t> src) = 0;
  virtual sim::Task<Result<void>> flush() = 0;

  /// Orderly shutdown; cache images persist their current-size header
  /// field here (paper §4.3 "close"). The destructor must not be relied
  /// on for this — it cannot perform (simulated) I/O.
  virtual sim::Task<Result<void>> close() = 0;

  /// Virtual disk size in bytes.
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  [[nodiscard]] virtual bool read_only() const = 0;

  /// Demote/promote writability (backing-image reopen dance, §4.3).
  virtual void set_read_only_mode(bool ro) = 0;

  /// True for images carrying the paper's cache extension.
  [[nodiscard]] virtual bool is_cache_image() const { return false; }

  /// Driver name ("raw", "qcow2").
  [[nodiscard]] virtual std::string format_name() const = 0;

  /// Backing device, or nullptr for standalone images.
  [[nodiscard]] virtual BlockDevice* backing() const { return nullptr; }

  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = DeviceStats{}; }

 protected:
  DeviceStats stats_;
};

/// Resolves a backing-file reference found inside an image into an opened
/// device. The host resolver opens files relative to the referring image;
/// the simulated resolver looks the path up on a node's mounts. `writable`
/// communicates the paper's open-RW-first behaviour: the callee opens the
/// image writable, and the caller demotes it afterwards if it turns out
/// not to be a cache image.
using BackingResolver =
    std::function<sim::Task<Result<DevicePtr>>(const std::string& path,
                                               bool writable)>;

/// Options shared by all drivers' open paths.
struct OpenOptions {
  bool writable = true;
  /// Resolver for backing images; required when the image may have one.
  BackingResolver resolver;
  /// Maximum backing-chain depth (defence against cycles).
  int max_chain_depth = 8;
  /// Force cache-image backings read-only too (normally they keep write
  /// permission for copy-on-read). Used when a *shared* warm cache is
  /// attached by many VMs at once — a fully-warm cache takes no CoR
  /// writes anyway, and this guards the single-writer invariant.
  bool cache_backing_ro = false;
  /// Observability sink. When set, drivers mirror per-device counters
  /// into registry-owned aggregates (qcow2.*{image=...}) and trace CoR
  /// fills; devices are too short-lived for per-instance attachment.
  obs::Hub* hub = nullptr;
  /// Defer refcount *decrements* to memory while the image is dirty; the
  /// clean-close path (or `repair()`) persists them. A crash can then
  /// leave stale-high on-disk refcounts — leaks, never corruption — in
  /// exchange for fewer metadata writes on the free/discard path.
  bool lazy_refcounts = false;
  /// Opening an image whose header carries the dirty bit writable runs
  /// `repair()` automatically (qemu semantics). Tools that want to
  /// observe or report the damage first (vmi-img check, crash::explore)
  /// turn this off and call repair() explicitly.
  bool auto_repair_dirty = true;
  /// Do not resolve or open the backing chain even when the header names
  /// one: the device stands alone and unallocated clusters read as zeros.
  /// Safe for any caller that only reads allocated extents (map_status
  /// tells which). The peer cache tier opens a seed's cache file this way
  /// — serving another node's fill must never recurse into the seed's own
  /// NFS-mounted backing image.
  bool no_backing = false;
};

}  // namespace vmic::block
