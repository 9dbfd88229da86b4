#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace vmic::cluster {

/// What Algorithm 1 decided and did.
struct PlacementOutcome {
  enum class Action {
    local_warm_hit,       ///< node already had the cache (line 1-2)
    chained_to_storage,   ///< new node cache chained to the storage-memory
                          ///< cache (lines 3-8)
    created_fresh,        ///< no cache anywhere: create + copy back later
  };
  Action action;
  /// Backing path (in the node's namespace) the CoW image should chain to.
  std::string backing;
  /// The cache must be pushed to the storage node after VM shutdown.
  bool copy_back_on_shutdown = false;
  /// A disk-resident storage-side cache was staged into tmpfs first.
  bool staged_disk_to_tmpfs = false;
  /// Base images whose node caches the admission evicted (their files
  /// were removed from the node's disk inside placement). Lets callers
  /// that mirror per-node disk state stay consistent without re-listing
  /// the directory.
  std::vector<std::string> evicted;
};

/// The paper's Algorithm 1: "Chaining to a proper cache VMI" (§6).
///
///   if Cache_base exists in C:            return it (local, cheapest)
///   if Cache_base exists in S:
///     if it is on S's disk:               copy it to tmpfs
///     create NewCache on C chained to S's cache; return NewCache
///   create Cache on C chained to Base; copy it to S on VM shutdown
///
/// `base` is the base image's file name on the storage node ("img-0");
/// the returned backing path is relative to the compute node's mounts.
sim::Task<Result<PlacementOutcome>> chain_to_proper_cache(
    Cluster& cl, ComputeNode& node, const std::string& base,
    std::uint64_t quota, std::uint32_t cache_cluster_bits = 9,
    std::uint64_t virtual_size = 0);

/// The copy-back step of Algorithm 1's last branch, run after VM shutdown
/// (Fig 13): streams the node's cache image into the storage node's tmpfs
/// and registers it in the storage memory pool.
sim::Task<Result<void>> copy_cache_back(Cluster& cl, ComputeNode& node,
                                        const std::string& base);

/// Timed, chunked copy of `from` in `from_dir` into a new file `to` in
/// `to_dir`: 1 MiB preads and pwrites, each charged by its own medium,
/// then a flush of the copy when `flush` is set. Returns the bytes copied.
sim::Task<Result<std::uint64_t>> copy_file(io::ImageDirectory& from_dir,
                                           const std::string& from,
                                           io::ImageDirectory& to_dir,
                                           const std::string& to,
                                           bool flush);

/// Canonical cache file name for a base image.
inline std::string cache_file_for(const std::string& base) {
  return "cache-" + base + ".qcow2";
}

}  // namespace vmic::cluster
