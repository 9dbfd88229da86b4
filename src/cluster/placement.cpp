#include "cluster/placement.hpp"

#include <algorithm>
#include <vector>

#include "qcow2/chain.hpp"

namespace vmic::cluster {

namespace {

/// The §3.4 eviction policy, enforced: when the pool decides to evict,
/// the victims' cache files leave the node's disk.
void apply_eviction(ComputeNode& node,
                    const cache::CachePool::AdmitResult& r) {
  for (const auto& victim : r.evicted) {
    node.disk_dir.remove(cache_file_for(victim));
  }
}

}  // namespace

sim::Task<Result<PlacementOutcome>> chain_to_proper_cache(
    Cluster& cl, ComputeNode& node, const std::string& base,
    std::uint64_t quota, std::uint32_t cache_cluster_bits,
    std::uint64_t virtual_size) {
  const std::string cache = cache_file_for(base);
  qcow2::ChainImageOptions copt{.cluster_bits = cache_cluster_bits,
                                .virtual_size = virtual_size};

  // Line 1-2: a warm cache on the node itself wins outright.
  if (node.disk_dir.exists(cache)) {
    node.pool.touch(base);
    co_return PlacementOutcome{PlacementOutcome::Action::local_warm_hit,
                               "disk/" + cache, false, false, {}};
  }

  // Lines 3-8: the storage node has the cache (memory, or disk — then
  // stage it into tmpfs first). Chain a fresh node-local cache to it: the
  // node warms its own copy while reads are served from storage memory,
  // avoiding the storage disk entirely.
  const bool in_mem = cl.storage.mem_dir.exists(cache);
  const bool on_disk = cl.storage.disk_dir.exists(cache);
  if (in_mem || on_disk) {
    bool staged = false;
    if (!in_mem) {
      // Timed storage-local copy (no network involved; both media charge
      // their own time).
      VMIC_CO_TRY_VOID(co_await copy_file(cl.storage.disk_dir, cache,
                                          cl.storage.mem_dir, cache,
                                          /*flush=*/false));
      cl.storage.mem_pool.admit(base, *cl.storage.mem_dir.file_size(cache));
      staged = true;
    } else {
      cl.storage.mem_pool.touch(base);
    }
    VMIC_CO_TRY_VOID(co_await qcow2::create_cache_image(
        node.fs, "disk/" + cache, "nfs-mem/" + cache, quota, copt));
    auto ar = node.pool.admit(base, quota);
    apply_eviction(node, ar);
    co_return PlacementOutcome{PlacementOutcome::Action::chained_to_storage,
                               "disk/" + cache, false, staged,
                               std::move(ar.evicted)};
  }

  // Last branch: no cache anywhere. Create one against the base and
  // remember to push it to the storage node after shutdown.
  VMIC_CO_TRY_VOID(co_await qcow2::create_cache_image(
      node.fs, "disk/" + cache, "nfs-base/" + base, quota, copt));
  auto ar = node.pool.admit(base, quota);
  apply_eviction(node, ar);
  co_return PlacementOutcome{PlacementOutcome::Action::created_fresh,
                             "disk/" + cache, true, false,
                             std::move(ar.evicted)};
}

sim::Task<Result<std::uint64_t>> copy_file(io::ImageDirectory& from_dir,
                                           const std::string& from,
                                           io::ImageDirectory& to_dir,
                                           const std::string& to,
                                           bool flush) {
  VMIC_CO_TRY(src, from_dir.open_file(from, /*writable=*/false));
  VMIC_CO_TRY(dst, to_dir.create_file(to));
  const std::uint64_t size = src->size();
  std::vector<std::uint8_t> buf(1 << 20);
  for (std::uint64_t off = 0; off < size; off += buf.size()) {
    const std::uint64_t n = std::min<std::uint64_t>(buf.size(), size - off);
    std::span<std::uint8_t> chunk{buf.data(), static_cast<std::size_t>(n)};
    VMIC_CO_TRY_VOID(co_await src->pread(off, chunk));
    VMIC_CO_TRY_VOID(co_await dst->pwrite(off, chunk));
  }
  if (flush) VMIC_CO_TRY_VOID(co_await dst->flush());
  co_return size;
}

sim::Task<Result<void>> copy_cache_back(Cluster& cl, ComputeNode& node,
                                        const std::string& base) {
  const std::string cache = cache_file_for(base);
  VMIC_CO_TRY(size, co_await copy_file(node.fs, "disk/" + cache,
                                       node.tmpfs_mount, cache,
                                       /*flush=*/true));
  cl.storage.mem_pool.admit(base, size);
  co_return ok_result();
}

}  // namespace vmic::cluster
