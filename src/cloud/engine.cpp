#include "cloud/engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "boot/trace.hpp"
#include "boot/vm.hpp"
#include "cluster/node_index.hpp"
#include "cluster/placement.hpp"
#include "dedup/index.hpp"
#include "manifest/manifest.hpp"
#include "peer/registry.hpp"
#include "qcow2/chain.hpp"
#include "sim/sync.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace vmic::cloud {

namespace {

std::string img_name(int vmi) { return "img-" + std::to_string(vmi); }

/// Versioned cache key: the engine's per-node bookkeeping (open-file
/// refcounts, zombies, the disk mirror, manifest generations) is keyed by
/// (VMI, catalog version) packed into one integer, because during an
/// image update a node legitimately holds cache files for *two* versions
/// of the same VMI at once — the old one draining under in-flight
/// deployments, the new one filling. Version 0 is the unversioned
/// catalog: its keys, names, and iteration order are bit-identical to the
/// pre-update engine, which is what keeps updates-off runs pinned.
using VKey = std::uint64_t;
constexpr VKey vkey(int vmi, std::uint32_t ver) {
  return (static_cast<std::uint64_t>(ver) << 32) |
         static_cast<std::uint32_t>(vmi);
}
constexpr int vk_vmi(VKey k) {
  return static_cast<int>(static_cast<std::uint32_t>(k));
}
constexpr std::uint32_t vk_ver(VKey k) {
  return static_cast<std::uint32_t>(k >> 32);
}
std::string img_name(VKey k) {
  return update::versioned_name(img_name(vk_vmi(k)), vk_ver(k));
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic compressible cluster content for the sibling model: a
/// seed-derived 32-byte pattern tiled across the cluster (LZSS-friendly,
/// like real filesystem metadata), plus one raw seed stamp so distinct
/// seeds can never produce byte-identical clusters.
void fill_cluster_pattern(std::span<std::uint8_t> out, std::uint64_t seed) {
  std::uint8_t tile[32];
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t w = splitmix64(seed + static_cast<std::uint64_t>(i));
    std::memcpy(tile + i * 8, &w, 8);
  }
  for (std::size_t off = 0; off < out.size(); off += sizeof(tile)) {
    const std::size_t n = std::min(sizeof(tile), out.size() - off);
    std::memcpy(out.data() + off, tile, n);
  }
  const std::uint64_t stamp = splitmix64(seed ^ 0xc0ffee);
  std::memcpy(out.data(), &stamp, std::min<std::size_t>(8, out.size()));
}

/// Inverse of img_name ("img-7" -> 7, "img-7@2" -> 7); the cache pool
/// reports victims by image name, the engine indexes its bookkeeping by
/// VMI id (std::stoi stops at the '@', so versioned names parse too).
int vmi_of(const std::string& img) { return std::stoi(img.substr(4)); }

/// Full inverse: "img-7@2" -> vkey(7, 2), "img-7" -> vkey(7, 0).
VKey vkey_of(const std::string& img) {
  return vkey(vmi_of(img), update::version_of(img));
}

LatencyStats summarize(const Samples& s) {
  LatencyStats l;
  l.count = s.count();
  l.mean = s.mean();
  l.p50 = s.percentile(50);
  l.p95 = s.percentile(95);
  l.p99 = s.percentile(99);
  l.max = s.percentile(100);
  return l;
}

/// The control plane. One instance per run_cloud() call; everything is
/// event-driven off the cluster's SimEnv, and the only coroutines left
/// suspended when env.run() returns are none — arrivals finish, VM tasks
/// drain, crash tasks expire — so the run leaks nothing.
class Engine {
 public:
  Engine(const CloudConfig& cfg, std::vector<VmRequest> reqs, int num_vmis)
      : cfg_(cfg),
        num_vmis_(num_vmis),
        reqs_(std::move(reqs)),
        cl_(cfg.cluster),
        gate_(&cl_.env, cfg.failures.outages) {
    // Base images on the storage node + one boot trace per VMI, exactly
    // like cluster::run_scenario sets them up.
    for (int v = 0; v < num_vmis_; ++v) {
      const std::string img = img_name(v);
      (void)cl_.storage.disk_dir.create_file(img);
      (*cl_.storage.disk_dir.buffer(img))->resize(cfg_.profile.image_size);
      traces_.push_back(boot::generate_boot_trace(
          cfg_.profile, static_cast<std::uint64_t>(v)));
    }
    // Sibling content model: write deterministic per-cluster content into
    // the base images host-side (no sim cost — base images exist before
    // the run starts). Sibling groups share `shared_fraction` of their
    // clusters; the rest is image-private, so dedup has real structure to
    // find rather than an all-zero freebie.
    if (cfg_.sibling_group_size > 0) {
      const std::uint64_t ccs = 1ull << cfg_.cache_cluster_bits;
      const std::uint64_t limit =
          cfg_.content_bytes == 0
              ? cfg_.profile.image_size
              : std::min(cfg_.content_bytes, cfg_.profile.image_size);
      std::vector<std::uint8_t> cluster(ccs);
      for (int v = 0; v < num_vmis_; ++v) {
        SparseBuffer* buf = *cl_.storage.disk_dir.buffer(img_name(v));
        const std::uint64_t group =
            static_cast<std::uint64_t>(v / cfg_.sibling_group_size);
        for (std::uint64_t off = 0; off < limit; off += ccs) {
          const std::uint64_t c = off / ccs;
          const bool shared =
              static_cast<double>(splitmix64(c ^ (group << 20)) % 1000) <
              cfg_.shared_fraction * 1000.0;
          const std::uint64_t seed =
              shared ? splitmix64((group << 42) ^ c ^ 0x5eedull)
                     : splitmix64((static_cast<std::uint64_t>(v) << 42) ^ c ^
                                  0x0ddull);
          cluster.assign(ccs, 0);
          fill_cluster_pattern(
              {cluster.data(),
               static_cast<std::size_t>(std::min(ccs, limit - off))},
              seed);
          buf->write(off, cluster);
        }
      }
    }
    // Interpose the outage gate on every node's view of the storage node:
    // re-mounting the nfs-* prefixes swaps the wrapped directory in for
    // every subsequent open/create on that node.
    for (auto& node : cl_.nodes) {
      flaky_.push_back(
          std::make_unique<FlakyDirectory>(&node->base_mount, &gate_));
      node->fs.mount("nfs-base", flaky_.back().get());
      flaky_.push_back(
          std::make_unique<FlakyDirectory>(&node->tmpfs_mount, &gate_));
      node->fs.mount("nfs-mem", flaky_.back().get());
    }
    sched_.resize(cl_.nodes.size());
    rt_.resize(cl_.nodes.size());
    for (std::size_t i = 0; i < sched_.size(); ++i) {
      sched_[i].id = static_cast<int>(i);
      sched_[i].running_vms = 0;
      sched_[i].vm_capacity = cfg_.vm_slots_per_node;
    }
    idx_.emplace(&sched_);
    auto& reg = cl_.obs->registry;
    c_arrivals_ = &reg.counter("cloud.arrivals");
    c_completed_ = &reg.counter("cloud.completed");
    c_aborted_ = &reg.counter("cloud.aborted");
    c_rejected_ = &reg.counter("cloud.rejected");
    c_retries_ = &reg.counter("cloud.retries");
    c_deploy_failures_ = &reg.counter("cloud.deploy_failures");
    c_crash_kills_ = &reg.counter("cloud.crash_kills");
    c_vm_crashes_ = &reg.counter("cloud.vm_crashes");
    c_warm_hits_ = &reg.counter("cloud.warm_hits");
    c_copyback_skips_ = &reg.counter("cloud.copyback_skips");
    c_node_crashes_ = &reg.counter("cloud.node_crashes");
    c_node_recoveries_ = &reg.counter("cloud.node_recoveries");
    c_cache_salvaged_ = &reg.counter("cloud.cache_salvaged");
    c_cache_invalidated_ = &reg.counter("cloud.cache_invalidated");
    const std::vector<double> bounds{0.5, 1,  2,  5,   10,  20,
                                     30,  60, 120, 300, 600};
    h_deploy_ = &reg.histogram("cloud.deploy_seconds", {}, bounds);
    h_queue_wait_ = &reg.histogram("cloud.queue_wait_seconds", {}, bounds);
    h_prepare_ = &reg.histogram("cloud.prepare_seconds", {}, bounds);
    h_boot_ = &reg.histogram("cloud.boot_seconds", {}, bounds);
    // Peer tier state and metrics exist only when the tier is on: a
    // peer-off run must produce the exact snapshot it produced before the
    // tier existed (the golden cloud.* pins).
    if (cfg_.peer_transfer) {
      fabric_.emplace(cl_.env, cl_.nodes.size(), cfg_.peer);
      fabric_->bind_obs(cl_.obs);
      c_peer_hits_ = &reg.counter("peer.seed_hits");
      c_peer_fallback_ = &reg.counter("peer.fallback_fills");
      std::size_t fb = 0;
      for (const char* why : {"miss", "timeout", "crash", "error"}) {
        c_peer_fb_[fb++] = &reg.counter("peer.fallback", {{"reason", why}});
      }
      c_peer_bytes_avoided_ = &reg.counter("peer.storage_bytes_avoided");
      c_peer_reg_ = &reg.counter("peer.registrations");
      c_peer_dereg_ = &reg.counter("peer.deregistrations");
      for (std::size_t i = 0; i < cl_.nodes.size(); ++i) {
        c_peer_node_bytes_.push_back(&reg.counter(
            "peer.bytes_served", {{"node", "compute" + std::to_string(i)}}));
      }
    }
    // Durable control plane: per-node manifest stores plus the restart /
    // drain / adoption instruments. Same golden-pin rule as the tiers —
    // a run that configures none of it must not create any of these.
    if (cfg_.manifest) {
      mgen_.resize(cl_.nodes.size());
      mmx_.resize(cl_.nodes.size());
      for (auto& node : cl_.nodes) {
        mstores_.push_back(
            std::make_unique<manifest::Store>(&node->disk_dir));
      }
      c_manifest_pub_ = &reg.counter("manifest.publishes");
    }
    if (cfg_.manifest || !cfg_.restart_at_s.empty() || cfg_.drain_node >= 0) {
      c_restarts_ = &reg.counter("cloud.restart.count");
      c_drains_ = &reg.counter("cloud.drain.count");
      c_adopt_ok_ = &reg.counter("cloud.adopt.ok");
      c_adopt_failed_ = &reg.counter("cloud.adopt.failed");
      c_adopt_stale_ = &reg.counter("cloud.adopt.stale");
      h_adopt_seconds_ = &reg.histogram("cloud.adopt.seconds", {},
                                        {0.01, 0.05, 0.1, 0.5, 1, 5, 30});
    }
    // The fingerprint memo serves the dedup tier and doubles as the
    // rebase diff oracle of image updates.
    if (cfg_.dedup || cfg_.updates.enabled) {
      fp_memo_.resize(static_cast<std::size_t>(num_vmis_));
      zero_fp_ = fnv1a(std::vector<std::uint8_t>(cache_cluster_bytes(), 0));
    }
    // Dedup tier: same golden-pin rule as the peer tier — a dedup-off run
    // must not even create the dedup.* instruments.
    if (cfg_.dedup) {
      didx_.resize(cl_.nodes.size());
      c_dedup_local_ = &reg.counter("dedup.local_hits");
      c_dedup_zero_ = &reg.counter("dedup.zero_fills");
      c_dedup_peer_ = &reg.counter("dedup.peer_hits");
      c_dedup_fallback_ = &reg.counter("dedup.fallbacks");
      c_dedup_bytes_local_ =
          &reg.counter("dedup.bytes_served", {{"source", "local"}});
      c_dedup_bytes_zero_ =
          &reg.counter("dedup.bytes_served", {{"source", "zero"}});
      c_dedup_bytes_peer_ =
          &reg.counter("dedup.bytes_served", {{"source", "peer"}});
    }
    // Image-update churn: the publish schedule and its instruments exist
    // only when the workload is on (golden-pin rule). The schedule draws
    // from its own fork of the run seed, so --updates never perturbs the
    // arrival or failure streams.
    catalog_ver_.assign(static_cast<std::size_t>(num_vmis_), 0);
    if (cfg_.updates.enabled) {
      Rng urng(cfg_.seed ^ 0x1ba5e'ca7a'f00dull);
      update_events_ = update::generate_schedule(cfg_.updates, num_vmis_,
                                                 cfg_.horizon_s, urng);
      c_upd_published_ = &reg.counter("update.published");
      c_upd_invalidated_ = &reg.counter("update.invalidated");
      c_upd_rebased_ = &reg.counter("update.rebased");
      c_upd_patched_ = &reg.counter("update.rebase.patched_clusters");
      c_upd_reused_ = &reg.counter("update.rebase.reused_clusters");
    }
  }

  CloudResult run() {
    for (const auto& c : cfg_.failures.crashes) {
      if (c.node >= 0 && c.node < static_cast<int>(cl_.nodes.size())) {
        cl_.env.spawn(crash_task(c));
      }
    }
    for (const double at_s : cfg_.restart_at_s) {
      cl_.env.spawn(restart_task(at_s));
    }
    if (cfg_.drain_node >= 0 &&
        cfg_.drain_node < static_cast<int>(cl_.nodes.size())) {
      cl_.env.spawn(drain_task());
    }
    if (!update_events_.empty()) cl_.env.spawn(update_task());
    cl_.env.spawn(arrivals());
    cl_.env.run();

    // CloudResult's counters are the registry's own, read once here; a
    // tier that is off never created its counters, which then read 0.
    auto n = [](const obs::Counter* c) -> std::uint64_t {
      return c != nullptr ? c->value() : 0;
    };
    auto i = [&](const obs::Counter* c) { return static_cast<int>(n(c)); };
    res_.arrivals = i(c_arrivals_);
    res_.completed = i(c_completed_);
    res_.aborted = i(c_aborted_);
    res_.rejected = i(c_rejected_);
    res_.retries = i(c_retries_);
    res_.deploy_failures = i(c_deploy_failures_);
    res_.crash_kills = i(c_crash_kills_);
    res_.vm_crashes = i(c_vm_crashes_);
    res_.warm_hits = i(c_warm_hits_);
    res_.copyback_skips = i(c_copyback_skips_);
    res_.node_crashes = i(c_node_crashes_);
    res_.node_recoveries = i(c_node_recoveries_);
    res_.caches_salvaged = i(c_cache_salvaged_);
    res_.caches_invalidated = i(c_cache_invalidated_);
    res_.restarts = i(c_restarts_);
    res_.drains = i(c_drains_);
    res_.caches_readopted = i(c_adopt_ok_);
    res_.adopt_failures = i(c_adopt_failed_);
    res_.adopt_stale = i(c_adopt_stale_);
    res_.manifest_publishes = n(c_manifest_pub_);
    res_.peer_seed_hits = n(c_peer_hits_);
    res_.peer_fallback_fills = n(c_peer_fallback_);
    res_.peer_timeouts = fabric_ ? fabric_->timeouts() : 0;
    res_.dedup_local_hits = n(c_dedup_local_);
    res_.dedup_zero_fills = n(c_dedup_zero_);
    res_.dedup_peer_hits = n(c_dedup_peer_);
    res_.dedup_fallbacks = n(c_dedup_fallback_);
    res_.dedup_bytes_served = n(c_dedup_bytes_local_) +
                              n(c_dedup_bytes_zero_) + n(c_dedup_bytes_peer_);
    res_.updates_published = i(c_upd_published_);
    res_.caches_rebased = i(c_upd_rebased_);
    res_.update_invalidations = i(c_upd_invalidated_);
    res_.rebase_patched_clusters = n(c_upd_patched_);
    res_.rebase_reused_clusters = n(c_upd_reused_);
    for (std::size_t k = 0; k < sched_.size(); ++k) {
      res_.leaked_slots += sched_[k].running_vms + rt_[k].inflight;
    }
    res_.leaked_cache_refs = audit_cache_refs();
    res_.sim_seconds = sim::to_seconds(cl_.env.now());
    res_.sim_events = cl_.env.events_processed();
    res_.cache_hit_ratio =
        res_.completed > 0
            ? static_cast<double>(res_.warm_hits) /
                  static_cast<double>(res_.completed)
            : 0.0;
    res_.goodput_vms_per_hour =
        res_.sim_seconds > 0
            ? static_cast<double>(res_.completed) / (res_.sim_seconds / 3600.0)
            : 0.0;
    for (const auto& node : cl_.nodes) {
      res_.cache_evictions += node->pool.evictions();
    }
    res_.storage_payload_bytes = cl_.storage.nfs.stats().total_payload();
    if (!cfg_.restart_at_s.empty()) {
      res_.post_restart_storage_bytes =
          res_.storage_payload_bytes - restart_storage_mark_;
    }
    if (res_.updates_published > 0) {
      res_.post_update_storage_bytes =
          res_.storage_payload_bytes - update_storage_mark_;
    }
    res_.deploy = summarize(deploy_);
    res_.queue_wait = summarize(qwait_);
    res_.prepare = summarize(prep_);
    res_.boot = summarize(boot_);

    auto& reg = cl_.obs->registry;
    reg.gauge("cloud.cache_hit_ratio").set(res_.cache_hit_ratio);
    reg.gauge("cloud.goodput_vms_per_hour").set(res_.goodput_vms_per_hour);
    reg.gauge("cloud.peak_queue_depth")
        .set(static_cast<double>(res_.peak_queue_depth));
    reg.gauge("cloud.leaked_slots")
        .set(static_cast<double>(res_.leaked_slots));
    if (cfg_.dedup) {
      std::uint64_t locs = 0;
      for (const auto& di : didx_) locs += di.locations();
      reg.gauge("dedup.index_locations").set(static_cast<double>(locs));
    }
    if (!cfg_.restart_at_s.empty()) {
      reg.gauge("cloud.restart.post_storage_bytes")
          .set(static_cast<double>(res_.post_restart_storage_bytes));
    }
    if (cfg_.updates.enabled) {
      reg.gauge("update.post_storage_bytes")
          .set(static_cast<double>(res_.post_update_storage_bytes));
    }
    res_.metrics = reg.snapshot();
    return std::move(res_);
  }

 private:
  /// One queued deployment request (a VmRequest plus retry state).
  struct Pending {
    int id = 0;
    int vmi = 0;
    double lifetime_s = 0;
    int attempts = 0;
    sim::SimTime enqueued = 0;        ///< last (re-)enqueue
    sim::SimTime first_enqueued = 0;  ///< original arrival
  };

  /// Per-node control-plane state the scheduler view doesn't carry.
  struct NodeRuntime {
    bool up = true;
    /// Bumped on every crash; a task that captured an older epoch knows
    /// its node died under it after any co_await.
    std::uint64_t epoch = 0;
    /// Tasks placed on this node that have not exited yet (slot audit).
    int inflight = 0;
    /// Open-file refcount per versioned cache file: a crash must not
    /// delete a file some coroutine still has open (SimDirectory::remove
    /// destroys the buffer under the open backend).
    std::map<VKey, int> cache_users;
    /// Versioned caches a crash (or an image update) invalidated but
    /// could not delete because they were in use; reclaimed when the last
    /// user drops them, or re-registered if a post-recovery placement
    /// warm-hits them first.
    std::set<VKey> zombies;
    /// Mirror of the cache files present on this node's disk, updated at
    /// every file mutation the engine observes (placement outcomes carry
    /// their evictions). refresh_warm and the crash sweep iterate this
    /// instead of probing the directory once per known VMI, so per-node
    /// bookkeeping costs O(cached files), not O(num_vmis).
    std::set<VKey> disk_caches;
  };

  // --- small helpers ---------------------------------------------------------

  /// End-of-run audit of the cache lifecycle: every hold dropped, every
  /// zombie reclaimed, no pool entry pinned, and no cache file of a known
  /// (VMI, version) on a node's disk that its mirror does not list.
  int audit_cache_refs() const {
    int leaked = 0;
    for (std::size_t ni = 0; ni < rt_.size(); ++ni) {
      const NodeRuntime& rt = rt_[ni];
      const ComputeNode& node = *cl_.nodes[ni];
      for (const auto& [v, users] : rt.cache_users) leaked += users;
      leaked += static_cast<int>(rt.zombies.size());
      for (int vmi = 0; vmi < num_vmis_; ++vmi) {
        for (std::uint32_t ver = 0;
             ver <= catalog_ver_[static_cast<std::size_t>(vmi)]; ++ver) {
          const VKey vk = vkey(vmi, ver);
          const std::string img = img_name(vk);
          if (node.pool.pinned(img)) ++leaked;
          if (rt.disk_caches.count(vk) == 0 &&
              node.disk_dir.exists(cluster::cache_file_for(img))) {
            ++leaked;
          }
        }
      }
    }
    return leaked;
  }

  sim::Mutex& prep_mutex(int ni, int vmi) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ni)) << 32) |
        static_cast<std::uint32_t>(vmi);
    auto& p = prep_mx_[key];
    if (!p) p = std::make_unique<sim::Mutex>(cl_.env);
    return *p;
  }
  sim::Mutex& push_mutex(int vmi) {
    auto& p = push_mx_[vmi];
    if (!p) p = std::make_unique<sim::Mutex>(cl_.env);
    return *p;
  }

  void track_peak() {
    res_.peak_queue_depth = std::max(res_.peak_queue_depth, queue_.size());
  }

  /// A node's slot occupancy changed: re-index it for placement queries.
  void slots_changed(int ni) { idx_->node_changed(ni); }

  void hold_file(int ni, VKey vk) {
    ++rt_[static_cast<std::size_t>(ni)].cache_users[vk];
  }

  /// Drop one user of a cache file; the last user out reclaims a zombie.
  void drop_file(int ni, VKey vk) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    auto it = rt.cache_users.find(vk);
    if (it != rt.cache_users.end()) {
      if (--it->second > 0) return;
      rt.cache_users.erase(it);
    }
    if (rt.zombies.count(vk) != 0) {
      rt.zombies.erase(vk);
      auto& dd = cl_.nodes[static_cast<std::size_t>(ni)]->disk_dir;
      const std::string cache = cluster::cache_file_for(img_name(vk));
      if (dd.exists(cache)) dd.remove(cache);
      rt.disk_caches.erase(vk);
    }
  }

  /// Delete a cache file now or, while someone still has it open, make
  /// it a zombie that the last drop_file deletes.
  void drop_or_zombify(int ni, VKey vk) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    if (rt.cache_users.count(vk) != 0) {
      rt.zombies.insert(vk);
      return;
    }
    auto& dd = cl_.nodes[static_cast<std::size_t>(ni)]->disk_dir;
    const std::string cache = cluster::cache_file_for(img_name(vk));
    if (dd.exists(cache)) dd.remove(cache);
    rt.disk_caches.erase(vk);
  }

  /// A deployment is done with its cache: unpin it and drop its hold.
  void release_cache(int ni, VKey vk) {
    cl_.nodes[static_cast<std::size_t>(ni)]->pool.unpin(img_name(vk));
    drop_file(ni, vk);
  }

  /// Is `vk` the catalog's current version of its VMI?
  [[nodiscard]] bool current(VKey vk) const {
    return vk_ver(vk) == catalog_ver_[static_cast<std::size_t>(vk_vmi(vk))];
  }

  /// A warm hit on a file the pool does not account for: either a zombie
  /// on a recovered node, or a file whose admission was once rejected.
  /// Re-register it (the file is a valid cache; only the bookkeeping was
  /// lost) and enforce any eviction the admission decides, mirroring
  /// placement's apply_eviction. Victims are unpinned by construction,
  /// so their files are safe to delete.
  void readopt(int ni, VKey vk) {
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    const std::string img = img_name(vk);
    const std::string cache = cluster::cache_file_for(img);
    rt.zombies.erase(vk);
    rt.disk_caches.insert(vk);
    auto size = node.disk_dir.file_size(cache);
    evicted(ni, node.pool.admit(img, size.ok() ? *size : cfg_.cache_quota)
                    .evicted);
  }

  /// The pool evicted `victims` (unpinned by construction, so their files
  /// are safe to delete): delete any file still on disk and drop them
  /// from the disk mirror and the tiers.
  void evicted(int ni, const std::vector<std::string>& victims) {
    auto& dd = cl_.nodes[static_cast<std::size_t>(ni)]->disk_dir;
    for (const auto& victim : victims) {
      const std::string vf = cluster::cache_file_for(victim);
      if (dd.exists(vf)) dd.remove(vf);
      rt_[static_cast<std::size_t>(ni)].disk_caches.erase(vkey_of(victim));
      forget_tiers(ni, victim);
    }
  }

  /// After a failed placement: a partially-created cache file must not
  /// masquerade as a warm cache on the next attempt. Only removable once
  /// nobody holds it and the pool never admitted it.
  void scrub_failed_cache(int ni, VKey vk) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    const std::string img = img_name(vk);
    const std::string cache = cluster::cache_file_for(img);
    if (rt.cache_users.count(vk) != 0) return;
    if (!node.pool.contains(img) && node.disk_dir.exists(cache)) {
      rt.zombies.erase(vk);
      node.disk_dir.remove(cache);
      rt.disk_caches.erase(vk);
      forget_tiers(ni, img);
    }
  }

  /// Rebuild the scheduler's warm-cache view of a node (evictions happen
  /// inside placement, out of the scheduler's sight). The disk mirror is
  /// the source: only VMIs with an in-flight holder — whose cache file
  /// may be mid-creation, a state the mirror cannot yet know — are probed
  /// against the directory, so the rebuild costs O(cached + held files)
  /// instead of O(num_vmis) probes. Zombies don't count: the crash
  /// invalidated them.
  void refresh_warm(int ni) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    if (!rt.up) return;
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    std::set<std::string> warm;
    for (VKey v : rt.disk_caches) {
      if (rt.zombies.count(v) == 0) warm.insert(img_name(v));
    }
    for (const auto& [v, users] : rt.cache_users) {
      (void)users;
      if (rt.disk_caches.count(v) != 0 || rt.zombies.count(v) != 0) continue;
      const std::string img = img_name(v);
      if (node.disk_dir.exists(cluster::cache_file_for(img))) {
        warm.insert(img);
      }
    }
    auto& ws = sched_[static_cast<std::size_t>(ni)].warm_vmis;
    for (const auto& img : ws) {
      if (warm.count(img) == 0) idx_->warm_removed(ni, img);
    }
    for (const auto& img : warm) {
      if (ws.count(img) == 0) idx_->warm_added(ni, img);
    }
    ws = std::move(warm);
  }

  // --- cache lifecycle (DESIGN.md, "Cache lifecycle") ------------------------
  //
  // A cache file that some coroutine reads outside a deployment chain is
  // leased; caches enter the pool, seed registry and fingerprint index
  // through register_tiers and leave through forget_tiers; crash salvage
  // and manifest adoption share one verify pass.

  using MapKind = qcow2::Qcow2Device::MapKind;
  using Extents = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  /// One reader's claim on node `node`'s cache of `vk`, from lease() to
  /// release().
  struct CacheLease {
    int node = -1;
    VKey vk = 0;
    bool upload = false;      ///< another node reads it: holds an upload slot
    std::uint64_t epoch = 0;  ///< the node's epoch when leased
    block::DevicePtr dev;
    qcow2::Qcow2Device* q = nullptr;  ///< null when the open failed
  };

  /// Pin the file (eviction must not yank it), hold it (a crash must not
  /// delete it under the open backend), take an upload slot when another
  /// node reads it, and open it read-only with no backing chain: a lease
  /// serves only the file's own clusters and never recurses into its
  /// node's NFS-mounted base. Nothing suspends before the pin, so a pool
  /// check the caller made just before still holds.
  sim::Task<CacheLease> lease(int src, VKey vk, int reader) {
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(src)];
    const std::string img = img_name(vk);
    CacheLease l{src, vk, src != reader,
                 rt_[static_cast<std::size_t>(src)].epoch, nullptr, nullptr};
    node.pool.pin(img);
    hold_file(src, vk);
    if (l.upload) seeds_.begin_upload(src);
    auto backend = node.fs.open_file("disk/" + cluster::cache_file_for(img),
                                     /*writable=*/false);
    if (backend.ok()) {
      block::OpenOptions o;
      o.writable = false;
      o.no_backing = true;
      o.hub = cl_.obs;
      auto dv = co_await qcow2::open_any(std::move(*backend), o);
      if (dv.ok()) {
        l.dev = std::move(*dv);
        l.q = dynamic_cast<qcow2::Qcow2Device*>(l.dev.get());
      }
    }
    co_return l;
  }

  /// Close, end the upload, drop the hold, unpin. Close comes first:
  /// dropping the last hold reclaims a zombie by removing its file, and
  /// SimDirectory::remove under an open backend is forbidden.
  sim::Task<void> release(CacheLease& l) {
    if (l.dev) (void)co_await l.dev->close();
    if (l.upload) seeds_.end_upload(l.node);
    drop_file(l.node, l.vk);
    cl_.nodes[static_cast<std::size_t>(l.node)]->pool.unpin(img_name(l.vk));
  }

  /// False once the leased file's node has crashed since the lease.
  [[nodiscard]] bool alive(const CacheLease& l) const {
    return rt_[static_cast<std::size_t>(l.node)].epoch == l.epoch;
  }

  /// Re-admit node `ni`'s verified cache of `vk` to the pool, register it
  /// as a peer seed covering `extents`, and index their content.
  void register_tiers(int ni, VKey vk, const Extents& extents) {
    readopt(ni, vk);
    const std::string img = img_name(vk);
    if (cfg_.peer_transfer && seeds_.register_seed(ni, img)) {
      c_peer_reg_->inc();
    }
    for (const auto& [lo, hi] : extents) {
      if (cfg_.peer_transfer) seeds_.add_coverage(ni, img, lo, hi);
      if (cfg_.dedup) index_fill(ni, vk, lo, hi);
    }
  }

  /// Node `ni`'s cache of `img` is gone: drop its seed registration and
  /// its indexed content. A no-op for a tier that is off.
  void forget_tiers(int ni, const std::string& img) {
    if (cfg_.peer_transfer && seeds_.deregister(ni, img)) c_peer_dereg_->inc();
    if (!cfg_.dedup) return;
    didx_[static_cast<std::size_t>(ni)].remove_image(img);
    if (cfg_.peer_transfer) seeds_.deregister_content(ni, img);
  }

  /// The node went down: every cache it held is suspect, so its whole
  /// seed footprint and index vanish at once. Salvage and adoption
  /// re-register the survivors.
  void forget_node_tiers(int ni) {
    if (cfg_.peer_transfer) {
      const std::size_t n = seeds_.deregister_node(ni);
      if (n > 0) c_peer_dereg_->inc(n);
    }
    if (!cfg_.dedup) return;
    didx_[static_cast<std::size_t>(ni)] = dedup::FingerprintIndex{};
    if (cfg_.peer_transfer) seeds_.deregister_content_node(ni);
  }

  /// Walk `q`'s allocated extents in order, calling `on_extent(lo, hi)`
  /// as the walk reaches each one; stops at the first map error.
  template <typename Fn>
  sim::Task<void> walk_extents(qcow2::Qcow2Device& q, Fn on_extent) {
    std::uint64_t off = 0;
    while (off < q.size()) {
      auto ms = co_await q.map_status(off, q.size() - off);
      if (!ms.ok() || ms->len == 0) break;
      if (ms->kind != MapKind::unallocated) on_extent(off, off + ms->len);
      off += ms->len;
    }
  }

  /// The verify pass of crash salvage and manifest adoption: hold the
  /// file, open it writable (a dirty image auto-repairs), `check` it and,
  /// when a tier will advertise it, collect the allocated extents repair
  /// left behind; then close and drop. Nothing when the cache is not
  /// clean. The open and check reads charge the node's disk: verifying
  /// costs less than re-warming.
  sim::Task<std::optional<Extents>> verify_cache(int ni, VKey vk) {
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    hold_file(ni, vk);
    std::optional<Extents> extents;
    auto dv = co_await qcow2::open_image(
        node.fs, "disk/" + cluster::cache_file_for(img_name(vk)),
        /*writable=*/true, /*cache_backing_ro=*/false, cl_.obs);
    if (dv.ok()) {
      if (auto* q = dynamic_cast<qcow2::Qcow2Device*>(dv->get())) {
        auto chk = co_await q->check();
        if (chk.ok() && chk->clean()) {
          extents.emplace();
          if (cfg_.peer_transfer || cfg_.dedup) {
            co_await walk_extents(*q, [&](std::uint64_t lo, std::uint64_t hi) {
              extents->emplace_back(lo, hi);
            });
          }
        }
      }
      (void)co_await (*dv)->close();
    }
    drop_file(ni, vk);
    co_return extents;
  }

  // --- peer cache tier -------------------------------------------------------

  /// Store a cache's fills compressed when configured. Engine caches
  /// carry no refcount journal, the one kind that refuses; a refusal
  /// would leave the cache uncompressed, so it is logged.
  void enable_compression(qcow2::Qcow2Device& q, VKey vk) {
    if (cfg_.cache_compress && !q.set_cor_compress(true).ok()) {
      VMIC_LOG_WARN("cache %s refused compression", img_name(vk).c_str());
    }
  }

  /// Hook a freshly-opened deployment chain into the peer and dedup
  /// tiers. The CoW overlay's backing device is this node's cache image:
  /// enable compression, register it as a peer seed / index its content,
  /// bootstrap from its on-disk allocation (a warm hit starts with
  /// clusters earlier deployments populated), and install the fetch hook
  /// + fill observer so future backing fetches try dedup and peers first
  /// and completed fills extend the advertised coverage and index.
  sim::Task<void> attach_tiers(int ni, VKey vk, block::BlockDevice* dev) {
    auto* q = dynamic_cast<qcow2::Qcow2Device*>(dev->backing());
    if (q == nullptr || !q->is_cache_image()) co_return;
    enable_compression(*q, vk);
    if (!cfg_.peer_transfer && !cfg_.dedup && !cfg_.manifest) co_return;
    const std::string img = img_name(vk);
    bool want_cov = false;
    if (cfg_.peer_transfer) {
      if (seeds_.register_seed(ni, img)) c_peer_reg_->inc();
      const IntervalSet* cov = seeds_.coverage(ni, img);
      want_cov = cov != nullptr && cov->total() == 0;
    }
    const bool want_idx =
        cfg_.dedup && !didx_[static_cast<std::size_t>(ni)].has_image(img);
    if (want_cov || want_idx) {
      // Register each extent as the walk reaches it: peers see coverage
      // grow while later map_status reads are still in flight.
      co_await walk_extents(*q, [&](std::uint64_t lo, std::uint64_t hi) {
        if (want_cov) seeds_.add_coverage(ni, img, lo, hi);
        if (want_idx) index_fill(ni, vk, lo, hi);
      });
    }
    q->set_cor_fill_observer(
        [this, ni, vk, img](std::uint64_t lo, std::uint64_t hi) {
          if (cfg_.peer_transfer) seeds_.add_coverage(ni, img, lo, hi);
          if (cfg_.dedup) index_fill(ni, vk, lo, hi);
          // The manifest's fill generation: "this cache gained content
          // since the last publish" is what a restarted reader needs to
          // distinguish from "untouched".
          if (cfg_.manifest) {
            ++mgen_[static_cast<std::size_t>(ni)][vk].fill;
          }
        });
    if (!cfg_.peer_transfer && !cfg_.dedup) co_return;
    q->set_backing_fetch_hook(
        [this, ni, vk](std::uint64_t vaddr, std::span<std::uint8_t> dst)
            -> sim::Task<Result<bool>> {
          if (cfg_.dedup) {
            if (co_await content_stage(ni, vk, vaddr, dst)) co_return true;
          }
          if (!cfg_.peer_transfer) co_return false;
          co_return co_await seed_stage(ni, vk, vaddr, dst);
        });
  }

  // --- content-addressed dedup tier -------------------------------------

  [[nodiscard]] std::uint64_t cache_cluster_bytes() const {
    return 1ull << cfg_.cache_cluster_bits;
  }

  struct FpEntry {
    std::uint64_t fp = 0;
    bool zero = false;
  };

  /// Fingerprint of one cache cluster of a versioned image's base content
  /// (zero-padded to the full cluster). Host-side and memoized: manifests
  /// ship with the images in the modelled system, so computing them costs
  /// the simulation nothing. The memo key folds the catalog version into
  /// the high bits (cluster counts stay far below 2^40 at any profile).
  FpEntry fp_of(VKey vk, std::uint64_t cluster) {
    auto& memo = fp_memo_[static_cast<std::size_t>(vk_vmi(vk))];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(vk_ver(vk)) << 40) | cluster;
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    const std::uint64_t ccs = cache_cluster_bytes();
    fp_buf_.assign(ccs, 0);
    SparseBuffer* base = *cl_.storage.disk_dir.buffer(img_name(vk));
    const std::uint64_t off = cluster * ccs;
    if (off < base->size()) {
      base->read(off, {fp_buf_.data(),
                       static_cast<std::size_t>(
                           std::min<std::uint64_t>(ccs, base->size() - off))});
    }
    // Most clusters of a sparse base are all zero: they share one
    // fingerprint, computed once, instead of each being hashed.
    FpEntry e;
    e.zero = is_all_zero(fp_buf_);
    e.fp = e.zero ? zero_fp_ : fnv1a(fp_buf_);
    memo.emplace(key, e);
    return e;
  }

  /// Authoritative verification of candidate bytes against the
  /// requester's base content at the version it deployed (host memcmp —
  /// models the collision-free strong hash a real deployment would use;
  /// the fnv1a fingerprint only nominates candidates).
  [[nodiscard]] bool verify_content(VKey vk, std::uint64_t pos,
                                    std::span<const std::uint8_t> bytes) {
    SparseBuffer* base = *cl_.storage.disk_dir.buffer(img_name(vk));
    verify_buf_.assign(bytes.size(), 0);
    if (pos < base->size()) {
      base->read(pos, {verify_buf_.data(),
                       static_cast<std::size_t>(std::min<std::uint64_t>(
                           bytes.size(), base->size() - pos))});
    }
    return std::memcmp(verify_buf_.data(), bytes.data(), bytes.size()) == 0;
  }

  /// Guest range [lo, hi) of `vk`'s cache on node `ni` became servable:
  /// index every whole cache cluster it covers, and advertise the
  /// fingerprints to peers when the peer tier is on.
  void index_fill(int ni, VKey vk, std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t ccs = cache_cluster_bytes();
    const std::string img = img_name(vk);
    auto& di = didx_[static_cast<std::size_t>(ni)];
    const std::uint64_t first = lo / ccs;
    for (std::uint64_t c = first; c * ccs < hi; ++c) {
      const FpEntry e = fp_of(vk, c);
      if (e.zero) continue;  // zeros are served by detection, not lookup
      di.add(e.fp, img, c);
      if (cfg_.peer_transfer) seeds_.register_content(e.fp, ni, img, c);
    }
  }

  // --- fetch path (DESIGN.md, "Fetch path") ---------------------------------
  //
  // A backing fetch a cache image would send down its chain is offered to
  // stages in order: content, then seed, for a deployment; the previous
  // version for a rebase. A stage plans without suspending and serve()
  // reads the plan, so every byte taken from another cache file is walked,
  // read and verified the same way.

  /// One contiguous piece of a backing fetch.
  struct Chunk {
    std::uint64_t dst_off = 0;  ///< offset into the fetch's buffer
    std::uint64_t src_pos = 0;  ///< byte position in the source image
    std::uint64_t len = 0;
  };

  /// The chunks one source cache serves, under one lease.
  struct FetchGroup {
    int node = -1;  ///< the source cache's node
    VKey vk = 0;    ///< the source cache's image
    /// Found through the content index: served only while its node's pool
    /// still holds it (an earlier group's reads suspend).
    bool by_content = false;
    const CacheLease* held = nullptr;  ///< the rebase's lease, used as is
    std::vector<Chunk> chunks;
  };

  /// Where every byte of one backing fetch comes from.
  struct FetchPlan {
    std::vector<FetchGroup> groups;  ///< served in order
    std::vector<Chunk> zeros;        ///< filled with zeros
    /// Read from the storage node's base export (src_pos is the base
    /// byte); adjacent clusters are merged into one chunk, one pread.
    std::vector<Chunk> nfs;
  };

  /// Why a serve failed, as `peer.fallback{reason}` counts it (in the
  /// order those counters are registered).
  enum class Fallback : std::uint8_t { miss, timeout, crash, error };

  /// True when every byte of `chunks` is allocated in `q`. The seed
  /// registry and the content index are advisory and may lag a repair,
  /// and an unallocated cluster of a no_backing device reads as zeros, so
  /// the file itself decides. Stops at the first hole.
  sim::Task<bool> allocated(qcow2::Qcow2Device& q,
                            const std::vector<Chunk>& chunks) {
    for (const Chunk& ch : chunks) {
      const std::uint64_t end = ch.src_pos + ch.len;
      for (std::uint64_t off = ch.src_pos; off < end;) {
        auto ms = co_await q.map_status(off, end - off);
        if (!ms.ok() || ms->len == 0 || ms->kind == MapKind::unallocated) {
          co_return false;
        }
        off += ms->len;
      }
    }
    co_return true;
  }

  /// The one reader of another cache file: walk the allocation of
  /// `chunks` on lease `l`, read each chunk into `dst` and verify it
  /// against `vk`'s base content, then move the bytes over the fabric
  /// when the file is on another node. Nothing once served, else why not.
  /// Lock order: the requester holds only its own device's CoR in-flight
  /// range; the lease's device is standalone (own lock hierarchy, never
  /// takes an alloc lock), so two nodes' orders cannot interleave.
  sim::Task<std::optional<Fallback>> read_group(
      const CacheLease& l, int ni, VKey vk, std::uint64_t vaddr,
      std::span<std::uint8_t> dst, const std::vector<Chunk>& chunks) {
    // A source node that crashed since the lease reads as a crash once the
    // lease is released; the requester's own node crashing is its
    // deployment's concern.
    auto lost = [&] { return l.upload && !alive(l); };
    if (l.q == nullptr || lost()) co_return Fallback::error;
    if (!co_await allocated(*l.q, chunks)) co_return Fallback::miss;
    if (lost()) co_return Fallback::error;
    std::uint64_t bytes = 0;
    for (const Chunk& ch : chunks) {
      auto sub = dst.subspan(static_cast<std::size_t>(ch.dst_off),
                             static_cast<std::size_t>(ch.len));
      auto rr = co_await l.q->read(ch.src_pos, sub);  // charges its disk
      if (!rr.ok() || lost() || !verify_content(vk, vaddr + ch.dst_off, sub)) {
        co_return Fallback::error;
      }
      bytes += ch.len;
    }
    if (l.node == ni) co_return std::nullopt;
    if (!co_await fabric_->transfer(l.node, ni,
                                    bytes + cfg_.peer.per_fetch_overhead)) {
      co_return Fallback::timeout;
    }
    if (!alive(l)) co_return Fallback::error;
    c_peer_node_bytes_[static_cast<std::size_t>(l.node)]->inc(bytes);
    c_peer_bytes_avoided_->inc(bytes);
    co_return std::nullopt;
  }

  /// Serve `plan` into `dst`, the fetch of `vk`'s range at `vaddr` on node
  /// `ni`: each group under its own lease (unless it holds one), then the
  /// zeros, then the NFS top-up. All or nothing: nothing once every byte
  /// is served, else why the first failure happened.
  sim::Task<std::optional<Fallback>> serve(int ni, VKey vk, std::uint64_t vaddr,
                                           std::span<std::uint8_t> dst,
                                           const FetchPlan& plan) {
    for (const FetchGroup& g : plan.groups) {
      const auto gn = static_cast<std::size_t>(g.node);
      // Checked with no suspension before the lease pins the file.
      if ((g.node != ni && !rt_[gn].up) ||
          (g.by_content && !cl_.nodes[gn]->pool.contains(img_name(g.vk)))) {
        co_return Fallback::miss;
      }
      std::optional<CacheLease> own;
      if (g.held == nullptr) own.emplace(co_await lease(g.node, g.vk, ni));
      const CacheLease& l = g.held != nullptr ? *g.held : *own;
      const auto why = co_await read_group(l, ni, vk, vaddr, dst, g.chunks);
      if (own) co_await release(*own);
      if (why) co_return alive(l) ? *why : Fallback::crash;
    }
    for (const Chunk& z : plan.zeros) {
      std::memset(dst.data() + z.dst_off, 0, static_cast<std::size_t>(z.len));
    }
    if (plan.nfs.empty()) co_return std::nullopt;
    auto bf = cl_.nodes[static_cast<std::size_t>(ni)]->fs.open_file(
        "nfs-base/" + img_name(vk), /*writable=*/false);
    if (!bf.ok()) co_return Fallback::error;
    for (const Chunk& ch : plan.nfs) {
      auto rr = co_await (*bf)->pread(
          ch.src_pos, dst.subspan(static_cast<std::size_t>(ch.dst_off),
                                  static_cast<std::size_t>(ch.len)));
      if (!rr.ok()) co_return Fallback::error;
    }
    co_return std::nullopt;
  }

  /// Content stage plan, per overlapped cache cluster: zero detection,
  /// then the local content index (a sibling image's cache on this node),
  /// then — with the peer tier on — a peer advertising the fingerprint,
  /// else the NFS top-up. Local groups are served first, each side in
  /// (node, image) order.
  FetchPlan plan_content(int ni, VKey vk, std::uint64_t vaddr,
                         std::uint64_t len) {
    const std::uint64_t ccs = cache_cluster_bytes();
    auto& di = didx_[static_cast<std::size_t>(ni)];
    std::set<int> up_nodes;
    if (cfg_.peer_transfer && fabric_) {
      for (std::size_t i = 0; i < rt_.size(); ++i) {
        if (rt_[i].up) up_nodes.insert(static_cast<int>(i));
      }
    }
    FetchPlan plan;
    std::map<std::tuple<bool, int, std::string>, std::vector<Chunk>> groups;
    for (std::uint64_t pos = vaddr; pos < vaddr + len;) {
      const std::uint64_t c = pos / ccs;
      const std::uint64_t take = std::min(vaddr + len, (c + 1) * ccs) - pos;
      const std::uint64_t at = pos - c * ccs;  // offset inside the cluster
      const FpEntry e = fp_of(vk, c);
      const auto* loc = e.zero ? nullptr : di.find(e.fp);
      const auto hit = e.zero || loc != nullptr || up_nodes.empty()
                           ? std::nullopt
                           : seeds_.find_content(e.fp, up_nodes, ni,
                                                 cfg_.peer.max_uploads_per_seed);
      if (e.zero) {
        plan.zeros.push_back(Chunk{pos - vaddr, pos, take});
      } else if (loc != nullptr) {
        groups[{false, ni, loc->image}].push_back(
            Chunk{pos - vaddr, loc->cluster * ccs + at, take});
      } else if (hit) {
        groups[{true, hit->node, hit->img}].push_back(
            Chunk{pos - vaddr, hit->cluster * ccs + at, take});
      } else if (!plan.nfs.empty() &&
                 plan.nfs.back().src_pos + plan.nfs.back().len == pos) {
        plan.nfs.back().len += take;
      } else {
        plan.nfs.push_back(Chunk{pos - vaddr, pos, take});
      }
      pos += take;
    }
    for (auto& [key, chunks] : groups) {
      plan.groups.push_back(FetchGroup{std::get<1>(key),
                                       vkey_of(std::get<2>(key)),
                                       /*by_content=*/true, nullptr,
                                       std::move(chunks)});
    }
    return plan;
  }

  /// The content stage: serve a fetch by content, so one cold private
  /// cluster does not forfeit the dedup win for the rest of the range.
  /// Hands over when nothing but NFS resolves or the serve fails; then
  /// every cluster of the range counts as a fallback.
  sim::Task<bool> content_stage(int ni, VKey vk, std::uint64_t vaddr,
                                std::span<std::uint8_t> dst) {
    const std::uint64_t ccs = cache_cluster_bytes();
    auto clusters = [ccs](std::uint64_t pos, std::uint64_t len) {
      return (pos + len - 1) / ccs - pos / ccs + 1;
    };
    const FetchPlan plan = plan_content(ni, vk, vaddr, dst.size());
    std::optional<Fallback> failed = Fallback::miss;
    if (!plan.groups.empty() || !plan.zeros.empty()) {
      failed = co_await serve(ni, vk, vaddr, dst, plan);
    }
    if (failed) {
      c_dedup_fallback_->inc(clusters(vaddr, dst.size()));
      co_return false;
    }
    // Topped-up clusters are the ones dedup could not keep off the
    // storage node.
    for (const Chunk& ch : plan.nfs) {
      c_dedup_fallback_->inc(clusters(ch.src_pos, ch.len));
    }
    for (const FetchGroup& g : plan.groups) {
      const bool local = g.node == ni;
      (local ? c_dedup_local_ : c_dedup_peer_)->inc(g.chunks.size());
      for (const Chunk& ch : g.chunks) {
        (local ? c_dedup_bytes_local_ : c_dedup_bytes_peer_)->inc(ch.len);
      }
    }
    c_dedup_zero_->inc(plan.zeros.size());
    for (const Chunk& z : plan.zeros) c_dedup_bytes_zero_->inc(z.len);
    co_return true;
  }

  /// The seed stage: serve the whole range from the least-loaded seed
  /// whose registered coverage holds it. A miss or a failed serve is one
  /// `peer.fallback{reason}`.
  sim::Task<bool> seed_stage(int ni, VKey vk, std::uint64_t vaddr,
                             std::span<std::uint8_t> dst) {
    const std::string img = img_name(vk);
    const std::set<int>* holders = idx_->warm_holders(img);
    const int seed =
        holders == nullptr
            ? -1
            : seeds_.pick_seed(*holders, img, vaddr, vaddr + dst.size(), ni,
                               cfg_.peer.max_uploads_per_seed);
    std::optional<Fallback> failed = Fallback::miss;
    if (seed >= 0) {
      FetchPlan plan;
      plan.groups.push_back(FetchGroup{seed, vk, /*by_content=*/false,
                                       nullptr, {Chunk{0, vaddr, dst.size()}}});
      failed = co_await serve(ni, vk, vaddr, dst, plan);
    }
    if (!failed) {
      c_peer_hits_->inc();
      res_.peer_bytes_served += dst.size();
      co_return true;
    }
    c_peer_fallback_->inc();
    c_peer_fb_[static_cast<std::size_t>(*failed)]->inc();
    co_return false;
  }

  /// The previous-version stage of a rebase to `vk`: serve the range from
  /// the old cache on the rebase's lease `old` when every cache cluster it
  /// covers is content-identical across the two versions.
  sim::Task<bool> previous_stage(const CacheLease& old, VKey vk,
                                 std::uint64_t vaddr,
                                 std::span<std::uint8_t> dst) {
    const std::uint64_t ccs = cache_cluster_bytes();
    for (std::uint64_t c = vaddr / ccs; c * ccs < vaddr + dst.size(); ++c) {
      if (fp_of(old.vk, c).fp != fp_of(vk, c).fp) co_return false;
    }
    FetchPlan plan;
    plan.groups.push_back(FetchGroup{old.node, old.vk, /*by_content=*/false,
                                     &old, {Chunk{0, vaddr, dst.size()}}});
    const auto failed = co_await serve(old.node, vk, vaddr, dst, plan);
    co_return !failed;
  }

  // --- queueing --------------------------------------------------------------

  /// Grant queued requests to nodes while capacity lasts. Plain function,
  /// not a coroutine: called after every state change (arrival, VM exit,
  /// requeue, node recovery), so no dispatcher task ever idles suspended.
  /// FIFO with head-of-line blocking — if the head can't be placed,
  /// nothing behind it jumps the queue (deterministic and fair).
  void dispatch() {
    while (!queue_.empty()) {
      // Placement scores warmth against the *current* catalog version of
      // the request's image; caches of superseded versions never match.
      const int front_vmi = queue_.front().vmi;
      const int ni = idx_->pick(
          cfg_.policy,
          img_name(vkey(front_vmi,
                        catalog_ver_[static_cast<std::size_t>(front_vmi)])),
          cfg_.cache_aware);
      if (ni < 0) return;
      Pending r = queue_.front();
      queue_.pop_front();
      ++sched_[static_cast<std::size_t>(ni)].running_vms;
      slots_changed(ni);
      ++rt_[static_cast<std::size_t>(ni)].inflight;
      const double wait_s = sim::to_seconds(cl_.env.now() - r.enqueued);
      qwait_.add(wait_s);
      h_queue_wait_->observe(wait_s);
      cl_.env.spawn(vm_task(r, ni));
    }
  }

  /// Attempt failed: retry with exponential backoff, or abort for good.
  void fail_attempt(Pending r) {
    if (r.attempts >= cfg_.max_attempts) {
      c_aborted_->inc();
      return;
    }
    c_retries_->inc();
    cl_.env.spawn(requeue_after(r));
  }

  sim::Task<void> requeue_after(Pending r) {
    const double backoff =
        cfg_.retry_backoff_s *
        static_cast<double>(1u << static_cast<unsigned>(r.attempts - 1));
    co_await cl_.env.delay(sim::from_seconds(backoff));
    // Retries always re-enter the queue: the depth bound applies to fresh
    // arrivals only, so an admitted request cannot be bounced later.
    r.enqueued = cl_.env.now();
    queue_.push_back(r);
    track_peak();
    dispatch();
  }

  // --- failure injection -----------------------------------------------------

  sim::Task<void> crash_task(NodeCrash c) {
    co_await cl_.env.delay(sim::from_seconds(c.at_s));
    NodeRuntime& rt = rt_[static_cast<std::size_t>(c.node)];
    if (!rt.up) co_return;  // overlapping crash on a down node: no-op
    c_node_crashes_->inc();
    // A crashed node's caches are not trustworthy: with crash_salvage the
    // idle ones stay on disk as suspects for the recovery-time verify
    // pass below; without it they go like a cold power-down's.
    const std::vector<VKey> suspects = power_down(
        c.node, cfg_.crash_salvage ? Keep::idle : Keep::none);
    co_await cl_.env.delay(sim::from_seconds(c.down_s));
    rt.up = true;
    ++rt.epoch;  // a task that slept across down+up still sees a change
    const std::uint64_t recovery_epoch = rt.epoch;
    // Salvage pass (capacity still 0, so no placements race it): clean
    // caches are re-adopted with their warm clusters intact, anything
    // else is deleted. A cache of a superseded catalog version is stale
    // no matter how clean its qcow2 state is, and an update can land
    // while the check is in flight.
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(c.node)];
    for (VKey v : suspects) {
      if (!node.disk_dir.exists(cluster::cache_file_for(img_name(v))) ||
          rt.zombies.count(v) != 0) {
        continue;
      }
      std::optional<Extents> extents;
      if (current(v)) {
        extents = co_await verify_cache(c.node, v);
        if (rt.epoch != recovery_epoch) co_return;  // crashed again mid-pass
      }
      if (extents && current(v)) {
        register_tiers(c.node, v, *extents);
        if (cfg_.manifest) {
          ++mgen_[static_cast<std::size_t>(c.node)][v].check;
        }
        c_cache_salvaged_->inc();
      } else {
        drop_or_zombify(c.node, v);
        c_cache_invalidated_->inc();
      }
    }
    // The on-disk manifest went stale the instant the node lost power
    // (crashes get no SIGTERM window); bring it back in line with what
    // salvage actually vouched for before accepting load again.
    co_await publish_manifest(c.node);
    if (rt.epoch != recovery_epoch) co_return;
    sched_[static_cast<std::size_t>(c.node)].vm_capacity =
        cfg_.vm_slots_per_node;
    slots_changed(c.node);
    c_node_recoveries_->inc();
    refresh_warm(c.node);
    dispatch();
  }

  // --- durable control plane: manifest publish, restart, drain, adoption ----

  struct MGen {
    std::uint64_t fill = 0;
    std::uint64_t check = 0;
  };

  /// Publish node `ni`'s current verified cache table to its durable
  /// manifest: every non-zombie cache the pool accounts for, with the
  /// engine's fill/check generations and — when the tiers are on — the
  /// advertised seed coverage and dedup-indexed flag. Serialised per
  /// node: two interleaved publishes would stripe one slot file with a
  /// mix of generations, which is exactly the torn state the A/B scheme
  /// exists to survive, not to create. No-op when the manifest is off or
  /// the node is down.
  sim::Task<void> publish_manifest(int ni) {
    if (!cfg_.manifest) co_return;
    if (!mmx_[static_cast<std::size_t>(ni)]) {
      mmx_[static_cast<std::size_t>(ni)] =
          std::make_unique<sim::Mutex>(cl_.env);
    }
    auto lk = co_await mmx_[static_cast<std::size_t>(ni)]->lock();
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    if (!rt.up) co_return;
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    manifest::NodeManifest m;
    for (VKey v : rt.disk_caches) {
      if (rt.zombies.count(v) != 0) continue;
      const std::string img = img_name(v);
      if (!node.pool.contains(img)) continue;  // never verified/admitted
      manifest::CacheEntry e;
      e.image = img;  // versioned name: adoption validates it on restart
      e.cache_file = cluster::cache_file_for(img);
      auto sz = node.disk_dir.file_size(e.cache_file);
      e.bytes = sz.ok() ? *sz : cfg_.cache_quota;
      const MGen& g = mgen_[static_cast<std::size_t>(ni)][v];
      e.fill_generation = g.fill;
      e.check_generation = g.check;
      e.dedup_indexed =
          cfg_.dedup && didx_[static_cast<std::size_t>(ni)].has_image(img);
      if (cfg_.peer_transfer) {
        if (const IntervalSet* cov = seeds_.coverage(ni, img)) {
          for (const auto& [lo, hi] : *cov) e.coverage.emplace_back(lo, hi);
        }
      }
      m.entries.push_back(std::move(e));
    }
    auto r = co_await mstores_[static_cast<std::size_t>(ni)]->publish(
        std::move(m));
    if (r.ok()) c_manifest_pub_->inc();
  }

  /// What a power-down leaves on disk: every cache file (an orderly
  /// shutdown with a manifest leaves consistent files to re-adopt), the
  /// idle ones as suspects (a crash with salvage on), or none (cold).
  enum class Keep { all, idle, none };

  /// Power one node off — crash, restart or drain: placements stop,
  /// anything running dies (tasks see the epoch change), and the pool and
  /// tiers forget the node. Unless `keep` is Keep::all, in-use files
  /// become zombies (SimDirectory::remove under an open backend is the
  /// one thing the engine must never do) and idle files not kept are
  /// deleted. Only caches the mirror or a holder knows about can have
  /// state here, so the sweep is O(tracked), not O(num_vmis). Returns
  /// the Keep::idle suspects.
  std::vector<VKey> power_down(int ni, Keep keep) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    rt.up = false;
    ++rt.epoch;
    cluster::NodeState& ns = sched_[static_cast<std::size_t>(ni)];
    ns.running_vms = 0;  // every running VM died with the node
    ns.vm_capacity = 0;  // no placements while down
    slots_changed(ni);
    for (const auto& img : ns.warm_vmis) idx_->warm_removed(ni, img);
    ns.warm_vmis.clear();
    forget_node_tiers(ni);
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    std::set<VKey> tracked = rt.disk_caches;
    for (const auto& [v, users] : rt.cache_users) {
      (void)users;
      tracked.insert(v);
    }
    std::vector<VKey> suspects;
    for (VKey v : tracked) {
      const std::string img = img_name(v);
      node.pool.remove(img);
      if (!node.disk_dir.exists(cluster::cache_file_for(img))) {
        rt.disk_caches.erase(v);
        continue;
      }
      rt.disk_caches.insert(v);
      if (keep == Keep::all) continue;
      if (keep == Keep::idle && rt.cache_users.count(v) == 0) {
        suspects.push_back(v);
      } else {
        drop_or_zombify(ni, v);
      }
    }
    return suspects;
  }

  /// Cold rejoin (manifest off): capacity back, whatever files survived
  /// (held ones a dying task has not dropped yet) stay unaccounted until
  /// a warm hit readopts them.
  void rejoin_cold(int ni) {
    sched_[static_cast<std::size_t>(ni)].vm_capacity = cfg_.vm_slots_per_node;
    slots_changed(ni);
    refresh_warm(ni);
  }

  /// The re-adoption pass: read the node's manifest and re-verify every
  /// listed cache through the salvage discipline — open writable (a
  /// dirty image auto-repairs), `check`, walk the post-repair allocation
  /// map — then re-register survivors with the pool, seed registry, and
  /// fingerprint index. The manifest is advisory throughout: a vanished
  /// file is stale, a failed check degrades to cold, and nothing is
  /// trusted that the qcow2 layer cannot vouch for. Capacity is restored
  /// only after the pass, so no placement races a half-adopted table.
  ///
  /// A node crash while this is in flight is legal: the crash sweep
  /// bumps the epoch and makes peer + dedup + pool forget the node
  /// (including entries adopted so far); every resumption point below
  /// re-checks the epoch and bails without touching anything further.
  sim::Task<void> adopt_node(int ni) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    const std::uint64_t adopt_epoch = rt.epoch;
    const sim::SimTime t0 = cl_.env.now();
    auto lm = co_await mstores_[static_cast<std::size_t>(ni)]->load();
    if (rt.epoch != adopt_epoch) co_return;  // crashed mid-load
    if (lm.ok() && lm->has_value()) {
      for (const manifest::CacheEntry& e : (*lm)->entries) {
        // Only engine-shaped records are adoptable; anything else is a
        // stale manifest from a different layout.
        int v = -1;
        if (e.image.size() > 4 && e.image.compare(0, 4, "img-") == 0) {
          v = vmi_of(e.image);
        }
        if (v < 0 || v >= num_vmis_ ||
            e.cache_file != cluster::cache_file_for(e.image) ||
            !node.disk_dir.exists(e.cache_file)) {
          c_adopt_stale_->inc();
          continue;
        }
        const VKey k = vkey_of(e.image);
        // A record against a superseded image version is dead weight: the
        // catalog moved on while the node was down, so the bytes are
        // wrong even if the qcow2 file is pristine. Delete the file (a
        // zombie if a killed deployment still holds it; it would
        // otherwise linger unaccounted) and degrade to cold.
        if (!current(k)) {
          drop_or_zombify(ni, k);
          c_adopt_stale_->inc();
          continue;
        }
        if (rt.cache_users.count(k) != 0 || rt.zombies.count(k) != 0) {
          // Held by a task that outlived the shutdown (or a zombie from
          // an earlier crash): leave it; a later warm hit readopts it
          // through the existing pool path once the holder drops it.
          continue;
        }
        const std::optional<Extents> extents = co_await verify_cache(ni, k);
        if (rt.epoch != adopt_epoch) co_return;  // crashed mid-verify
        // An update can land while the check was in flight; re-validate.
        if (extents && current(k)) {
          register_tiers(ni, k, *extents);
          MGen& g = mgen_[static_cast<std::size_t>(ni)][k];
          g.fill = e.fill_generation;
          g.check = e.check_generation + 1;
          c_adopt_ok_->inc();
        } else {
          drop_or_zombify(ni, k);
          c_adopt_failed_->inc();
        }
      }
    }
    // Publish the post-adoption truth (failed entries are gone) before
    // accepting load: a crash right after power-up must not re-read the
    // pre-restart table and re-verify caches adoption already rejected.
    co_await publish_manifest(ni);
    if (rt.epoch != adopt_epoch) co_return;
    sched_[static_cast<std::size_t>(ni)].vm_capacity = cfg_.vm_slots_per_node;
    slots_changed(ni);
    refresh_warm(ni);
    h_adopt_seconds_->observe(sim::to_seconds(cl_.env.now() - t0));
    dispatch();
  }

  /// Planned full-cloud restart (the rolling-upgrade model): publish
  /// every manifest inside the SIGTERM window, power every up node down
  /// together, wait out the downtime, then bring them back — through the
  /// adoption pass when manifests are on, cold when off. Nodes already
  /// down (mid-crash) are skipped; their own recovery task restores them.
  sim::Task<void> restart_task(double at_s) {
    co_await cl_.env.delay(sim::from_seconds(at_s));
    c_restarts_->inc();
    std::vector<int> members;
    for (std::size_t i = 0; i < rt_.size(); ++i) {
      if (rt_[i].up) members.push_back(static_cast<int>(i));
    }
    if (cfg_.manifest) {
      for (const int ni : members) co_await publish_manifest(ni);
      // A node can crash during the publishes; it is no longer ours to
      // restart.
      std::erase_if(members, [this](int ni) {
        return !rt_[static_cast<std::size_t>(ni)].up;
      });
    }
    for (const int ni : members) {
      power_down(ni, cfg_.manifest ? Keep::all : Keep::none);
    }
    co_await cl_.env.delay(sim::from_seconds(cfg_.restart_down_s));
    // Everything the storage node serves from here on is traffic the
    // restart caused: the re-warm bill a durable manifest avoids.
    restart_storage_mark_ = cl_.storage.nfs.stats().total_payload();
    for (const int ni : members) {
      rt_[static_cast<std::size_t>(ni)].up = true;
      ++rt_[static_cast<std::size_t>(ni)].epoch;
    }
    if (cfg_.manifest) {
      for (const int ni : members) cl_.env.spawn(adopt_node(ni));
    } else {
      for (const int ni : members) rejoin_cold(ni);
      dispatch();
    }
  }

  /// Planned drain of one node: stop accepting placements, let the
  /// running VMs and in-flight deployments finish naturally, publish the
  /// manifest, power down, and rejoin through adoption. A crash mid-
  /// drain hands the node over to the crash machinery (epoch check).
  sim::Task<void> drain_task() {
    co_await cl_.env.delay(sim::from_seconds(cfg_.drain_at_s));
    const int ni = cfg_.drain_node;
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    if (!rt.up) co_return;  // crashed at drain time: nothing to drain
    c_drains_->inc();
    const std::uint64_t drain_epoch = rt.epoch;
    cluster::NodeState& ns = sched_[static_cast<std::size_t>(ni)];
    ns.vm_capacity = 0;
    slots_changed(ni);
    while (ns.running_vms > 0 || rt.inflight > 0) {
      co_await cl_.env.delay(sim::from_seconds(1.0));
      if (rt.epoch != drain_epoch) co_return;  // crashed mid-drain
    }
    co_await publish_manifest(ni);
    if (rt.epoch != drain_epoch) co_return;
    power_down(ni, cfg_.manifest ? Keep::all : Keep::none);
    co_await cl_.env.delay(sim::from_seconds(cfg_.drain_down_s));
    rt.up = true;
    ++rt.epoch;
    if (cfg_.manifest) {
      co_await adopt_node(ni);
    } else {
      rejoin_cold(ni);
      dispatch();
    }
  }

  // --- image-update churn ----------------------------------------------------

  /// Cap on one rebase carry-over read: big enough to amortise the CoR
  /// run overhead, small enough that other work interleaves.
  static constexpr std::uint64_t kRebaseRunBytes = 1ull << 20;

  /// Does the configured policy rebase warm caches on a version bump?
  /// `auto_` predicts from the knobs: patching pays when the changed
  /// fraction is at most the threshold; beyond it a cold refill moves
  /// fewer total bytes than diff + patch + carry-over.
  [[nodiscard]] bool rebase_policy() const {
    switch (cfg_.updates.policy) {
      case update::Policy::invalidate:
        return false;
      case update::Policy::rebase:
        return true;
      case update::Policy::auto_:
        return cfg_.updates.changed_frac <= cfg_.updates.rebase_threshold;
    }
    return false;
  }

  /// Drop every trace of a superseded cache version on one node: pool
  /// entry, peer seed, dedup index, manifest generations, and the file
  /// itself — deferred to the last holder (zombie) when a running VM
  /// still has it open, exactly like the crash sweep.
  void retire_old(int ni, VKey old_vk) {
    const std::string img = img_name(old_vk);
    cl_.nodes[static_cast<std::size_t>(ni)]->pool.remove(img);
    forget_tiers(ni, img);
    if (cfg_.manifest) mgen_[static_cast<std::size_t>(ni)].erase(old_vk);
    drop_or_zombify(ni, old_vk);
  }

  /// Host-side publication of one image version: clone the previous
  /// version's base content and overwrite the changed clusters with new
  /// deterministic patterns. Changes land in whole
  /// `update::kChangedRunClusters` runs (page-aligned at the default
  /// cache-cluster size), modelling package-update locality rather than
  /// uniformly sprayed single-cluster churn. Free in simulated time:
  /// base images live on the storage node before any compute node reads
  /// them, like the sibling content model.
  void publish_base(int vmi, std::uint32_t old_ver, std::uint32_t new_ver) {
    const std::string old_img = img_name(vkey(vmi, old_ver));
    const std::string new_img = img_name(vkey(vmi, new_ver));
    (void)cl_.storage.disk_dir.create_file(new_img);
    SparseBuffer* nb = *cl_.storage.disk_dir.buffer(new_img);
    *nb = (*cl_.storage.disk_dir.buffer(old_img))->clone();
    nb->resize(cfg_.profile.image_size);
    const std::uint64_t ccs = cache_cluster_bytes();
    const std::uint64_t run_bytes = ccs * update::kChangedRunClusters;
    const std::uint64_t limit =
        cfg_.content_bytes == 0
            ? cfg_.profile.image_size
            : std::min(cfg_.content_bytes, cfg_.profile.image_size);
    std::vector<std::uint8_t> run(run_bytes);
    for (std::uint64_t off = 0; off < limit; off += run_bytes) {
      const std::uint64_t c0 = off / ccs;
      if (!update::cluster_changed(vmi, c0, new_ver,
                                   cfg_.updates.changed_frac)) {
        continue;
      }
      const std::uint64_t len = std::min(run_bytes, limit - off);
      run.assign(run_bytes, 0);
      for (std::uint64_t coff = 0; coff < len; coff += ccs) {
        fill_cluster_pattern(
            {run.data() + coff,
             static_cast<std::size_t>(std::min(ccs, len - coff))},
            update::changed_content_seed(vmi, c0 + coff / ccs, new_ver));
      }
      nb->write(off, {run.data(), static_cast<std::size_t>(len)});
    }
  }

  /// One catalog publish settling: bump the version, forget the storage
  /// node's mem-tier copy of the superseded cache (the file stays — an
  /// open nfs-mem backing may still be reading it), then sweep every up
  /// node holding a stale warm cache and either invalidate it or spawn a
  /// rebase. Down nodes are left alone: the salvage and adoption passes
  /// version-check whatever they find when the node returns.
  sim::Task<void> apply_update(const update::UpdateEvent& ev) {
    const std::uint32_t old_ver =
        catalog_ver_[static_cast<std::size_t>(ev.vmi)];
    if (ev.to_version <= old_ver) co_return;
    if (c_upd_published_->value() == 0) {
      // Everything the storage node serves from here on is traffic the
      // churn caused: the refill bill a rebase exists to shrink.
      update_storage_mark_ = cl_.storage.nfs.stats().total_payload();
    }
    publish_base(ev.vmi, old_ver, ev.to_version);
    catalog_ver_[static_cast<std::size_t>(ev.vmi)] = ev.to_version;
    c_upd_published_->inc();
    cl_.storage.mem_pool.remove(img_name(vkey(ev.vmi, old_ver)));

    const bool rebase = rebase_policy();
    std::vector<int> touched;
    for (int ni = 0; ni < static_cast<int>(rt_.size()); ++ni) {
      NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
      if (!rt.up) continue;
      std::vector<VKey> stale;
      for (VKey v : rt.disk_caches) {
        if (vk_vmi(v) != ev.vmi) continue;
        if (vk_ver(v) == ev.to_version) continue;
        if (rt.zombies.count(v) != 0) continue;  // already dying
        stale.push_back(v);
      }
      bool invalidated = false;
      for (VKey v : stale) {
        // Only a pool-verified cache of the immediately preceding version
        // is worth patching; anything else (unadmitted stragglers, a
        // version a downed node somehow kept) is dropped outright.
        if (rebase && vk_ver(v) == old_ver &&
            cl_.nodes[static_cast<std::size_t>(ni)]->pool.contains(
                img_name(v))) {
          cl_.env.spawn(rebase_task(ni, ev.vmi, old_ver, ev.to_version));
        } else {
          retire_old(ni, v);
          c_upd_invalidated_->inc();
          invalidated = true;
        }
      }
      if (invalidated) {
        refresh_warm(ni);
        touched.push_back(ni);
      }
    }
    for (const int ni : touched) co_await publish_manifest(ni);
    dispatch();
  }

  sim::Task<void> update_task() {
    for (const update::UpdateEvent& ev : update_events_) {
      const sim::SimTime t = sim::from_seconds(ev.at_s);
      if (t > cl_.env.now()) co_await cl_.env.delay(t - cl_.env.now());
      co_await apply_update(ev);
    }
  }

  /// Incremental rebase of one node's warm cache from `old_ver` to
  /// `new_ver`: create the new version's cache image and drive reads
  /// over the old cache's allocated extents through the ordinary CoR
  /// machinery (range-locked single-flight fills, one flush barrier per
  /// fill run). A backing-fetch hook serves content-identical clusters
  /// from the old cache file on local disk; changed clusters fall
  /// through to the NFS read of the new base, so only the diff crosses
  /// the network. Holds the (node, VMI) prepare lock throughout — a
  /// rebase serialises against placements exactly like a cold-miss
  /// creation — and degrades to plain invalidation on any failure.
  sim::Task<void> rebase_task(int ni, int vmi, std::uint32_t old_ver,
                              std::uint32_t new_ver) {
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    const VKey old_vk = vkey(vmi, old_ver);
    const VKey new_vk = vkey(vmi, new_ver);
    const std::string old_img = img_name(old_vk);
    const std::string new_img = img_name(new_vk);
    const std::string old_cache = cluster::cache_file_for(old_img);
    const std::string new_cache = cluster::cache_file_for(new_img);
    const std::uint64_t epoch = rt.epoch;

    auto lk = co_await prep_mutex(ni, vmi).lock();
    if (rt.epoch != epoch || !rt.up) co_return;  // node died while queued
    if (catalog_ver_[static_cast<std::size_t>(vmi)] != new_ver) {
      co_return;  // superseded while queued; the newer sweep owns cleanup
    }
    if (rt.zombies.count(old_vk) != 0 || rt.disk_caches.count(old_vk) == 0 ||
        !node.disk_dir.exists(old_cache) || !node.pool.contains(old_img)) {
      co_return;  // evicted or scrubbed while we waited: nothing to patch
    }
    if (node.disk_dir.exists(new_cache)) {
      // A placement built the new version's cache while we queued; the
      // old one is a plain drop.
      retire_old(ni, old_vk);
      c_upd_invalidated_->inc();
      refresh_warm(ni);
      co_await publish_manifest(ni);
      co_return;
    }

    // 1. Lease the old cache for the whole copy: carry-over reads hit
    //    only its allocated clusters, whose extents are the warmth worth
    //    carrying over.
    CacheLease src = co_await lease(ni, old_vk, ni);
    bool ok = src.q != nullptr;
    bool held_new = false;
    block::DevicePtr new_dev;
    std::uint64_t patched = 0;
    std::uint64_t reused = 0;
    Extents extents;
    if (ok && rt.epoch == epoch) {
      co_await walk_extents(*src.q, [&](std::uint64_t lo, std::uint64_t hi) {
        extents.emplace_back(lo, hi);
      });
    }

    // 2. Create the new versioned cache backed by the new base export.
    if (ok && rt.epoch == epoch) {
      qcow2::ChainImageOptions copt{.cluster_bits = cfg_.cache_cluster_bits,
                                    .virtual_size = cfg_.profile.image_size};
      auto cr = co_await qcow2::create_cache_image(node.fs,
                                                   "disk/" + new_cache,
                                                   "nfs-base/" + new_img,
                                                   cfg_.cache_quota, copt);
      if (cr.ok() && rt.epoch == epoch) {
        rt.disk_caches.insert(new_vk);
        hold_file(ni, new_vk);
        held_new = true;
      } else if (!cr.ok()) {
        ok = false;
      }
    }

    // 3. Open it writable and drive the carry-over through the CoR path.
    if (ok && rt.epoch == epoch) {
      auto nd = co_await qcow2::open_image(node.fs, "disk/" + new_cache,
                                           /*writable=*/true,
                                           /*cache_backing_ro=*/false,
                                           cl_.obs);
      if (nd.ok()) {
        new_dev = std::move(*nd);
      } else {
        ok = false;
      }
    }
    if (ok && rt.epoch == epoch) {
      auto* nq = dynamic_cast<qcow2::Qcow2Device*>(new_dev.get());
      if (nq == nullptr) {
        ok = false;
      } else {
        enable_compression(*nq, new_vk);
        const std::uint64_t ccs = cache_cluster_bytes();
        // Anything the previous-version stage does not serve falls
        // through to the NFS read of the new base.
        nq->set_backing_fetch_hook(
            [this, &src, new_vk](std::uint64_t vaddr,
                                 std::span<std::uint8_t> dst)
                -> sim::Task<Result<bool>> {
              co_return co_await previous_stage(src, new_vk, vaddr, dst);
            });
        // Drive the fills in homogeneous changed/unchanged runs so each
        // CoR pass resolves one way (and pays its one flush barrier for
        // one kind of traffic).
        std::vector<std::uint8_t> buf;
        for (const auto& [elo, ehi] : extents) {
          std::uint64_t pos = elo;
          while (ok && pos < ehi) {
            const std::uint64_t c0 = pos / ccs;
            const bool changed =
                fp_of(old_vk, c0).fp != fp_of(new_vk, c0).fp;
            std::uint64_t end = std::min(ehi, (c0 + 1) * ccs);
            while (end < ehi && end - pos < kRebaseRunBytes) {
              const std::uint64_t c = end / ccs;
              const bool ch = fp_of(old_vk, c).fp != fp_of(new_vk, c).fp;
              if (ch != changed) break;
              end = std::min(ehi, (c + 1) * ccs);
            }
            buf.resize(static_cast<std::size_t>(end - pos));
            auto rr = co_await nq->read(pos, buf);
            if (rt.epoch != epoch ||
                catalog_ver_[static_cast<std::size_t>(vmi)] != new_ver ||
                !rr.ok()) {
              ok = false;
              break;
            }
            const std::uint64_t n = (end - pos + ccs - 1) / ccs;
            if (changed) {
              patched += n;
            } else {
              reused += n;
            }
            pos = end;
          }
          if (!ok) break;
        }
        // The hook captures the old device; it must not outlive it.
        nq->set_backing_fetch_hook({});
      }
    }

    // 4. Close before any drop can delete a file (close-before-drop).
    if (new_dev) {
      (void)co_await new_dev->close();
      new_dev.reset();
    }
    co_await release(src);
    if (rt.epoch != epoch) {
      // Crashed under us: the crash sweep already disowned the node's
      // caches; just drop our hold on the new one (reclaiming a zombie).
      if (held_new) drop_file(ni, new_vk);
      co_return;
    }

    if (ok && current(new_vk)) {
      // Retire first so the old quota is free before the new admission.
      retire_old(ni, old_vk);
      register_tiers(ni, new_vk, extents);
      if (cfg_.manifest) {
        ++mgen_[static_cast<std::size_t>(ni)][new_vk].fill;
      }
      c_upd_rebased_->inc();
      c_upd_patched_->inc(patched);
      c_upd_reused_->inc(reused);
    } else {
      // Failed or superseded mid-flight: degrade to invalidation. The
      // partial new cache must not masquerade as warm, and the old one
      // is stale either way.
      if (held_new) {
        drop_file(ni, new_vk);
        held_new = false;
        scrub_failed_cache(ni, new_vk);
      }
      retire_old(ni, old_vk);
      c_upd_invalidated_->inc();
    }
    if (held_new) drop_file(ni, new_vk);
    refresh_warm(ni);
    co_await publish_manifest(ni);
    dispatch();
  }

  // --- the deployment itself -------------------------------------------------

  /// Exit paths for a task whose node crashed before its boot finished:
  /// the slot count was already zeroed by the crash, so only the inflight
  /// audit and the retry decision remain.
  void exit_killed(Pending r, int ni) {
    c_crash_kills_->inc();
    --rt_[static_cast<std::size_t>(ni)].inflight;
    fail_attempt(r);
  }

  /// Exit path for an attempt that failed on an I/O error while the node
  /// stayed up: give the slot back and retry.
  void exit_failed(Pending r, int ni) {
    c_deploy_failures_->inc();
    --sched_[static_cast<std::size_t>(ni)].running_vms;
    slots_changed(ni);
    --rt_[static_cast<std::size_t>(ni)].inflight;
    refresh_warm(ni);
    fail_attempt(r);
    dispatch();
  }

  /// The exit for an attempt that fails once its cache is pinned: delete
  /// the CoW layer, release the cache, and leave killed (the node crashed
  /// under it) or failed (an I/O error).
  void bail(Pending r, int ni, VKey vk, const std::string& cow_file,
            std::uint64_t epoch) {
    auto& dd = cl_.nodes[static_cast<std::size_t>(ni)]->disk_dir;
    if (dd.exists(cow_file)) dd.remove(cow_file);
    release_cache(ni, vk);
    if (rt_[static_cast<std::size_t>(ni)].epoch != epoch) {
      exit_killed(r, ni);
    } else {
      exit_failed(r, ni);
    }
  }

  sim::Task<void> vm_task(Pending r, int ni) {
    ComputeNode& node = *cl_.nodes[static_cast<std::size_t>(ni)];
    NodeRuntime& rt = rt_[static_cast<std::size_t>(ni)];
    const std::uint64_t epoch = rt.epoch;
    ++r.attempts;
    // Attempt-scoped CoW name: a retry of the same request must never
    // create over a file a crashed-but-not-yet-cleaned attempt still has
    // open somewhere.
    const std::string cow_file = "vm-" + std::to_string(r.id) + "-a" +
                                 std::to_string(r.attempts) + ".cow";
    const std::string cow_path = "disk/" + cow_file;

    const sim::SimTime prep0 = cl_.env.now();
    cluster::PlacementOutcome outcome;
    block::DevicePtr dev;
    // The image version is read under the prepare lock (an update sweep
    // or rebase of this VMI holds the same lock), so one attempt sees one
    // consistent version end to end.
    VKey vk = 0;
    std::string img, cache;
    {
      // Serialise the whole prepare per (node, VMI): two concurrent cold
      // misses must not both create the node cache; the loser waits and
      // then warm-hits the winner's file.
      auto lk = co_await prep_mutex(ni, r.vmi).lock();
      vk = vkey(r.vmi, catalog_ver_[static_cast<std::size_t>(r.vmi)]);
      img = img_name(vk);
      cache = cluster::cache_file_for(img);
      hold_file(ni, vk);
      auto placed = co_await cluster::chain_to_proper_cache(
          cl_, node, img, cfg_.cache_quota, cfg_.cache_cluster_bits,
          cfg_.profile.image_size);
      // Sync the disk mirror with what placement did: one probe for our
      // own cache file, plus the evictions the outcome reports. Nothing
      // ran between placement's return and here (symmetric transfer), so
      // this is atomic with the mutation.
      if (node.disk_dir.exists(cache)) {
        rt.disk_caches.insert(vk);
      } else {
        rt.disk_caches.erase(vk);
      }
      if (placed.ok()) evicted(ni, placed->evicted);
      if (rt.epoch != epoch) {
        drop_file(ni, vk);
        exit_killed(r, ni);
        co_return;
      }
      if (!placed.ok()) {
        drop_file(ni, vk);
        scrub_failed_cache(ni, vk);
        exit_failed(r, ni);
        co_return;
      }
      outcome = *placed;
      // No suspension between placement returning and the pin: nothing
      // can evict the entry in between (single-threaded simulation).
      if (!node.pool.contains(img)) readopt(ni, vk);
      node.pool.pin(img);
      const bool shared_ro = rt.cache_users[vk] > 1;
      qcow2::ChainImageOptions cow_opt{
          .cluster_bits = 16, .virtual_size = cfg_.profile.image_size};
      auto rcow = co_await qcow2::create_cow_image(node.fs, cow_path,
                                                   outcome.backing, cow_opt);
      if (rt.epoch != epoch || !rcow.ok()) {
        bail(r, ni, vk, cow_file, epoch);
        co_return;
      }
      auto dv = co_await qcow2::open_image(node.fs, cow_path,
                                           /*writable=*/true, shared_ro,
                                           cl_.obs);
      if (rt.epoch != epoch || !dv.ok()) {
        bail(r, ni, vk, cow_file, epoch);
        co_return;
      }
      dev = std::move(*dv);
      co_await attach_tiers(ni, vk, dev.get());
      // Cache state settled under the prepare lock (admission, eviction,
      // readoption): make it durable before the VM builds on it. Warm
      // hits with no evictions change nothing and publish nothing.
      if (cfg_.manifest &&
          (outcome.action !=
               cluster::PlacementOutcome::Action::local_warm_hit ||
           !outcome.evicted.empty())) {
        co_await publish_manifest(ni);
      }
    }  // prepare lock released
    const double prep_s = sim::to_seconds(cl_.env.now() - prep0);
    prep_.add(prep_s);
    h_prepare_->observe(prep_s);
    refresh_warm(ni);

    const sim::SimTime boot0 = cl_.env.now();
    auto br = co_await boot::boot_vm(cl_.env, *dev, traces_[
        static_cast<std::size_t>(r.vmi)]);
    (void)co_await dev->close();
    dev.reset();
    if (rt.epoch != epoch || !br.ok()) {
      bail(r, ni, vk, cow_file, epoch);
      co_return;
    }

    // Deployed. The SLO clock stops here: completed even if the node
    // later crashes under the running VM.
    const double boot_s = sim::to_seconds(cl_.env.now() - boot0);
    boot_.add(boot_s);
    h_boot_->observe(boot_s);
    const double deploy_s =
        sim::to_seconds(cl_.env.now() - r.first_enqueued);
    deploy_.add(deploy_s);
    h_deploy_->observe(deploy_s);
    c_completed_->inc();
    if (outcome.action == cluster::PlacementOutcome::Action::local_warm_hit) {
      c_warm_hits_->inc();
    }

    co_await cl_.env.delay(sim::from_seconds(r.lifetime_s));
    if (rt.epoch != epoch) {
      // Killed while running: already counted completed; just audit.
      c_vm_crashes_->inc();
      if (node.disk_dir.exists(cow_file)) node.disk_dir.remove(cow_file);
      release_cache(ni, vk);
      --rt.inflight;
      co_return;
    }

    // Orderly shutdown: drop the CoW layer, push a freshly-created cache
    // to the storage node (Algorithm 1's deferred copy-back), free the
    // slot. Skip the push when the catalog moved past this version while
    // the VM ran — shipping a superseded cache would only waste storage
    // bandwidth and can never be served again.
    if (node.disk_dir.exists(cow_file)) node.disk_dir.remove(cow_file);
    if (outcome.copy_back_on_shutdown && node.disk_dir.exists(cache) &&
        current(vk)) {
      if (gate_.down()) {
        // Best-effort: the cache stays node-local; a later shutdown of
        // another fresh creator (or a re-placement) tries again.
        c_copyback_skips_->inc();
      } else {
        // Serialised per VMI so two creators never write the storage-side
        // file concurrently; the loser finds it present and skips.
        auto plk = co_await push_mutex(r.vmi).lock();
        if (rt.epoch == epoch && node.disk_dir.exists(cache) &&
            !cl_.storage.mem_dir.exists(cache)) {
          (void)co_await cluster::copy_cache_back(cl_, node, img);
        } else if (cl_.storage.mem_dir.exists(cache)) {
          cl_.storage.mem_pool.touch(img);
        }
        if (rt.epoch != epoch) {
          c_vm_crashes_->inc();
          release_cache(ni, vk);
          --rt.inflight;
          co_return;
        }
      }
    }
    --sched_[static_cast<std::size_t>(ni)].running_vms;
    slots_changed(ni);
    release_cache(ni, vk);
    refresh_warm(ni);
    // The VM's lifetime of CoR fills grew the cache; persist the final
    // coverage and fill generation now that the file is quiescent.
    co_await publish_manifest(ni);
    --rt.inflight;
    dispatch();
  }

  // --- arrivals --------------------------------------------------------------

  sim::Task<void> arrivals() {
    for (const auto& req : reqs_) {
      const sim::SimTime t = sim::from_seconds(req.arrival_s);
      if (t > cl_.env.now()) co_await cl_.env.delay(t - cl_.env.now());
      c_arrivals_->inc();
      if (queue_.size() >= cfg_.max_queue_depth) {
        c_rejected_->inc();
        continue;
      }
      Pending p;
      p.id = next_id_++;
      p.vmi = req.vmi;
      p.lifetime_s = req.lifetime_s;
      p.enqueued = p.first_enqueued = cl_.env.now();
      queue_.push_back(p);
      track_peak();
      dispatch();
    }
  }

  const CloudConfig& cfg_;
  int num_vmis_;
  std::vector<VmRequest> reqs_;
  cluster::Cluster cl_;
  OutageGate gate_;
  std::vector<std::unique_ptr<FlakyDirectory>> flaky_;
  std::vector<boot::BootTrace> traces_;
  std::vector<cluster::NodeState> sched_;
  /// Placement index over sched_ (constructed once sched_ is sized).
  std::optional<cluster::NodeIndex> idx_;
  std::vector<NodeRuntime> rt_;
  std::deque<Pending> queue_;
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Mutex>> prep_mx_;
  std::unordered_map<int, std::unique_ptr<sim::Mutex>> push_mx_;
  int next_id_ = 0;
  CloudResult res_;
  Samples deploy_, qwait_, prep_, boot_;
  obs::Counter* c_arrivals_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_aborted_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_deploy_failures_ = nullptr;
  obs::Counter* c_crash_kills_ = nullptr;
  obs::Counter* c_vm_crashes_ = nullptr;
  obs::Counter* c_warm_hits_ = nullptr;
  obs::Counter* c_copyback_skips_ = nullptr;
  obs::Counter* c_node_crashes_ = nullptr;
  obs::Counter* c_node_recoveries_ = nullptr;
  obs::Counter* c_cache_salvaged_ = nullptr;
  obs::Counter* c_cache_invalidated_ = nullptr;
  // Peer cache tier (all dormant unless cfg_.peer_transfer).
  peer::SeedRegistry seeds_;
  std::optional<peer::Fabric> fabric_;
  obs::Counter* c_peer_hits_ = nullptr;
  obs::Counter* c_peer_fallback_ = nullptr;
  std::array<obs::Counter*, 4> c_peer_fb_{};  ///< indexed by Fallback
  obs::Counter* c_peer_bytes_avoided_ = nullptr;
  obs::Counter* c_peer_reg_ = nullptr;
  obs::Counter* c_peer_dereg_ = nullptr;
  std::vector<obs::Counter*> c_peer_node_bytes_;
  // Dedup tier (all dormant unless cfg_.dedup).
  std::vector<dedup::FingerprintIndex> didx_;  ///< one per node
  /// Per-VMI memoized cluster fingerprints (host-side manifests).
  std::vector<std::unordered_map<std::uint64_t, FpEntry>> fp_memo_;
  std::uint64_t zero_fp_ = 0;          ///< fingerprint of an all-zero cluster
  std::vector<std::uint8_t> fp_buf_;   ///< fp_of's cluster scratch
  std::vector<std::uint8_t> verify_buf_;  ///< verify_content's scratch
  obs::Counter* c_dedup_local_ = nullptr;
  obs::Counter* c_dedup_zero_ = nullptr;
  obs::Counter* c_dedup_peer_ = nullptr;
  obs::Counter* c_dedup_fallback_ = nullptr;
  obs::Counter* c_dedup_bytes_local_ = nullptr;
  obs::Counter* c_dedup_bytes_zero_ = nullptr;
  obs::Counter* c_dedup_bytes_peer_ = nullptr;
  // Durable control plane (all dormant unless cfg_.manifest or a
  // restart/drain is configured).
  std::vector<std::unique_ptr<manifest::Store>> mstores_;  ///< one per node
  /// Per-node fill/check generations per versioned image, as last
  /// published.
  std::vector<std::map<VKey, MGen>> mgen_;
  /// Per-node publish serialisation (lazily created like prep_mx_).
  std::vector<std::unique_ptr<sim::Mutex>> mmx_;
  /// Storage payload served before the last restart's power-up.
  std::uint64_t restart_storage_mark_ = 0;
  // Image-update churn (all dormant unless cfg_.updates.enabled).
  /// Current published version per VMI; always sized, always 0 with
  /// updates off, so version-0 name/key round-trips stay bit-identical
  /// to the pre-update engine.
  std::vector<std::uint32_t> catalog_ver_;
  std::vector<update::UpdateEvent> update_events_;
  /// Storage payload served before the first catalog publish.
  std::uint64_t update_storage_mark_ = 0;
  obs::Counter* c_upd_published_ = nullptr;
  obs::Counter* c_upd_invalidated_ = nullptr;
  obs::Counter* c_upd_rebased_ = nullptr;
  obs::Counter* c_upd_patched_ = nullptr;
  obs::Counter* c_upd_reused_ = nullptr;
  obs::Counter* c_manifest_pub_ = nullptr;
  obs::Counter* c_restarts_ = nullptr;
  obs::Counter* c_drains_ = nullptr;
  obs::Counter* c_adopt_ok_ = nullptr;
  obs::Counter* c_adopt_failed_ = nullptr;
  obs::Counter* c_adopt_stale_ = nullptr;
  obs::Histogram* h_adopt_seconds_ = nullptr;
  obs::Histogram* h_deploy_ = nullptr;
  obs::Histogram* h_queue_wait_ = nullptr;
  obs::Histogram* h_prepare_ = nullptr;
  obs::Histogram* h_boot_ = nullptr;

  using ComputeNode = cluster::ComputeNode;
};

}  // namespace

CloudResult run_cloud(const CloudConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<VmRequest> reqs = cfg.requests;
  if (reqs.empty()) {
    reqs = generate_workload(cfg.workload, cfg.horizon_s, rng);
  }
  int num_vmis = cfg.workload.num_vmis;
  for (const auto& r : reqs) num_vmis = std::max(num_vmis, r.vmi + 1);
  Engine eng(cfg, std::move(reqs), num_vmis);
  return eng.run();
}

}  // namespace vmic::cloud
