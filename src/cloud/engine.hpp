#pragma once

// vmic::cloud — a long-running cloud control plane over the paper's
// cluster model. Where cluster::run_scenario measures one synchronized
// boot storm (the paper's experiments), this engine runs an open arrival
// stream against a finite cluster for hours of simulated time: admission
// queueing, cache-aware scheduling, Algorithm 1 placement, cache
// lifecycle under eviction pressure, node crashes, storage outages, and
// retry-with-backoff — reporting deployment SLOs instead of a single
// mean boot time.

#include <cstdint>
#include <vector>

#include "boot/profile.hpp"
#include "cloud/failure.hpp"
#include "cloud/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/scheduler.hpp"
#include "obs/metrics.hpp"
#include "peer/fabric.hpp"
#include "update/update.hpp"

namespace vmic::cloud {

/// Cluster sizing for long cloud runs: far smaller than the paper's
/// 64-node DAS-4 so multi-hour horizons stay fast, with a cache budget
/// tight enough that eviction pressure actually occurs.
inline cluster::ClusterParams default_cloud_cluster() {
  cluster::ClusterParams p;
  p.compute_nodes = 8;
  p.node_cache_capacity = 128 * MiB;
  p.eviction = cache::EvictionPolicy::lru;
  return p;
}

/// Shrink an OS profile so thousands of boots simulate quickly while
/// keeping the shape (CoW chain, working set, CPU share) intact.
inline boot::OsProfile scaled_down(boot::OsProfile p) {
  p.image_size = 2 * GiB;
  p.unique_read_bytes = 24 * MiB;
  p.cpu_seconds = 6.0;
  p.write_bytes = 2 * MiB;
  return p;
}

struct CloudConfig {
  cluster::ClusterParams cluster = default_cloud_cluster();
  /// VM slots per compute node (the admission capacity unit).
  int vm_slots_per_node = 4;
  boot::OsProfile profile = scaled_down(boot::centos63());
  WorkloadConfig workload;
  /// Pre-materialised request list; empty = generate from `workload`
  /// over [0, horizon_s) with the run's seed.
  std::vector<VmRequest> requests;
  double horizon_s = 2 * 3600.0;
  cluster::SchedPolicy policy = cluster::SchedPolicy::striping;
  bool cache_aware = true;
  std::uint64_t cache_quota = 48 * MiB;
  std::uint32_t cache_cluster_bits = 9;
  /// Deployment attempts per request before it is aborted.
  int max_attempts = 4;
  /// First retry delay; doubles per subsequent attempt.
  double retry_backoff_s = 5.0;
  /// Admission queue bound; arrivals beyond it are rejected outright.
  std::size_t max_queue_depth = 1024;
  FailurePlan failures;
  /// On node recovery, run qcow2 repair + check over the caches that
  /// survived the crash on disk and re-adopt the clean ones, instead of
  /// wholesale invalidation at crash time. Salvaged caches keep their
  /// warm clusters, cutting post-recovery backing-store traffic. Off =
  /// the legacy invalidate-everything behaviour (ablation baseline).
  bool crash_salvage = true;
  /// Peer cache tier (vmic::peer): nodes holding populated cache clusters
  /// register as seeds, and other nodes' copy-on-read fills fetch those
  /// cluster ranges peer-to-peer over per-node NICs instead of through
  /// the storage node's NFS mount — falling back to NFS on a coverage
  /// miss, transfer timeout, or seed crash mid-transfer. Off = every cold
  /// read funnels through the storage node (the paper's baseline); no
  /// peer.* metrics exist then, so snapshots stay pin-identical.
  bool peer_transfer = false;
  peer::PeerParams peer;
  /// Content-addressed dedup in the cache-fill path (§7.3 / §8 future
  /// work): clusters are fingerprinted at cache-cluster granularity and
  /// a per-node index over the cache pool lets a CoR fill for image B
  /// whose content already sits in a sibling image's cache be served
  /// locally — or, with peer_transfer also on, from a peer advertising
  /// the fingerprint — instead of from the storage node's NFS export.
  /// Off = no dedup.* metrics exist, so snapshots stay pin-identical.
  bool dedup = false;
  /// Compress CoR fills into the cache images (qcow2 compressed
  /// clusters): disk quota and peer/NFS-refill bytes shrink to physical
  /// size. No-op below 1-KiB cache clusters (payloads are sector-
  /// granular) and on journaled images. Off = no qcow2.compressed.*
  /// metrics.
  bool cache_compress = false;
  /// Cross-VMI content model: when > 0, consecutive VMIs form sibling
  /// groups of this size (same OS distribution) whose base images share
  /// `shared_fraction` of their per-cluster content; the rest is image-
  /// private. Content is a deterministic compressible pattern written
  /// host-side into the base images. 0 = images stay all-zero (legacy;
  /// required for the golden metric pins).
  int sibling_group_size = 0;
  double shared_fraction = 0.75;
  /// Bytes of generated content per image, from offset 0 (bounds host
  /// memory for big images). 0 = the whole image.
  std::uint64_t content_bytes = 0;
  /// Durable control plane (vmic::manifest): each node keeps a crash-safe
  /// A/B-slot manifest of its verified caches on its own disk, published
  /// after every cache mutation the engine settles (placement, eviction,
  /// salvage, copy-back release). Restarts and drains then *re-adopt*
  /// listed caches — open → auto-repair → check, exactly the salvage
  /// path — instead of re-warming cold; entries that fail verification
  /// degrade to cold, never to corruption. Off = no manifest files, no
  /// manifest.* / cloud.adopt.* metrics, snapshots stay pin-identical.
  bool manifest = false;
  /// Planned full-cloud restarts (rolling upgrade model): at each time
  /// every node publishes its manifest (when `manifest` is on), powers
  /// down — running VMs die, in-flight deployments are killed and
  /// retried — stays down `restart_down_s`, then powers up and runs the
  /// re-adoption pass before accepting placements again. With `manifest`
  /// off the restart is the cold baseline: every cache file is scrubbed.
  std::vector<double> restart_at_s;
  double restart_down_s = 30.0;
  /// Planned drain of one node: at `drain_at_s` the node stops accepting
  /// placements, waits for its running VMs and in-flight deployments to
  /// finish, publishes its manifest, powers down `drain_down_s`, then
  /// re-adopts and rejoins. -1 = no drain.
  int drain_node = -1;
  double drain_at_s = 0;
  double drain_down_s = 60.0;
  /// Image-update churn (vmic::update): a deterministic per-seed schedule
  /// publishes new base-image versions mid-run. On a version bump every
  /// node holding the old version's warm cache either *invalidates* it
  /// (drop, refill cold from the new base) or *rebases* it (diff new vs
  /// old base per cluster via the fingerprint hash, patch only changed
  /// clusters into a new versioned cache through the CoR path — range
  /// lock + one flush barrier per patch run). Versioned image names key
  /// the cache pool, seed registry, fingerprint index, and manifest
  /// records, so peer/dedup never serve a stale version and restart
  /// re-adoption drops entries recorded against a superseded version.
  /// Off = no update.* metrics exist, so snapshots stay pin-identical.
  update::UpdateParams updates;
  std::uint64_t seed = 1;
};

/// Summary of one latency distribution (seconds).
struct LatencyStats {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

struct CloudResult {
  // Terminal accounting: every arrival ends in exactly one of
  // completed / aborted / rejected.
  int arrivals = 0;
  int completed = 0;  ///< deployed successfully (even if later crashed)
  int aborted = 0;    ///< gave up after max_attempts
  int rejected = 0;   ///< bounced off a full admission queue
  int retries = 0;          ///< re-queued attempts
  int deploy_failures = 0;  ///< attempts failed by I/O errors
  int crash_kills = 0;      ///< attempts killed mid-deployment by a crash
  int vm_crashes = 0;       ///< running VMs killed by a node crash
  int warm_hits = 0;        ///< deployments served by a local warm cache
  int copyback_skips = 0;   ///< cache push-backs skipped (storage down)
  int node_crashes = 0;
  int node_recoveries = 0;
  int caches_salvaged = 0;     ///< post-crash caches verified and re-adopted
  int caches_invalidated = 0;  ///< post-crash caches deleted (failed check)
  // Durable control plane accounting (all zero when manifest is off and
  // no restart/drain is configured).
  int restarts = 0;            ///< planned full-cloud restarts executed
  int drains = 0;              ///< planned node drains executed
  int caches_readopted = 0;    ///< manifest entries verified and re-adopted
  int adopt_failures = 0;      ///< entries that failed check (degraded cold)
  int adopt_stale = 0;         ///< entries whose cache file had vanished
  std::uint64_t manifest_publishes = 0;  ///< durable manifest writes
  /// Storage-node payload bytes served after the last restart's power-up
  /// (the re-warm cost a durable manifest exists to avoid). 0 = no
  /// restart configured.
  std::uint64_t post_restart_storage_bytes = 0;
  /// VM slots still held after the run drained; must be 0.
  int leaked_slots = 0;
  /// Cache references still outstanding after the run drained; must be
  /// 0. Counts file holds not dropped, zombies not reclaimed, pinned pool
  /// entries, and cache files of any (VMI, version up to the current
  /// one) left on a node's disk that the engine no longer tracks.
  int leaked_cache_refs = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t storage_payload_bytes = 0;
  // Peer cache tier accounting (all zero when peer_transfer is off).
  std::uint64_t peer_seed_hits = 0;  ///< backing fetches served by a seed
  std::uint64_t peer_fallback_fills = 0;  ///< fetches that fell back to NFS
  /// Payload bytes of whole-range peer fetches. Dedup's content-keyed
  /// peer fetches are counted in dedup_bytes_served instead.
  std::uint64_t peer_bytes_served = 0;
  std::uint64_t peer_timeouts = 0;  ///< transfers abandoned past the deadline
  // Content-addressed dedup accounting (all zero when dedup is off).
  std::uint64_t dedup_local_hits = 0;  ///< clusters filled from a sibling cache
  std::uint64_t dedup_zero_fills = 0;  ///< clusters satisfied by zero detection
  std::uint64_t dedup_peer_hits = 0;   ///< clusters fetched by fingerprint p2p
  std::uint64_t dedup_fallbacks = 0;   ///< fetches that fell through to NFS/peer
  std::uint64_t dedup_bytes_served = 0;  ///< bytes not read from the NFS export
  // Image-update churn accounting (all zero when updates are off).
  int updates_published = 0;       ///< catalog publish events executed
  int caches_rebased = 0;          ///< warm caches incrementally rebased
  int update_invalidations = 0;    ///< warm caches dropped on version bump
  std::uint64_t rebase_patched_clusters = 0;  ///< clusters refetched (changed)
  std::uint64_t rebase_reused_clusters = 0;   ///< clusters copied from old cache
  /// Storage-node payload bytes served after the first catalog publish
  /// (the refill cost a rebase exists to avoid). 0 = no update fired.
  std::uint64_t post_update_storage_bytes = 0;
  double cache_hit_ratio = 0;  ///< warm_hits / completed
  double goodput_vms_per_hour = 0;
  double sim_seconds = 0;
  /// Discrete events the simulation core fired during the run
  /// (scheduler-throughput accounting for benches).
  std::uint64_t sim_events = 0;
  std::size_t peak_queue_depth = 0;
  LatencyStats deploy;      ///< first enqueue -> boot complete
  LatencyStats queue_wait;  ///< enqueue -> slot granted, per attempt
  LatencyStats prepare;     ///< placement + image chain setup
  LatencyStats boot;        ///< boot trace replay
  /// Full cluster + cloud.* metrics snapshot at end of run.
  obs::MetricsSnapshot metrics;
};

/// Run the cloud to completion (every arrival resolved, every surviving
/// VM shut down). Deterministic: the same config produces a byte-identical
/// metrics snapshot.
CloudResult run_cloud(const CloudConfig& cfg);

}  // namespace vmic::cloud
