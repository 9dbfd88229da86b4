#pragma once

#include <cstdint>
#include <string>

#include "obs/hub.hpp"

namespace vmic::crash {

/// Configuration for the exhaustive crash-point sweep.
struct ExploreConfig {
  std::uint64_t seed = 1;
  std::uint32_t cluster_bits = 12;
  std::uint64_t image_size = 1ull << 20;
  /// Scripted guest operations per replay (writes / flushes, plus
  /// occasional write_zeroes and discard to exercise the free path).
  int guest_ops = 40;
  double flush_probability = 0.2;
  double zero_probability = 0.08;
  double discard_probability = 0.05;
  /// Run the image with deferred refcount decrements.
  bool lazy_refcounts = false;
  /// Crash the *cache* of a copy-on-read chain instead of a standalone
  /// image: the workload is guest reads through a warming cache, and the
  /// invariant is a clean cache whose contents still match the base.
  bool cor_chain = false;
  /// With cor_chain: store the cache's fills as compressed clusters, over
  /// a base whose clusters mix compressible runs with noise, so the sweep
  /// cuts inside runs that hold both compressed payloads and plain
  /// clusters.
  bool cor_compress = false;
  /// Cap on crash points explored (sampled evenly); 0 = every event of
  /// the recording run, i.e. every flush boundary and every point in
  /// between (intra-write states are covered by sector tearing).
  std::uint64_t max_crash_points = 0;
  /// Create the image with a refcount journal of this many sectors
  /// (0 = no journal). Small values force checkpoints under the sweep,
  /// so checkpoint-under-crash windows get covered too.
  std::uint32_t journal_sectors = 0;
  /// After each primary cut, also cut the power at every event *inside*
  /// the auto-repair that follows (repair-of-repair): repair itself must
  /// be crash-safe at every instant.
  bool crash_during_repair = false;
  /// Two-file chain: a CoW overlay (guest writes) over a cache image
  /// (copy-on-read) over a raw base, with BOTH qcow2 files behind one
  /// CrashDomain — the cut fells them at the same instant, the only way
  /// to catch ordering bugs that span files.
  bool two_file = false;
  /// Optional sink for crash.* counters.
  obs::Hub* hub = nullptr;
};

/// Aggregated sweep outcome. The invariant of the durability design is
/// pass(): no crash point may yield a pre-repair corruption, a post-repair
/// blemish of any kind, or a lost flushed guest write.
struct ExploreReport {
  std::uint64_t total_events = 0;  ///< events in the full (uncut) run
  std::uint64_t crash_points = 0;  ///< points actually replayed
  std::uint64_t power_cuts = 0;
  std::uint64_t replay_failures = 0;    ///< replay/reopen/repair errors
  std::uint64_t pre_repair_corruptions = 0;   ///< must be 0 (barriers)
  std::uint64_t pre_repair_leaks = 0;         ///< informational
  std::uint64_t dirty_images = 0;       ///< reopened with the dirty bit set
  std::uint64_t entries_cleared = 0;
  std::uint64_t leaks_dropped = 0;
  std::uint64_t corruptions_fixed = 0;
  std::uint64_t post_repair_corruptions = 0;  ///< must be 0
  std::uint64_t post_repair_leaks = 0;        ///< must be 0
  std::uint64_t lost_flushed_bytes = 0;       ///< must be 0
  std::uint64_t verified_points = 0;   ///< points whose content verified
  std::uint64_t journal_replays = 0;   ///< repairs served by O(journal) replay
  std::uint64_t journal_fallbacks = 0; ///< repairs that fell back to rebuild
  std::uint64_t repair_crash_points = 0;  ///< nested cuts inside repair
  /// Journal images may keep leaks across replay (a free record that never
  /// became durable — the dereference did, so it is a leak, never a
  /// corruption; the next full check/rebuild drops it). explore() sets
  /// this so pass() tolerates exactly that.
  bool leaks_allowed = false;
  std::uint64_t digest = 0;  ///< FNV-1a over per-point outcomes (determinism)

  [[nodiscard]] bool pass() const noexcept {
    return replay_failures == 0 && pre_repair_corruptions == 0 &&
           post_repair_corruptions == 0 &&
           (post_repair_leaks == 0 || leaks_allowed) &&
           lost_flushed_bytes == 0 && verified_points == crash_points;
  }
};

/// Replay the scripted workload once to enumerate crash points, then for
/// each point: re-run against a fresh image, cut the power, reopen,
/// repair, check, and verify surviving content. Host-side and
/// deterministic for a fixed config.
ExploreReport explore(const ExploreConfig& cfg);

/// JSON rendering of a report (CI artifact).
std::string to_json(const ExploreReport& r, const ExploreConfig& cfg);

}  // namespace vmic::crash
