#pragma once

// vmic::peer — the peer cache tier's seed directory. A compute node whose
// cache image holds populated clusters of a VMI registers here as a seed;
// other nodes' copy-on-read fills then fetch cluster ranges from the
// least-loaded seed instead of funnelling through the storage node's NFS
// export (the centralized-transfer bottleneck §7.1.1's P2P systems exist
// to avoid). The registry is pure bookkeeping: per-(image, node) coverage
// intervals plus per-node upload load — the owner (cloud::Engine) drives
// the lifecycle (adopt/evict/crash/salvage) and the transfers themselves
// go through peer::Fabric.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/interval_set.hpp"

namespace vmic::peer {

class SeedRegistry {
 public:
  /// Enroll `node` as a seed for `img` (idempotent). Coverage starts
  /// empty; add_coverage / the CoR fill observer grow it.
  /// Returns true if this was a new registration.
  bool register_seed(int node, const std::string& img) {
    return seeds_[img].emplace(node, IntervalSet{}).second;
  }

  [[nodiscard]] bool is_seed(int node, const std::string& img) const {
    auto it = seeds_.find(img);
    return it != seeds_.end() && it->second.count(node) != 0;
  }

  /// Guest byte range [lo, hi) of `img` became servable from `node`'s
  /// cache file. No-op unless the node is registered.
  void add_coverage(int node, const std::string& img, std::uint64_t lo,
                    std::uint64_t hi) {
    auto it = seeds_.find(img);
    if (it == seeds_.end()) return;
    auto ns = it->second.find(node);
    if (ns != it->second.end() && lo < hi) ns->second.insert(lo, hi);
  }

  /// Coverage of one seed, or nullptr when not registered.
  [[nodiscard]] const IntervalSet* coverage(int node,
                                            const std::string& img) const {
    auto it = seeds_.find(img);
    if (it == seeds_.end()) return nullptr;
    auto ns = it->second.find(node);
    return ns == it->second.end() ? nullptr : &ns->second;
  }

  /// The node's cache of `img` is gone (evicted, scrubbed, or reclaimed).
  /// Returns true if it was registered.
  bool deregister(int node, const std::string& img) {
    auto it = seeds_.find(img);
    if (it == seeds_.end()) return false;
    const bool had = it->second.erase(node) != 0;
    if (it->second.empty()) seeds_.erase(it);
    return had;
  }

  /// The node crashed: every cache it held is suspect. Returns how many
  /// seed entries were dropped.
  std::size_t deregister_node(int node) {
    std::size_t dropped = 0;
    for (auto it = seeds_.begin(); it != seeds_.end();) {
      dropped += it->second.erase(node);
      it = it->second.empty() ? seeds_.erase(it) : std::next(it);
    }
    return dropped;
  }

  /// Least-loaded seed among `candidates` whose coverage fully contains
  /// [lo, hi); -1 when none qualifies. Skips `exclude` (the requester —
  /// its own cache already missed) and seeds at or above `max_uploads`.
  /// Ties go to the lowest node id — deterministic, unlike p2p::Swarm's
  /// randomized tie-break, because the cloud engine pins byte-identical
  /// runs.
  [[nodiscard]] int pick_seed(const std::set<int>& candidates,
                              const std::string& img, std::uint64_t lo,
                              std::uint64_t hi, int exclude,
                              int max_uploads) const {
    auto it = seeds_.find(img);
    if (it == seeds_.end()) return -1;
    int best = -1;
    int best_load = 0;
    for (int node : candidates) {
      if (node == exclude) continue;
      auto ns = it->second.find(node);
      if (ns == it->second.end() || !ns->second.covers(lo, hi)) continue;
      const int load = active_uploads(node);
      if (load >= max_uploads) continue;
      if (best < 0 || load < best_load) {
        best = node;
        best_load = load;
      }
    }
    return best;
  }

  // Upload-load accounting (the pick_seed balancing signal).
  void begin_upload(int node) { ++uploads_[node]; }
  void end_upload(int node) {
    auto it = uploads_.find(node);
    if (it != uploads_.end() && --it->second == 0) uploads_.erase(it);
  }
  [[nodiscard]] int active_uploads(int node) const {
    auto it = uploads_.find(node);
    return it == uploads_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::size_t seed_count(const std::string& img) const {
    auto it = seeds_.find(img);
    return it == seeds_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::size_t image_count() const { return seeds_.size(); }

  // --- content-keyed tier (cluster fingerprints) -----------------------
  //
  // Extends the (image, cluster-range) directory above to content: a
  // node advertising fingerprint fp can serve a CoR fill for *any* image
  // whose missing cluster hashes to fp (§7.3 cross-VMI sharing). Entries
  // are advisory — the requester verifies the fingerprint of the bytes
  // it receives and falls back on mismatch, so staleness degrades to a
  // miss, never to corruption.

  struct ContentHit {
    int node = -1;
    std::string img;          ///< cache image on `node` holding the bytes
    std::uint64_t cluster = 0;  ///< cache-cluster index within that image
  };

  /// `node`'s cache of `img` holds content `fp` at cluster index
  /// `cluster`. One location per (fp, node); the first registration wins.
  void register_content(std::uint64_t fp, int node, const std::string& img,
                        std::uint64_t cluster) {
    auto [it, fresh] = content_[fp].try_emplace(node, ContentHit{});
    if (!fresh) return;
    it->second = ContentHit{node, img, cluster};
    content_by_node_[node][img].insert(fp);
  }

  /// `node`'s cache of `img` is gone: drop the content it advertised
  /// through that image. Returns how many entries were dropped.
  std::size_t deregister_content(int node, const std::string& img) {
    auto bn = content_by_node_.find(node);
    if (bn == content_by_node_.end()) return 0;
    auto bi = bn->second.find(img);
    if (bi == bn->second.end()) return 0;
    std::size_t dropped = 0;
    for (const std::uint64_t fp : bi->second) {
      auto it = content_.find(fp);
      if (it == content_.end()) continue;
      dropped += it->second.erase(node);
      if (it->second.empty()) content_.erase(it);
    }
    bn->second.erase(bi);
    if (bn->second.empty()) content_by_node_.erase(bn);
    return dropped;
  }

  /// The node crashed: drop everything it advertised. Returns how many
  /// content entries were dropped.
  std::size_t deregister_content_node(int node) {
    auto bn = content_by_node_.find(node);
    if (bn == content_by_node_.end()) return 0;
    std::size_t dropped = 0;
    for (const auto& [img, fps] : bn->second) {
      for (const std::uint64_t fp : fps) {
        auto it = content_.find(fp);
        if (it == content_.end()) continue;
        dropped += it->second.erase(node);
        if (it->second.empty()) content_.erase(it);
      }
    }
    content_by_node_.erase(bn);
    return dropped;
  }

  /// Least-loaded node among `candidates` advertising `fp`, skipping
  /// `exclude` and nodes at or above `max_uploads`. Lowest node id wins
  /// ties (deterministic, same contract as pick_seed).
  [[nodiscard]] std::optional<ContentHit> find_content(
      std::uint64_t fp, const std::set<int>& candidates, int exclude,
      int max_uploads) const {
    auto it = content_.find(fp);
    if (it == content_.end()) return std::nullopt;
    const ContentHit* best = nullptr;
    int best_load = 0;
    for (int node : candidates) {
      if (node == exclude) continue;
      auto ns = it->second.find(node);
      if (ns == it->second.end()) continue;
      const int load = active_uploads(node);
      if (load >= max_uploads) continue;
      if (best == nullptr || load < best_load) {
        best = &ns->second;
        best_load = load;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }

 private:
  /// img -> (node -> covered guest byte ranges). Ordered maps: iteration
  /// order is part of the engine's determinism contract.
  std::map<std::string, std::map<int, IntervalSet>> seeds_;
  std::map<int, int> uploads_;
  /// fp -> (node -> location). Ordered for deterministic iteration.
  std::map<std::uint64_t, std::map<int, ContentHit>> content_;
  /// Reverse map for deregistration: node -> img -> advertised fps.
  std::map<int, std::map<std::string, std::set<std::uint64_t>>>
      content_by_node_;
};

}  // namespace vmic::peer
