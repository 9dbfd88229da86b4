// vmi-cloudsim — run the long-running cloud workload engine from the
// command line: an open VM arrival stream against a finite cluster, with
// cache-aware scheduling, node crashes, storage outages, and SLO output.
//
//   vmi-cloudsim [options]
//     --hours H          simulated horizon          (default 2)
//     --seed N           run seed                   (default 7)
//     --nodes N          compute nodes              (default 8)
//     --slots N          VM slots per node          (default 4)
//     --vmis N           distinct base images       (default 6)
//     --rate R           arrivals per hour          (default 80)
//     --process poisson|diurnal|flash               (default poisson)
//     --zipf S           VMI popularity exponent    (default 1.0)
//     --policy packing|striping|load                (default striping)
//     --no-cache-aware   disable warm-cache-first scheduling
//     --quota MiB        cache quota per VMI        (default 48)
//     --cache-cap MiB    per-node cache budget      (default 128)
//     --os centos|debian|windows|scaled             (default scaled)
//     --attempts N       max deployment attempts    (default 4)
//     --backoff S        first retry backoff        (default 5)
//     --fail-nodes N     inject N node crashes      (default 0)
//     --outages N        inject N storage outages   (default 0)
//     --no-salvage       invalidate all caches on crash instead of
//                        repairing + re-adopting clean ones on recovery
//     --peer on|off      peer cache tier: nodes serve each other's
//                        copy-on-read fills, NFS only on miss (default off)
//     --dedup on|off     content-addressed dedup in the cache-fill path:
//                        fills whose content sits in a sibling image's
//                        cache are served locally (or peer-fetched by
//                        fingerprint with --peer on)        (default off)
//     --compress on|off  qcow2 compressed clusters for cache fills
//                        (no-op below 1 KiB cache clusters) (default off)
//     --cluster-bits N   cache image cluster size = 2^N     (default 9)
//     --siblings N       sibling content model: groups of N images share
//                        --shared-frac of their cluster content (default 0)
//     --shared-frac F    shared fraction within a group     (default 0.75)
//     --content-mib M    generated content per image, MiB   (default whole)
//     --amplitude F      diurnal modulation depth (--process diurnal);
//                        troughs clamp at zero when F > 1   (default 0.6)
//     --manifest on|off  durable per-node cache manifests: restarts and
//                        drains re-adopt verified caches instead of
//                        re-warming cold                    (default off)
//     --updates on|off   image-update churn: a deterministic per-seed
//                        schedule publishes new base-image versions
//                        mid-run; warm caches of the old version are
//                        invalidated or incrementally rebased (default off)
//     --update-policy invalidate|rebase|auto   stale-cache handling on a
//                        version bump; auto rebases when --update-frac is
//                        at most the rebase threshold       (default auto)
//     --update-rate R    publish events per hour            (default 2)
//     --update-frac F    fraction of clusters changed per version,
//                        in (0, 1]                          (default 0.1)
//     --restart-at H     restart the whole cloud H simulated hours in
//                        (repeatable)
//     --restart-down S   restart downtime, seconds          (default 30)
//     --drain N          planned drain of node N mid-run    (default none)
//     --drain-at H       drain start, simulated hours       (default 0.5)
//     --drain-down S     drain downtime, seconds            (default 60)
//     --slo-strict       exit non-zero on any SLO violation (aborted or
//                        rejected arrivals, leaked slots, or --slo-p99
//                        exceeded) so CI can gate on the exit code
//     --slo-p99 S        deploy p99 bound for --slo-strict  (default off)
//     --trace FILE       replay a request trace CSV instead of generating
//     --trace-out FILE   write the generated workload as CSV and exit 0
//     --metrics-out F    write the metrics snapshot to F
//                        (.json => JSON, anything else => text exposition)
//
// Exits 1, with or without --slo-strict, when the drained run still holds
// VM slots or cache references (files held, zombies, pins, or untracked
// cache files); the cache-reference count goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cloud/engine.hpp"
#include "util/units.hpp"

using namespace vmic;
using namespace vmic::cloud;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: vmi-cloudsim [--hours H] [--seed N] [--nodes N] [--slots N]\n"
      "       [--vmis N] [--rate PER_HOUR] [--process poisson|diurnal|flash]\n"
      "       [--zipf S] [--policy packing|striping|load] [--no-cache-aware]\n"
      "       [--quota MiB] [--cache-cap MiB] "
      "[--os centos|debian|windows|scaled]\n"
      "       [--attempts N] [--backoff S] [--fail-nodes N] [--outages N]\n"
      "       [--no-salvage] [--peer on|off] [--dedup on|off]"
      " [--compress on|off]\n"
      "       [--cluster-bits N] [--siblings N] [--shared-frac F]"
      " [--content-mib M]\n"
      "       [--amplitude F] [--manifest on|off] [--restart-at H]"
      " [--restart-down S]\n"
      "       [--drain N] [--drain-at H] [--drain-down S]\n"
      "       [--updates on|off] [--update-policy invalidate|rebase|auto]\n"
      "       [--update-rate PER_HOUR] [--update-frac F]\n"
      "       [--slo-strict] [--slo-p99 S]\n"
      "       [--trace FILE] [--trace-out FILE] [--metrics-out FILE]\n");
  std::exit(2);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "vmi-cloudsim: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "vmi-cloudsim: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_latency(const char* name, const LatencyStats& l) {
  std::printf("  %-12s n=%-5zu mean %7.2f s  p50 %7.2f s  p95 %7.2f s  "
              "p99 %7.2f s  max %7.2f s\n",
              name, l.count, l.mean, l.p50, l.p95, l.p99, l.max);
}

}  // namespace

int main(int argc, char** argv) {
  CloudConfig cfg;
  cfg.seed = 7;
  int fail_nodes = 0;
  int outages = 0;
  std::string os = "scaled";
  std::string trace_in;
  std::string trace_out;
  std::string metrics_out;
  bool slo_strict = false;
  double slo_p99 = 0;
  /// First --update-* knob seen without --updates on (combo audit).
  const char* update_knob = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--hours") {
      cfg.horizon_s = std::atof(next()) * 3600.0;
    } else if (a == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--nodes") {
      cfg.cluster.compute_nodes = std::atoi(next());
    } else if (a == "--slots") {
      cfg.vm_slots_per_node = std::atoi(next());
    } else if (a == "--vmis") {
      cfg.workload.num_vmis = std::atoi(next());
    } else if (a == "--rate") {
      const double per_hour = std::atof(next());
      if (per_hour <= 0) usage();
      cfg.workload.mean_interarrival_s = 3600.0 / per_hour;
    } else if (a == "--process") {
      const std::string p = next();
      if (p == "poisson") cfg.workload.process = ArrivalProcess::poisson;
      else if (p == "diurnal") cfg.workload.process = ArrivalProcess::diurnal;
      else if (p == "flash") cfg.workload.process = ArrivalProcess::flash_crowd;
      else usage();
    } else if (a == "--zipf") {
      cfg.workload.zipf_exponent = std::atof(next());
    } else if (a == "--policy") {
      const std::string p = next();
      if (p == "packing") cfg.policy = cluster::SchedPolicy::packing;
      else if (p == "striping") cfg.policy = cluster::SchedPolicy::striping;
      else if (p == "load") cfg.policy = cluster::SchedPolicy::load_aware;
      else usage();
    } else if (a == "--no-cache-aware") {
      cfg.cache_aware = false;
    } else if (a == "--quota") {
      cfg.cache_quota = static_cast<std::uint64_t>(std::atoi(next())) * MiB;
    } else if (a == "--cache-cap") {
      cfg.cluster.node_cache_capacity =
          static_cast<std::uint64_t>(std::atoi(next())) * MiB;
    } else if (a == "--os") {
      os = next();
    } else if (a == "--attempts") {
      cfg.max_attempts = std::atoi(next());
    } else if (a == "--backoff") {
      cfg.retry_backoff_s = std::atof(next());
    } else if (a == "--fail-nodes") {
      fail_nodes = std::atoi(next());
    } else if (a == "--outages") {
      outages = std::atoi(next());
    } else if (a == "--no-salvage") {
      cfg.crash_salvage = false;
    } else if (a == "--peer") {
      const std::string p = next();
      if (p == "on") cfg.peer_transfer = true;
      else if (p == "off") cfg.peer_transfer = false;
      else usage();
    } else if (a == "--dedup") {
      const std::string p = next();
      if (p == "on") cfg.dedup = true;
      else if (p == "off") cfg.dedup = false;
      else usage();
    } else if (a == "--compress") {
      const std::string p = next();
      if (p == "on") cfg.cache_compress = true;
      else if (p == "off") cfg.cache_compress = false;
      else usage();
    } else if (a == "--cluster-bits") {
      cfg.cache_cluster_bits = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (a == "--siblings") {
      cfg.sibling_group_size = std::atoi(next());
    } else if (a == "--shared-frac") {
      cfg.shared_fraction = std::atof(next());
    } else if (a == "--content-mib") {
      cfg.content_bytes = static_cast<std::uint64_t>(std::atoi(next())) * MiB;
    } else if (a == "--amplitude") {
      cfg.workload.diurnal_amplitude = std::atof(next());
    } else if (a == "--updates") {
      const std::string p = next();
      if (p == "on") cfg.updates.enabled = true;
      else if (p == "off") cfg.updates.enabled = false;
      else usage();
    } else if (a == "--update-policy") {
      auto pol = update::parse_policy(next());
      if (!pol.ok()) usage();
      cfg.updates.policy = *pol;
      if (update_knob == nullptr) update_knob = "--update-policy";
    } else if (a == "--update-rate") {
      cfg.updates.rate_per_hour = std::atof(next());
      if (update_knob == nullptr) update_knob = "--update-rate";
    } else if (a == "--update-frac") {
      cfg.updates.changed_frac = std::atof(next());
      if (update_knob == nullptr) update_knob = "--update-frac";
    } else if (a == "--manifest") {
      const std::string p = next();
      if (p == "on") cfg.manifest = true;
      else if (p == "off") cfg.manifest = false;
      else usage();
    } else if (a == "--restart-at") {
      cfg.restart_at_s.push_back(std::atof(next()) * 3600.0);
    } else if (a == "--restart-down") {
      cfg.restart_down_s = std::atof(next());
    } else if (a == "--drain") {
      cfg.drain_node = std::atoi(next());
      if (cfg.drain_at_s == 0) cfg.drain_at_s = 0.5 * 3600.0;
    } else if (a == "--drain-at") {
      cfg.drain_at_s = std::atof(next()) * 3600.0;
    } else if (a == "--drain-down") {
      cfg.drain_down_s = std::atof(next());
    } else if (a == "--slo-strict") {
      slo_strict = true;
    } else if (a == "--slo-p99") {
      slo_p99 = std::atof(next());
    } else if (a == "--trace") {
      trace_in = next();
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (a == "--metrics-out") {
      metrics_out = next();
    } else {
      usage();
    }
  }

  if (os == "centos") cfg.profile = boot::centos63();
  else if (os == "debian") cfg.profile = boot::debian607();
  else if (os == "windows") cfg.profile = boot::windows2012();
  else if (os == "scaled") cfg.profile = scaled_down(boot::centos63());
  else usage();

  // Flag audit: contradictory or out-of-range combinations fail fast
  // with a specific message instead of silently running something else.
  auto die = [](const std::string& msg) {
    std::fprintf(stderr, "vmi-cloudsim: %s\n", msg.c_str());
    std::exit(2);
  };
  if (update_knob != nullptr && !cfg.updates.enabled) {
    die(std::string(update_knob) + " requires --updates on");
  }
  if (cfg.updates.enabled) {
    if (!(cfg.updates.rate_per_hour > 0)) {
      die("--update-rate must be > 0");
    }
    if (!(cfg.updates.changed_frac > 0) || cfg.updates.changed_frac > 1) {
      die("--update-frac must be in (0, 1]");
    }
  }
  if (cfg.drain_node >= cfg.cluster.compute_nodes) {
    die("--drain node " + std::to_string(cfg.drain_node) +
        " out of range (have " + std::to_string(cfg.cluster.compute_nodes) +
        " nodes)");
  }
  if (slo_p99 > 0 && !slo_strict) {
    die("--slo-p99 has no effect without --slo-strict");
  }
  if (auto wl = validate(cfg.workload); !wl.ok()) {
    die("invalid workload config (check --vmis, --rate, --zipf, "
        "--amplitude and the process parameters)");
  }

  // Failure plan and workload draw from forks of the same seed, so
  // --fail-nodes changes nothing about arrival timing.
  Rng plan_rng(cfg.seed ^ 0xFA11'FA11'FA11'FA11ull);
  cfg.failures = plan_failures(fail_nodes, outages, cfg.cluster.compute_nodes,
                               cfg.horizon_s, plan_rng);

  if (!trace_in.empty()) {
    auto parsed = parse_trace_csv(read_file(trace_in));
    if (!parsed.ok()) {
      std::fprintf(stderr, "vmi-cloudsim: malformed trace %s\n",
                   trace_in.c_str());
      return 1;
    }
    cfg.requests = std::move(*parsed);
  }

  if (!trace_out.empty()) {
    Rng wl_rng(cfg.seed);
    const auto reqs = cfg.requests.empty()
                          ? generate_workload(cfg.workload, cfg.horizon_s,
                                              wl_rng)
                          : cfg.requests;
    if (!write_file(trace_out, render_trace_csv(reqs))) return 1;
    std::printf("workload: %zu requests -> %s\n", reqs.size(),
                trace_out.c_str());
    return 0;
  }

  std::printf("cloud: %d node(s) x %d slot(s), %d VMI(s), %s arrivals, "
              "%.1f h horizon, seed %llu\n",
              cfg.cluster.compute_nodes, cfg.vm_slots_per_node,
              cfg.workload.num_vmis, to_string(cfg.workload.process),
              cfg.horizon_s / 3600.0,
              static_cast<unsigned long long>(cfg.seed));
  if (fail_nodes > 0 || outages > 0) {
    std::printf("faults: %d node crash(es), %d storage outage(s)\n",
                fail_nodes, outages);
  }

  const CloudResult r = run_cloud(cfg);

  std::printf("arrivals %d: completed %d, aborted %d, rejected %d "
              "(retries %d, deploy failures %d)\n",
              r.arrivals, r.completed, r.aborted, r.rejected, r.retries,
              r.deploy_failures);
  std::printf("faults: %d crash(es), %d recovery(ies), %d attempt(s) "
              "killed, %d running VM(s) lost, %d copy-back(s) skipped\n",
              r.node_crashes, r.node_recoveries, r.crash_kills, r.vm_crashes,
              r.copyback_skips);
  if (r.node_crashes > 0) {
    std::printf("salvage: %d cache(s) re-adopted after repair, "
                "%d invalidated\n",
                r.caches_salvaged, r.caches_invalidated);
  }
  if (r.restarts > 0 || r.drains > 0) {
    std::printf("restart: %d restart(s), %d drain(s); adoption %d ok, "
                "%d failed, %d stale; %s served post-restart\n",
                r.restarts, r.drains, r.caches_readopted, r.adopt_failures,
                r.adopt_stale,
                format_bytes(r.post_restart_storage_bytes).c_str());
  }
  if (cfg.manifest) {
    std::printf("manifest: %llu publish(es)\n",
                static_cast<unsigned long long>(r.manifest_publishes));
  }
  if (cfg.updates.enabled) {
    std::printf("updates (%s): %d publish(es), %d cache(s) rebased, "
                "%d invalidated; %llu cluster(s) patched, %llu reused; "
                "%s served post-publish\n",
                update::to_string(cfg.updates.policy), r.updates_published,
                r.caches_rebased, r.update_invalidations,
                static_cast<unsigned long long>(r.rebase_patched_clusters),
                static_cast<unsigned long long>(r.rebase_reused_clusters),
                format_bytes(r.post_update_storage_bytes).c_str());
  }
  std::printf("cache: hit ratio %.3f (%d warm hit(s)), %llu eviction(s)\n",
              r.cache_hit_ratio, r.warm_hits,
              static_cast<unsigned long long>(r.cache_evictions));
  std::printf("goodput: %.1f VMs/hour over %.2f h sim; peak queue %zu; "
              "leaked slots %d\n",
              r.goodput_vms_per_hour, r.sim_seconds / 3600.0,
              r.peak_queue_depth, r.leaked_slots);
  std::printf("storage node served %s\n",
              format_bytes(r.storage_payload_bytes).c_str());
  if (cfg.peer_transfer) {
    std::printf("peer: %llu seed hit(s), %llu fallback fill(s), "
                "%llu timeout(s), %s served peer-to-peer\n",
                static_cast<unsigned long long>(r.peer_seed_hits),
                static_cast<unsigned long long>(r.peer_fallback_fills),
                static_cast<unsigned long long>(r.peer_timeouts),
                format_bytes(r.peer_bytes_served).c_str());
  }
  if (cfg.dedup) {
    std::printf("dedup: %llu local hit(s), %llu zero fill(s), "
                "%llu peer hit(s), %llu fallback(s), %s not read from NFS\n",
                static_cast<unsigned long long>(r.dedup_local_hits),
                static_cast<unsigned long long>(r.dedup_zero_fills),
                static_cast<unsigned long long>(r.dedup_peer_hits),
                static_cast<unsigned long long>(r.dedup_fallbacks),
                format_bytes(r.dedup_bytes_served).c_str());
  }
  print_latency("deploy", r.deploy);
  print_latency("queue-wait", r.queue_wait);
  print_latency("prepare", r.prepare);
  print_latency("boot", r.boot);

  if (!metrics_out.empty()) {
    const std::string body = ends_with(metrics_out, ".json")
                                 ? r.metrics.to_json()
                                 : r.metrics.to_text();
    if (!write_file(metrics_out, body)) return 1;
    std::printf("metrics: %zu series -> %s\n", r.metrics.points.size(),
                metrics_out.c_str());
  }

  // --slo-strict: make SLO violations visible in the exit code so CI can
  // gate on the CLI directly instead of parsing the metrics snapshot.
  int violations = 0;
  if (slo_strict) {
    if (r.aborted > 0) {
      std::fprintf(stderr, "SLO violation: %d arrival(s) aborted\n",
                   r.aborted);
      ++violations;
    }
    if (r.rejected > 0) {
      std::fprintf(stderr, "SLO violation: %d arrival(s) rejected\n",
                   r.rejected);
      ++violations;
    }
    if (slo_p99 > 0 && r.deploy.p99 > slo_p99) {
      std::fprintf(stderr,
                   "SLO violation: deploy p99 %.2f s exceeds bound %.2f s\n",
                   r.deploy.p99, slo_p99);
      ++violations;
    }
  }
  if (r.leaked_slots != 0) {
    if (slo_strict) {
      std::fprintf(stderr, "SLO violation: %d leaked VM slot(s)\n",
                   r.leaked_slots);
    }
    return 1;
  }
  if (r.leaked_cache_refs != 0) {
    std::fprintf(stderr, "vmi-cloudsim: %d leaked cache reference(s)\n",
                 r.leaked_cache_refs);
    return 1;
  }
  return violations == 0 ? 0 : 1;
}
