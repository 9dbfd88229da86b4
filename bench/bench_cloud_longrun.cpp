// Long-running cloud workload bench: the vmic::cloud engine under the
// arrival shapes and failure mixes a production deployment would see.
// Not a paper figure — the paper measures one-shot boot storms — but the
// direct answer to its §8 outlook of operating VMI caches inside a real
// cloud scheduler: does the cache layer keep deployment SLOs flat when
// arrivals burst, nodes crash, and storage blips?
//
//   ./bench_cloud_longrun [hours] [--json-out FILE]
//     (default: 1.0 simulated hour per row)
//
// Besides the scenario table, the bench runs the peer-tier ablation: the
// same Zipf multi-image mix, hot enough that popular images spill across
// nodes, once with every cold fill funnelling through the storage node's
// NFS export and once with the vmic::peer tier serving fills from other
// nodes' caches. Gates (exit 1 on failure, for CI):
//   * peer-on storage-node bytes <= 75% of the NFS baseline;
//   * peer-on p99 boot latency no worse than the baseline (2% slack).

#include <optional>

#include "ablation.hpp"
#include "cloud/engine.hpp"

using namespace vmic;
using namespace vmic::bench;
using namespace vmic::cloud;

namespace {

struct Row {
  const char* tag;
  ArrivalProcess process;
  int crashes;
  int outages;
  bool salvage = true;
};

CloudResult run_row(const Row& row, double hours) {
  CloudConfig cfg;
  cfg.seed = 42;
  cfg.horizon_s = hours * 3600.0;
  cfg.workload.process = row.process;
  // Keep the flash inside short horizons.
  cfg.workload.flash_at_s = cfg.horizon_s * 0.4;
  cfg.crash_salvage = row.salvage;
  Rng plan_rng(cfg.seed ^ 0xFA11ull);
  cfg.failures = plan_failures(row.crashes, row.outages,
                               cfg.cluster.compute_nodes, cfg.horizon_s,
                               plan_rng);
  return run_cloud(cfg);
}

/// The peer ablation scenario: a Zipf-skewed multi-image mix arriving
/// fast enough to saturate the warm node's VM slots, so deployments of
/// the popular images spill onto cold nodes — exactly the case where a
/// peer fetch beats a storage-node round trip.
CloudConfig peer_config(double hours, bool peer_on) {
  CloudConfig cfg;
  cfg.seed = 42;
  cfg.horizon_s = hours * 3600.0;
  cfg.workload.num_vmis = 12;
  cfg.workload.zipf_exponent = 1.1;
  cfg.workload.mean_interarrival_s = 3600.0 / 500.0;
  cfg.peer_transfer = peer_on;
  return cfg;
}

/// Peer-tier ablation: same seed, same Zipf mix; the only difference is
/// whether compute nodes serve each other's cold fills. Its columns are
/// the scenario table's, and its two rows print under that table.
const Ablation kPeer{
    .bench = "bench_cloud_longrun",
    .default_hours = 1.0,
    .config = peer_config,
    .tags = {"zipf-nfs", "zipf-peer"},
    .export_prefix = "cloud-longrun-",
    .columns = {{"arrivals", &CloudResult::arrivals},
                {"completed", &CloudResult::completed},
                {"aborted", &CloudResult::aborted},
                {"hit-ratio", &CloudResult::cache_hit_ratio, 3},
                {"p50-dep", [](auto& r) { return r.deploy.p50; }, 2},
                {"p99-dep", [](auto& r) { return r.deploy.p99; }, 2},
                {"stor-MiB", in_mib(&CloudResult::storage_payload_bytes), 1}},
    .bytes = &CloudResult::storage_payload_bytes,
    .min_reduction = 0.25,
    .latency = &CloudResult::boot,
    .summary = "peer ablation: storage-node bytes %.1f -> %.1f MiB "
               "(-%.1f%%, gate >= 25%%), boot p99 %.2f -> %.2f s, ",
    .summary_tail =
        [](const CloudResult& peer) {
          std::printf(
              "%llu seed hit(s), %llu fallback(s)\n",
              static_cast<unsigned long long>(peer.peer_seed_hits),
              static_cast<unsigned long long>(peer.peer_fallback_fills));
        },
    .bytes_failed = "bench: peer tier cut storage bytes by only %.1f%% "
                    "(gate >= 25%%)\n",
    .latency_failed = "bench: peer-on p99 boot regressed: %.2f s vs %.2f s\n",
    .json = {{"nfs_storage_bytes", &Outcome::off_bytes},
             {"peer_storage_bytes", &Outcome::on_bytes},
             {"storage_reduction", &Outcome::reduction, 4},
             {"nfs_boot_p99", &Outcome::off_p99, 4},
             {"peer_boot_p99", &Outcome::on_p99, 4},
             {"peer_seed_hits", on(&CloudResult::peer_seed_hits)},
             {"peer_fallback_fills", on(&CloudResult::peer_fallback_fills)},
             {"peer_bytes_served", on(&CloudResult::peer_bytes_served)},
             {"peer_timeouts", on(&CloudResult::peer_timeouts)}},
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(kPeer, argc, argv);
  if (!args) return 2;

  header("Long-running cloud: deployment SLOs under arrival shapes + faults",
         "beyond the paper's boot storms; §3.4 scheduling + §6 Algorithm 1 "
         "in steady state",
         "warm-hit ratio climbs well past 50% so p50 deploy stays in single "
         "digits; crashes and outages stretch the tail (p99) but abort few "
         "VMs and leak no slots");
  table_header("scenario", kPeer.columns);

  // "crashes" vs "crashes-nosalv" is the crash-recovery ablation: same
  // seed, same failure plan; the only difference is whether a recovered
  // node repairs + re-adopts its surviving caches or invalidates them
  // all. Salvage should show fewer storage-node bytes (stor-MiB).
  const Row rows[] = {
      {"baseline", ArrivalProcess::poisson, 0, 0},
      {"diurnal", ArrivalProcess::diurnal, 0, 0},
      {"flash", ArrivalProcess::flash_crowd, 0, 0},
      {"crashes", ArrivalProcess::poisson, 2, 0},
      {"crashes-nosalv", ArrivalProcess::poisson, 2, 0, /*salvage=*/false},
      {"outage", ArrivalProcess::poisson, 0, 1},
  };
  for (const Row& row : rows) {
    const CloudResult r = run_row(row, args->hours);
    print_row(kPeer.columns, row.tag, r);
    if (row.crashes > 0) {
      std::printf("%16s  %d salvaged, %d invalidated after %d crash(es)\n",
                  "", r.caches_salvaged, r.caches_invalidated,
                  r.node_crashes);
    }
    if (!settle(kPeer, row.tag, r)) return 1;
  }
  return run_arms(kPeer, *args);
}
