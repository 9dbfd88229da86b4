// Restart warmth ablation: what a durable cache manifest is worth when
// the whole cloud power-cycles mid-run (rolling upgrade model).
//
//   ./bench_restart_warmth [hours] [--json-out FILE]
//     (default: 0.5 simulated hours; the restart fires at the midpoint)
//
// The same open-arrival workload runs twice through one full-cloud
// restart: once with the per-node manifest on (power-down publishes,
// power-up re-adopts every cache it can re-verify) and once with it off
// (the legacy scrub — every node comes back cold and re-pays the storage
// node for its working set). Gates (exit 1 on failure, for CI):
//   * manifest-on post-restart storage-node bytes <= 60% of manifest-off
//     (>= 40% reduction: the re-warm traffic the manifest exists to
//     avoid);
//   * manifest-on p99 boot latency no worse than manifest-off + 2%
//     (adoption verification must not stall the boot path);
//   * no leaked VM slots in either run.

#include "ablation.hpp"
#include "cloud/engine.hpp"

using namespace vmic;
using namespace vmic::bench;
using namespace vmic::cloud;

namespace {

CloudConfig restart_config(double hours, bool manifest_on) {
  CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = hours * 3600.0;
  cfg.workload.mean_interarrival_s = 3600.0 / 300.0;
  cfg.manifest = manifest_on;
  cfg.restart_at_s.push_back(cfg.horizon_s / 2.0);
  cfg.restart_down_s = 30.0;
  return cfg;
}

const Ablation kRestart{
    .bench = "bench_restart_warmth",
    .default_hours = 0.5,
    .title = "Durable cache manifest vs cold re-warm through a full restart",
    .paper = "Razavi & Kielmann, SC'13, cache maintenance (§5) under a "
             "planned power cycle",
    .expectation = "re-adopted caches keep their warm clusters: post-restart "
                   "storage-node bytes drop >= 40% at equal p99 boot latency",
    .config = restart_config,
    .tags = {"manifest-off", "manifest-on"},
    .export_prefix = "restart-warmth-",
    .columns = {{"arrivals", &CloudResult::arrivals},
                {"completed", &CloudResult::completed},
                {"readopted", &CloudResult::caches_readopted},
                {"p99-boot", [](auto& r) { return r.boot.p99; }, 2},
                {"post-MiB", in_mib(&CloudResult::post_restart_storage_bytes),
                 1},
                {"publishes", &CloudResult::manifest_publishes}},
    .bytes = &CloudResult::post_restart_storage_bytes,
    .min_reduction = 0.40,
    .latency = &CloudResult::boot,
    .summary = "restart ablation: post-restart storage bytes %.1f -> %.1f "
               "MiB (-%.1f%%, gate >= 40%%), boot p99 %.2f -> %.2f s "
               "(gate <= +2%%), ",
    .summary_tail =
        [](const CloudResult& on) {
          std::printf("%d readopted / %d failed / %d stale\n",
                      on.caches_readopted, on.adopt_failures, on.adopt_stale);
        },
    .bytes_failed = "bench: manifest cut post-restart storage bytes by only "
                    "%.1f%% (gate >= 40%%)\n",
    .latency_failed = "bench: manifest-on p99 boot regressed: %.2f s vs "
                      "%.2f s (gate <= +2%%)\n",
    .json = {{"off_post_restart_bytes", &Outcome::off_bytes},
             {"on_post_restart_bytes", &Outcome::on_bytes},
             {"post_restart_reduction", &Outcome::reduction, 4},
             {"off_boot_p99", &Outcome::off_p99, 4},
             {"on_boot_p99", &Outcome::on_p99, 4},
             {"caches_readopted", on(&CloudResult::caches_readopted)},
             {"adopt_failures", on(&CloudResult::adopt_failures)},
             {"adopt_stale", on(&CloudResult::adopt_stale)},
             {"manifest_publishes", on(&CloudResult::manifest_publishes)}},
};

}  // namespace

int main(int argc, char** argv) { return run_ablation(kRestart, argc, argv); }
