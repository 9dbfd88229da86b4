// Image-update churn ablation: what incremental rebase is worth when the
// catalog publishes new base-image versions mid-run.
//
//   ./bench_update_churn [hours] [--json-out FILE] [--ungated]
//     (default: 0.5 simulated hours, ~8 publishes/hour, 10% of clusters
//      changed per version; --ungated skips the perf gates for sanitizer
//      runs where short horizons make the ratios meaningless)
//
// The same open-arrival workload runs twice through the same per-seed
// publish schedule: once with --update-policy invalidate (every warm
// cache of the old version is dropped and refills cold from the new
// base) and once with rebase (only the changed clusters cross the
// network; content-identical ones are patched in from the old cache file
// on local disk). Gates (exit 1 on failure, for CI):
//   * rebase post-publish storage-node bytes <= 75% of invalidate
//     (>= 25% reduction: the refill traffic a rebase exists to avoid);
//   * rebase p99 deploy latency no worse than invalidate + 2% (the
//     patch pass must not stall the boot path);
//   * no leaked VM slots in either run.

#include "ablation.hpp"
#include "cloud/engine.hpp"

using namespace vmic;
using namespace vmic::bench;
using namespace vmic::cloud;

namespace {

CloudConfig churn_config(double hours, update::Policy policy) {
  CloudConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = hours * 3600.0;
  cfg.workload.mean_interarrival_s = 3600.0 / 300.0;
  cfg.workload.num_vmis = 4;
  // Small images keep the host-side publish cheap; the churn economics
  // (diff bytes vs refill bytes) are scale-free.
  cfg.profile.image_size = 256 * MiB;
  cfg.content_bytes = 32 * MiB;
  cfg.updates.enabled = true;
  cfg.updates.rate_per_hour = 8.0;
  cfg.updates.changed_frac = 0.10;
  cfg.updates.policy = policy;
  return cfg;
}

const Ablation kChurn{
    .bench = "bench_update_churn",
    .default_hours = 0.5,
    .ungated_flag = true,
    .title = "Incremental cache rebase vs invalidation under image-update "
             "churn",
    .paper = "Razavi & Kielmann, SC'13, cache maintenance on image updates "
             "(§5) extended to mid-run catalog publishes",
    .expectation = "patching only the changed clusters keeps caches warm: "
                   "post-publish storage-node bytes drop >= 25% at equal p99 "
                   "deploy latency",
    .config =
        [](double hours, bool rebase) {
          return churn_config(hours, rebase ? update::Policy::rebase
                                            : update::Policy::invalidate);
        },
    .tags = {"invalidate", "rebase"},
    .export_prefix = "update-churn-",
    .columns = {{"arrivals", &CloudResult::arrivals},
                {"completed", &CloudResult::completed},
                {"publishes", &CloudResult::updates_published},
                {"rebased", &CloudResult::caches_rebased},
                {"p99-deploy", [](auto& r) { return r.deploy.p99; }, 2},
                {"post-MiB", in_mib(&CloudResult::post_update_storage_bytes),
                 1}},
    .bytes = &CloudResult::post_update_storage_bytes,
    .min_reduction = 0.25,
    .latency = &CloudResult::deploy,
    .summary = "churn ablation: post-publish storage bytes %.1f -> %.1f MiB "
               "(-%.1f%%, gate >= 25%%), deploy p99 %.2f -> %.2f s "
               "(gate <= +2%%), ",
    .summary_tail =
        [](const CloudResult& rebase) {
          std::printf(
              "%d rebased, %llu patched / %llu reused cluster(s)\n",
              rebase.caches_rebased,
              static_cast<unsigned long long>(rebase.rebase_patched_clusters),
              static_cast<unsigned long long>(rebase.rebase_reused_clusters));
        },
    .bytes_failed = "bench: rebase cut post-publish storage bytes by only "
                    "%.1f%% (gate >= 25%%)\n",
    .latency_failed = "bench: rebase p99 deploy regressed: %.2f s vs %.2f s "
                      "(gate <= +2%%)\n",
    .json = {{"updates_published", on(&CloudResult::updates_published)},
             {"invalidate_post_update_bytes", &Outcome::off_bytes},
             {"rebase_post_update_bytes", &Outcome::on_bytes},
             {"post_update_reduction", &Outcome::reduction, 4},
             {"invalidate_deploy_p99", &Outcome::off_p99, 4},
             {"rebase_deploy_p99", &Outcome::on_p99, 4},
             {"caches_rebased", on(&CloudResult::caches_rebased)},
             {"update_invalidations", off(&CloudResult::update_invalidations)},
             {"rebase_patched_clusters",
              on(&CloudResult::rebase_patched_clusters)},
             {"rebase_reused_clusters",
              on(&CloudResult::rebase_reused_clusters)}},
    // A gated run needs a publish to measure.
    .extra_gate =
        [](const Outcome& o) {
          if (o.on.updates_published != 0) return true;
          std::fprintf(stderr, "bench: no publish event fired in %.2f h\n",
                       o.hours);
          return false;
        },
};

}  // namespace

int main(int argc, char** argv) { return run_ablation(kChurn, argc, argv); }
