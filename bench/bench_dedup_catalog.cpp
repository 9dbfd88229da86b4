// Content-addressed dedup + compressed clusters over a sibling catalog:
// the §7.3 / §8 extension ("VMIs created from the same operating system
// distribution share content") measured end-to-end in the cloud engine.
//
//   ./bench_dedup_catalog [hours] [--json-out FILE]
//     (default: 0.5 simulated hours)
//
// An 8-image catalog of two sibling groups (75% shared content inside a
// group), Zipf 1.1 popularity, 4 KiB cache clusters. The same workload
// runs once with every cold fill funnelling through the storage node and
// once with the fingerprint index + compressed cache clusters on. Gates
// (exit 1 on failure, for CI):
//   * dedup+compress storage-node bytes per unique catalog byte <= 70%
//     of the baseline (>= 30% reduction — the unique-byte denominator is
//     identical in both runs, so the gate compares raw served bytes);
//   * dedup+compress p99 boot latency no worse than baseline + 2%;
//   * no leaked VM slots in either run.

#include "ablation.hpp"
#include "cloud/engine.hpp"

using namespace vmic;
using namespace vmic::bench;
using namespace vmic::cloud;

namespace {

CloudConfig catalog_config(double hours, bool dedup_on) {
  CloudConfig cfg;
  cfg.seed = 42;
  cfg.horizon_s = hours * 3600.0;
  cfg.workload.num_vmis = 8;
  cfg.workload.zipf_exponent = 1.1;
  cfg.workload.mean_interarrival_s = 3600.0 / 400.0;
  cfg.cache_cluster_bits = 12;
  cfg.sibling_group_size = 4;
  cfg.shared_fraction = 0.75;
  // Small, fully-contented images: every cluster carries real pattern
  // bytes, so dedup earns its reduction from sibling overlap and
  // compression, never from an all-zero freebie.
  cfg.profile.image_size = 64 * MiB;
  cfg.profile.unique_read_bytes = 32 * MiB;
  cfg.content_bytes = cfg.profile.image_size;
  cfg.cache_quota = 32 * MiB;
  cfg.dedup = dedup_on;
  cfg.cache_compress = dedup_on;
  return cfg;
}

const Ablation kDedup{
    .bench = "bench_dedup_catalog",
    .default_hours = 0.5,
    .title = "Content-addressed dedup + compressed clusters, sibling catalog",
    .paper = "Razavi & Kielmann, SC'13, §7.3 content-based block caching / §8",
    .expectation = "sibling fills come out of the fingerprint index and "
                   "compressed caches instead of NFS: storage-node bytes "
                   "drop >= 30% at equal p99 boot latency",
    .config = catalog_config,
    .tags = {"dedup-off", "dedup-on"},
    .export_prefix = "dedup-catalog-",
    .columns = {{"arrivals", &CloudResult::arrivals},
                {"completed", &CloudResult::completed},
                {"hit-ratio", &CloudResult::cache_hit_ratio, 3},
                {"p99-boot", [](auto& r) { return r.boot.p99; }, 2},
                {"stor-MiB", in_mib(&CloudResult::storage_payload_bytes), 1},
                {"dedup-hits",
                 [](auto& r) {
                   return r.dedup_local_hits + r.dedup_zero_fills +
                          r.dedup_peer_hits;
                 }}},
    .bytes = &CloudResult::storage_payload_bytes,
    .min_reduction = 0.30,
    .latency = &CloudResult::boot,
    .summary = "dedup ablation: storage-node bytes %.1f -> %.1f MiB "
               "(-%.1f%%, gate >= 30%%), boot p99 %.2f -> %.2f s "
               "(gate <= +2%%), ",
    .summary_tail =
        [](const CloudResult& on) {
          std::printf("%llu local / %llu zero / %llu peer hit(s), "
                      "%llu fallback(s)\n",
                      static_cast<unsigned long long>(on.dedup_local_hits),
                      static_cast<unsigned long long>(on.dedup_zero_fills),
                      static_cast<unsigned long long>(on.dedup_peer_hits),
                      static_cast<unsigned long long>(on.dedup_fallbacks));
        },
    .bytes_failed = "bench: dedup+compress cut storage bytes by only %.1f%% "
                    "(gate >= 30%%)\n",
    .latency_failed = "bench: dedup-on p99 boot regressed: %.2f s vs %.2f s "
                      "(gate <= +2%%)\n",
    .json = {{"off_storage_bytes", &Outcome::off_bytes},
             {"on_storage_bytes", &Outcome::on_bytes},
             {"storage_reduction", &Outcome::reduction, 4},
             {"off_boot_p99", &Outcome::off_p99, 4},
             {"on_boot_p99", &Outcome::on_p99, 4},
             {"dedup_local_hits", on(&CloudResult::dedup_local_hits)},
             {"dedup_zero_fills", on(&CloudResult::dedup_zero_fills)},
             {"dedup_peer_hits", on(&CloudResult::dedup_peer_hits)},
             {"dedup_fallbacks", on(&CloudResult::dedup_fallbacks)},
             {"dedup_bytes_served", on(&CloudResult::dedup_bytes_served)}},
};

}  // namespace

int main(int argc, char** argv) { return run_ablation(kDedup, argc, argv); }
