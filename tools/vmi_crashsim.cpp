// vmi-crashsim — exhaustive power-loss sweep over the qcow2 durability
// design (src/crash). Replays a scripted guest workload, cuts the power
// at every backend event (drop/tear semantics per seed), then reopens,
// repairs and verifies. Exit 0 only if every crash point of every mode
// upholds the invariants: no pre-repair corruption, a fully clean image
// after repair, and every flushed guest write intact.
//
//   vmi-crashsim [--seed N] [--ops N] [--points N] [--cluster-bits N]
//                [--image-size SZ] [--journal-sectors N]
//                [--mode eager|lazy|cor|journal|repair|twofile|
//                        cor-compress|all]
//                [--json-out FILE]
//   vmi-crashsim --child-writer FILE [--seed N] [--journal-sectors N]
//
// The journal mode sweeps a journaled image (O(journal) replay repair),
// repair mode re-cuts the power at every instant *inside* the repair
// (repair-of-repair), twofile fells an overlay+cache pair behind one
// shared power rail, and cor-compress sweeps the copy-on-read chain with
// compressed fills over a partly compressible base.
//
// --child-writer is the host-side half of the kill-9 smoke test: it
// creates a journaled image at FILE, prints "ready" once the first
// barrier is durable, then keeps writing/flushing until it is killed.
// The parent SIGKILLs it mid-write and verifies that vmi-img check
// --repair replays the journal on the real file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crash/explore.hpp"
#include "io/fs_directory.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace vmic;

void usage() {
  std::fprintf(stderr,
               "usage: vmi-crashsim [--seed N] [--ops N] [--points N]\n"
               "                    [--cluster-bits N] [--image-size SZ]\n"
               "                    [--journal-sectors N]\n"
               "                    [--mode eager|lazy|cor|journal|repair|"
               "twofile|\n"
               "                            cor-compress|all]\n"
               "                    [--json-out FILE]\n"
               "       vmi-crashsim --child-writer FILE [--seed N]\n"
               "                    [--journal-sectors N]\n");
  std::exit(2);
}

std::uint64_t parse_size(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  std::uint64_t mult = 1;
  switch (*end) {
    case '\0': break;
    case 'k': case 'K': mult = KiB; break;
    case 'm': case 'M': mult = MiB; break;
    case 'g': case 'G': mult = GiB; break;
    default: usage();
  }
  return static_cast<std::uint64_t>(v * static_cast<double>(mult));
}

/// Kill-9 torture child: real-file writer that never exits on its own.
int child_writer(const std::string& path, std::uint64_t seed,
                 std::uint32_t journal_sectors) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const auto slash = path.find_last_of('/');
  const std::string dir_path =
      slash == std::string::npos ? "" : path.substr(0, slash + 1);
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  io::FsImageDirectory dir{dir_path};
  {
    auto be = dir.create_file(name);
    if (!be.ok()) {
      std::fprintf(stderr, "cannot create %s\n", path.c_str());
      return 1;
    }
    qcow2::Qcow2Device::CreateOptions copt;
    copt.virtual_size = 32 * MiB;
    copt.cluster_bits = 16;
    copt.journal_sectors = journal_sectors != 0 ? journal_sectors : 64;
    if (!sim::sync_wait(qcow2::Qcow2Device::create(**be, copt)).ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }
  auto dev = sim::sync_wait(qcow2::open_image(dir, name, /*writable=*/true));
  if (!dev.ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  Rng rng(seed ^ 0xC41D);
  std::vector<std::uint8_t> buf;
  for (std::uint64_t op = 0;; ++op) {
    const std::uint64_t len = (1 + rng.below(16)) * 4 * KiB;
    const std::uint64_t off =
        rng.below((32 * MiB - len) / 512) * 512;
    buf.assign(len, static_cast<std::uint8_t>(op));
    if (!sim::sync_wait((*dev)->write(off, buf)).ok()) return 1;
    if (op % 4 == 3) {
      if (!sim::sync_wait((*dev)->flush()).ok()) return 1;
      if (op == 3) std::printf("ready\n");  // first durable barrier
    }
  }
}

struct Mode {
  const char* name;
  bool lazy = false;
  bool cor = false;
  bool compress = false;
  std::uint32_t journal_sectors = 0;
  bool crash_during_repair = false;
  bool two_file = false;
};

}  // namespace

int main(int argc, char** argv) {
  crash::ExploreConfig base;
  std::string mode = "all";
  std::string json_out;
  std::string child_writer_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--seed") {
      base.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--ops") {
      base.guest_ops = std::atoi(next().c_str());
    } else if (a == "--points") {
      base.max_crash_points = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--cluster-bits") {
      base.cluster_bits = static_cast<std::uint32_t>(std::atoi(next().c_str()));
    } else if (a == "--image-size") {
      base.image_size = parse_size(next());
    } else if (a == "--journal-sectors") {
      base.journal_sectors =
          static_cast<std::uint32_t>(std::atoi(next().c_str()));
    } else if (a == "--mode") {
      mode = next();
    } else if (a == "--json-out") {
      json_out = next();
    } else if (a == "--child-writer") {
      child_writer_path = next();
    } else {
      usage();
    }
  }

  if (!child_writer_path.empty()) {
    return child_writer(child_writer_path, base.seed, base.journal_sectors);
  }

  // Journaled modes default to a small journal so checkpoint-under-crash
  // windows are swept too; --journal-sectors overrides.
  const std::uint32_t js =
      base.journal_sectors != 0 ? base.journal_sectors : 16;
  std::vector<Mode> modes;
  if (mode == "eager" || mode == "all") modes.push_back({.name = "eager"});
  if (mode == "lazy" || mode == "all")
    modes.push_back({.name = "lazy", .lazy = true});
  if (mode == "cor" || mode == "all")
    modes.push_back({.name = "cor-chain", .cor = true});
  if (mode == "journal" || mode == "all")
    modes.push_back({.name = "journal", .journal_sectors = js});
  if (mode == "repair" || mode == "all")
    modes.push_back({.name = "repair", .crash_during_repair = true});
  if (mode == "twofile" || mode == "all")
    modes.push_back({.name = "two-file", .two_file = true});
  if (mode == "cor-compress" || mode == "all")
    modes.push_back({.name = "cor-compress", .cor = true, .compress = true});
  if (modes.empty()) usage();

  std::printf("%-10s %8s %8s %10s %10s %8s %8s %12s %6s\n", "mode", "events",
              "points", "pre-corr", "pre-leaks", "dropped", "fixed",
              "lost-bytes", "pass");
  std::string json = "[\n";
  bool all_pass = true;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    crash::ExploreConfig cfg = base;
    cfg.lazy_refcounts = modes[m].lazy;
    cfg.cor_chain = modes[m].cor;
    cfg.cor_compress = modes[m].compress;
    cfg.journal_sectors = modes[m].journal_sectors;
    cfg.crash_during_repair = modes[m].crash_during_repair;
    cfg.two_file = modes[m].two_file;
    const crash::ExploreReport rep = crash::explore(cfg);
    all_pass = all_pass && rep.pass();
    std::printf("%-10s %8llu %8llu %10llu %10llu %8llu %8llu %12llu %6s\n",
                modes[m].name,
                static_cast<unsigned long long>(rep.total_events),
                static_cast<unsigned long long>(rep.crash_points),
                static_cast<unsigned long long>(rep.pre_repair_corruptions),
                static_cast<unsigned long long>(rep.pre_repair_leaks),
                static_cast<unsigned long long>(rep.leaks_dropped),
                static_cast<unsigned long long>(rep.corruptions_fixed),
                static_cast<unsigned long long>(rep.lost_flushed_bytes),
                rep.pass() ? "yes" : "NO");
    if (rep.journal_replays != 0 || rep.journal_fallbacks != 0 ||
        rep.repair_crash_points != 0) {
      std::printf("%-10s   journal replays=%llu fallbacks=%llu"
                  " nested-repair-cuts=%llu\n",
                  "", static_cast<unsigned long long>(rep.journal_replays),
                  static_cast<unsigned long long>(rep.journal_fallbacks),
                  static_cast<unsigned long long>(rep.repair_crash_points));
    }
    json += crash::to_json(rep, cfg);
    if (m + 1 < modes.size()) json += ",\n";
  }
  json += "]\n";
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  if (!all_pass) {
    std::fprintf(stderr, "crash sweep FAILED: an invariant did not hold\n");
    return 1;
  }
  return 0;
}
