#include "cluster/scenario.hpp"

#include <algorithm>
#include <cassert>

#include "boot/trace.hpp"
#include "cluster/placement.hpp"
#include "qcow2/chain.hpp"
#include "sim/run.hpp"
#include "util/align.hpp"
#include "util/log.hpp"

namespace vmic::cluster {

namespace {

std::string img_name(int vmi) { return "img-" + std::to_string(vmi); }
std::string cache_name(int vmi) {
  return "cache-" + std::to_string(vmi) + ".qcow2";
}

struct Runner {
  Cluster cl;
  const ScenarioConfig& sc;
  std::vector<boot::BootTrace> traces;
  std::vector<VmOutcome> outcomes;
  std::uint64_t warm_cache_file_bytes = 0;
  int failures = 0;

  Runner(const ClusterParams& cp, const ScenarioConfig& sc_) : cl(cp), sc(sc_) {
    // Base images: raw, all-zero content (the trace only cares about
    // geometry), placed on the storage node's disk. Independent copies
    // per VMI (Fig 3: "64 identical but independent copies").
    for (int v = 0; v < sc.num_vmis; ++v) {
      auto be = cl.storage.disk_dir.create_file(img_name(v));
      assert(be.ok());
      (*cl.storage.disk_dir.buffer(img_name(v)))->resize(sc.profile.image_size);
      traces.push_back(
          boot::generate_boot_trace(sc.profile, static_cast<std::uint64_t>(v)));
    }
    outcomes.resize(static_cast<std::size_t>(sc.num_vms));
    if (sc.storage_cache_prewarmed) prewarm_storage_cache();
  }

  /// Mark the blocks each trace will read as resident in the storage
  /// node's page cache (steady state of repeated single-VMI runs).
  void prewarm_storage_cache() {
    storage::PageCache& pc = cl.storage.disk.page_cache();
    const std::uint64_t bs = pc.block_size();
    for (int v = 0; v < sc.num_vmis; ++v) {
      const std::uint64_t id = *cl.storage.disk_dir.file_id(img_name(v));
      for (const auto& op : traces[static_cast<std::size_t>(v)].ops) {
        // Reads hit the base directly; writes trigger copy-on-write
        // cluster fills from the base — in steady state both kinds of
        // base region are resident, so pre-warm the write ranges too
        // (expanded to the CoW cluster granularity).
        std::uint64_t lo = op.offset;
        std::uint64_t hi = op.offset + op.length;
        if (op.kind == boot::BootOp::Kind::write) {
          lo = align_down(lo, 64 * KiB);
          hi = align_up(hi, 64 * KiB);
        }
        for (std::uint64_t b = lo / bs; b <= (hi - 1) / bs; ++b) {
          pc.insert(storage::file_pos(id, b * bs));
        }
      }
    }
  }

  ComputeNode& node_for(int vm) {
    return *cl.nodes[static_cast<std::size_t>(vm) % cl.nodes.size()];
  }
  int vmi_for(int vm) const { return vm % sc.num_vmis; }

  // --- warm phase ---------------------------------------------------------

  /// Warm one cache per VMI by booting a sample VM against a cold cache
  /// (§3.2 "the system can boot a sample VM upon a new VMI registration"),
  /// then distribute the warmed file to where the scenario needs it.
  void warm_caches() {
    for (int v = 0; v < sc.num_vmis; ++v) {
      ComputeNode& node = node_for(v);
      sim::run_sync(cl.env, warm_one(node, v));
      // Distribute (setup plumbing, not part of any measured boot).
      auto size = *node.mem_dir.file_size("warm-" + cache_name(v));
      warm_cache_file_bytes = std::max(warm_cache_file_bytes, size);
      if (sc.mode == CacheMode::compute_disk) {
        const int warm_nodes = static_cast<int>(
            sc.warm_node_fraction * static_cast<double>(cl.nodes.size()) +
            0.5);
        for (int i = 0; i < sc.num_vms; ++i) {
          if (vmi_for(i) != v) continue;
          ComputeNode& n = node_for(i);
          if (n.id >= warm_nodes) continue;  // this node stays cold
          if (n.disk_dir.exists(cache_name(v))) continue;
          (void)storage::SimDirectory::clone_file(
              node.mem_dir, "warm-" + cache_name(v), n.disk_dir,
              cache_name(v));
          n.pool.admit(img_name(v), size);
        }
      } else if (sc.mode == CacheMode::storage_mem) {
        (void)storage::SimDirectory::clone_file(node.mem_dir,
                                                "warm-" + cache_name(v),
                                                cl.storage.mem_dir,
                                                cache_name(v));
        cl.storage.mem_pool.admit(img_name(v), size);
      }
      node.mem_dir.remove("warm-" + cache_name(v));
      node.mem_dir.remove("warm.cow");
    }
  }

  sim::Task<void> warm_one(ComputeNode& node, int v) {
    qcow2::ChainImageOptions copt{.cluster_bits = sc.cache_cluster_bits,
                                  .virtual_size = sc.profile.image_size};
    auto r1 = co_await qcow2::create_cache_image(
        node.fs, "mem/warm-" + cache_name(v), "nfs-base/" + img_name(v),
        sc.cache_quota, copt);
    qcow2::ChainImageOptions wopt{.cluster_bits = 16,
                                  .virtual_size = sc.profile.image_size};
    auto r2 = co_await qcow2::create_cow_image(
        node.fs, "mem/warm.cow", "mem/warm-" + cache_name(v), wopt);
    if (!r1.ok() || !r2.ok()) {
      ++failures;
      co_return;
    }
    auto dev = co_await qcow2::open_image(node.fs, "mem/warm.cow",
                                          /*writable=*/true,
                                          /*cache_backing_ro=*/false, cl.obs);
    if (!dev.ok()) {
      ++failures;
      co_return;
    }
    auto res = co_await boot::boot_vm(cl.env, **dev, traces[v]);
    if (!res.ok()) ++failures;
    (void)co_await (*dev)->close();
  }

  // --- measured phase -------------------------------------------------------

  sim::Task<void> deploy_vm(int i) {
    // The measured window covers the whole deployment a user perceives:
    // image preparation (qemu-img invocations, full pre-copy if any),
    // then the boot until "connect back".
    const sim::SimTime t0 = cl.env.now();
    ComputeNode& node = node_for(i);
    const int v = vmi_for(i);
    std::uint32_t vm_track = 0;
    obs::Span deploy_span;
    obs::Span prep_span;
    if (obs::tracing(cl.obs)) {
      vm_track = cl.obs->tracer.track("vm/" + std::to_string(i));
      deploy_span = cl.obs->tracer.span(vm_track, "vm.deploy", "cluster",
                                        "\"vmi\":" + std::to_string(v));
      prep_span = cl.obs->tracer.span(vm_track, "vm.prepare", "cluster");
    }
    const std::string cow = "disk/vm-" + std::to_string(i) + ".cow";
    // Cold caches built on the compute disk see synchronous writes
    // (Fig 8's slow case); memory-built ones are flushed after shutdown.
    const std::string my_cache =
        (sc.cold_cache_on_mem ? "mem/" : "disksync/") +
        ("vm" + std::to_string(i) + "-" + cache_name(v));
    qcow2::ChainImageOptions cow_opt{.cluster_bits = 16,
                                     .virtual_size = sc.profile.image_size};
    qcow2::ChainImageOptions cache_opt{.cluster_bits = sc.cache_cluster_bits,
                                       .virtual_size = sc.profile.image_size};

    std::string backing;
    bool creator = false;  // storage_mem cold: this VM builds the cache
    bool shared_cache_ro = false;
    bool warm_hit = false;

    switch (sc.mode) {
      case CacheMode::none:
        backing = "nfs-base/" + img_name(v);
        break;
      case CacheMode::full_copy: {
        // §2's naive deployment: stream the complete VMI to the node's
        // disk before booting ("obviously slow"). Counted in the boot
        // window, like the paper's tens-of-minutes P2P numbers (§7.1.1).
        // Each VM copies into its own file: a second create_file of a
        // shared one would replace it under a VM still writing it.
        const std::string local =
            "disk/vm" + std::to_string(i) + "-full-" + img_name(v);
        auto rc = co_await copy_file(node.fs, "nfs-base/" + img_name(v),
                                     node.fs, local, /*flush=*/false);
        if (!rc.ok()) {
          ++failures;
          co_return;
        }
        backing = local;
        break;
      }
      case CacheMode::compute_disk:
        if (sc.state == CacheState::warm &&
            node.disk_dir.exists(cache_name(v))) {
          warm_hit = true;
          backing = "disk/" + cache_name(v);
          node.pool.touch(img_name(v));
        } else {
          auto r = co_await qcow2::create_cache_image(
              node.fs, my_cache, "nfs-base/" + img_name(v), sc.cache_quota,
              cache_opt);
          if (!r.ok()) {
            ++failures;
            co_return;
          }
          backing = my_cache;
        }
        break;
      case CacheMode::storage_mem:
        if (sc.state == CacheState::warm) {
          backing = "nfs-mem/" + cache_name(v);
          shared_cache_ro = true;
          cl.storage.mem_pool.touch(img_name(v));
        } else {
          // Only one VM per VMI creates + pushes back the cache; the
          // others proceed with plain QCOW2 (§5.3.2).
          creator = (i == v);
          if (creator) {
            auto r = co_await qcow2::create_cache_image(
                node.fs, my_cache, "nfs-base/" + img_name(v), sc.cache_quota,
                cache_opt);
            if (!r.ok()) {
              ++failures;
              co_return;
            }
            backing = my_cache;
          } else {
            backing = "nfs-base/" + img_name(v);
          }
        }
        break;
    }

    auto rcow = co_await qcow2::create_cow_image(node.fs, cow, backing,
                                                 cow_opt);
    if (!rcow.ok()) {
      ++failures;
      co_return;
    }
    auto dev = co_await qcow2::open_image(node.fs, cow, /*writable=*/true,
                                          shared_cache_ro, cl.obs);
    if (!dev.ok()) {
      ++failures;
      co_return;
    }
    prep_span.end();
    boot::BootOptions bopt;
    bopt.prefetch_bytes = sc.prefetch_bytes;
    obs::Span boot_span;
    if (obs::tracing(cl.obs)) {
      boot_span = cl.obs->tracer.span(vm_track, "vm.boot", "cluster");
    }
    auto res = co_await boot::boot_vm(cl.env, **dev, traces[v], bopt);
    (void)co_await (*dev)->close();
    boot_span.end();
    if (!res.ok()) {
      ++failures;
      co_return;
    }

    VmOutcome& out = outcomes[static_cast<std::size_t>(i)];
    out.vm = i;
    out.node = node.id;
    out.vmi = v;
    out.warm = warm_hit || (sc.mode == CacheMode::storage_mem &&
                            sc.state == CacheState::warm);
    out.boot = *res;
    out.boot.boot_seconds = sim::to_seconds(cl.env.now() - t0);

    // Post-boot (after "shutdown") steps.
    if (sc.mode == CacheMode::compute_disk && sc.state == CacheState::cold &&
        sc.cold_cache_on_mem) {
      // Flush the memory-built cache to the local disk, off the boot's
      // critical path (§5.1: "we delay this actual write to the moment
      // after the VM has been shut down"; < 1 s for cache-sized files).
      if (!node.disk_dir.exists(cache_name(v))) {
        (void)storage::SimDirectory::clone_file(node.mem_dir,
                                                my_cache.substr(4),
                                                node.disk_dir, cache_name(v));
        node.pool.admit(img_name(v), *node.disk_dir.file_size(cache_name(v)));
      }
    }
    if (sc.mode == CacheMode::storage_mem && sc.state == CacheState::cold &&
        creator) {
      const sim::SimTime tx0 = cl.env.now();
      obs::Span push_span;
      if (obs::tracing(cl.obs)) {
        push_span = cl.obs->tracer.span(vm_track, "vm.cache_push", "cluster");
      }
      // Copy the finished cache image to the storage node's tmpfs over
      // the network (Fig 13): reads the local file, streams it through
      // the up-link via an NFS write.
      auto pushed = co_await copy_file(node.fs, my_cache, node.tmpfs_mount,
                                       cache_name(v), /*flush=*/true);
      push_span.end();
      if (pushed.ok()) {
        out.cache_transfer_seconds = sim::to_seconds(cl.env.now() - tx0);
        cl.storage.mem_pool.admit(img_name(v), *pushed);
        if (sc.include_transfer_in_boot) {
          // Fig 14: the transfer is a necessary part of the system; the
          // paper charges it to the cold boot time.
          out.boot.boot_seconds += out.cache_transfer_seconds;
        }
      }
    }
  }
};

}  // namespace

ScenarioResult run_scenario(const ClusterParams& cp, const ScenarioConfig& sc) {
  Runner r(cp, sc);

  if (sc.mode != CacheMode::none && sc.state == CacheState::warm) {
    r.warm_caches();
  }

  // Measured phase: reset the storage-side counters, then start every VM
  // simultaneously (the paper's simultaneous-startup experiments).
  r.cl.storage.nfs.reset_stats();
  r.cl.storage.disk_raw.reset_stats();
  r.cl.storage.disk.reset_stats();
  for (int i = 0; i < sc.num_vms; ++i) {
    r.cl.env.spawn(r.deploy_vm(i));
  }
  r.cl.env.run();

  assert(r.failures == 0 && "scenario had failing VMs");

  ScenarioResult out;
  out.vms = std::move(r.outcomes);
  out.warm_cache_file_bytes = r.warm_cache_file_bytes;
  out.storage_payload_bytes = r.cl.storage.nfs.stats().total_payload();
  out.storage_disk_reads = r.cl.storage.disk_raw.stats().reads;
  out.storage_disk_bytes_read = r.cl.storage.disk_raw.stats().bytes_read;
  double sum = 0;
  out.min_boot = out.vms.empty() ? 0 : out.vms[0].boot.boot_seconds;
  obs::Histogram& boot_hist = r.cl.obs->registry.histogram(
      "cluster.boot_seconds", {},
      {1, 2, 5, 10, 20, 30, 60, 120, 300, 600});
  for (const auto& vm : out.vms) {
    const double b = vm.boot.boot_seconds;
    boot_hist.observe(b);
    sum += b;
    out.min_boot = std::min(out.min_boot, b);
    out.max_boot = std::max(out.max_boot, b);
  }
  out.mean_boot = out.vms.empty() ? 0 : sum / static_cast<double>(out.vms.size());
  out.metrics = r.cl.obs->registry.snapshot();
  return out;
}

}  // namespace vmic::cluster
