// Micro-benchmarks (google-benchmark) of the QCOW2 driver itself across
// cluster sizes — the host-side cost of the lookup/allocation machinery.
// Backs the §5.1 claim that the smaller 512 B cache cluster size is
// affordable: "the frequency of lookups does not affect the booting time
// since most reads during boot are small and need a lookup anyway."
// The LZSS and compressed-read benches give the per-cluster host cost of
// compressed caches (every fill compresses, every warm read decodes).
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "io/mem_backend.hpp"
#include "io/mem_store.hpp"
#include "obs/hub.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/task.hpp"
#include "util/compress.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace vmic;
using sim::sync_wait;

struct Rig {
  io::MemImageStore store;
  block::DevicePtr dev;

  explicit Rig(std::uint32_t cluster_bits, bool with_cache = false) {
    {
      auto be = store.create_file("base.img");
      (void)sync_wait((*be)->truncate(1 * GiB));
    }
    auto setup = [&]() -> sim::Task<Result<void>> {
      if (with_cache) {
        VMIC_CO_TRY_VOID(co_await qcow2::create_cache_image(
            store, "c.cache", "base.img", 512 * MiB,
            {.cluster_bits = cluster_bits, .virtual_size = 1 * GiB}));
        VMIC_CO_TRY_VOID(co_await qcow2::create_cow_image(
            store, "vm.cow", "c.cache",
            {.cluster_bits = 16, .virtual_size = 1 * GiB}));
      } else {
        auto be = store.create_file("vm.qcow2");
        qcow2::Qcow2Device::CreateOptions opt;
        opt.virtual_size = 1 * GiB;
        opt.cluster_bits = cluster_bits;
        VMIC_CO_TRY_VOID(co_await qcow2::Qcow2Device::create(**be, opt));
      }
      VMIC_CO_TRY(d, co_await qcow2::open_image(
                         store, with_cache ? "vm.cow" : "vm.qcow2"));
      dev = std::move(d);
      co_return ok_result();
    };
    auto r = sync_wait(setup());
    if (!r.ok()) std::abort();
  }
};

void BM_Qcow2_CreateOpen(benchmark::State& state) {
  // One VM's image lifecycle as a deployment pays it: create a 1 GiB
  // image, open it writable on a metrics hub (which loads the refcounts),
  // close it. Its host cost should follow the metadata in use, not the
  // cluster size.
  const auto bits = static_cast<std::uint32_t>(state.range(0));
  obs::Hub hub;
  block::OpenOptions oo;
  oo.hub = &hub;
  for (auto _ : state) {
    auto file = std::make_unique<io::MemBackend>();
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1 * GiB;
    opt.cluster_bits = bits;
    if (!sync_wait(qcow2::Qcow2Device::create(*file, opt)).ok()) std::abort();
    auto dev = sync_wait(qcow2::Qcow2Device::open(std::move(file), oo));
    if (!dev.ok() || !sync_wait((*dev)->close()).ok()) std::abort();
    benchmark::DoNotOptimize(dev->get());
  }
}
BENCHMARK(BM_Qcow2_CreateOpen)->Arg(9)->Arg(12)->Arg(16);

void BM_Qcow2_AllocatingWrite(benchmark::State& state) {
  Rig rig(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::uint8_t> buf(16 * 1024, 0xAB);
  std::uint64_t off = 0;
  for (auto _ : state) {
    auto r = sync_wait(rig.dev->write(off, buf));
    if (!r.ok()) state.SkipWithError("write failed");
    off = (off + buf.size()) % (768 * MiB);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Qcow2_AllocatingWrite)->Arg(9)->Arg(12)->Arg(16);

void BM_Qcow2_WarmRead(benchmark::State& state) {
  Rig rig(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::uint8_t> buf(16 * 1024, 0xAB);
  for (std::uint64_t off = 0; off < 64 * MiB; off += buf.size()) {
    (void)sync_wait(rig.dev->write(off, buf));
  }
  Rng rng{7};
  for (auto _ : state) {
    const std::uint64_t off = 512 * rng.below((64 * MiB - buf.size()) / 512);
    auto r = sync_wait(rig.dev->read(off, buf));
    if (!r.ok()) state.SkipWithError("read failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Qcow2_WarmRead)->Arg(9)->Arg(12)->Arg(16);

void BM_Qcow2_CopyOnRead(benchmark::State& state) {
  // Cold-cache read path: miss -> backing fetch -> CoR store.
  Rig rig(static_cast<std::uint32_t>(state.range(0)), /*with_cache=*/true);
  std::vector<std::uint8_t> buf(16 * 1024);
  std::uint64_t off = 0;
  for (auto _ : state) {
    auto r = sync_wait(rig.dev->read(off, buf));
    if (!r.ok()) state.SkipWithError("read failed");
    off = (off + buf.size()) % (256 * MiB);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Qcow2_CopyOnRead)->Arg(9)->Arg(12)->Arg(16);

void BM_Qcow2_AllocAfterTableGrowthRewind(benchmark::State& state) {
  // Allocator regression case: every refcount-table growth frees the old
  // table (low in the file) and rewinds the first-fit cursor, after which
  // the legacy linear scan re-walked the whole allocated prefix per
  // allocation until the cursor caught up again — O(file size) spikes
  // that worsen as the image fills. The free-run index must keep these
  // sector-sized allocating writes flat across the growth points.
  Rig rig(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::uint8_t> buf(512, 0xCD);
  std::uint64_t off = 0;
  for (auto _ : state) {
    auto r = sync_wait(rig.dev->write(off, buf));
    if (!r.ok()) state.SkipWithError("write failed");
    off += buf.size();
    if (off >= 1 * GiB) off = 0;  // fully allocated from here on
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Qcow2_AllocAfterTableGrowthRewind)->Arg(9)->Arg(12);

void BM_Qcow2_L2LookupOnly(benchmark::State& state) {
  // Pure translation cost: 512 B reads over an allocated region.
  Rig rig(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::uint8_t> big(1 * MiB, 1);
  for (std::uint64_t off = 0; off < 32 * MiB; off += big.size()) {
    (void)sync_wait(rig.dev->write(off, big));
  }
  std::vector<std::uint8_t> sector(512);
  Rng rng{11};
  for (auto _ : state) {
    const std::uint64_t off = 512 * rng.below(32 * MiB / 512 - 1);
    auto r = sync_wait(rig.dev->read(off, sector));
    if (!r.ok()) state.SkipWithError("read failed");
  }
}
BENCHMARK(BM_Qcow2_L2LookupOnly)->Arg(9)->Arg(12)->Arg(16);

/// A sibling-catalog cluster: a 32-byte tile repeated across the cluster
/// with an 8-byte stamp at its start (the cloud engine's content model).
void fill_sibling_tile(std::span<std::uint8_t> out, Rng& rng) {
  std::uint8_t tile[32];
  for (auto& b : tile) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = tile[i % 32];
  const std::uint64_t stamp = rng.next();
  std::memcpy(out.data(), &stamp, std::min<std::size_t>(8, out.size()));
}

/// Mixed content: byte runs, noise, and copies of earlier bytes from
/// within the 4 KiB window.
void fill_mixed(std::span<std::uint8_t> out, Rng& rng) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::size_t run =
        std::min<std::size_t>(1 + rng.below(64), out.size() - i);
    const std::uint64_t shape = i == 0 ? 1 : rng.below(3);
    const std::size_t dist =
        shape == 0 ? 1 : 1 + rng.below(std::min<std::size_t>(i, 4096));
    for (std::size_t k = 0; k < run; ++k) {
      out[i + k] = shape == 1 ? static_cast<std::uint8_t>(rng.next())
                              : out[i + k - dist];
    }
    i += run;
  }
}

/// Codec input for range(0): 0 = 4 KiB sibling tile, 1 = 64 KiB mixed.
std::vector<std::uint8_t> lzss_input(std::int64_t shape) {
  Rng rng{static_cast<std::uint64_t>(shape) + 41};
  std::vector<std::uint8_t> v(shape == 0 ? 4 * KiB : 64 * KiB);
  if (shape == 0) {
    fill_sibling_tile(v, rng);
  } else {
    fill_mixed(v, rng);
  }
  return v;
}

void BM_Lzss_Compress(benchmark::State& state) {
  const auto src = lzss_input(state.range(0));
  std::vector<std::uint8_t> dst(src.size());
  for (auto _ : state) {
    const std::size_t n = lzss_compress(src, dst, src.size() - 512);
    if (n == 0) state.SkipWithError("input did not compress");
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_Lzss_Compress)->Arg(0)->Arg(1);

void BM_Lzss_Decompress(benchmark::State& state) {
  const auto plain = lzss_input(state.range(0));
  std::vector<std::uint8_t> stream(plain.size());
  stream.resize(lzss_compress(plain, stream, plain.size() - 512));
  if (stream.empty()) {
    state.SkipWithError("input did not compress");
    return;
  }
  std::vector<std::uint8_t> out(plain.size());
  for (auto _ : state) {
    const bool ok = lzss_decompress(stream, out);
    if (!ok) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plain.size()));
}
BENCHMARK(BM_Lzss_Decompress)->Arg(0)->Arg(1);

void BM_Qcow2_CompressedRead(benchmark::State& state) {
  // Warm compressed cache (4 KiB clusters of sibling-tile content, all
  // stored compressed), read through the overlay: range(0) = 4096 is the
  // whole-cluster read that decodes into the caller's buffer, 1536 a
  // sub-cluster read that decodes into scratch and copies out.
  constexpr std::uint64_t kImage = 16 * MiB;
  constexpr std::uint64_t kCluster = 4 * KiB;
  io::MemImageStore store;
  {
    auto be = store.create_file("base.img");
    std::vector<std::uint8_t> content(kImage);
    Rng rng{5};
    for (std::uint64_t off = 0; off < kImage; off += kCluster) {
      fill_sibling_tile({content.data() + off, kCluster}, rng);
    }
    (void)sync_wait((*be)->pwrite(0, content));
  }
  block::DevicePtr dev;
  auto setup = [&]() -> sim::Task<Result<void>> {
    VMIC_CO_TRY_VOID(co_await qcow2::create_cache_image(
        store, "c.cache", "base.img", 64 * MiB,
        {.cluster_bits = 12, .virtual_size = kImage}));
    VMIC_CO_TRY_VOID(co_await qcow2::create_cow_image(store, "vm.cow",
                                                      "c.cache"));
    VMIC_CO_TRY(d, co_await qcow2::open_image(store, "vm.cow"));
    dev = std::move(d);
    auto* cache = dynamic_cast<qcow2::Qcow2Device*>(dev->backing());
    if (cache == nullptr) co_return Errc::corrupt;
    co_return cache->set_cor_compress(true);
  };
  bool ok = sync_wait(setup()).ok();
  // Warm every cluster in one read.
  std::vector<std::uint8_t> whole(kImage);
  ok = ok && sync_wait(dev->read(0, whole)).ok();
  if (!ok) {
    state.SkipWithError("setup failed");
    return;
  }
  const auto len = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t in_cluster = len == kCluster ? 0 : 512;
  std::vector<std::uint8_t> buf(len);
  Rng rng{9};
  for (auto _ : state) {
    const std::uint64_t off =
        rng.below(kImage / kCluster) * kCluster + in_cluster;
    auto r = sync_wait(dev->read(off, buf));
    if (!r.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Qcow2_CompressedRead)->Arg(4096)->Arg(1536);

}  // namespace

BENCHMARK_MAIN();
