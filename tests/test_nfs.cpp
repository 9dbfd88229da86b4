// Tests for the simulated NFS layer: correctness of remote reads/writes,
// rwsize chunking, fetch-quantum rounding, traffic accounting, and a
// full chain opened over NFS (base on the storage node, CoW local) —
// the paper's Fig 1 configuration.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "io/mount_table.hpp"
#include "nfs/nfs.hpp"
#include "qcow2/chain.hpp"
#include "sim/run.hpp"
#include "storage/cached_medium.hpp"
#include "storage/disk.hpp"
#include "storage/sim_directory.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace vmic::nfs {
namespace {

using sim::SimEnv;
using sim::Task;
using storage::MemMedium;
using storage::RotationalDisk;
using storage::SimDirectory;
using vmic::literals::operator""_KiB;
using vmic::literals::operator""_MiB;
using vmic::literals::operator""_GiB;

std::vector<std::uint8_t> pattern_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  Rng rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

struct Rig {
  SimEnv env;
  MemMedium mem{env};
  SimDirectory server_dir{mem};
  net::Network net{env, net::gigabit_ethernet()};
  NfsServer server{env, NfsParams{}};
  NfsMount mount{server, net, "base"};

  Rig() { server.add_export("base", &server_dir); }
};

TEST(Nfs, RemoteReadReturnsServerBytes) {
  Rig rig;
  const auto data = pattern_bytes(1, 1_MiB);
  {
    auto be = rig.server_dir.create_file("f.img");
    ASSERT_TRUE(be.ok());
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->pwrite(0, data);
    }());
  }
  auto client = rig.mount.open_file("f.img", false);
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> out(300000);
  const bool ok = sim::run_sync(rig.env, [&]() -> Task<bool> {
    co_return (co_await (*client)->pread(123456, out)).ok();
  }());
  EXPECT_TRUE(ok);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data() + 123456, out.size()));
}

TEST(Nfs, ReadChunkedAtRwsize) {
  Rig rig;
  {
    auto be = rig.server_dir.create_file("f.img");
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->truncate(10_MiB);
    }());
  }
  auto client = rig.mount.open_file("f.img", false);
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> out(1_MiB);
  sim::run_sync(rig.env, [&]() -> Task<void> {
    (void)co_await (*client)->pread(0, out);
  }());
  // 1 MiB at 64 KiB rwsize = 16 READ RPCs.
  EXPECT_EQ(rig.server.stats().read_rpcs, 16u);
  EXPECT_EQ(rig.server.stats().tx_payload_bytes, 1_MiB);
}

TEST(Nfs, SmallReadRoundedToFetchQuantum) {
  Rig rig;
  {
    auto be = rig.server_dir.create_file("f.img");
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->truncate(1_MiB);
    }());
  }
  auto client = rig.mount.open_file("f.img", false);
  std::vector<std::uint8_t> out(512);
  sim::run_sync(rig.env, [&]() -> Task<void> {
    (void)co_await (*client)->pread(10000, out);  // straddles one 4K page
  }());
  EXPECT_EQ(rig.server.stats().read_rpcs, 1u);
  EXPECT_EQ(rig.server.stats().tx_payload_bytes, 4096u);
}

// A READ whose fetch window is exactly the requested chunk lands straight
// in the caller's buffer; any other goes through a window buffer. Both
// return the server's bytes and bill the same RPCs and payload as ever.
TEST(Nfs, DirectAndWindowedReadsReturnServerBytes) {
  Rig rig;
  const auto data = pattern_bytes(3, 1_MiB);
  {
    auto be = rig.server_dir.create_file("f.img");
    ASSERT_TRUE(be.ok());
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->pwrite(0, data);
    }());
  }
  auto client = rig.mount.open_file("f.img", false);
  ASSERT_TRUE(client.ok());
  struct Billed {
    std::uint64_t rpcs, payload;
  };
  auto read = [&](std::uint64_t off, std::size_t n) {
    const auto& st = rig.server.stats();
    const Billed before{st.read_rpcs, st.tx_payload_bytes};
    std::vector<std::uint8_t> out(n, 0xEE);
    const bool ok = sim::run_sync(rig.env, [&]() -> Task<bool> {
      co_return (co_await (*client)->pread(off, out)).ok();
    }());
    EXPECT_TRUE(ok);
    EXPECT_EQ(0, std::memcmp(out.data(), data.data() + off, n))
        << "read at " << off;
    return Billed{st.read_rpcs - before.rpcs,
                  st.tx_payload_bytes - before.payload};
  };

  // Page-aligned at both ends: two whole 64 KiB windows, both direct.
  Billed b = read(64_KiB, 128_KiB);
  EXPECT_EQ(b.rpcs, 2u);
  EXPECT_EQ(b.payload, 128_KiB);
  // Unaligned at both ends: the first window runs from the page below the
  // offset to the chunk's end, the second covers whole pages.
  b = read(10000, 70000);
  EXPECT_EQ(b.rpcs, 2u);
  EXPECT_EQ(b.payload, (75536u - 8192u) + (81920u - 73728u));
  // Aligned start with a short ragged tail: direct, then windowed.
  b = read(4_KiB, 64_KiB + 100);
  EXPECT_EQ(b.rpcs, 2u);
  EXPECT_EQ(b.payload, 64_KiB + 4_KiB);
  // A sub-page read inside one page.
  b = read(200_KiB + 300, 512);
  EXPECT_EQ(b.rpcs, 1u);
  EXPECT_EQ(b.payload, 4_KiB);
}

TEST(Nfs, WriteGoesToServer) {
  Rig rig;
  auto client = rig.mount.create_file("new.img");
  ASSERT_TRUE(client.ok());
  const auto data = pattern_bytes(3, 200000);
  sim::run_sync(rig.env, [&]() -> Task<void> {
    (void)co_await (*client)->pwrite(5000, data);
    (void)co_await (*client)->flush();
  }());
  EXPECT_EQ(rig.server.stats().rx_payload_bytes, 200000u);
  std::vector<std::uint8_t> out(200000);
  (*rig.server_dir.buffer("new.img"))->read(5000, out);
  EXPECT_EQ(data, out);
}

TEST(Nfs, ReadOnlyMountRejectsWrites) {
  Rig rig;
  {
    auto be = rig.server_dir.create_file("f.img");
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->truncate(1_MiB);
    }());
  }
  auto client = rig.mount.open_file("f.img", /*writable=*/false);
  std::vector<std::uint8_t> data(100, 1);
  const auto err = sim::run_sync(rig.env, [&]() -> Task<Errc> {
    co_return (co_await (*client)->pwrite(0, data)).error();
  }());
  EXPECT_EQ(err, Errc::read_only);
}

TEST(Nfs, SequentialThroughputNearWireSpeed) {
  Rig rig;
  {
    auto be = rig.server_dir.create_file("f.img");
    sim::run_sync(rig.env, [&]() -> Task<void> {
      (void)co_await (*be)->truncate(64_MiB);
    }());
  }
  auto client = rig.mount.open_file("f.img", false);
  std::vector<std::uint8_t> buf(16_MiB);
  const sim::SimTime t0 = rig.env.now();
  sim::run_sync(rig.env, [&]() -> Task<void> {
    (void)co_await (*client)->pread(0, buf);
  }());
  const double secs = sim::to_seconds(rig.env.now() - t0);
  const double mbps = 16.0 * 1024 * 1024 / secs / 1e6;
  // One stream of 64 KiB RPCs with per-RPC latency: below wire speed but
  // the right order (>= 80 MB/s on 1 GbE).
  EXPECT_GT(mbps, 80.0);
  EXPECT_LT(mbps, 125.0);
}

// ---------------------------------------------------------------------------
// Full chain over NFS: base exported by the storage node, CoW local —
// the paper's baseline deployment (Fig 1).
// ---------------------------------------------------------------------------

TEST(Nfs, Qcow2ChainOverNfs) {
  SimEnv env;
  // Storage node: disk + page cache holding the base image.
  RotationalDisk disk{env};
  storage::CachedMedium cached{env, disk, 20_GiB};
  SimDirectory storage_dir{cached};
  net::Network net{env, net::gigabit_ethernet()};
  NfsServer server{env, NfsParams{}};
  server.add_export("base", &storage_dir);

  // Compute node: local disk for the CoW image, NFS mount for the base.
  RotationalDisk local_disk{env};
  SimDirectory local_dir{local_disk};
  NfsMount base_mount{server, net, "base"};
  io::MountTable fs;
  fs.mount("local", &local_dir);
  fs.mount("nfs-base", &base_mount);

  // Put a patterned raw base image on the storage node (host-side setup).
  const auto base = pattern_bytes(9, 4_MiB);
  {
    auto be = storage_dir.create_file("centos.img");
    sim::run_sync(env, [&]() -> Task<void> {
      (void)co_await (*be)->pwrite(0, base);
    }());
  }

  const bool ok = sim::run_sync(env, [&]() -> Task<bool> {
    auto r = co_await qcow2::create_cow_image(fs, "local/vm.cow",
                                              "nfs-base/centos.img");
    if (!r.ok()) co_return false;
    auto dev = co_await qcow2::open_image(fs, "local/vm.cow");
    if (!dev.ok()) co_return false;

    // Read through the chain: must match the remote base bytes.
    std::vector<std::uint8_t> out(300000);
    if (!(co_await (*dev)->read(1_MiB, out)).ok()) co_return false;
    if (std::memcmp(out.data(), base.data() + 1_MiB, out.size()) != 0) {
      co_return false;
    }
    // Writes stay local (CoW).
    std::vector<std::uint8_t> data(100000, 0xEE);
    if (!(co_await (*dev)->write(2_MiB, data)).ok()) co_return false;
    if (!(co_await (*dev)->close()).ok()) co_return false;
    co_return true;
  }());
  EXPECT_TRUE(ok);
  EXPECT_GT(server.stats().read_rpcs, 0u);
  EXPECT_EQ(server.stats().rx_payload_bytes, 0u);  // no writes to the base
  EXPECT_GT(env.now(), 0);
  // Base digest unchanged on the server.
  std::vector<std::uint8_t> now(4_MiB);
  (*storage_dir.buffer("centos.img"))->read(0, now);
  EXPECT_EQ(0, std::memcmp(now.data(), base.data(), base.size()));
}

}  // namespace
}  // namespace vmic::nfs
