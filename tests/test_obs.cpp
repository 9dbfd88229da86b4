// vmic::obs unit tests: instrument semantics, registry binding, snapshot
// rendering, and sim-time tracing.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "io/mem_store.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qcow2/chain.hpp"
#include "qcow2/device.hpp"
#include "sim/env.hpp"
#include "sim/run.hpp"
#include "sim/task.hpp"

namespace vmic::obs {
namespace {

// ---------------------------------------------------------------------------
// instruments
// ---------------------------------------------------------------------------

TEST(Counter, Semantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  ++c;
  c += 7;
  EXPECT_EQ(c.value(), 50u);
  // Implicit conversion keeps pre-refactor comparison sites compiling.
  const std::uint64_t v = c;
  EXPECT_EQ(v, 50u);
  EXPECT_TRUE(c == 50u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, Semantics) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(1.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  const double d = g;
  EXPECT_DOUBLE_EQ(d, 9.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketEdgesAreInclusive) {
  Histogram h({1.0, 10.0});
  h.observe(1.0);    // first bucket (<= 1)
  h.observe(1.001);  // second bucket
  h.observe(10.0);   // second bucket (<= 10)
  h.observe(11.0);   // +inf bucket
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 10.0 + 11.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
}

TEST(FmtDouble, ShortestRoundTrip) {
  EXPECT_EQ(fmt_double(0), "0");
  EXPECT_EQ(fmt_double(1), "1");
  EXPECT_EQ(fmt_double(0.1), "0.1");
  EXPECT_EQ(fmt_double(1048576), "1048576");
  // Round-trip exactness on an awkward value.
  const double v = 37.796041396;
  EXPECT_EQ(std::stod(fmt_double(v)), v);
}

TEST(RenderLabels, RendersInGivenOrder) {
  EXPECT_EQ(render_labels({}), "");
  EXPECT_EQ(render_labels({{"node", "c0"}}), "{node=\"c0\"}");
  // Rendering is order-preserving; *registration* normalizes (sorts) —
  // see Registry.LabelOrderIsNormalized.
  EXPECT_EQ(render_labels({{"z", "1"}, {"a", "2"}}), "{z=\"1\",a=\"2\"}");
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(Registry, OwnedCountersDedupByNameAndLabels) {
  Registry r;
  Counter& a = r.counter("x.count", {{"node", "c0"}});
  Counter& b = r.counter("x.count", {{"node", "c0"}});
  Counter& c = r.counter("x.count", {{"node", "c1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(4);
  EXPECT_EQ(r.size(), 2u);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.counter_total("x.count"), 7u);
  const MetricPoint* p = snap.find("x.count", {{"node", "c1"}});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->counter, 4u);
}

TEST(Registry, LabelOrderIsNormalized) {
  Registry r;
  Counter& a = r.counter("y", {{"b", "2"}, {"a", "1"}});
  Counter& b = r.counter("y", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  const auto snap = r.snapshot();
  // find() normalizes too.
  ASSERT_NE(snap.find("y", {{"b", "2"}, {"a", "1"}}), nullptr);
}

TEST(Registry, AttachAndDetach) {
  Registry r;
  Counter mine;
  int owner_token = 0;
  r.attach_counter("z.bytes", {{"node", "c0"}}, &mine, &owner_token);
  mine.inc(123);
  {
    const auto snap = r.snapshot();
    const MetricPoint* p = snap.find("z.bytes", {{"node", "c0"}});
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->counter, 123u);
  }
  r.detach(&owner_token);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.snapshot().find("z.bytes", {{"node", "c0"}}), nullptr);
}

TEST(Registry, GaugeFnEvaluatedAtSnapshotTime) {
  Registry r;
  double live = 1.0;
  int owner = 0;
  r.attach_gauge_fn("occ", {}, [&live] { return live; }, &owner);
  live = 8.0;
  const auto snap = r.snapshot();
  const MetricPoint* p = snap.find("occ");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->gauge, 8.0);
  r.detach(&owner);
}

TEST(Registry, ResetOwnedLeavesAttachedAlone) {
  Registry r;
  Counter attached;
  int owner = 0;
  r.attach_counter("att", {}, &attached, &owner);
  Counter& owned = r.counter("own");
  attached.inc(5);
  owned.inc(5);
  r.reset_owned();
  EXPECT_EQ(attached.value(), 5u);
  EXPECT_EQ(owned.value(), 0u);
  r.detach(&owner);
}

TEST(Snapshot, TextFormatIsSortedAndExact) {
  Registry r;
  r.counter("b.count", {{"node", "c1"}}).inc(2);
  r.counter("b.count", {{"node", "c0"}}).inc(1);
  r.gauge("a.depth", {}).set(1.5);
  const std::string text = r.snapshot().to_text();
  EXPECT_EQ(text,
            "a.depth 1.5\n"
            "b.count{node=\"c0\"} 1\n"
            "b.count{node=\"c1\"} 2\n");
}

TEST(Snapshot, HistogramExpandsPrometheusStyle) {
  Registry r;
  Histogram& h = r.histogram("lat", {{"n", "x"}}, {0.5, 1.0});
  h.observe(0.25);
  h.observe(0.75);
  h.observe(2.0);
  const std::string text = r.snapshot().to_text();
  EXPECT_EQ(text,
            "lat_bucket{n=\"x\",le=\"0.5\"} 1\n"
            "lat_bucket{n=\"x\",le=\"1\"} 2\n"
            "lat_bucket{n=\"x\",le=\"+inf\"} 3\n"
            "lat_sum{n=\"x\"} 3\n"
            "lat_count{n=\"x\"} 3\n");
}

TEST(Snapshot, JsonContainsTypedSeries) {
  Registry r;
  r.counter("c", {{"k", "v"}}).inc(9);
  r.gauge("g", {}).set(2.5);
  const std::string json = r.snapshot().to_json();
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Snapshot, DeterministicAcrossRenders) {
  Registry r;
  r.counter("m", {{"node", "c3"}}).inc(3);
  r.counter("m", {{"node", "c10"}}).inc(10);
  r.gauge("q").set(0.125);
  const auto s1 = r.snapshot();
  const auto s2 = r.snapshot();
  EXPECT_EQ(s1.to_text(), s2.to_text());
  EXPECT_EQ(s1.to_json(), s2.to_json());
}

// The order contract: metric name first, then the *rendered* label string
// (so `,` sorts before `}` and "c10" before "c9"), then registration order.
TEST(Snapshot, OrderIsNameThenRenderedLabelString) {
  Registry r;
  r.counter("x", {{"node", "c9"}}).inc(1);
  r.counter("x.y").inc(2);
  r.counter("x", {{"k", "a"}}).inc(3);
  r.counter("x", {{"node", "c10"}}).inc(4);
  r.counter("x", {{"z", "1"}, {"k", "a"}}).inc(5);
  r.counter("x").inc(6);
  EXPECT_EQ(r.snapshot().to_text(),
            "x 6\n"
            "x{k=\"a\",z=\"1\"} 5\n"
            "x{k=\"a\"} 3\n"
            "x{node=\"c10\"} 4\n"
            "x{node=\"c9\"} 1\n"
            "x.y 2\n");
}

TEST(Registry, DuplicateSeriesKeepRegistrationOrder) {
  Registry r;
  Counter a, b, c;
  a.inc(1);
  b.inc(2);
  c.inc(3);
  int oa = 0, ob = 0, oc = 0;
  r.attach_counter("dup", {{"n", "1"}}, &a, &oa);
  r.counter("dup", {{"n", "0"}}).inc(9);
  r.attach_counter("dup", {{"n", "1"}}, &b, &ob);
  r.attach_counter("dup", {{"n", "1"}}, &c, &oc);
  EXPECT_EQ(r.snapshot().to_text(),
            "dup{n=\"0\"} 9\n"
            "dup{n=\"1\"} 1\n"
            "dup{n=\"1\"} 2\n"
            "dup{n=\"1\"} 3\n");
  r.detach(&oa);
  EXPECT_EQ(r.snapshot().to_text(),
            "dup{n=\"0\"} 9\n"
            "dup{n=\"1\"} 2\n"
            "dup{n=\"1\"} 3\n");
  // Re-attaching registers anew: the series now ties last.
  r.attach_counter("dup", {{"n", "1"}}, &a, &oa);
  EXPECT_EQ(r.snapshot().to_text(),
            "dup{n=\"0\"} 9\n"
            "dup{n=\"1\"} 2\n"
            "dup{n=\"1\"} 3\n"
            "dup{n=\"1\"} 1\n");
  r.detach(&oa);
  r.detach(&ob);
  r.detach(&oc);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, OwnedCounterAndGaugeOnOneSeriesStayDistinct) {
  Registry r;
  Counter& c = r.counter("same", {{"n", "1"}});
  Gauge& g = r.gauge("same", {{"n", "1"}});
  EXPECT_EQ(&r.counter("same", {{"n", "1"}}), &c);
  EXPECT_EQ(&r.gauge("same", {{"n", "1"}}), &g);
  EXPECT_EQ(r.size(), 2u);
  c.inc(3);
  g.set(2.5);
  EXPECT_EQ(r.snapshot().to_text(),
            "same{n=\"1\"} 3\n"
            "same{n=\"1\"} 2.5\n");
}

// The snapshot order as first specified: every point built, then
// stable-sorted with both label sets rendered inside the comparator. The
// registry's own sort must match it byte for byte.
MetricsSnapshot reference_snapshot(std::vector<MetricPoint> points) {
  std::stable_sort(points.begin(), points.end(),
                   [](const MetricPoint& a, const MetricPoint& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return render_labels(a.labels) < render_labels(b.labels);
                   });
  return MetricsSnapshot{std::move(points)};
}

// A 2,500-node cloud's registry shape: 26 attached counters per node,
// series shared across nodes, owned aggregates deduplicated on every
// attach, and a third of the nodes torn down and some re-attached.
TEST(Registry, FleetScaleSnapshotMatchesReference) {
  constexpr int kOwners = 2500;
  constexpr int kPerOwner = 26;
  const std::vector<std::string> names = {
      "qcow2.bytes_read", "nfs.server.bytes_tx", "net.link.bytes",
      "cache.pool.evictions", "disk.reads", "disk.bytes_read",
      "page_cache.hits", "page_cache.misses", "net.link.transfers",
      "cache.pool.admits", "qcow2.cor_fills", "node.slots"};

  // What the test registered, in registration order.
  struct Row {
    MetricPoint point;  // name, normalized labels, kind
    const Counter* c = nullptr;
    const Gauge* g = nullptr;
    bool live = true;
  };
  std::vector<Row> rows;
  std::vector<std::vector<std::size_t>> rows_of(kOwners);
  std::vector<Counter> counters(static_cast<std::size_t>(kOwners) * kPerOwner);
  std::vector<int> tokens(kOwners);
  Registry r;

  auto add_row = [&](std::string name, Labels labels, Kind kind,
                     const Counter* c, const Gauge* g) {
    Row row;
    row.point.name = std::move(name);
    row.point.labels = std::move(labels);
    row.point.kind = kind;
    row.c = c;
    row.g = g;
    rows.push_back(std::move(row));
  };
  auto attach_owner = [&](int i) {
    const std::string node = "c" + std::to_string(i);
    for (int k = 0; k < kPerOwner; ++k) {
      Counter& c = counters[static_cast<std::size_t>(i) * kPerOwner + k];
      c.reset();
      c.inc(static_cast<std::uint64_t>(i) * 131 + k);
      std::string name;
      Labels labels;
      if (k == kPerOwner - 1) {
        // One series shared by every seventh node: registration-order ties.
        name = "fleet.shared";
        labels = {{"group", "g" + std::to_string(i % 7)}};
      } else {
        name = names[static_cast<std::size_t>(k) % names.size()];
        labels = {{"node", node}};
        if (k >= static_cast<int>(names.size())) {
          labels = {{"dir", k % 2 ? "rx" : "tx"}, {"node", node}};
        }
      }
      // Register the labels reversed: the registry normalizes them.
      r.attach_counter(name, Labels(labels.rbegin(), labels.rend()), &c,
                       &tokens[i]);
      rows_of[i].push_back(rows.size());
      add_row(name, labels, Kind::counter, &c, nullptr);
    }
    const bool cache = i % 2 != 0;
    const Labels agg{{"image", cache ? "cache" : "plain"}};
    std::size_t before = r.size();
    Counter& total = r.counter("fleet.agg", agg);
    total.inc(static_cast<std::uint64_t>(i));
    if (r.size() != before) add_row("fleet.agg", agg, Kind::counter, &total, {});
    if (cache) {
      // Same name and labels as an owned counter, but a gauge.
      before = r.size();
      Gauge& peak = r.gauge("fleet.agg", agg);
      peak.set_max(static_cast<double>(i) / 4);
      if (r.size() != before) add_row("fleet.agg", agg, Kind::gauge, {}, &peak);
    }
  };
  auto detach_owner = [&](int i) {
    r.detach(&tokens[i]);
    for (const std::size_t row : rows_of[i]) rows[row].live = false;
    rows_of[i].clear();
  };

  for (int i = 0; i < kOwners; ++i) attach_owner(i);
  for (int i = 0; i < kOwners; i += 3) detach_owner(i);
  for (int i = 0; i < 300; i += 6) attach_owner(i);

  std::vector<MetricPoint> points;
  for (const Row& row : rows) {
    if (!row.live) continue;
    MetricPoint p = row.point;
    if (p.kind == Kind::counter) p.counter = row.c->value();
    else p.gauge = row.g->value();
    points.push_back(std::move(p));
  }
  ASSERT_EQ(r.size(), points.size());
  ASSERT_GT(points.size(), 40000u);
  const MetricsSnapshot ref = reference_snapshot(std::move(points));
  const MetricsSnapshot got = r.snapshot();
  EXPECT_EQ(got.to_text(), ref.to_text());
  EXPECT_EQ(got.to_json(), ref.to_json());
}

// ---------------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------------

sim::Task<void> traced_work(sim::SimEnv& env, Tracer& t) {
  const std::uint32_t outer_track = t.track("outer");
  const std::uint32_t inner_track = t.track("inner");
  Span outer = t.span(outer_track, "outer.op", "test");
  co_await env.delay(1000);
  {
    Span inner = t.span(inner_track, "inner.op", "test", "\"bytes\":42");
    co_await env.delay(500);
  }  // inner records here
  co_await env.delay(250);
  outer.end();
  t.instant(outer_track, "marker", "test");
}

TEST(Tracer, SpanNestingAndOrdering) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  sim::run_sync(env, traced_work(env, t));

  ASSERT_EQ(t.size(), 3u);
  // Spans record at end time: inner (ends t=1500) before outer (t=1750).
  const TraceEvent& inner = t.events()[0];
  const TraceEvent& outer = t.events()[1];
  const TraceEvent& marker = t.events()[2];
  EXPECT_EQ(inner.name, "inner.op");
  EXPECT_EQ(inner.start, 1000);
  EXPECT_EQ(inner.end, 1500);
  EXPECT_EQ(inner.args, "\"bytes\":42");
  EXPECT_EQ(outer.name, "outer.op");
  EXPECT_EQ(outer.start, 0);
  EXPECT_EQ(outer.end, 1750);
  // Nesting: outer strictly contains inner.
  EXPECT_LE(outer.start, inner.start);
  EXPECT_GE(outer.end, inner.end);
  EXPECT_EQ(marker.name, "marker");
  EXPECT_EQ(marker.start, marker.end);

  // Track ids are deterministic and deduplicated.
  EXPECT_EQ(t.track("outer"), outer.track);
  EXPECT_EQ(t.track("inner"), inner.track);
  EXPECT_NE(outer.track, inner.track);
}

TEST(Tracer, DisabledRecordsNothing) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);  // enabled_ stays false
  sim::run_sync(env, traced_work(env, t));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, ChromeJsonShape) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  sim::run_sync(env, traced_work(env, t));
  const std::string json = t.to_chrome_json();
  // Sorted by start: outer (ts 0) precedes inner (ts 1).
  const auto outer_pos = json.find("\"name\":\"outer.op\"");
  const auto inner_pos = json.find("\"name\":\"inner.op\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  // Thread-name metadata for both tracks.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  // Complete events carry microsecond durations (1500-1000 ns = 0.500 us).
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);
}

// Track ids are exported as Chrome thread ids, so they must stay dense and
// in first-use order however many tracks a cloud creates.
TEST(Tracer, TrackIdsAreDenseInFirstUseOrderAtScale) {
  constexpr std::uint32_t kTracks = 20000;
  // A permutation of the names: first-use order is not name order.
  auto name_of = [](std::uint32_t i) {
    return "vm/" + std::to_string(i * 7919u % kTracks);
  };
  Tracer t;
  for (std::uint32_t i = 0; i < kTracks; ++i) {
    ASSERT_EQ(t.track(name_of(i)), i);
  }
  for (std::uint32_t i = kTracks; i-- > 0;) {
    ASSERT_EQ(t.track(name_of(i)), i);
  }
  std::string want = "{\"traceEvents\":[";
  for (std::uint32_t i = 0; i < kTracks; ++i) {
    if (i != 0) want += ',';
    want += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(i) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name_of(i) +
            "\"}}";
  }
  want += "]}";
  EXPECT_EQ(t.to_chrome_json(), want);
}

TEST(Hub, TracingHelperIsNullSafe) {
  EXPECT_FALSE(tracing(nullptr));
  Hub h;
  EXPECT_FALSE(tracing(&h));
  h.tracer.set_enabled(true);
  EXPECT_TRUE(tracing(&h));
}

TEST(Hub, MovedFromSpanIsInert) {
  sim::SimEnv env;
  Tracer t;
  t.bind(&env);
  t.set_enabled(true);
  {
    Span a = t.span(t.track("x"), "op", "test");
    Span b = std::move(a);
    a.end();  // moved-from: no record
    b.end();
    b.end();  // second end: no double record
  }
  EXPECT_EQ(t.size(), 1u);
}

TEST(Hub, MemoIsOnePerTypeAndDiesWithItsHub) {
  struct Tally {
    int v = 0;
  };
  struct Witness {
    bool* destroyed = nullptr;
    ~Witness() {
      if (destroyed != nullptr) *destroyed = true;
    }
  };
  bool destroyed = false;
  {
    Hub a;
    Hub b;
    a.memo<Tally>().v = 1;
    b.memo<Tally>().v = 2;
    EXPECT_EQ(&a.memo<Tally>(), &a.memo<Tally>());
    EXPECT_EQ(a.memo<Tally>().v, 1);
    EXPECT_EQ(b.memo<Tally>().v, 2);
    a.memo<Witness>().destroyed = &destroyed;
    EXPECT_EQ(a.memo<Tally>().v, 1);  // a second type leaves the first
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

// qcow2 devices resolve their aggregate series and trace track once per
// hub and image kind. What a hub holds must not depend on that: the first
// device of each kind registers everything, later devices add nothing, a
// fresh hub registers the same again, and reset_owned() keeps counting.

/// Open a plain image and a cache image `rounds` times each on `hub`,
/// reading 4 KiB through every device. Returns the registry size after
/// each open.
std::vector<std::size_t> open_devices(Hub& hub, int rounds) {
  using sim::sync_wait;
  io::MemImageStore store;
  {
    auto be = store.create_file("base.img");
    EXPECT_TRUE(be.ok());
    const std::vector<std::uint8_t> data(1 << 20, 0x5A);
    EXPECT_TRUE(sync_wait((*be)->pwrite(0, data)).ok());
    auto plain = store.create_file("plain.qcow2");
    EXPECT_TRUE(plain.ok());
    qcow2::Qcow2Device::CreateOptions opt;
    opt.virtual_size = 1 << 20;
    EXPECT_TRUE(sync_wait(qcow2::Qcow2Device::create(**plain, opt)).ok());
    EXPECT_TRUE(sync_wait(qcow2::create_cache_image(store, "vmi.cache",
                                                    "base.img", 8 << 20))
                    .ok());
  }
  std::vector<std::size_t> sizes;
  std::vector<std::uint8_t> buf(4096);
  for (int i = 0; i < rounds; ++i) {
    for (const char* name : {"plain.qcow2", "vmi.cache"}) {
      auto dev = sync_wait(qcow2::open_image(store, name, /*writable=*/true,
                                             /*cache_backing_ro=*/false,
                                             &hub));
      EXPECT_TRUE(dev.ok());
      if (!dev.ok()) return sizes;
      sizes.push_back(hub.registry.size());
      EXPECT_TRUE(sync_wait((*dev)->read(4096u * i, buf)).ok());
      EXPECT_TRUE(sync_wait((*dev)->close()).ok());
    }
  }
  return sizes;
}

TEST(Hub, Qcow2DevicesResolveTheirSeriesOncePerHub) {
  constexpr int kRounds = 50;
  Hub a;
  const auto sizes = open_devices(a, kRounds);
  ASSERT_EQ(sizes.size(), 2u * kRounds);
  ASSERT_GT(sizes[0], 0u);        // the first plain device registered
  ASSERT_GT(sizes[1], sizes[0]);  // the first cache device registered
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[1]) << "open " << i << " registered a series";
  }
  const MetricsSnapshot snap = a.registry.snapshot();
  const MetricPoint* plain =
      snap.find("qcow2.guest_reads", {{"image", "plain"}});
  const MetricPoint* cache =
      snap.find("qcow2.guest_reads", {{"image", "cache"}});
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(plain->counter, std::uint64_t{kRounds});
  EXPECT_EQ(cache->counter, std::uint64_t{kRounds});

  // A fresh hub starts from nothing and ends with the same series, the
  // same values and the same trace tracks.
  Hub b;
  EXPECT_EQ(open_devices(b, kRounds), sizes);
  EXPECT_EQ(b.registry.snapshot().to_text(), snap.to_text());
  EXPECT_EQ(b.tracer.to_chrome_json(), a.tracer.to_chrome_json());

  // Zeroed owned counters stay the ones later devices count into.
  a.registry.reset_owned();
  const auto again = open_devices(a, 3);
  EXPECT_EQ(again, std::vector<std::size_t>(6, sizes[1]));
  const MetricsSnapshot after = a.registry.snapshot();
  EXPECT_EQ(after.find("qcow2.guest_reads", {{"image", "plain"}})->counter,
            3u);
  EXPECT_EQ(after.find("qcow2.guest_reads", {{"image", "cache"}})->counter,
            3u);
}

}  // namespace
}  // namespace vmic::obs
