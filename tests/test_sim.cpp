// Unit tests for the discrete-event engine: scheduling order, coroutine
// task composition, synchronisation primitives, determinism — plus the
// differential and property suites that pin the calendar-queue scheduler
// to the reference semantics (the contract every golden pin depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/env.hpp"
#include "sim/run.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vmic::sim {
namespace {

TEST(SimEnv, StartsAtZero) {
  SimEnv env;
  EXPECT_EQ(env.now(), 0);
  EXPECT_EQ(env.pending_events(), 0u);
}

TEST(SimEnv, CallbacksRunInTimeOrder) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(30, [&] { order.push_back(3); });
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(20, [&] { order.push_back(2); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now(), 30);
}

TEST(SimEnv, TiesBreakByInsertionOrder) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(10, [&] { order.push_back(2); });
  env.call_at(10, [&] { order.push_back(3); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEnv, CancelledTimerDoesNotFire) {
  SimEnv env;
  bool fired = false;
  auto id = env.call_at(10, [&] { fired = true; });
  env.cancel(id);
  env.run();
  EXPECT_FALSE(fired);
}

TEST(SimEnv, RunUntilStopsAtDeadline) {
  SimEnv env;
  std::vector<int> order;
  env.call_at(10, [&] { order.push_back(1); });
  env.call_at(20, [&] { order.push_back(2); });
  env.call_at(30, [&] { order.push_back(3); });
  EXPECT_FALSE(env.run_until(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(env.now(), 20);
  EXPECT_TRUE(env.run_until(100));
  EXPECT_EQ(order.size(), 3u);
}

Task<int> return_42() { co_return 42; }

TEST(Task, RunSyncReturnsValue) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, return_42()), 42);
}

Task<int> add_after_delay(SimEnv& env, int a, int b) {
  co_await env.delay(100);
  co_return a + b;
}

TEST(Task, DelayAdvancesClock) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, add_after_delay(env, 2, 3)), 5);
  EXPECT_EQ(env.now(), 100);
}

Task<int> nested(SimEnv& env) {
  const int x = co_await add_after_delay(env, 1, 2);
  const int y = co_await add_after_delay(env, x, 10);
  co_return y;
}

TEST(Task, NestedAwaitsCompose) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, nested(env)), 13);
  EXPECT_EQ(env.now(), 200);
}

TEST(Task, SyncWaitOnImmediateTask) {
  // Host paths (no simulated time) can run without an environment.
  EXPECT_EQ(sync_wait(return_42()), 42);
}

Task<int> one_more(int x) { co_return x + 1; }

Task<int> count_inline(int n) {
  int x = 0;
  for (int i = 0; i < n; ++i) x = co_await one_more(x);
  co_return x;
}

TEST(Task, MillionInlineAwaitsRunInBoundedStack) {
  // Each await completes without suspending. Were each one to nest a
  // frame (symmetric transfer without a tail call), a million of them
  // would overflow an 8 MiB stack under the sanitizers or at -O0.
  EXPECT_EQ(sync_wait(count_inline(1'000'000)), 1'000'000);
  SimEnv env;
  EXPECT_EQ(run_sync(env, count_inline(1'000'000)), 1'000'000);
}

Task<int> delayed_sum(SimEnv& env, int n) {
  // Mixes inline completions with real suspensions in one loop.
  int x = 0;
  for (int i = 0; i < n; ++i) {
    x = co_await one_more(x);
    if (i % 1000 == 0) x = co_await add_after_delay(env, x, 0);
  }
  co_return x;
}

TEST(Task, InlineAndSuspendingAwaitsInterleave) {
  SimEnv env;
  EXPECT_EQ(run_sync(env, delayed_sum(env, 100'000)), 100'000);
  EXPECT_EQ(env.now(), 100 * 100);
}

Task<void> append_after(SimEnv& env, std::vector<int>& log, SimTime t, int v) {
  co_await env.delay(t);
  log.push_back(v);
}

TEST(SimEnv, SpawnedTasksInterleaveDeterministically) {
  SimEnv env;
  std::vector<int> log;
  env.spawn(append_after(env, log, 30, 1));
  env.spawn(append_after(env, log, 10, 2));
  env.spawn(append_after(env, log, 20, 3));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(env.live_tasks(), 0u);
}

TEST(SimEnv, LiveTaskAccounting) {
  SimEnv env;
  std::vector<int> log;
  env.spawn(append_after(env, log, 10, 1));
  env.spawn(append_after(env, log, 20, 2));
  EXPECT_EQ(env.live_tasks(), 2u);
  env.run();
  EXPECT_EQ(env.live_tasks(), 0u);
}

// --------------------------------------------------------------------------
// Event
// --------------------------------------------------------------------------

Task<void> wait_and_log(SimEnv& env, Event& ev, std::vector<int>& log, int id) {
  (void)env;
  co_await ev.wait();
  log.push_back(id);
}

Task<void> trigger_at(SimEnv& env, Event& ev, SimTime t) {
  co_await env.delay(t);
  ev.trigger();
}

TEST(Event, BroadcastWakesAllWaitersFifo) {
  SimEnv env;
  Event ev{env};
  std::vector<int> log;
  env.spawn(wait_and_log(env, ev, log, 1));
  env.spawn(wait_and_log(env, ev, log, 2));
  env.spawn(wait_and_log(env, ev, log, 3));
  env.spawn(trigger_at(env, ev, 50));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now(), 50);
}

TEST(Event, WaitAfterTriggerCompletesImmediately) {
  SimEnv env;
  Event ev{env};
  ev.trigger();
  std::vector<int> log;
  env.spawn(wait_and_log(env, ev, log, 7));
  env.run();
  EXPECT_EQ(log, (std::vector<int>{7}));
  EXPECT_EQ(env.now(), 0);
}

// --------------------------------------------------------------------------
// Mutex
// --------------------------------------------------------------------------

Task<void> critical(SimEnv& env, Mutex& m, std::vector<int>& log, int id,
                    SimTime hold) {
  auto guard = co_await m.lock();
  log.push_back(id);
  co_await env.delay(hold);
  log.push_back(-id);
}

TEST(Mutex, SerializesInFifoOrder) {
  SimEnv env;
  Mutex m{env};
  std::vector<int> log;
  env.spawn(critical(env, m, log, 1, 100));
  env.spawn(critical(env, m, log, 2, 100));
  env.spawn(critical(env, m, log, 3, 100));
  env.run();
  // No interleaving inside critical sections, FIFO hand-off.
  EXPECT_EQ(log, (std::vector<int>{1, -1, 2, -2, 3, -3}));
  EXPECT_EQ(env.now(), 300);
  EXPECT_FALSE(m.locked());
}

// --------------------------------------------------------------------------
// Semaphore
// --------------------------------------------------------------------------

Task<void> sem_user(SimEnv& env, Semaphore& s, int& active, int& peak,
                    SimTime hold) {
  co_await s.acquire();
  ++active;
  peak = std::max(peak, active);
  co_await env.delay(hold);
  --active;
  s.release();
}

TEST(Semaphore, LimitsConcurrency) {
  SimEnv env;
  Semaphore s{env, 2};
  int active = 0, peak = 0;
  for (int i = 0; i < 6; ++i) env.spawn(sem_user(env, s, active, peak, 100));
  env.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 holders, 2 at a time, 100 each => 300 total.
  EXPECT_EQ(env.now(), 300);
  EXPECT_EQ(s.available(), 2u);
}

// --------------------------------------------------------------------------
// RangeLock
// --------------------------------------------------------------------------

Task<void> range_user(SimEnv& env, RangeLock& rl, std::uint64_t lo,
                      std::uint64_t hi, SimTime hold, std::vector<SimTime>& done,
                      std::size_t id, std::vector<bool>& waited) {
  auto guard = co_await rl.acquire(lo, hi);
  waited[id] = guard.waited();
  co_await env.delay(hold);
  done[id] = env.now();
}

TEST(RangeLock, DisjointRangesProceedInParallel) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(4, 0);
  std::vector<bool> waited(4, true);
  for (std::size_t i = 0; i < 4; ++i)
    env.spawn(range_user(env, rl, i * 10, i * 10 + 10, 100, done, i, waited));
  env.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i], 100) << "user " << i;
    EXPECT_FALSE(waited[i]) << "user " << i;
  }
  EXPECT_EQ(rl.held_count(), 0u);
  EXPECT_EQ(rl.waiting_count(), 0u);
}

TEST(RangeLock, OverlappingAcquisitionsSerializeFifo) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(3, 0);
  std::vector<bool> waited(3, false);
  env.spawn(range_user(env, rl, 0, 10, 100, done, 0, waited));
  env.spawn(range_user(env, rl, 5, 15, 100, done, 1, waited));
  env.spawn(range_user(env, rl, 8, 9, 100, done, 2, waited));
  std::size_t held_mid = 0, waiting_mid = 0;
  env.call_at(10, [&] {
    held_mid = rl.held_count();
    waiting_mid = rl.waiting_count();
  });
  env.run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_FALSE(waited[0]);
  EXPECT_TRUE(waited[1]);
  EXPECT_TRUE(waited[2]);
  EXPECT_EQ(held_mid, 1u);
  EXPECT_EQ(waiting_mid, 2u);
}

TEST(RangeLock, WaiterNeedsAllOverlapsClear) {
  SimEnv env;
  RangeLock rl;
  std::vector<SimTime> done(3, 0);
  std::vector<bool> waited(3, false);
  env.spawn(range_user(env, rl, 0, 10, 50, done, 0, waited));    // A
  env.spawn(range_user(env, rl, 10, 20, 150, done, 1, waited));  // B
  env.spawn(range_user(env, rl, 5, 15, 10, done, 2, waited));    // C
  env.run();
  // C overlaps both A (done at 50) and B (done at 150); it can only start
  // once the later of the two releases.
  EXPECT_EQ(done[0], 50);
  EXPECT_EQ(done[1], 150);
  EXPECT_EQ(done[2], 160);
  EXPECT_TRUE(waited[2]);
  EXPECT_EQ(rl.held_count(), 0u);
}

// --------------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------------

Task<void> busy_worker(SimEnv& env, Mutex& m, std::vector<SimTime>& stamps,
                       int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await m.lock();
    co_await env.delay(7);
    stamps.push_back(env.now());
  }
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    SimEnv env;
    Mutex m{env};
    std::vector<SimTime> stamps;
    for (int w = 0; w < 5; ++w) env.spawn(busy_worker(env, m, stamps, 10));
    env.run();
    return stamps;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 50u);
}

TEST(Time, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_millis(2.0), 2'000'000);
  EXPECT_EQ(from_micros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
}

// --------------------------------------------------------------------------
// Differential scheduler suite
//
// A minimal reference scheduler (plain vector, min by (time, seq), lazy
// dead flags — the semantics, with none of the production machinery) and
// the two SimEnv queue implementations are driven through identical
// seeded scripts of interleaved insert / cancel / reschedule / spawn
// operations, including adversarial same-timestamp bursts. All three
// must produce the identical fire order. This is the pin that lets the
// event queue be swapped fearlessly.
// --------------------------------------------------------------------------

/// Abstract driver surface: tags identify logical events across the
/// implementations under test.
class SchedUnderTest {
 public:
  virtual ~SchedUnderTest() = default;
  virtual SimTime now() const = 0;
  virtual void schedule(SimTime t, int tag) = 0;
  /// Spawn semantics: a detached task starts at now (one queue
  /// round-trip), then delays `d` and fires `tag`.
  virtual void spawn_delayed(SimTime d, int tag) = 0;
  virtual void cancel(int tag) = 0;
  virtual void run() = 0;
};

/// The reference: an unindexed event list with exact (time, seq) order.
class RefSched : public SchedUnderTest {
 public:
  explicit RefSched(std::function<void(RefSched&, int)> on_fire)
      : on_fire_(std::move(on_fire)) {}

  SimTime now() const override { return now_; }

  void schedule(SimTime t, int tag) override {
    evs_.push_back({t, seq_++, tag, /*spawn_delay=*/-1, true, false});
  }

  void spawn_delayed(SimTime d, int tag) override {
    // The spawn wrapper consumes one queue round-trip at `now` before
    // the delay starts — mirror it with a hidden event. Spawned tasks
    // have no timer id, so neither wrapper nor payload is cancellable.
    evs_.push_back({now_, seq_++, tag, d, false, false});
  }

  void cancel(int tag) override {
    for (auto& e : evs_) {
      if (e.tag == tag && e.cancellable) e.dead = true;
    }
  }

  void run() override {
    for (;;) {
      std::size_t best = evs_.size();
      for (std::size_t i = 0; i < evs_.size(); ++i) {
        if (evs_[i].dead) continue;
        if (best == evs_.size() || evs_[i].time < evs_[best].time ||
            (evs_[i].time == evs_[best].time &&
             evs_[i].seq < evs_[best].seq)) {
          best = i;
        }
      }
      if (best == evs_.size()) return;
      Ev e = evs_[best];
      evs_[best].dead = true;
      now_ = e.time;
      if (e.spawn_delay >= 0) {
        // Hidden spawn wrapper: the payload event starts its delay now.
        evs_.push_back({now_ + e.spawn_delay, seq_++, e.tag, -1, false,
                        false});
      } else {
        on_fire_(*this, e.tag);
      }
    }
  }

 private:
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    int tag;
    SimTime spawn_delay;  ///< >= 0: hidden spawn wrapper event
    bool cancellable;     ///< created via schedule() (has a timer id)
    bool dead;
  };
  std::vector<Ev> evs_;
  std::uint64_t seq_ = 0;
  SimTime now_ = 0;
  std::function<void(RefSched&, int)> on_fire_;
};

/// SimEnv under either queue implementation.
class EnvSched : public SchedUnderTest {
 public:
  EnvSched(SimEnv::QueueImpl impl,
           std::function<void(EnvSched&, int)> on_fire)
      : env_(impl), on_fire_(std::move(on_fire)) {}

  SimTime now() const override { return env_.now(); }

  void schedule(SimTime t, int tag) override {
    ids_[tag] = env_.call_at(t, [this, tag] { on_fire_(*this, tag); });
  }

  void spawn_delayed(SimTime d, int tag) override {
    env_.spawn(delayed_fire(d, tag));
  }

  void cancel(int tag) override {
    if (auto it = ids_.find(tag); it != ids_.end()) env_.cancel(it->second);
  }

  void run() override { env_.run(); }

  SimEnv& env() { return env_; }

 private:
  Task<void> delayed_fire(SimTime d, int tag) {
    co_await env_.delay(d);
    on_fire_(*this, tag);
  }

  SimEnv env_;
  std::map<int, SimEnv::TimerId> ids_;
  std::function<void(EnvSched&, int)> on_fire_;
};

/// One differential run: the initial script and each event's follow-up
/// actions are derived deterministically from (seed, tag), so every
/// implementation executes the same logical workload. Returns the fire
/// order.
class DiffScript {
 public:
  explicit DiffScript(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> drive(SchedUnderTest& s) {
    fired_.clear();
    next_tag_ = 0;
    std::mt19937_64 rng(seed_);
    // Initial burst: many events, coarse times (collisions guaranteed),
    // some scheduled then immediately cancelled or rescheduled.
    const int initial = 80;
    for (int i = 0; i < initial; ++i) {
      const int tag = next_tag_++;
      s.schedule(static_cast<SimTime>(rng() % 64), tag);
      const std::uint64_t roll = rng() % 10;
      if (roll == 0 && tag > 0) {
        s.cancel(static_cast<int>(rng() % static_cast<std::uint64_t>(tag)));
      } else if (roll == 1) {
        // Reschedule: cancel and re-add under a fresh tag.
        s.cancel(tag);
        s.schedule(static_cast<SimTime>(rng() % 64), next_tag_++);
      } else if (roll == 2) {
        s.spawn_delayed(static_cast<SimTime>(rng() % 32), next_tag_++);
      }
    }
    s.run();
    return fired_;
  }

  /// Follow-up behaviour on fire, identical across implementations.
  void on_fire(SchedUnderTest& s, int tag) {
    fired_.push_back(tag);
    std::mt19937_64 rng(seed_ ^ (0x9e3779b97f4a7c15ull *
                                 static_cast<std::uint64_t>(tag + 1)));
    const std::uint64_t n = rng() % 3;  // 0..2 follow-up actions
    for (std::uint64_t i = 0; i < n && next_tag_ < 4000; ++i) {
      switch (rng() % 4) {
        case 0:
          s.schedule(s.now() + static_cast<SimTime>(rng() % 50), next_tag_++);
          break;
        case 1:
          // Same-timestamp burst at the current instant.
          s.schedule(s.now(), next_tag_++);
          s.schedule(s.now(), next_tag_++);
          break;
        case 2:
          // Cancel an arbitrary earlier tag — often already fired or
          // cancelled; must be an exact no-op then.
          s.cancel(static_cast<int>(rng() %
                                    static_cast<std::uint64_t>(next_tag_)));
          break;
        case 3:
          s.spawn_delayed(static_cast<SimTime>(rng() % 20), next_tag_++);
          break;
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<int> fired_;
  int next_tag_ = 0;
};

std::vector<int> run_reference(std::uint64_t seed) {
  DiffScript script(seed);
  RefSched ref([&script](RefSched& s, int tag) { script.on_fire(s, tag); });
  return script.drive(ref);
}

std::vector<int> run_env(std::uint64_t seed, SimEnv::QueueImpl impl) {
  DiffScript script(seed);
  EnvSched env(impl,
               [&script](EnvSched& s, int tag) { script.on_fire(s, tag); });
  return script.drive(env);
}

TEST(SchedulerDifferential, CalendarAndHeapMatchReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ref = run_reference(seed);
    ASSERT_GT(ref.size(), 50u) << "seed " << seed << ": degenerate script";
    EXPECT_EQ(run_env(seed, SimEnv::QueueImpl::calendar), ref)
        << "calendar diverged from reference, seed " << seed;
    EXPECT_EQ(run_env(seed, SimEnv::QueueImpl::heap), ref)
        << "heap diverged from reference, seed " << seed;
  }
}

TEST(SchedulerDifferential, AdversarialSameTimestampBurst) {
  // Everything at one instant: pure seq-order sorting, across bucket
  // boundaries and through calendar resizes.
  for (auto impl : {SimEnv::QueueImpl::calendar, SimEnv::QueueImpl::heap}) {
    SimEnv env(impl);
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      env.call_at(777, [&order, i] { order.push_back(i); });
    }
    env.run();
    ASSERT_EQ(order.size(), 500u);
    for (int i = 0; i < 500; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

/// Re-arming timer chains over a capped live population: each fired event
/// re-arms its chain between 0 ns and 2 ms ahead, and may add a same-tick
/// pair, a far-future timer (seconds to hours ahead) or a cancel — of the
/// current minimum, of a calendar bucket's head, or of any pending timer.
/// The script tracks what it has pending, so it never lets more than
/// `max_live` events be live and it can aim its cancels.
class ChainScript {
 public:
  ChainScript(std::uint64_t seed, std::size_t chains, std::size_t max_live)
      : seed_(seed), chains_(chains), max_live_(max_live) {}

  std::vector<int> drive(SchedUnderTest& s) {
    fired_.clear();
    pending_.clear();
    next_tag_ = 0;
    std::mt19937_64 rng(seed_);
    for (std::size_t i = 0; i < chains_; ++i) arm(s, chain_gap(rng));
    for (std::size_t i = 0; i < chains_ / 4; ++i) arm(s, far_gap(rng));
    s.run();
    return fired_;
  }

  void on_fire(SchedUnderTest& s, int tag) {
    fired_.push_back(tag);
    pending_.erase(tag);
    if (next_tag_ >= kTags) return;  // chains end; the far timers drain
    std::mt19937_64 rng(seed_ ^ (0x9e3779b97f4a7c15ull *
                                 static_cast<std::uint64_t>(tag + 1)));
    arm(s, s.now() + chain_gap(rng));
    // Pairs outnumber cancels, so the population grows to its cap rather
    // than dying out.
    switch (rng() % 12) {
      case 0:
      case 1: {
        const SimTime t = s.now() + chain_gap(rng);
        arm(s, t);
        arm(s, t);
        break;
      }
      case 2:
        // Far timers only while there is room, so they cannot crowd out
        // the chains.
        if (pending_.size() < max_live_ / 2) arm(s, s.now() + far_gap(rng));
        break;
      case 3:
        if (!pending_.empty()) cancel(s, earliest(0, 0));
        break;
      case 4:
        if (!pending_.empty()) {
          // The head of a random pending timer's bucket at the calendar's
          // initial 1,024 ns width over 64 buckets.
          cancel(s, earliest(random_pending(rng)->second, kInitialBucketNs));
        }
        break;
      case 5:
        if (!pending_.empty()) cancel(s, random_pending(rng)->first);
        break;
      default:
        break;
    }
  }

 private:
  static constexpr int kTags = 3000;
  static constexpr SimTime kInitialBucketNs = 1024;

  /// Bimodal: mostly nanoseconds to microseconds apart (zero included,
  /// which lands in the same tick), sometimes up to 2 ms.
  static SimTime chain_gap(std::mt19937_64& rng) {
    return rng() % 4 == 0 ? static_cast<SimTime>(rng() % 2'000'000)
                          : static_cast<SimTime>(rng() % 2'000);
  }
  static SimTime far_gap(std::mt19937_64& rng) {
    return static_cast<SimTime>(1'000'000'000ull +
                                rng() % 14'400'000'000'000ull);
  }

  void arm(SchedUnderTest& s, SimTime t) {
    if (pending_.size() >= max_live_) return;
    const int tag = next_tag_++;
    s.schedule(t, tag);
    pending_.emplace(tag, t);
  }

  std::map<int, SimTime>::const_iterator random_pending(
      std::mt19937_64& rng) const {
    return std::next(pending_.begin(),
                     static_cast<long>(rng() % pending_.size()));
  }

  void cancel(SchedUnderTest& s, int tag) {
    s.cancel(tag);
    pending_.erase(tag);
  }

  /// The earliest pending timer, by (time, schedule order), among those
  /// sharing `like`'s bucket when `bucket_ns` is set (times congruent
  /// modulo 64 buckets of that width), else among all of them.
  [[nodiscard]] int earliest(SimTime like, SimTime bucket_ns) const {
    int best = -1;
    SimTime best_t = 0;
    for (const auto& [tag, t] : pending_) {
      if (bucket_ns > 0 && (t / bucket_ns) % 64 != (like / bucket_ns) % 64) {
        continue;
      }
      if (best < 0 || t < best_t) {  // map order is schedule order
        best = tag;
        best_t = t;
      }
    }
    return best;
  }

  std::uint64_t seed_;
  std::size_t chains_;
  std::size_t max_live_;
  std::vector<int> fired_;
  std::map<int, SimTime> pending_;  ///< tag -> time, schedule order
  int next_tag_ = 0;
};

/// Runs `script` under the reference and both SimEnv queues; every fire
/// order must match the reference's.
void expect_chain_script_matches(std::uint64_t seed, std::size_t chains,
                                 std::size_t max_live) {
  ChainScript script(seed, chains, max_live);
  RefSched ref([&script](RefSched& s, int tag) { script.on_fire(s, tag); });
  const auto want = script.drive(ref);
  ASSERT_GT(want.size(), 500u) << "seed " << seed << ": degenerate script";
  for (auto impl : {SimEnv::QueueImpl::calendar, SimEnv::QueueImpl::heap}) {
    EnvSched env(impl,
                 [&script](EnvSched& s, int tag) { script.on_fire(s, tag); });
    EXPECT_EQ(script.drive(env), want)
        << (impl == SimEnv::QueueImpl::calendar ? "calendar" : "heap")
        << " diverged from reference, seed " << seed;
  }
}

TEST(SchedulerDifferential, SparsePopulationMatchesReferenceAcrossSeeds) {
  // At most 64 live events: the wheel grows only past 128, so it never
  // resizes and runs at its initial 1,024 ns width over 64 buckets (a
  // 65.5 us year) while the chains skip milliseconds and the far timers
  // hours. Most pops therefore scan a lap of mostly empty buckets, and
  // many find nothing inside the current year.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_chain_script_matches(seed, /*chains=*/8, /*max_live=*/64);
  }
}

TEST(SchedulerDifferential, WideWheelScanWrapsAcrossWords) {
  // Several hundred live events grow the wheel to hundreds of buckets, so
  // the occupancy bitmap spans several words and the scan wraps from the
  // last word back to the first, including into the low bits of the word
  // it started in.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_chain_script_matches(seed, /*chains=*/300, /*max_live=*/600);
  }
}

TEST(SchedulerProperty, WideWheelScanReachesStartWordLowBits) {
  // 200 events 1 us apart grow the wheel to 256 buckets (four bitmap
  // words) of 4 us (four times the mean gap), a 1.024 ms year; they fill
  // buckets 0-49. 40 more land a year and 64 buckets later, in buckets
  // 64-73. Once the first 200 have fired, the scan starts in word 0, finds
  // nothing inside the year in word 1, runs on from bucket 74 through
  // words 2, 3 and 0 and must come back to the low bits of word 1 to find
  // the minimum. 40 live events keep the wheel from shrinking.
  SimEnv env(SimEnv::QueueImpl::calendar);
  std::vector<SimTime> want;
  std::vector<SimTime> got;
  auto at = [&](SimTime t) {
    want.push_back(t);
    env.call_at(t, [&got, &env] { got.push_back(env.now()); });
  };
  for (SimTime i = 0; i < 200; ++i) at(i * 1'000);
  for (SimTime i = 0; i < 40; ++i) at(1'024'000 + 256'000 + i * 1'000);
  env.run();
  EXPECT_EQ(got, want);
}

// --------------------------------------------------------------------------
// Property / fuzz: ordering invariants under randomized schedules
// --------------------------------------------------------------------------

TEST(SchedulerProperty, RandomizedInvariants) {
  // (a) an event never fires before its deadline (it fires exactly at
  //     it — simulated time is discrete and exact);
  // (b) same-time events fire in schedule (seq) order;
  // (c) cancelled timers never fire;
  // (d) pending_events() is exact after cancellation (calendar queue).
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    std::mt19937_64 rng(seed);
    SimEnv env(SimEnv::QueueImpl::calendar);
    struct Rec {
      SimTime due;
      std::uint64_t order;  ///< global schedule order (seq proxy)
      SimEnv::TimerId id;
      bool cancelled = false;
      bool fired = false;
    };
    std::vector<Rec> recs;
    std::uint64_t fire_count = 0;
    SimTime last_time = 0;
    std::uint64_t last_order = 0;
    const int n = 400;
    recs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Clustered times to force ties; occasional far-future outliers to
      // force sparse year-scans and width adaptation.
      SimTime t = static_cast<SimTime>(rng() % 200);
      if (rng() % 17 == 0) t += static_cast<SimTime>(1) << 30;
      const std::size_t k = recs.size();
      recs.push_back({t, static_cast<std::uint64_t>(i), 0, false, false});
      recs[k].id = env.call_at(t, [&, k] {
        Rec& r = recs[k];
        EXPECT_FALSE(r.cancelled) << "cancelled timer fired";
        EXPECT_EQ(env.now(), r.due) << "fired off its deadline";
        if (env.now() == last_time) {
          EXPECT_GT(r.order, last_order) << "same-time events out of order";
        } else {
          EXPECT_GT(env.now(), last_time) << "time went backwards";
        }
        last_time = env.now();
        last_order = r.order;
        r.fired = true;
        ++fire_count;
      });
    }
    // Cancel a random subset before anything runs.
    std::size_t cancelled = 0;
    for (auto& r : recs) {
      if (rng() % 4 == 0) {
        env.cancel(r.id);
        r.cancelled = true;
        ++cancelled;
      }
    }
    EXPECT_EQ(env.pending_events(), recs.size() - cancelled);
    // Double-cancel is a no-op on the count.
    for (auto& r : recs) {
      if (r.cancelled) env.cancel(r.id);
    }
    EXPECT_EQ(env.pending_events(), recs.size() - cancelled);
    env.run();
    EXPECT_EQ(fire_count, recs.size() - cancelled);
    EXPECT_EQ(env.pending_events(), 0u);
    // Cancel-after-fire: exact no-op, including on the count.
    for (auto& r : recs) env.cancel(r.id);
    EXPECT_EQ(env.pending_events(), 0u);
    for (const auto& r : recs) EXPECT_NE(r.fired, r.cancelled);
  }
}

TEST(SchedulerProperty, HeapModeKeepsLegacyPendingContract) {
  // The ablation queue retains the pre-change tombstone accounting:
  // cancelling a live timer decrements the count, but a cancel that
  // never matches (stale id) skews it — documented legacy behaviour.
  SimEnv env(SimEnv::QueueImpl::heap);
  auto a = env.call_at(10, [] {});
  (void)env.call_at(20, [] {});
  EXPECT_EQ(env.pending_events(), 2u);
  env.cancel(a);
  EXPECT_EQ(env.pending_events(), 1u);
  env.run();
  EXPECT_EQ(env.now(), 20);
}

TEST(SchedulerProperty, TimerIdsDoNotAliasAcrossSlotReuse) {
  // Fire and recycle the same slot repeatedly; a stale id retained from
  // an earlier generation must never cancel the slot's new occupant.
  SimEnv env(SimEnv::QueueImpl::calendar);
  SimEnv::TimerId first = env.call_at(1, [] {});
  env.run();
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    (void)env.call_at(env.now() + 1, [&fired] { ++fired; });
    env.cancel(first);  // stale generation: exact no-op every time
    env.run();
  }
  EXPECT_EQ(fired, 100);
}

TEST(SchedulerProperty, CalendarResizesUnderLoadAndStaysOrdered) {
  // Push far past the initial 64 buckets to force grows, then drain to
  // force shrinks, asserting order throughout.
  SimEnv env(SimEnv::QueueImpl::calendar);
  std::mt19937_64 rng(7);
  std::vector<std::pair<SimTime, int>> expect;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng() % 100000);
    expect.emplace_back(t, i);
    env.call_at(t, [] {});
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t at = 0;
  SimEnv env2(SimEnv::QueueImpl::calendar);
  std::mt19937_64 rng2(7);
  bool ok = true;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng2() % 100000);
    env2.call_at(t, [&, i, t] {
      if (at >= expect.size() || expect[at].first != t ||
          expect[at].second != i) {
        ok = false;
      }
      ++at;
    });
  }
  env2.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(at, expect.size());
  EXPECT_EQ(env2.pending_events(), 0u);
}

}  // namespace
}  // namespace vmic::sim
