#include "sim/env.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace vmic::sim {

namespace {

constexpr std::uint32_t kMinBuckets = 64;
constexpr std::uint32_t kMaxBuckets = 1u << 20;
/// Buckets per occupancy-bitmap word. Every wheel size is a power of two
/// of at least one word, so the word count is a power of two too.
constexpr std::uint32_t kWordBits = 64;
static_assert(kMinBuckets % kWordBits == 0);
/// Bucket width is clamped so year arithmetic can never overflow SimTime
/// even at the largest wheel size.
constexpr SimTime kMaxWidth = SimTime{1} << 42;

}  // namespace

SimEnv::SimEnv() : SimEnv(QueueImpl::calendar) {}

SimEnv::SimEnv(QueueImpl impl) : impl_(impl) {
  if (impl_ == QueueImpl::calendar) {
    nbuckets_ = kMinBuckets;
    mask_ = nbuckets_ - 1;
    buckets_.assign(nbuckets_, Bucket{});
    occupied_.assign(nbuckets_ / kWordBits, 0);
    cur_ = 0;
    cur_top_ = width_;
  }
}

// --- calendar queue ---------------------------------------------------------

void SimEnv::link_sorted(std::uint32_t idx) {
  Entry& e = pool_[idx];
  const std::uint32_t b = bucket_of(e.time);
  e.bucket = b;
  occupied_[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
  Bucket& bk = buckets_[b];
  // Walk from the tail: the common cases (a later time, or an equal time
  // with a larger seq) insert at the tail immediately, preserving FIFO
  // order for same-time events because seq is globally monotone.
  std::uint32_t after = bk.tail;
  while (after != kNil) {
    const Entry& a = pool_[after];
    if (a < e) break;
    after = a.prev;
  }
  if (after == kNil) {
    e.prev = kNil;
    e.next = bk.head;
    if (bk.head != kNil) pool_[bk.head].prev = idx;
    bk.head = idx;
    if (bk.tail == kNil) bk.tail = idx;
  } else {
    Entry& a = pool_[after];
    e.prev = after;
    e.next = a.next;
    if (a.next != kNil) pool_[a.next].prev = idx;
    a.next = idx;
    if (bk.tail == after) bk.tail = idx;
  }
}

void SimEnv::unlink(std::uint32_t idx) {
  Entry& e = pool_[idx];
  Bucket& bk = buckets_[e.bucket];
  if (e.prev != kNil) {
    pool_[e.prev].next = e.next;
  } else {
    bk.head = e.next;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = e.prev;
  } else {
    bk.tail = e.prev;
  }
  if (bk.head == kNil) {
    occupied_[e.bucket / kWordBits] &=
        ~(std::uint64_t{1} << (e.bucket % kWordBits));
  }
  e.prev = e.next = kNil;
  --live_count_;
}

void SimEnv::release(std::uint32_t idx) {
  Entry& e = pool_[idx];
  ++e.gen;  // stale TimerIds for this slot stop matching
  e.live = false;
  e.handle = {};
  e.fn = nullptr;  // drop captured state now, not at slot reuse
  pool_.free(idx);
}

SimEnv::TimerId SimEnv::insert_entry(SimTime t, std::coroutine_handle<> h,
                                     std::function<void()> fn) {
  const std::uint32_t idx = pool_.alloc();
  Entry& e = pool_[idx];
  e.time = t;
  e.seq = next_seq_++;
  e.handle = h;
  e.fn = std::move(fn);
  e.live = true;
  const TimerId id = ((e.gen << kSlotBits) | idx);
  // An event earlier than the current scan window would be missed for a
  // whole lap: rewind the year scan to its bucket. Also (re)anchor the
  // scan when the wheel was empty.
  if (live_count_ == 0 || t < cur_top_ - width_) set_cursor(t);
  link_sorted(idx);
  ++live_count_;
  maybe_resize();
  return id;
}

void SimEnv::set_cursor(SimTime t) noexcept {
  cur_ = bucket_of(t);
  cur_top_ = (static_cast<SimTime>(static_cast<std::uint64_t>(t) /
                                   static_cast<std::uint64_t>(width_)) +
              1) *
             width_;
}

std::uint32_t SimEnv::next_occupied(std::uint32_t b) const noexcept {
  const std::size_t last_word = occupied_.size() - 1;
  std::size_t w = b / kWordBits;
  // Drop the buckets before `b` from its own word only: once the search
  // wraps all the way round, that word is read whole, low bits included.
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (b % kWordBits));
  while (bits == 0) {
    w = (w + 1) & last_word;
    bits = occupied_[w];
  }
  return static_cast<std::uint32_t>(w * kWordBits) +
         static_cast<std::uint32_t>(std::countr_zero(bits));
}

std::uint32_t SimEnv::find_min() {
  if (live_count_ == 0) return kNil;
  // One lap of the ring from the scan cursor, visiting each occupied
  // bucket once and jumping the empty ones a bitmap word at a time (the
  // cursor's window advances by the buckets jumped). Every live entry
  // lies at or after the cursor's window and each bucket's head is its
  // earliest entry, so the first head inside its bucket's window of the
  // current year is the minimum.
  std::uint32_t best = kNil;
  std::uint32_t lap = 0;  // buckets advanced past the starting cursor
  for (;;) {
    const std::uint32_t b = next_occupied(cur_);
    const std::uint32_t gap = static_cast<std::uint32_t>((b - cur_) & mask_);
    lap += gap;
    if (lap >= nbuckets_) break;  // back at a bucket already visited
    cur_ = b;
    cur_top_ += width_ * gap;
    const std::uint32_t h = buckets_[b].head;
    if (pool_[h].time < cur_top_) return h;
    if (best == kNil || pool_[h] < pool_[best]) best = h;
    cur_ = static_cast<std::uint32_t>((cur_ + 1) & mask_);
    cur_top_ += width_;
    if (++lap >= nbuckets_) break;
  }
  // Sparse year: no entry within a lap of the wheel. The earliest head
  // seen is the global minimum; jump the scan to its year.
  set_cursor(pool_[best].time);
  return best;
}

void SimEnv::rebuild(std::uint32_t new_buckets) {
  // Collect every live entry, walking the ring from the scan cursor.
  // When the live span fits inside one calendar year (the common case)
  // this visits entries already in (time, seq) order, and the sort
  // below collapses to an O(n) is_sorted check.
  std::vector<std::uint32_t> all;
  all.reserve(live_count_);
  for (std::uint32_t b = 0; b < nbuckets_; ++b) {
    const Bucket& bk = buckets_[(cur_ + b) & mask_];
    for (std::uint32_t i = bk.head; i != kNil; i = pool_[i].next) {
      all.push_back(i);
    }
  }
  // New width: four times the mean inter-event gap over the earliest
  // ~64 events (Brown's sampling, integer arithmetic — deterministic
  // and platform-independent because only the time *values* matter).
  const std::size_t k = std::min<std::size_t>(all.size(), 64);
  if (k >= 2) {
    std::vector<SimTime> times;
    times.reserve(all.size());
    for (std::uint32_t i : all) times.push_back(pool_[i].time);
    std::nth_element(times.begin(), times.begin() + (k - 1), times.end());
    std::sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k));
    // Mean gap per *event*, duplicates included: when many events share
    // a timestamp the right width is at most one tick, so same-time
    // arrivals land in their own bucket and insert as O(1) tail appends
    // (seq is monotone). Averaging only distinct times here once picked
    // a width 4 ticks wide and turned every insert into a sorted-list
    // walk across ~4 ticks of events.
    const SimTime span = times[k - 1] - times[0];
    width_ = std::clamp<SimTime>(
        4 * (span / static_cast<SimTime>(k - 1)), 1, kMaxWidth);
  }
  nbuckets_ = new_buckets;
  mask_ = nbuckets_ - 1;
  buckets_.assign(nbuckets_, Bucket{});
  occupied_.assign(nbuckets_ / kWordBits, 0);
  // Relink in (time, seq) order: every insert is then a tail append, so
  // the rebuild is one sort (skipped when the ring walk above already
  // produced sorted order) plus O(n) links.
  const auto by_time_seq = [this](std::uint32_t a, std::uint32_t b) {
    return pool_[a] < pool_[b];
  };
  if (!std::is_sorted(all.begin(), all.end(), by_time_seq)) {
    std::sort(all.begin(), all.end(), by_time_seq);
  }
  for (std::uint32_t i : all) link_sorted(i);
  set_cursor(all.empty() ? 0 : pool_[all.front()].time);
}

void SimEnv::maybe_resize() {
  // Jump straight to the target size rather than doubling/halving one
  // step at a time: a bulk load of n events then costs one O(n) rebuild
  // instead of a log(n) cascade of them.
  if (live_count_ > 2 * static_cast<std::size_t>(nbuckets_) &&
      nbuckets_ < kMaxBuckets) {
    std::uint64_t target = std::bit_ceil(live_count_);
    rebuild(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(target, kMaxBuckets)));
  } else if (nbuckets_ > kMinBuckets &&
             live_count_ * 8 < static_cast<std::size_t>(nbuckets_)) {
    std::uint64_t target = std::bit_ceil(std::max<std::size_t>(
        live_count_ * 2, static_cast<std::size_t>(kMinBuckets)));
    rebuild(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(target, kMaxBuckets)));
  }
}

void SimEnv::fire(std::uint32_t idx) {
  Entry& e = pool_[idx];
  assert(e.time >= now_);
  now_ = e.time;
  const std::coroutine_handle<> h = e.handle;
  std::function<void()> fn = std::move(e.fn);
  unlink(idx);
  release(idx);
  ++events_processed_;
  maybe_resize();
  // Resume last: the slot is already recycled, so whatever the handler
  // schedules can reuse it immediately.
  if (h) {
    h.resume();
  } else {
    fn();
  }
}

// --- public API -------------------------------------------------------------

SimEnv::TimerId SimEnv::schedule_at(SimTime t, std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  if (impl_ == QueueImpl::heap) {
    const TimerId id = next_id_++;
    heap_.push(HeapEntry{t, next_seq_++, id, h, {}});
    return id;
  }
  return insert_entry(t, h, nullptr);
}

SimEnv::TimerId SimEnv::call_at(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  if (impl_ == QueueImpl::heap) {
    const TimerId id = next_id_++;
    heap_.push(HeapEntry{t, next_seq_++, id, nullptr, std::move(fn)});
    return id;
  }
  return insert_entry(t, nullptr, std::move(fn));
}

void SimEnv::cancel(TimerId id) {
  if (impl_ == QueueImpl::heap) {
    cancelled_.insert(id);
    return;
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(id & kSlotMask);
  if (idx >= pool_.capacity()) return;
  Entry& e = pool_[idx];
  if (!e.live || (e.gen << kSlotBits | idx) != id) return;
  unlink(idx);
  release(idx);
  maybe_resize();
}

bool SimEnv::step() {
  if (impl_ == QueueImpl::heap) {
    while (!heap_.empty()) {
      HeapEntry e = heap_.top();
      heap_.pop();
      if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      assert(e.time >= now_);
      now_ = e.time;
      ++events_processed_;
      if (e.handle) {
        e.handle.resume();
      } else {
        e.fn();
      }
      return true;
    }
    return false;
  }
  const std::uint32_t idx = find_min();
  if (idx == kNil) return false;
  fire(idx);
  return true;
}

void SimEnv::run() {
  while (step()) {
  }
}

bool SimEnv::run_until(SimTime deadline) {
  if (impl_ == QueueImpl::heap) {
    while (!heap_.empty()) {
      // Peek past cancelled entries without consuming live ones.
      const HeapEntry& e = heap_.top();
      if (cancelled_.count(e.id) != 0) {
        cancelled_.erase(e.id);
        heap_.pop();
        continue;
      }
      if (e.time > deadline) {
        now_ = deadline;
        return false;
      }
      step();
    }
    return true;
  }
  std::uint32_t idx;
  while ((idx = find_min()) != kNil) {
    if (pool_[idx].time > deadline) {
      now_ = deadline;
      return false;
    }
    fire(idx);
  }
  return true;
}

SimEnv::SpawnedTask SimEnv::run_spawned(SimEnv* env, Task<void> task) {
  co_await std::move(task);
  --env->live_tasks_;
}

void SimEnv::spawn(Task<void> task) {
  ++live_tasks_;
  SpawnedTask wrapper = run_spawned(this, std::move(task));
  schedule_at(now_, wrapper.handle);
}

}  // namespace vmic::sim
