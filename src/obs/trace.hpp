#pragma once

// vmic::obs — the observability layer's tracing half: a sim-time span
// recorder exporting Chrome trace_event JSON (chrome://tracing /
// https://ui.perfetto.dev). Spans are recorded against named *tracks*
// (one per component instance or VM), in simulated nanoseconds, so a
// 64-VM deployment renders as 64 parallel boot lanes plus the shared
// storage-side lanes underneath.
//
// Disabled by default: span() returns an inert guard and record paths
// return immediately, so instrumented hot paths cost one branch.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace vmic::sim {
class SimEnv;
}

namespace vmic::obs {

struct TraceEvent {
  std::uint32_t track = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;  ///< == start for instant events
  std::string name;
  std::string cat;
  /// Pre-rendered JSON object body for "args" (without braces), e.g.
  /// `"bytes":4096` — empty for none.
  std::string args;
};

class Tracer;

/// RAII span: records one complete event from construction to end() (or
/// destruction). Inert when default-constructed or when the tracer was
/// disabled at open time.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept { *this = std::move(o); }
  Span& operator=(Span&& o) noexcept;
  ~Span() { end(); }

  void end();

  /// Attach/replace the span's args JSON (rendered without braces).
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  friend class Tracer;
  Span(Tracer* t, std::uint32_t track, std::string name, std::string cat,
       std::string args, sim::SimTime start)
      : t_(t), track_(track), start_(start), name_(std::move(name)),
        cat_(std::move(cat)), args_(std::move(args)) {}

  Tracer* t_ = nullptr;
  std::uint32_t track_ = 0;
  sim::SimTime start_ = 0;
  std::string name_;
  std::string cat_;
  std::string args_;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Point the tracer at the simulation clock. Must be called before
  /// recording; a Cluster binds its env automatically.
  void bind(sim::SimEnv* env) noexcept { env_ = env; }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Deterministic track id for a display name ("vm3", "storage0/disk").
  /// First use assigns the next id; exported as thread metadata.
  std::uint32_t track(const std::string& name);

  /// Record a complete event over [start, end].
  void complete(std::uint32_t track, std::string name, std::string cat,
                sim::SimTime start, sim::SimTime end, std::string args = {});

  /// Record a zero-duration event at the current sim time.
  void instant(std::uint32_t track, std::string name, std::string cat,
               std::string args = {});

  /// Open a span at the current sim time; inert if disabled.
  [[nodiscard]] Span span(std::uint32_t track, std::string name,
                          std::string cat, std::string args = {});

  [[nodiscard]] sim::SimTime now() const noexcept;

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

  /// `{"traceEvents":[...]}` with events sorted by (start, insertion),
  /// preceded by thread_name metadata for every track. Timestamps are
  /// microseconds (Chrome's unit) with nanosecond fractions.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  sim::SimEnv* env_ = nullptr;
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  // name -> id, and id -> name (pointing at the map's stable keys). Ids are
  // dense in first-use order: they are the exported Chrome thread ids.
  std::unordered_map<std::string, std::uint32_t> track_ids_;
  std::vector<const std::string*> tracks_;
};

}  // namespace vmic::obs
