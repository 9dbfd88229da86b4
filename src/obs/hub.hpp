#pragma once

// The two halves of vmic::obs under one handle. Components take an
// optional `Hub*` (null = observability off, zero further cost); a
// Cluster owns one and threads it through every layer it builds.

#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vmic::obs {

struct Hub {
  Registry registry;
  Tracer tracer;

  /// This hub's T, default-constructed on first use and destroyed with
  /// the hub. Objects that come and go by the thousand and bind the same
  /// instruments each time (a qcow2 device per VM) resolve them once per
  /// hub into a T instead of by name on every construction.
  template <typename T>
  T& memo() {
    for (const auto& [type, p] : memos_) {
      if (*type == typeid(T)) return *static_cast<T*>(p.get());
    }
    auto p = std::make_shared<T>();
    T& ref = *p;
    memos_.emplace_back(&typeid(T), std::move(p));
    return ref;
  }

 private:
  std::vector<std::pair<const std::type_info*, std::shared_ptr<void>>> memos_;
};

/// Null-safe tracer access: `if (auto* t = tracer_of(hub)) ...`.
[[nodiscard]] inline Tracer* tracer_of(Hub* hub) noexcept {
  return hub != nullptr ? &hub->tracer : nullptr;
}

/// True when span recording is live (the only case worth paying string
/// construction for).
[[nodiscard]] inline bool tracing(const Hub* hub) noexcept {
  return hub != nullptr && hub->tracer.enabled();
}

}  // namespace vmic::obs
