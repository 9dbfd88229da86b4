#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace vmic::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch;
    }
  }
}

Labels normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, k);
    out += "\":\"";
    append_escaped(out, v);
    out += '"';
  }
  out += '}';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::string fmt_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

// ===========================================================================
// Registry
// ===========================================================================

Registry::Entry& Registry::add_entry(const std::string& name, Labels labels,
                                     Kind kind, const void* owner) {
  Entry e;
  const auto [id, fresh] = name_ids_.try_emplace(
      name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(&id->first);
  e.name = id->second;
  e.labels = normalized(std::move(labels));
  e.kind = kind;
  e.owner = owner;
  entries_.push_back(std::move(e));
  if (owner != nullptr) {
    owner_index_[owner].push_back(std::prev(entries_.end()));
  }
  return entries_.back();
}

template <typename T, typename... Args>
T& Registry::owned(Kind kind, const std::string& name, Labels labels,
                   std::deque<T>& store, const T* Entry::*slot,
                   Args&&... args) {
  labels = normalized(std::move(labels));
  std::string key(1, static_cast<char>(kind));
  key += name;
  for (const auto& [k, v] : labels) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  auto [it, fresh] = owned_index_.try_emplace(std::move(key));
  if (fresh) {
    T& inst = store.emplace_back(std::forward<Args>(args)...);
    add_entry(name, std::move(labels), kind, nullptr).*slot = &inst;
    it->second = &inst;
  }
  return *static_cast<T*>(it->second);
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  return owned(Kind::counter, name, std::move(labels), owned_counters_,
               &Entry::c);
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  return owned(Kind::gauge, name, std::move(labels), owned_gauges_,
               &Entry::g);
}

Histogram& Registry::histogram(const std::string& name, Labels labels,
                               std::vector<double> bounds) {
  return owned(Kind::histogram, name, std::move(labels), owned_histograms_,
               &Entry::h, std::move(bounds));
}

void Registry::attach_counter(const std::string& name, Labels labels,
                              const Counter* c, const void* owner) {
  add_entry(name, std::move(labels), Kind::counter, owner).c = c;
}

void Registry::attach_gauge(const std::string& name, Labels labels,
                            const Gauge* g, const void* owner) {
  add_entry(name, std::move(labels), Kind::gauge, owner).g = g;
}

void Registry::attach_gauge_fn(const std::string& name, Labels labels,
                               std::function<double()> fn,
                               const void* owner) {
  add_entry(name, std::move(labels), Kind::gauge, owner).gauge_fn =
      std::move(fn);
}

void Registry::attach_histogram(const std::string& name, Labels labels,
                                const Histogram* h, const void* owner) {
  add_entry(name, std::move(labels), Kind::histogram, owner).h = h;
}

void Registry::detach(const void* owner) {
  if (owner == nullptr) return;
  auto it = owner_index_.find(owner);
  if (it == owner_index_.end()) return;
  for (auto ent : it->second) entries_.erase(ent);
  owner_index_.erase(it);
}

void Registry::reset_owned() {
  for (auto& c : owned_counters_) c.reset();
  for (auto& g : owned_gauges_) g.reset();
  for (auto& h : owned_histograms_) h.reset();
}

MetricsSnapshot Registry::snapshot() const {
  // Order: name, then rendered labels, then registration order. Rank the
  // few hundred distinct names once, render each entry's labels once, and
  // stable-sort references to the entries: the comparator renders
  // nothing, ties keep list (registration) order, and each point is built
  // once, in place.
  std::vector<std::uint32_t> rank(names_.size());
  {
    std::vector<std::uint32_t> by_name(names_.size());
    std::iota(by_name.begin(), by_name.end(), 0u);
    std::sort(by_name.begin(), by_name.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return *names_[a] < *names_[b];
              });
    for (std::uint32_t r = 0; r < by_name.size(); ++r) rank[by_name[r]] = r;
  }
  struct Key {
    std::uint32_t rank;
    const Entry* e;
    std::string labels;
  };
  std::vector<Key> order;
  order.reserve(entries_.size());
  for (const Entry& e : entries_) {
    order.push_back({rank[e.name], &e, render_labels(e.labels)});
  }
  std::stable_sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.labels < b.labels;
  });

  MetricsSnapshot snap;
  snap.points.reserve(order.size());
  for (const Key& k : order) {
    const Entry& e = *k.e;
    MetricPoint& p = snap.points.emplace_back();
    p.name = *names_[e.name];
    p.labels = e.labels;
    p.kind = e.kind;
    switch (e.kind) {
      case Kind::counter:
        p.counter = e.c->value();
        break;
      case Kind::gauge:
        p.gauge = e.gauge_fn ? e.gauge_fn() : e.g->value();
        break;
      case Kind::histogram:
        p.bounds = e.h->bounds();
        p.bucket_counts = e.h->bucket_counts();
        p.sum = e.h->sum();
        p.count = e.h->count();
        break;
    }
  }
  return snap;
}

// ===========================================================================
// MetricsSnapshot
// ===========================================================================

const MetricPoint* MetricsSnapshot::find(std::string_view name,
                                         Labels labels) const {
  labels = normalized(std::move(labels));
  for (const auto& p : points) {
    if (p.name == name && p.labels == labels) return &p;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& p : points) {
    if (p.kind == Kind::counter && p.name == name) total += p.counter;
  }
  return total;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& p : points) {
    const std::string ls = render_labels(p.labels);
    switch (p.kind) {
      case Kind::counter:
        out += p.name;
        out += ls;
        out += ' ';
        append_u64(out, p.counter);
        out += '\n';
        break;
      case Kind::gauge:
        out += p.name;
        out += ls;
        out += ' ';
        out += fmt_double(p.gauge);
        out += '\n';
        break;
      case Kind::histogram: {
        // Prometheus le-buckets are cumulative; the instrument stores
        // per-bucket counts.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < p.bucket_counts.size(); ++i) {
          Labels bl = p.labels;
          bl.emplace_back("le", i < p.bounds.size() ? fmt_double(p.bounds[i])
                                                    : "+inf");
          cum += p.bucket_counts[i];
          out += p.name;
          out += "_bucket";
          out += render_labels(bl);
          out += ' ';
          append_u64(out, cum);
          out += '\n';
        }
        out += p.name;
        out += "_sum";
        out += ls;
        out += ' ';
        out += fmt_double(p.sum);
        out += '\n';
        out += p.name;
        out += "_count";
        out += ls;
        out += ' ';
        append_u64(out, p.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& p : points) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, p.name);
    out += "\",\"type\":\"";
    out += to_string(p.kind);
    out += "\",\"labels\":";
    append_json_labels(out, p.labels);
    switch (p.kind) {
      case Kind::counter:
        out += ",\"value\":";
        append_u64(out, p.counter);
        break;
      case Kind::gauge:
        out += ",\"value\":";
        out += fmt_double(p.gauge);
        break;
      case Kind::histogram: {
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < p.bucket_counts.size(); ++i) {
          if (i) out += ',';
          out += "{\"le\":";
          out += i < p.bounds.size() ? fmt_double(p.bounds[i]) : "\"+inf\"";
          out += ",\"count\":";
          append_u64(out, p.bucket_counts[i]);
          out += '}';
        }
        out += "],\"sum\":";
        out += fmt_double(p.sum);
        out += ",\"count\":";
        append_u64(out, p.count);
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace vmic::obs
