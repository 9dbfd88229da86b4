#pragma once

// One runner for the two-arm tier ablations (bench_dedup_catalog,
// bench_restart_warmth, bench_update_churn, bench_cloud_longrun's peer
// ablation). It runs an `Ablation`'s workload with the tier off and on,
// prints a row and exports the metrics snapshot of each arm, prints the
// summary line, writes the --json-out report and applies the gates (exit
// 1 on failure, for CI): no leaked VM slots in either arm; tier-on gated
// storage-node bytes at least `min_reduction` below tier-off; tier-on
// p99 `latency` no worse than tier-off + 2%.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cloud/engine.hpp"

namespace vmic::bench {

/// Both arms and the gated figures, for the JSON keys and extra gate.
struct Outcome {
  double hours;
  const cloud::CloudResult& off;
  const cloud::CloudResult& on;
  std::uint64_t off_bytes, on_bytes;
  double reduction;  ///< 1 - on_bytes / off_bytes
  double off_p99, on_p99;
};

/// A table column or JSON key: `value` printed with `precision` decimals
/// (0 for counts, which then print as %d / %llu would).
template <class From>
struct Field {
  const char* name;
  std::function<double(const From&)> value;
  int precision = 0;
};
using Column = Field<cloud::CloudResult>;
using JsonKey = Field<Outcome>;

struct Ablation {
  const char* bench;  ///< binary name, for the usage line
  double default_hours;
  bool ungated_flag = false;  ///< accept --ungated: report, skip the gates
  /// bench::header lines; unused when the rows join the bench's own table.
  const char* title = nullptr;
  const char* paper = nullptr;
  const char* expectation = nullptr;
  cloud::CloudConfig (*config)(double hours, bool tier_on);
  const char* tags[2];  ///< off, on; snapshot = export_prefix + tag
  const char* export_prefix;
  std::vector<Column> columns;  ///< after the tag column
  /// The storage-node bytes the tier must cut by `min_reduction`, and the
  /// latency whose p99 it may raise by 2% at most.
  std::uint64_t cloud::CloudResult::*bytes;
  double min_reduction;
  cloud::LatencyStats cloud::CloudResult::*latency;
  /// printf formats: `summary` takes off and on MiB, reduction %, off and
  /// on p99, and `summary_tail` prints the rest of its line from the
  /// tier-on arm; the failure messages take the reduction %, and on and
  /// off p99.
  const char* summary;
  void (*summary_tail)(const cloud::CloudResult& on);
  const char* bytes_failed;
  const char* latency_failed;
  std::vector<JsonKey> json;  ///< after "hours"
  /// Checked before the other gates; says why and returns false to fail.
  bool (*extra_gate)(const Outcome&) = nullptr;
};

struct Args {
  double hours;
  std::string json_out;
  bool gated = true;
};

inline double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(MiB);
}

/// Byte count `f` of an arm, in MiB, as a table column's value.
inline auto in_mib(std::uint64_t cloud::CloudResult::*f) {
  return [f](const cloud::CloudResult& r) { return mib(r.*f); };
}

/// Field `f` of the tier-off / tier-on arm, as a JSON key's value.
template <class T>
auto off(T cloud::CloudResult::*f) {
  return [f](const Outcome& o) { return static_cast<double>(o.off.*f); };
}
template <class T>
auto on(T cloud::CloudResult::*f) {
  return [f](const Outcome& o) { return static_cast<double>(o.on.*f); };
}

/// `[hours] [--json-out FILE]`, plus `[--ungated]` where accepted. Prints
/// the usage line and returns nothing on any other argument.
inline std::optional<Args> parse_args(const Ablation& a, int argc,
                                      char** argv) {
  Args args{a.default_hours, "", true};
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--json-out" && i + 1 < argc) {
      args.json_out = argv[++i];
    } else if (a.ungated_flag && s == "--ungated") {
      args.gated = false;
    } else if (!s.empty() && s[0] != '-') {
      args.hours = std::atof(s.c_str());
    } else {
      std::fprintf(stderr, "usage: %s [hours] [--json-out FILE]%s\n", a.bench,
                   a.ungated_flag ? " [--ungated]" : "");
      return std::nullopt;
    }
  }
  return args;
}

inline void table_header(const char* first, const std::vector<Column>& cols) {
  std::vector<std::string> names{first};
  for (const Column& c : cols) names.emplace_back(c.name);
  row_header(names);
}

inline void print_row(const std::vector<Column>& cols, const char* tag,
                      const cloud::CloudResult& r) {
  std::printf("%16s", tag);
  for (const Column& c : cols) std::printf("%16.*f", c.precision, c.value(r));
  std::printf("\n");
}

/// Fails a run that leaked VM slots; exports the metrics snapshot of one
/// that did not.
inline bool settle(const Ablation& a, const char* tag,
                   const cloud::CloudResult& r) {
  if (r.leaked_slots != 0) {
    std::fprintf(stderr, "bench: %s leaked %d VM slot(s)\n", tag,
                 r.leaked_slots);
    return false;
  }
  export_metrics(r.metrics, std::string(a.export_prefix) + tag);
  return true;
}

/// Both arms, their rows under the current table header, and everything
/// after them. Returns the exit status.
inline int run_arms(const Ablation& a, const Args& args) {
  const cloud::CloudResult arms[2] = {
      cloud::run_cloud(a.config(args.hours, false)),
      cloud::run_cloud(a.config(args.hours, true))};
  for (int i = 0; i < 2; ++i) {
    print_row(a.columns, a.tags[i], arms[i]);
    if (!settle(a, a.tags[i], arms[i])) return 1;
  }
  const std::uint64_t off_bytes = arms[0].*a.bytes;
  const std::uint64_t on_bytes = arms[1].*a.bytes;
  const Outcome o{args.hours, arms[0], arms[1], off_bytes, on_bytes,
                  1.0 - static_cast<double>(on_bytes) /
                            static_cast<double>(off_bytes ? off_bytes : 1),
                  (arms[0].*a.latency).p99, (arms[1].*a.latency).p99};
  std::printf(a.summary, mib(off_bytes), mib(on_bytes), o.reduction * 100.0,
              o.off_p99, o.on_p99);
  a.summary_tail(o.on);

  if (!args.json_out.empty()) {
    std::FILE* f = std::fopen(args.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"hours\": %.3f", o.hours);
    for (const JsonKey& k : a.json) {
      std::fprintf(f, ",\n  \"%s\": %.*f", k.name, k.precision, k.value(o));
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }

  if (!args.gated) return 0;
  if (a.extra_gate != nullptr && !a.extra_gate(o)) return 1;
  if (o.reduction < a.min_reduction) {
    std::fprintf(stderr, a.bytes_failed, o.reduction * 100.0);
    return 1;
  }
  if (o.on_p99 > o.off_p99 * 1.02) {
    std::fprintf(stderr, a.latency_failed, o.on_p99, o.off_p99);
    return 1;
  }
  return 0;
}

/// A bench that is only its ablation: arguments, header, table, arms.
inline int run_ablation(const Ablation& a, int argc, char** argv) {
  const std::optional<Args> args = parse_args(a, argc, argv);
  if (!args) return 2;
  header(a.title, a.paper, a.expectation);
  table_header("mode", a.columns);
  return run_arms(a, *args);
}

}  // namespace vmic::bench
