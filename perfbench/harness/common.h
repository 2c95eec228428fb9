// Shared pieces of the benchmark harness: run options, the metric report,
// the span tracer, host-drift diagnostics and small statistics helpers.
//
// Nothing here reaches into the program's internals: every span is recorded
// around a call into a module's public API from the harness's own files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the prepared serving snapshot and checkpoints
  /// (written by `prep`), also where trace files and scratch go.
  std::string cache_dir;
};

/// Nearest-rank percentile (p in [0, 1]); 0 for empty input.
double percentile(std::vector<double> values, double p);
/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);
/// hits / (hits + misses), 0 when nothing was looked up.
double frac(double hits, double total);

/// Name -> (value, unit) map printed as the run's result line.  `set`
/// overwrites; `fill` only sets a metric that is still missing (the traced
/// replay fills the layers a workload's main phase did not exercise).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void fill(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string result_json(bool correct, std::int64_t attempted,
                          std::int64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Print one `{"<key>": <object>}` info line to stdout.  Info lines precede
/// the result line; the smoke test and readers of the run logs parse them.
void print_info(const std::string& key, const std::string& object_json);

/// Small JSON object builder for info lines.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per span.  Spans are written out as JSON lines by write().
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index of the enclosing span, -1 at top level
    std::int64_t request;  // request / sample id, -1 when not per-request
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  /// Open a span and return its index (-1 when disabled).
  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::int64_t request = -1);
  void end(std::int32_t id);
  /// Record a span whose interval was measured by the caller.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::int32_t parent = -1, std::int64_t request = -1);

  std::size_t size() const { return spans_.size(); }
  /// Durations (microseconds) of every closed span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Mean cost of recording one span, measured on the running host.
  double span_cost_s();
  /// Write every span as one JSON line; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int32_t parent = -1,
             std::int64_t request = -1)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

/// Host-drift diagnostics: /proc/stat steal time and a fixed reference
/// kernel (a float matmul independent of the program), sampled before,
/// between and after phases.  Reported for the reader only; never used to
/// drop or rescale a run.
class HostProbe {
 public:
  void sample(const std::string& when);
  /// Steal jiffies / all jiffies between the first and last sample.
  double steal_frac() const;
  double ref_ops_per_s_median() const;
  std::string json() const;

 private:
  struct Sample {
    std::string when;
    std::uint64_t steal = 0, total = 0;
    double ref_ops_per_s = 0.0;
  };
  std::vector<Sample> samples_;
};

/// Close a run and print its last lines.  Untraced runs get `ok_frac`;
/// traced runs get the tracing overhead (spans recorded in the main phase
/// times the measured per-span cost, over the main phase's wall time) and
/// the host-drift metrics, and write their spans to
/// <cache_dir>/trace-<workload>-<seed>.jsonl.
void finish_run(const RunOptions& opt, Tracer& tracer, Report& report,
                HostProbe& host, double main_spans, double main_wall_s,
                std::int64_t attempted, std::int64_t failed);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Hardware threads available to this process.
int hardware_threads();

}  // namespace perfbench
