#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double frac(double hits, double total) { return total > 0 ? hits / total : 0.0; }

namespace {

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fill(const std::string& name, double value,
                  const std::string& unit) {
  if (!has(name)) set(name, value, unit);
}

std::string Report::result_json(bool correct, std::int64_t attempted,
                                std::int64_t failed) const {
  std::string m;
  for (const auto& [name, vu] : metrics_) {
    if (!m.empty()) m += ", ";
    m += quote(name) + ": {\"value\": " + format_number(vu.first) +
         ", \"unit\": " + quote(vu.second) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + m +
         "}}";
}

void print_info(const std::string& key, const std::string& object_json) {
  std::printf("{%s: %s}\n", quote(key).c_str(), object_json.c_str());
  std::fflush(stdout);
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(k) + ": ";
}
JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  body_ += std::isfinite(value) ? format_number(value) : "null";
  return *this;
}
JsonObject& JsonObject::integer(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}
JsonObject& JsonObject::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += quote(value);
  return *this;
}
JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, ns(Clock::now()), -1, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::int32_t parent,
                    std::int64_t request) {
  if (!enabled_) return;
  spans_.push_back({name, ns(start), ns(end), parent, request});
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

double Tracer::span_cost_s() {
  // Record and discard a burst of spans in a scratch tracer of the same
  // shape; the per-span cost times the spans recorded estimates the tracing
  // overhead without a second, noisier untraced run.
  Tracer scratch(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const auto id = scratch.begin("probe", -1, i);
    scratch.end(id);
  }
  return seconds_since(t0) / kSpans;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_)
    out << "{\"name\": " << quote(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  return static_cast<bool>(out);
}

// ---- Host diagnostics ---------------------------------------------------------

namespace {

/// Aggregate "cpu" line of /proc/stat: (steal, total) jiffies.
std::pair<std::uint64_t, std::uint64_t> read_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  std::uint64_t v[10] = {};
  for (auto& x : v) in >> x;
  std::uint64_t total = 0;
  // user nice system idle iowait irq softirq steal (guest* already in user)
  for (int i = 0; i < 8; ++i) total += v[i];
  return {v[7], total};
}

/// Fixed reference kernel: 64x64x64 float matmul, repeated ~40 ms.
double reference_ops_per_s() {
  constexpr int n = 64;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>((i * 7) % 13) * 0.01f;
    b[i] = static_cast<float>((i * 5) % 11) * 0.02f;
  }
  std::int64_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (int rep = 0; rep < 8; ++rep, ++reps) {
      std::fill(c.begin(), c.end(), 0.0f);
      for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k) {
          const float aik = a[i * n + k];
          for (int j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
        }
      a[rep] = c[(rep * 31) % (n * n)] * 1e-3f;  // keep the result live
    }
    elapsed = seconds_since(t0);
  } while (elapsed < 0.04);
  return 2.0 * n * n * n * static_cast<double>(reps) / elapsed;
}

}  // namespace

void HostProbe::sample(const std::string& when) {
  Sample s;
  s.when = when;
  s.ref_ops_per_s = reference_ops_per_s();
  std::tie(s.steal, s.total) = read_cpu_jiffies();
  samples_.push_back(s);
}

double HostProbe::steal_frac() const {
  if (samples_.size() < 2) return 0.0;
  const auto& a = samples_.front();
  const auto& b = samples_.back();
  return frac(static_cast<double>(b.steal - a.steal),
              static_cast<double>(b.total - a.total));
}

double HostProbe::ref_ops_per_s_median() const {
  std::vector<double> v;
  for (const auto& s : samples_) v.push_back(s.ref_ops_per_s);
  return median(v);
}

std::string HostProbe::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i) out += ", ";
    out += JsonObject()
               .str("when", samples_[i].when)
               .num("ref_ops_per_s", samples_[i].ref_ops_per_s)
               .integer("steal_jiffies",
                        static_cast<std::int64_t>(samples_[i].steal))
               .integer("total_jiffies",
                        static_cast<std::int64_t>(samples_[i].total))
               .dump();
  }
  return out + "]";
}

void finish_run(const RunOptions& opt, Tracer& tracer, Report& report,
                HostProbe& host, double main_spans, double main_wall_s,
                std::int64_t attempted, std::int64_t failed) {
  host.sample("end");
  if (!opt.trace) {
    report.set("ok_frac",
               1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
               "frac");
  } else {
    report.set("trace.overhead_frac",
               main_spans * tracer.span_cost_s() / main_wall_s, "frac");
    report.set("host.steal_frac", host.steal_frac(), "frac");
    report.set("host.ref_ops_per_s", host.ref_ops_per_s_median(), "1/s");
    const auto path = opt.cache_dir + "/trace-" + opt.workload + "-" +
                      std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write(path))
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n", path.c_str());
  }
  print_info("host", host.json());
  std::printf("%s\n", report.result_json(failed == 0, attempted, failed).c_str());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  throw std::runtime_error("peak_rss_mb: VmHWM not found in /proc/self/status");
}

int hardware_threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace perfbench
