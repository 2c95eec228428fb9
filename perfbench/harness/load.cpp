#include "load.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <future>
#include <thread>

#include "util/rng.h"

namespace perfbench {
namespace {

struct Pending {
  std::int64_t index;
  std::vector<seal::LinkExample> links;
  std::future<core::LinkPredictions> future;
  Clock::time_point start;  // submit time (closed) or scheduled time (open)
  std::int32_t span;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Client {
 public:
  Client(serve::Server& server, const LoadHooks& hooks, Tracer& tracer,
         LoadStats& stats)
      : server_(server), hooks_(hooks), tracer_(tracer), stats_(stats) {}

  /// Seconds since the phase started, minus the excluded (check) time.
  double measured_s() const { return seconds_since(t0_) - excluded_s_; }
  double excluded_s() const { return excluded_s_; }
  Clock::time_point t0() const { return t0_; }

  /// Send request `index`; `start` is when its latency clock starts.
  void send(std::int64_t index, Clock::time_point start) {
    auto links = hooks_.next(index);
    const auto span = tracer_.begin("serve.request", -1, index);
    const auto t0 = Clock::now();
    auto future = server_.submit(links);
    const auto t1 = Clock::now();
    tracer_.record("serve.submit", t0, t1, span, index);
    stats_.spans += tracer_.enabled() ? 2 : 0;
    stats_.submit_us.push_back(ms_between(t0, t1) * 1e3);
    pending_.push_back({index, std::move(links), std::move(future), start,
                        span});
    ++stats_.sent;
    if (pending_.size() > stats_.outstanding_max)
      stats_.outstanding_max = pending_.size();
  }

  /// Wait for the oldest request until `deadline`; true if it completed.
  bool complete_oldest(Clock::time_point deadline) {
    auto& p = pending_.front();
    if (p.future.wait_until(deadline) != std::future_status::ready)
      return false;
    const auto done = Clock::now();
    tracer_.end(p.span);
    try {
      const auto result = p.future.get();
      stats_.latency_ms.push_back(ms_between(p.start, done));
      stats_.done_s.push_back(measured_s());
      stats_.done_links.push_back(static_cast<double>(p.links.size()));
      stats_.links += static_cast<std::int64_t>(p.links.size());
      if (hooks_.on_result) hooks_.on_result(p.index, p.links, result);
    } catch (const std::exception&) {
      ++stats_.failed;
    }
    pending_.pop_front();
    return true;
  }

  void complete_all() {
    while (!pending_.empty()) complete_oldest(Clock::time_point::max());
  }

  /// Drain and run the maintenance hook if request `index` asks for it;
  /// the time the hook asks to exclude comes off the measured clock.
  void maybe_drain(std::int64_t index) {
    if (!hooks_.drain_before || !hooks_.drain_before(index)) return;
    complete_all();
    if (hooks_.after_drain) excluded_s_ += hooks_.after_drain(index);
  }

  bool idle() const { return pending_.empty(); }
  std::size_t in_flight() const { return pending_.size(); }

 private:
  serve::Server& server_;
  const LoadHooks& hooks_;
  Tracer& tracer_;
  LoadStats& stats_;
  std::deque<Pending> pending_;
  Clock::time_point t0_ = Clock::now();
  double excluded_s_ = 0.0;
};

}  // namespace

LoadStats closed_loop(serve::Server& server, const LoadHooks& hooks,
                      std::int64_t first_index, std::size_t outstanding,
                      double seconds, Tracer& tracer) {
  LoadStats stats;
  Client client(server, hooks, tracer, stats);
  std::int64_t index = first_index;
  while (client.measured_s() < seconds) {
    while (client.in_flight() < outstanding) {
      client.maybe_drain(index);
      client.send(index, Clock::now());
      ++index;
    }
    client.complete_oldest(Clock::time_point::max());
  }
  client.complete_all();
  stats.measured_s = client.measured_s();
  return stats;
}

LoadStats open_loop(serve::Server& server, const LoadHooks& hooks,
                    std::int64_t first_index, double rate_rps,
                    std::uint64_t seed, double seconds, Tracer& tracer) {
  LoadStats stats;
  Client client(server, hooks, tracer, stats);
  amdgcnn::util::Rng rng(seed);
  // Excluded (check) time shifts the remaining schedule; drain and update
  // time does not, so requests due during an update batch arrive late and
  // carry the stall in their latency.
  double offset_s = 0.0;
  std::int64_t index = first_index;
  for (;;) {
    offset_s += (0.5 + rng.uniform()) / rate_rps;
    if (offset_s >= seconds) break;
    client.maybe_drain(index);
    const auto due = client.t0() +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             offset_s + client.excluded_s()));
    while (!client.idle() && client.complete_oldest(due)) {
    }
    std::this_thread::sleep_until(due);
    stats.gen_lag_ms.push_back(ms_between(due, Clock::now()));
    client.send(index, due);
    ++index;
  }
  client.complete_all();
  stats.measured_s = client.measured_s();
  return stats;
}

std::vector<double> LoadStats::window_rates(std::size_t window) const {
  const std::size_t n = done_s.size();
  const std::size_t k = std::max<std::size_t>(1, n / window);
  std::vector<double> rates;
  for (std::size_t w = 0; w < k && n > 0; ++w) {
    const std::size_t b = w * window, e = w + 1 == k ? n : (w + 1) * window;
    double links = 0.0;
    for (std::size_t i = b; i < e; ++i) links += done_links[i];
    rates.push_back(links / (done_s[e - 1] - (b == 0 ? 0.0 : done_s[b - 1])));
  }
  return rates;
}

void LoadStats::append(const LoadStats& slice) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  for (double t : slice.done_s) done_s.push_back(measured_s + t);
  cat(done_links, slice.done_links);
  cat(latency_ms, slice.latency_ms);
  cat(gen_lag_ms, slice.gen_lag_ms);
  cat(submit_us, slice.submit_us);
  sent += slice.sent;
  failed += slice.failed;
  links += slice.links;
  outstanding_max = std::max(outstanding_max, slice.outstanding_max);
  measured_s += slice.measured_s;
  spans += slice.spans;
}

void report_serving_layers(Report& report, const serve::ServerStats& s,
                           const LoadStats& closed, const LoadStats& open,
                           const graph::FrontierCacheStats& fc0,
                           const graph::FrontierCacheStats& fc1) {
  const auto links = static_cast<double>(s.links);
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  report.set("graph.frontier_hit_frac",
             frac(d(fc1.hits - fc0.hits),
                  d(fc1.hits - fc0.hits + fc1.misses - fc0.misses)),
             "frac");
  report.set("seal.row_hit_frac", frac(d(s.row_hits), d(s.row_hits + s.row_misses)),
             "frac");
  report.set("serve.score_hit_frac",
             frac(d(s.score_hits), d(s.score_hits + s.score_misses)), "frac");
  report.set("serve.endpoint_hit_frac",
             frac(d(s.endpoint_hits), d(s.endpoint_hits + s.endpoint_misses)),
             "frac");
  report.set("serve.dedup_frac", frac(d(s.deduped), links), "frac");
  report.set("serve.scored_frac", frac(d(s.scored), links), "frac");
  std::vector<double> submit_us = closed.submit_us;
  submit_us.insert(submit_us.end(), open.submit_us.begin(), open.submit_us.end());
  report.set("serve.submit_block_us", percentile(submit_us, 0.99), "us");
  report.set("serve.outstanding_max", static_cast<double>(open.outstanding_max),
             "count");
  report.set("load.gen_lag_p99_ms", percentile(open.gen_lag_ms, 0.99), "ms");
  report.set("load.sent", d(closed.sent + open.sent), "count");
  report.set("load.failed", d(closed.failed + open.failed), "count");
  report.set("load.latency_samples", d(static_cast<std::int64_t>(open.latency_ms.size())),
             "count");
  report.set("load.req_p99_ms", percentile(open.latency_ms, 0.99), "ms");
}

}  // namespace perfbench
