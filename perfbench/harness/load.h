// Load generation against serve::Server from one client thread.
//
// Closed loop: keep `outstanding` requests in flight, send the next one as
// soon as the oldest completes; its latency runs from submit().
// Open loop: send on a seeded schedule regardless of completions — gaps of
// 1/rate with uniform +-50% jitter, less bursty than Poisson arrivals so the
// tail measures service time and head-of-line blocking rather than the
// seed's arrival clusters;
// latency runs from each request's SCHEDULED send time, so a stall (a full
// queue, a drain for graph updates) is charged to every request it delays.
//
// The Server answers requests in FIFO order (one dispatcher), so waiting on
// the oldest future observes every completion promptly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "graph/subgraph.h"
#include "serve/server.h"

namespace perfbench {

namespace core = amdgcnn::core;
namespace graph = amdgcnn::graph;
namespace models = amdgcnn::models;
namespace seal = amdgcnn::seal;
namespace serve = amdgcnn::serve;

struct LoadStats {
  std::int64_t sent = 0;
  std::int64_t failed = 0;
  std::int64_t links = 0;             // links in completed requests
  std::vector<double> latency_ms;     // one per completed request
  std::vector<double> done_s;         // completion time, measured clock
  std::vector<double> done_links;     // links of that request
  std::vector<double> gen_lag_ms;     // open loop: send time - scheduled time
  std::vector<double> submit_us;      // time spent inside submit()
  std::size_t outstanding_max = 0;
  double measured_s = 0.0;            // wall time minus excluded pauses
  std::int64_t spans = 0;             // spans recorded (trace overhead)
  /// Links per second over consecutive windows of `window` completions
  /// (the remainder joins the last window).
  std::vector<double> window_rates(std::size_t window) const;
  /// Add a later slice of the same phase; its completion times continue
  /// this phase's measured clock.
  void append(const LoadStats& slice);
};

struct LoadHooks {
  /// Links of request `index` (called once per index, in increasing order).
  std::function<std::vector<seal::LinkExample>(std::int64_t index)> next;
  /// Completed request (called on the client thread, in index order).
  std::function<void(std::int64_t index, const std::vector<seal::LinkExample>&,
                     const core::LinkPredictions&)>
      on_result;
  /// True when every in-flight request must finish before `index` is sent.
  std::function<bool(std::int64_t index)> drain_before;
  /// Runs with nothing in flight after such a drain; returns seconds of its
  /// own work to keep off the clock (correctness checks).  Work it does not
  /// exclude — graph updates — stays on the clock.
  std::function<double(std::int64_t index)> after_drain;
};

/// Run one phase for `seconds` of measured time.  `first_index` numbers the
/// requests (the open loop continues the closed loop's stream).  Spans go to
/// `tracer` when it is enabled.
LoadStats closed_loop(serve::Server& server, const LoadHooks& hooks,
                      std::int64_t first_index, std::size_t outstanding,
                      double seconds, Tracer& tracer);
LoadStats open_loop(serve::Server& server, const LoadHooks& hooks,
                    std::int64_t first_index, double rate_rps,
                    std::uint64_t seed, double seconds, Tracer& tracer);

/// Server-side per-layer metrics of one closed + open loop pair: cache hit
/// fractions, useful work per link, submit blocking and load validity.
/// `fc0`/`fc1` are the frontier-cache counters before and after the phases.
void report_serving_layers(Report& report, const serve::ServerStats& s,
                           const LoadStats& closed, const LoadStats& open,
                           const graph::FrontierCacheStats& fc0,
                           const graph::FrontierCacheStats& fc1);

}  // namespace perfbench
