// Workloads `serve-cold` and `serve-hot`: one serve::Server over an mmap'd
// 2e5-node make_scale_kg snapshot, driven by one client thread through
// kPhaseCycles cycles of a closed-loop slice (links_per_s) and an open-loop
// slice at a fixed seeded rate (req_p50_ms).
//
//   serve-cold  exact f32 checkpoint; every link a distinct, never-repeated
//               pair of non-hub endpoints, so the score cache never hits and
//               extraction + features + the exact forward do the work.
//   serve-hot   q8 checkpoint; links share a small set of hot sources and
//               about half repeat a recent pair, so dedup and the score,
//               endpoint and row caches do the work.  Every few requests the
//               client drains, applies insert/delete updates around the hot
//               sources (compact() every few batches), and resumes — reads
//               pay for invalidation and for the stall.
//
// Half of the fresh links are existing edges between non-hub endpoints,
// labeled with their relation type (the paper's link-classification task);
// test_auc is the macro AUC of the served answers on the labeled links among
// the first kAucLinks answered.  A seeded sample of requests is
// byte-compared, off the clock, with serial LinkPredictor::predict_links on
// the same predictor at the same graph state.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <unordered_set>

#include "datasets/kg_generator.h"
#include "graph/subgraph.h"
#include "metrics/classification.h"
#include "models/serialize.h"
#include "models/trainer.h"
#include "load.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace amdgcnn;

namespace {

std::uint64_t pair_key(graph::NodeId a, graph::NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<graph::NodeId> non_hub_nodes(const graph::KnowledgeGraph& g) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto d = g.degree(v);
    if (d > 0 && d <= kHubDegree) out.push_back(v);
  }
  return out;
}

bool non_hub(const graph::KnowledgeGraph& g, graph::NodeId v) {
  const auto d = g.degree(v);
  return d > 0 && d <= kHubDegree;
}

/// A uniformly drawn base edge whose endpoints are both non-hub.
graph::EdgeId draw_non_hub_edge(const graph::KnowledgeGraph& g,
                                util::Rng& rng) {
  for (;;) {
    const auto e = static_cast<graph::EdgeId>(
        rng.uniform_int(static_cast<std::uint64_t>(g.num_edges())));
    if (g.edge_removed(e)) continue;
    const auto& rec = g.edge(e);
    if (rec.src != rec.dst && non_hub(g, rec.src) && non_hub(g, rec.dst))
      return e;
  }
}

/// Deterministic request stream: request i's links depend only on the seed
/// and i, never on timing.  Truth labels (-1 = unlabeled) are kept for the
/// first kAucLinks links.
class Stream {
 public:
  Stream(const graph::KnowledgeGraph& g, const ServeShape& shape,
         std::uint64_t seed)
      : g_(g), shape_(shape), rng_(mix(seed, 11)), pool_(non_hub_nodes(g)) {
    // Sized for a whole run up front: a rehash of a large set would stall
    // the client thread and show up as request latency.
    seen_.reserve(1 << 18);
    for (std::size_t h = 0; h < shape.hot_sources; ++h) {
      const auto v = pool_[rng_.uniform_int(pool_.size())];
      hot_.push_back(v);
      std::vector<std::pair<graph::NodeId, std::int32_t>> nb;
      for (const auto& adj : g.neighbors(v))
        if (adj.node != v) nb.emplace_back(adj.node, g.edge(adj.edge).type);
      hot_neighbors_.push_back(std::move(nb));
    }
  }

  std::vector<seal::LinkExample> next() {
    std::vector<seal::LinkExample> links;
    for (std::size_t j = 0; j < kLinksPerRequest; ++j) {
      Link l = shape_.hot_sources > 0 ? next_hot() : next_cold();
      if (!seen_.insert(pair_key(l.a, l.b)).second) ++repeats_;
      ++generated_;
      if (truth_.size() < kAucLinks) truth_.push_back(l.truth);
      links.push_back({l.a, l.b, 0});
    }
    return links;
  }

  const std::vector<std::int32_t>& truth() const { return truth_; }
  const std::vector<graph::NodeId>& hot() const { return hot_; }
  const std::vector<graph::NodeId>& pool() const { return pool_; }
  double distinct_ratio() const {
    return frac(static_cast<double>(seen_.size()),
                static_cast<double>(generated_));
  }
  double repeated_share() const {
    return frac(static_cast<double>(repeats_), static_cast<double>(generated_));
  }

 private:
  struct Link {
    graph::NodeId a, b;
    std::int32_t truth;
  };

  graph::NodeId random_non_hub() { return pool_[rng_.uniform_int(pool_.size())]; }

  /// Never-repeated pair: a labeled non-hub edge or a random non-hub pair.
  Link next_cold() {
    for (;;) {
      Link l{};
      if (rng_.bernoulli(0.5)) {
        const auto& rec = g_.edge(draw_non_hub_edge(g_, rng_));
        l = {rec.src, rec.dst, rec.type};
      } else {
        l = {random_non_hub(), random_non_hub(), -1};
      }
      if (l.a == l.b) continue;
      if (seen_.count(pair_key(l.a, l.b)) || seen_.count(pair_key(l.b, l.a)))
        continue;
      return l;
    }
  }

  /// Half the links repeat one of the last 1024; the rest pair a hot
  /// source with one of its neighbors (labeled) or, as often, a random
  /// non-hub node.
  Link next_hot() {
    if (!recent_.empty() && rng_.bernoulli(shape_.repeat_share))
      return recent_[rng_.uniform_int(recent_.size())];
    for (;;) {
      const auto h = rng_.uniform_int(hot_.size());
      Link l{hot_[h], random_non_hub(), -1};
      if (!hot_neighbors_[h].empty() && rng_.bernoulli(0.5)) {
        const auto& nb =
            hot_neighbors_[h][rng_.uniform_int(hot_neighbors_[h].size())];
        l = {hot_[h], nb.first, nb.second};
      }
      if (l.a == l.b) continue;
      recent_.push_back(l);
      if (recent_.size() > 1024) recent_.pop_front();
      return l;
    }
  }

  const graph::KnowledgeGraph& g_;
  const ServeShape& shape_;
  util::Rng rng_;
  std::vector<graph::NodeId> pool_;
  std::vector<graph::NodeId> hot_;
  std::vector<std::vector<std::pair<graph::NodeId, std::int32_t>>>
      hot_neighbors_;
  std::deque<Link> recent_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<std::int32_t> truth_;
  std::int64_t generated_ = 0, repeats_ = 0;
};

/// Members in dependency order: destruction (reverse order) stops the
/// server before the predictor, model and graph it borrows go away.
struct Deployment {
  std::unique_ptr<graph::KnowledgeGraph> graph;
  std::unique_ptr<models::LinkGNN> model;
  std::unique_ptr<core::LinkPredictor> predictor;
  std::unique_ptr<serve::Server> server;

  void teardown() {
    server.reset();
    predictor.reset();
    model.reset();
    graph.reset();
  }
};

core::LinkPredictor::Options predictor_options(bool quantized) {
  core::LinkPredictor::Options lo;
  lo.dataset = dataset_options(graph::NeighborhoodMode::kUnion, 0);
  lo.warm_nodes = kMaxSubgraphNodes;
  lo.warm_edges = kMaxSubgraphNodes * 16;
  lo.quantize = quantized ? ag::quant::Scheme::kQ8 : ag::quant::Scheme::kNone;
  return lo;
}

/// Set-up as a deployment does it: map the snapshot, load the checkpoint,
/// freeze, start the server.
Deployment deploy(const RunOptions& opt, const ServeShape& shape, int workers,
                  Tracer& tracer) {
  Deployment d;
  const auto t0 = Clock::now();
  d.graph = std::make_unique<graph::KnowledgeGraph>(
      graph::KnowledgeGraph::load_snapshot(snapshot_path(opt.cache_dir),
                                           graph::SnapshotLoadMode::kMap));
  const auto t1 = Clock::now();
  const auto lo = predictor_options(shape.quantized);
  util::Rng init_rng(1);
  d.model = models::make_link_gnn(
      model_config(*d.graph, lo.dataset.features, d.graph->num_edge_types()),
      init_rng);
  models::load_weights(*d.model, checkpoint_path(opt.cache_dir, shape.quantized),
                       "serve model");
  const auto t2 = Clock::now();
  d.predictor = std::make_unique<core::LinkPredictor>(*d.model, lo);
  serve::ServerOptions so;
  so.num_workers = workers;
  d.server = std::make_unique<serve::Server>(*d.predictor, *d.graph, so);
  tracer.record("graph.snapshot_load", t0, t1);
  tracer.record("models.load_weights", t1, t2);
  tracer.record("serve.start", t2, Clock::now());
  return d;
}

bool identical(const core::LinkPredictions& a, const core::LinkPredictions& b) {
  return a.num_classes == b.num_classes && a.labels == b.labels &&
         a.proba.size() == b.proba.size() &&
         std::memcmp(a.proba.data(), b.proba.data(),
                     a.proba.size() * sizeof(double)) == 0;
}

}  // namespace

int run_serve(const RunOptions& opt) {
  const ServeShape& shape = serve_shape(opt.workload);
  Tracer tracer(opt.trace);
  Report report;
  HostProbe host;
  const int nproc = hardware_threads();
  const int workers = std::max(1, nproc - 2);
  host.sample("start");

  // ---- Set-up, timed kSetupReps times before the measured phases (the
  // last deployment serves) and kSetupReps times after each cycle (a spare
  // deployment beside the idle serving one), so its median samples the host
  // over the whole run.
  std::vector<double> setup_s;
  const auto time_setups = [&](Deployment& into) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      into.teardown();  // off the clock
      const auto t0 = Clock::now();
      into = deploy(opt, shape, workers, tracer);
      setup_s.push_back(seconds_since(t0));
    }
  };
  Deployment d;
  time_setups(d);
  auto& g = *d.graph;
  auto& server = *d.server;
  const auto& predictor = *d.predictor;
  host.sample("after-setup");

  // ---- Inputs (off the clock).
  Stream stream(g, shape, opt.seed);
  util::Rng update_rng(mix(opt.seed, 29));
  std::deque<std::pair<graph::NodeId, graph::NodeId>> inserted;
  std::int64_t update_batches = 0, updates = 0, update_failures = 0;

  // ---- Correctness bookkeeping.
  struct ToCheck {
    std::vector<seal::LinkExample> links;
    core::LinkPredictions result;
  };
  std::vector<ToCheck> to_check;
  std::int64_t checked = 0, mismatched = 0;
  auto run_checks = [&] {
    const auto t0 = Clock::now();
    for (const auto& c : to_check) {
      ++checked;
      if (!identical(c.result, predictor.predict_links(g, c.links)))
        ++mismatched;
    }
    to_check.clear();
    return seconds_since(t0);
  };
  std::vector<double> auc_proba;
  std::vector<std::int32_t> auc_labels;
  std::size_t auc_seen = 0;

  LoadHooks hooks;
  hooks.next = [&](std::int64_t) { return stream.next(); };
  hooks.on_result = [&](std::int64_t index,
                        const std::vector<seal::LinkExample>& links,
                        const core::LinkPredictions& result) {
    if (mix(opt.seed, static_cast<std::uint64_t>(index)) % kCheckEvery == 0)
      to_check.push_back({links, result});
    const auto c = static_cast<std::size_t>(result.num_classes);
    for (std::size_t j = 0; j < links.size() && auc_seen < kAucLinks;
         ++j, ++auc_seen) {
      const auto truth = stream.truth()[auc_seen];
      if (truth < 0) continue;
      auc_labels.push_back(truth);
      auc_proba.insert(auc_proba.end(), result.proba.begin() + j * c,
                       result.proba.begin() + (j + 1) * c);
    }
  };
  hooks.drain_before = [&](std::int64_t index) {
    return shape.update_every > 0 && index > 0 &&
           index % shape.update_every == 0;
  };
  hooks.after_drain = [&](std::int64_t) {
    const double excluded = run_checks();
    // Updates around the hot sources: half inserts of fresh edges, half
    // deletes of earlier inserts (base edges, and so the labels, stay).
    for (std::int64_t u = 0; u < shape.updates_per_batch; ++u) {
      const auto t0 = Clock::now();
      try {
        if (u % 2 == 1 && inserted.size() > 64) {
          g.delete_edge(inserted.front().first, inserted.front().second);
          inserted.pop_front();
        } else {
          const auto a = stream.hot()[update_rng.uniform_int(stream.hot().size())];
          const auto b = stream.pool()[update_rng.uniform_int(stream.pool().size())];
          if (a == b || g.has_edge(a, b)) continue;
          g.insert_edge(a, b,
                        static_cast<std::int32_t>(update_rng.uniform_int(
                            static_cast<std::uint64_t>(g.num_edge_types()))));
          inserted.emplace_back(a, b);
        }
        ++updates;
      } catch (const graph::GraphUpdateError&) {
        ++update_failures;
      }
      tracer.record("graph.update", t0, Clock::now());
    }
    if (++update_batches % shape.compact_every == 0) {
      const auto t0 = Clock::now();
      g.compact();
      tracer.record("graph.compact", t0, Clock::now());
    }
    return excluded;
  };

  // ---- Measured phases.
  const auto fc0 = graph::frontier_cache_stats();
  LoadStats closed, open;
  const double cycle_s = opt.seconds / kPhaseCycles;
  for (int c = 0; c < kPhaseCycles; ++c) {
    closed.append(closed_loop(server, hooks, closed.sent + open.sent,
                              kClosedLoopOutstanding, cycle_s * kClosedShare,
                              tracer));
    open.append(open_loop(server, hooks, closed.sent + open.sent,
                          shape.open_rate_rps,
                          mix(opt.seed, 37 + static_cast<std::uint64_t>(c)),
                          cycle_s * (1.0 - kClosedShare), tracer));
    host.sample("after-cycle-" + std::to_string(c + 1));
    Deployment spare;
    time_setups(spare);
  }
  const auto fc1 = graph::frontier_cache_stats();
  run_checks();

  const auto s = server.stats();
  const std::int64_t attempted = closed.sent + open.sent;
  const std::int64_t failed =
      closed.failed + open.failed + mismatched + update_failures;
  const double auc =
      metrics::evaluate_multiclass(auc_proba, g.num_edge_types(), auc_labels)
          .macro_auc;

  // Mean subgraph size over a sample of served links (off the clock).
  double sub_nodes = 0.0;
  {
    Stream probe(g, shape, opt.seed);
    auto ex = predictor.options().dataset.extract;
    std::int64_t n = 0;
    for (int r = 0; r < 16; ++r)
      for (const auto& l : probe.next()) {
        sub_nodes += static_cast<double>(
            graph::extract_enclosing_subgraph(g, l.a, l.b, ex).num_nodes());
        ++n;
      }
    sub_nodes /= static_cast<double>(n);
  }

  print_info(
      "inputs",
      JsonObject()
          .str("workload", shape.name)
          .integer("graph_nodes", g.num_nodes())
          .integer("graph_edges", g.num_live_edges())
          .str("checkpoint", shape.quantized ? "q8" : "f32")
          .num("distinct_pair_ratio", stream.distinct_ratio())
          .num("repeated_pair_share", stream.repeated_share())
          .integer("update_every_requests", shape.update_every)
          .integer("updates_per_batch", shape.updates_per_batch)
          .integer("compact_every_batches", shape.compact_every)
          .num("mean_subgraph_nodes", sub_nodes)
          .integer("links_per_request", kLinksPerRequest)
          .integer("closed_loop_outstanding", kClosedLoopOutstanding)
          .integer("phase_cycles", kPhaseCycles)
          .num("open_loop_rate_rps", shape.open_rate_rps)
          .integer("server_workers", workers)
          .integer("predictor_threads", 0)
          .integer("client_threads", 1)
          .integer("dispatcher_threads", 1)
          .dump());
  std::string reps = "[";
  for (double v : setup_s) reps += (reps.size() > 1 ? ", " : "") + std::to_string(v);
  print_info("setup", JsonObject().raw("reps_s", reps + "]").dump());
  print_info("checks", JsonObject()
                           .integer("byte_checked_requests", checked)
                           .integer("byte_mismatches", mismatched)
                           .integer("failed_requests", closed.failed + open.failed)
                           .integer("update_failures", update_failures)
                           .integer("updates", updates)
                           .integer("auc_labeled_links",
                                    static_cast<std::int64_t>(auc_labels.size()))
                           .dump());
  print_info("load", JsonObject()
                         .integer("closed_sent", closed.sent)
                         .integer("open_sent", open.sent)
                         .integer("latency_samples",
                                  static_cast<std::int64_t>(open.latency_ms.size()))
                         .num("gen_lag_p99_ms", percentile(open.gen_lag_ms, 0.99))
                         .num("req_p99_ms", percentile(open.latency_ms, 0.99))
                         .dump());

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("links_per_s", median(closed.window_rates(kClosedWindow)), "1/s");
    report.set("req_p50_ms", percentile(open.latency_ms, 0.50), "ms");
    report.set("test_auc", auc, "auc");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    report_serving_layers(report, s, closed, open, fc0, fc1);
    if (updates > 0) {
      report.set("graph.update_us", median(tracer.durations_us("graph.update")),
                 "us");
      report.set("serve.invalidated_per_update",
                 static_cast<double>(s.score_invalidated +
                                     s.endpoint_invalidated) /
                     static_cast<double>(updates),
                 "count");
    }
    if (update_batches >= shape.compact_every && shape.compact_every > 0)
      report.set("graph.compact_ms",
                 median(tracer.durations_us("graph.compact")) * 1e-3, "ms");

    ReplayInputs in;
    in.graph = &g;
    in.predictor = &predictor;
    in.model = d.model.get();
    Stream replay_stream(g, shape, mix(opt.seed, 41));
    for (int r = 0; r < 32; ++r)
      for (const auto& l : replay_stream.next()) in.links.push_back(l);
    util::Rng lrng(mix(opt.seed, 43));
    for (std::int64_t i = 0; i < 256; ++i) {
      const auto& rec = g.edge(draw_non_hub_edge(g, lrng));
      in.labeled.push_back({rec.src, rec.dst, rec.type});
    }
    in.num_classes = g.num_edge_types();
    in.workers = workers;
    in.seed = opt.seed;
    in.cache_dir = opt.cache_dir;
    replay_layers(in, tracer, report);
  }
  finish_run(opt, tracer, report, host,
             static_cast<double>(closed.spans + open.spans),
             closed.measured_s + open.measured_s, attempted, failed);
  return 0;
}

// ---- Preparation (untimed, once per checkout) --------------------------------

int prep_serve(const std::string& cache_dir) {
  std::filesystem::create_directories(cache_dir);
  const int nproc = hardware_threads();
  datasets::ScaleKGOptions o;
  o.num_nodes = kServeNodes;
  o.num_node_types = kServeNodeTypes;
  o.num_edge_types = kServeEdgeTypes;
  o.seed = kServeGraphSeed;
  auto g = datasets::make_scale_kg(o);

  // Relation-type classification on non-hub edges: the link-classification
  // task of the paper, on the serving graph.
  util::Rng rng(kServeGraphSeed + 1);
  std::unordered_set<graph::EdgeId> used;
  std::vector<seal::LinkExample> train, test;
  while (static_cast<std::int64_t>(train.size() + test.size()) <
         kServeTrainLinks + kServeTestLinks) {
    const auto e = draw_non_hub_edge(g, rng);
    if (!used.insert(e).second) continue;
    const auto& rec = g.edge(e);
    auto& dst = static_cast<std::int64_t>(train.size()) < kServeTrainLinks
                    ? train
                    : test;
    dst.push_back({rec.src, rec.dst, rec.type});
  }
  const auto dso = dataset_options(graph::NeighborhoodMode::kUnion, nproc);
  const auto ds = seal::build_seal_dataset(g, train, test, g.num_edge_types(), dso);
  util::Rng init_rng(kServeGraphSeed + 2);
  auto model = models::make_link_gnn(
      model_config(g, dso.features, g.num_edge_types()), init_rng);
  models::TrainConfig tc;
  tc.learning_rate = learning_rate();
  tc.dtype = ag::Dtype::f32;
  tc.num_threads = nproc;
  tc.seed = kServeGraphSeed;
  models::Trainer trainer(*model, tc);
  for (std::int64_t e = 0; e < kServeTrainEpochs; ++e) trainer.train_epoch(ds.train);
  const double auc = trainer.evaluate(ds.test).metrics.macro_auc;

  // Write to temporaries and rename, so an interrupted prep never leaves a
  // file that looks complete.
  const auto snap = snapshot_path(cache_dir);
  const auto f32 = checkpoint_path(cache_dir, false);
  const auto q8 = checkpoint_path(cache_dir, true);
  g.save_snapshot(snap + ".tmp");
  models::save_weights(*model, f32 + ".tmp");
  models::save_weights_quantized(*model, q8 + ".tmp", ag::quant::Scheme::kQ8);
  std::filesystem::rename(f32 + ".tmp", f32);
  std::filesystem::rename(q8 + ".tmp", q8);
  std::filesystem::rename(snap + ".tmp", snap);
  print_info("prep", JsonObject()
                         .integer("graph_nodes", g.num_nodes())
                         .integer("graph_edges", g.num_live_edges())
                         .integer("train_links", kServeTrainLinks)
                         .num("mean_subgraph_nodes", ds.mean_subgraph_nodes())
                         .num("checkpoint_test_auc", auc)
                         .dump());
  return 0;
}

}  // namespace perfbench
