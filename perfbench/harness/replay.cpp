// Traced layer replay: a seeded sample of one workload's links and labeled
// samples pushed through each module's public calls, one span per call.
// Runs only with --trace 1, after the workload's main phase; metrics that
// phase already measured are kept (Report::fill).
#include <filesystem>

#include "graph/subgraph.h"
#include "infer/arena.h"
#include "load.h"
#include "models/serialize.h"
#include "models/trainer.h"
#include "seal/feature_builder.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace amdgcnn;

void replay_layers(const ReplayInputs& in, Tracer& tracer, Report& report) {
  auto& g = *in.graph;
  const auto& predictor = *in.predictor;
  const auto& po = predictor.options();
  const int nproc = hardware_threads();
  util::Rng rng(in.seed * 0x2545F4914F6CDD1DULL + 5);

  // ---- graph -> seal -> infer, one link at a time.
  {
    auto ex = po.dataset.extract;
    ex.reuse_frontiers = po.reuse_frontiers;
    infer::Arena arena;
    predictor.frozen().warm_up(arena, po.warm_nodes, po.warm_edges);
    std::vector<double> out(static_cast<std::size_t>(in.num_classes));
    double nodes = 0.0;
    const auto n = std::min<std::size_t>(in.links.size(), 256);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& l = in.links[i];
      const auto id = static_cast<std::int64_t>(i);
      graph::EnclosingSubgraph sub;
      {
        ScopedSpan span(tracer, "graph.extract", -1, id);
        sub = graph::extract_enclosing_subgraph(g, l.a, l.b, ex);
      }
      nodes += static_cast<double>(sub.num_nodes());
      seal::SubgraphSample sample;
      {
        ScopedSpan span(tracer, "seal.build_sample", -1, id);
        sample = seal::build_sample(g, sub, 0, po.dataset.features);
      }
      ScopedSpan span(tracer, "infer.forward", -1, id);
      predictor.frozen().forward_logits(sample, arena, out.data());
    }
    report.fill("graph.extract_us", median(tracer.durations_us("graph.extract")), "us");
    report.fill("graph.subgraph_nodes", nodes / static_cast<double>(n), "count");
    report.fill("seal.build_sample_us",
                median(tracer.durations_us("seal.build_sample")), "us");
    report.fill("infer.forward_us", median(tracer.durations_us("infer.forward")), "us");
    report.fill("infer.arena_peak_bytes", static_cast<double>(arena.peak_bytes()),
                "bytes");
    report.fill("infer.weight_bytes", static_cast<double>(predictor.weight_bytes()),
                "bytes");
  }

  // ---- core: the serial reference path, one request at a time.
  std::vector<std::vector<seal::LinkExample>> requests;
  for (std::size_t i = 0; i + kLinksPerRequest <= in.links.size() && requests.size() < 32;
       i += kLinksPerRequest)
    requests.emplace_back(in.links.begin() + static_cast<std::ptrdiff_t>(i),
                          in.links.begin() +
                              static_cast<std::ptrdiff_t>(i + kLinksPerRequest));
  for (std::size_t r = 0; r < requests.size(); ++r) {
    ScopedSpan span(tracer, "core.predict_links", -1, static_cast<std::int64_t>(r));
    predictor.predict_links(g, requests[r]);
  }
  report.fill("core.predict_links_ms",
              median(tracer.durations_us("core.predict_links")) * 1e-3, "ms");

  // ---- seal build + models/tensor training layers on a fresh model copy.
  {
    auto dso = po.dataset;
    dso.num_threads = nproc;
    const auto t0 = Clock::now();
    const auto samples = seal::build_samples(g, in.labeled, dso);
    tracer.record("seal.build_samples", t0, Clock::now());
    report.fill("seal.build_links_per_s",
                static_cast<double>(in.labeled.size()) / seconds_since(t0), "1/s");

    const auto ckpt = in.cache_dir + "/replay.ckpt";
    models::save_weights(*in.model, ckpt);
    util::Rng init_rng(3);
    auto fresh = models::make_link_gnn(in.model->config(), init_rng);
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span(tracer, "models.load_weights");
      models::load_weights(*fresh, ckpt, "replay model");
    }
    std::filesystem::remove(ckpt);
    report.fill("models.load_weights_ms",
                median(tracer.durations_us("models.load_weights")) * 1e-3, "ms");

    fresh->set_training(true);
    for (std::size_t i = 0; i < std::min<std::size_t>(samples.size(), 64); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      ag::Tensor loss;
      {
        ScopedSpan span(tracer, "models.forward", -1, id);
        const auto logits = fresh->forward(samples[i], rng);
        loss = ag::ops::cross_entropy(
            logits, {static_cast<std::int64_t>(samples[i].label)});
      }
      {
        ScopedSpan span(tracer, "models.backward", -1, id);
        loss.backward();
      }
      ag::release_graph(loss);
    }
    report.fill("models.forward_us", median(tracer.durations_us("models.forward")), "us");
    report.fill("models.backward_us", median(tracer.durations_us("models.backward")),
                "us");

    // The train workload measured these on its own full-size epochs.
    if (!report.has("models.train_epoch_s")) {
      models::TrainConfig tc;
      tc.learning_rate = learning_rate();
      tc.dtype = ag::Dtype::f32;
      tc.num_threads = nproc;
      tc.seed = in.seed;
      models::Trainer trainer(*fresh, tc);
      reset_pool_counters();
      {
        ScopedSpan span(tracer, "models.train_epoch");
        trainer.train_epoch(samples);
      }
      const auto pool = pool_hits_misses();
      report.fill("tensor.pool_hit_frac", frac(pool.first, pool.first + pool.second),
                  "frac");
      report.fill("models.train_epoch_s",
                  median(tracer.durations_us("models.train_epoch")) * 1e-6, "s");
      {
        ScopedSpan span(tracer, "models.evaluate");
        trainer.evaluate(samples);
      }
      report.fill("models.evaluate_s",
                  median(tracer.durations_us("models.evaluate")) * 1e-6, "s");
    }
  }

  serve::ServerOptions so;
  so.num_workers = in.workers;

  // ---- serve: a short closed + open loop over the replay requests, for
  // workloads whose main phase does not serve.
  if (!report.has("serve.score_hit_frac") && !requests.empty()) {
    serve::Server server(predictor, g, so);
    LoadHooks hooks;
    // Sources cycle through the sampled links; every destination is drawn
    // fresh, so repeated pairs (and score-cache hits) stay rare.
    hooks.next = [&](std::int64_t i) {
      std::vector<seal::LinkExample> r;
      for (std::size_t j = 0; j < kLinksPerRequest; ++j) {
        const auto a = in.links[(static_cast<std::size_t>(i) * kLinksPerRequest + j) %
                                in.links.size()]
                           .a;
        auto b = static_cast<graph::NodeId>(
            rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes())));
        if (b == a) b = (b + 1) % static_cast<graph::NodeId>(g.num_nodes());
        r.push_back({a, b, 0});
      }
      return r;
    };
    const auto fc0 = graph::frontier_cache_stats();
    const auto closed = closed_loop(server, hooks, 0, kClosedLoopOutstanding, 1.0, tracer);
    const double rate =
        0.5 * static_cast<double>(closed.sent) / std::max(closed.measured_s, 1e-9);
    const auto open = open_loop(server, hooks, closed.sent, rate, in.seed, 1.0, tracer);
    report_serving_layers(report, server.stats(), closed, open, fc0,
                          graph::frontier_cache_stats());
  }

  // ---- graph updates: invalidation cost per update, update and compaction
  // latency, on workloads whose main phase does not write.
  if (!report.has("graph.update_us") && !requests.empty()) {
    serve::Server server(predictor, g, so);
    const auto& batch = requests.front();
    server.score_batch(batch);
    server.score_batch(batch);  // every pair now cached
    const auto before = server.stats();
    std::vector<std::pair<graph::NodeId, graph::NodeId>> added;
    for (const auto& l : batch) {
      const auto v = static_cast<graph::NodeId>(
          rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes())));
      if (v == l.a || g.has_edge(l.a, v)) continue;
      ScopedSpan span(tracer, "graph.update");
      g.insert_edge(l.a, v, 0);
      added.emplace_back(l.a, v);
    }
    for (const auto& [a, b] : added) {
      ScopedSpan span(tracer, "graph.update");
      g.delete_edge(a, b);
    }
    server.score_batch(batch);
    const auto after = server.stats();
    const auto updates = static_cast<double>(2 * added.size());
    report.fill("graph.update_us", median(tracer.durations_us("graph.update")), "us");
    report.fill("serve.invalidated_per_update",
                frac(static_cast<double>(after.score_invalidated + after.endpoint_invalidated -
                                         before.score_invalidated -
                                         before.endpoint_invalidated),
                     updates),
                "count");
  }
  if (!report.has("graph.compact_ms")) {
    ScopedSpan span(tracer, "graph.compact");
    g.compact();
  }
  report.fill("graph.compact_ms", median(tracer.durations_us("graph.compact")) * 1e-3,
              "ms");

  // ---- snapshot load, for workloads whose set-up does not map one.
  if (!report.has("graph.snapshot_load_ms")) {
    if (g.overlay_depth() > 0) g.compact();
    const auto path = in.cache_dir + "/replay.snap";
    g.save_snapshot(path);
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span(tracer, "graph.snapshot_load");
      const auto loaded =
          graph::KnowledgeGraph::load_snapshot(path, graph::SnapshotLoadMode::kMap);
    }
    std::filesystem::remove(path);
    report.fill("graph.snapshot_load_ms",
                median(tracer.durations_us("graph.snapshot_load")) * 1e-3, "ms");
  }
}

}  // namespace perfbench
