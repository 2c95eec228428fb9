// Workload `train`: primekg-sim with edge attributes, the paper's headline
// setting.  Set-up is generation + SEAL sample build; the measured phases
// train AM-DGCNN in f32 with build and trainer both at nproc threads, in
// kTrainCycles cycles of two slices:
//
//   epochs  whole Trainer::train_epoch calls over the full training set, as
//           the program trains.  links_per_s = training links (SEAL
//           samples) per second, median over epochs.
//   steps   one train_epoch call per 32-link batch of a seeded permutation,
//           so a single optimiser call's latency is visible from outside
//           the trainer.  req_p50_ms is the median of that per-call latency.
//
// test_auc = held-out macro AUC after the last cycle.
#include <cmath>
#include <numeric>

#include "datasets/primekg_sim.h"
#include "models/trainer.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace amdgcnn;

int run_train(const RunOptions& opt) {
  Tracer tracer(opt.trace);
  Report report;
  HostProbe host;
  const int nproc = hardware_threads();
  host.sample("start");

  // ---- Set-up: generation + build_samples, timed kTrainSetupRepsBefore
  // times before the first cycle and, in untraced runs, once after each
  // cycle, so its median samples the host over the whole run.  Every
  // set-up frees the previous inputs and rebuilds the same ones from the
  // same seed, so no second copy is held and peak_rss_mb is the program's.
  datasets::PrimeKGSimOptions po;
  po.seed = opt.seed;
  po.num_train = kTrainLinks;
  po.num_test = kTestLinks;
  datasets::LinkDataset data;
  seal::SealDataset ds;
  std::vector<double> setup_s, build_rate;
  const auto time_setups = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      data = datasets::LinkDataset{};  // off the clock
      ds = seal::SealDataset{};
      const auto t0 = Clock::now();
      data = datasets::make_primekg_sim(po);
      const auto t1 = Clock::now();
      ds = seal::build_seal_dataset(
          data.graph, data.train_links, data.test_links, data.num_classes,
          dataset_options(data.neighborhood_mode, nproc));
      const auto t2 = Clock::now();
      tracer.record("datasets.generate", t0, t1);
      tracer.record("seal.build_samples", t1, t2);
      setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
      build_rate.push_back(
          static_cast<double>(kTrainLinks + kTestLinks) /
          std::chrono::duration<double>(t2 - t1).count());
    }
  };
  time_setups(kTrainSetupRepsBefore);
  host.sample("after-setup");

  // ---- Training.
  const auto features = dataset_options(data.neighborhood_mode, 0).features;
  const auto mc = model_config(data.graph, features, data.num_classes);
  util::Rng init_rng(opt.seed * 0x9E3779B97F4A7C15ULL + 1);
  auto model = models::make_link_gnn(mc, init_rng);
  models::TrainConfig tc;
  tc.learning_rate = learning_rate();
  tc.dtype = ag::Dtype::f32;
  tc.num_threads = nproc;
  tc.seed = opt.seed;
  models::Trainer trainer(*model, tc);

  // ---- Measured phases: kTrainCycles cycles, each a slice of whole epochs
  // followed by a slice of single-batch calls, so both metrics sample the
  // host over the whole run.  The call counts depend only on --seconds,
  // never on measured speed, so test_auc is a deterministic function of
  // (seed, seconds).
  const double cycle_s = opt.seconds / kTrainCycles;
  const auto epochs_per_cycle = std::max<std::int64_t>(
      1, std::llround(cycle_s * kTrainEpochShare / kTrainSecondsPerEpoch));
  const auto steps_per_cycle = std::max<std::int64_t>(
      1, std::llround(cycle_s * (1.0 - kTrainEpochShare) / kTrainSecondsPerStep));
  util::Rng order_rng(opt.seed * 0xD1B54A32D192ED03ULL + 3);
  std::vector<std::size_t> order(ds.train.size());
  std::size_t next = order.size();  // position in the permutation
  std::vector<seal::SubgraphSample> batch;
  const auto batch_size = static_cast<std::size_t>(tc.batch_size);
  std::vector<double> epoch_s, step_ms;
  std::int64_t bad_losses = 0;
  if (opt.trace) reset_pool_counters();
  for (int c = 0; c < kTrainCycles; ++c) {
    for (std::int64_t e = 0; e < epochs_per_cycle; ++e) {
      const auto t0 = Clock::now();
      const double loss = trainer.train_epoch(ds.train);
      const auto t1 = Clock::now();
      tracer.record("models.train_epoch", t0, t1);
      epoch_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      if (!std::isfinite(loss)) ++bad_losses;
    }
    for (std::int64_t k = 0; k < steps_per_cycle; ++k) {
      if (next >= order.size()) {
        std::iota(order.begin(), order.end(), std::size_t{0});
        order_rng.shuffle(order);
        next = 0;
      }
      batch.clear();
      for (; batch.size() < batch_size && next < order.size(); ++next)
        batch.push_back(ds.train[order[next]]);
      const auto t0 = Clock::now();
      const double loss = trainer.train_epoch(batch);
      const auto t1 = Clock::now();
      tracer.record("models.train_step", t0, t1);
      step_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (!std::isfinite(loss)) ++bad_losses;
    }
    host.sample("after-cycle-" + std::to_string(c + 1));
    if (!opt.trace) time_setups(1);  // keeps the pool counters to training
  }
  const double train_s =
      std::accumulate(epoch_s.begin(), epoch_s.end(), 0.0) +
      std::accumulate(step_ms.begin(), step_ms.end(), 0.0) * 1e-3;
  const auto pool = opt.trace ? pool_hits_misses() : std::make_pair(0.0, 0.0);

  const auto te0 = Clock::now();
  const auto eval = trainer.evaluate(ds.test);
  const auto te1 = Clock::now();
  tracer.record("models.evaluate", te0, te1);
  const double auc = eval.metrics.macro_auc;
  const bool auc_ok = std::isfinite(auc) && auc >= kTrainAucFloor;

  // Every train_epoch call (whole epoch or single batch) + the AUC check.
  const auto calls = static_cast<std::int64_t>(epoch_s.size() + step_ms.size());
  const std::int64_t attempted = calls + 1;
  const std::int64_t failed = bad_losses + (auc_ok ? 0 : 1);

  print_info("inputs",
             JsonObject()
                 .str("workload", "train")
                 .integer("graph_nodes", data.graph.num_nodes())
                 .integer("graph_edges", data.graph.num_live_edges())
                 .integer("train_links", kTrainLinks)
                 .integer("test_links", kTestLinks)
                 .num("distinct_pair_ratio", 1.0)
                 .num("repeated_pair_share", 0.0)
                 .str("update_cadence", "none")
                 .num("mean_subgraph_nodes", ds.mean_subgraph_nodes())
                 .integer("epochs", static_cast<std::int64_t>(epoch_s.size()))
                 .integer("batch_size", tc.batch_size)
                 .integer("step_calls", static_cast<std::int64_t>(step_ms.size()))
                 .integer("build_threads", nproc)
                 .integer("train_threads", nproc)
                 .dump());
  print_info("checks", JsonObject()
                           .integer("finite_loss_calls", calls - bad_losses)
                           .integer("train_epoch_calls", calls)
                           .num("test_auc", auc)
                           .num("auc_floor", kTrainAucFloor)
                           .str("auc_check", auc_ok ? "pass" : "fail")
                           .dump());

  const auto main_spans = static_cast<double>(tracer.size());
  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s");
    std::vector<double> epoch_rate;
    for (double s : epoch_s)
      epoch_rate.push_back(static_cast<double>(ds.train.size()) / s);
    report.set("links_per_s", median(epoch_rate), "1/s");
    report.set("req_p50_ms", percentile(step_ms, 0.50), "ms");
    report.set("test_auc", auc, "auc");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    report.set("seal.build_links_per_s", median(build_rate), "1/s");
    report.set("models.train_epoch_s", median(epoch_s), "s");
    report.set("models.evaluate_s",
               std::chrono::duration<double>(te1 - te0).count(), "s");
    report.set("tensor.pool_hit_frac", frac(pool.first, pool.first + pool.second),
               "frac");

    // Serving-side layers: freeze the trained model and replay a seeded
    // sample of held-out links through them.
    core::LinkPredictor::Options lo;
    lo.dataset = dataset_options(data.neighborhood_mode, 0);
    lo.warm_nodes = kMaxSubgraphNodes;
    lo.warm_edges = kMaxSubgraphNodes * 16;
    const core::LinkPredictor predictor(*model, lo);
    ReplayInputs in;
    in.graph = &data.graph;
    in.predictor = &predictor;
    in.model = model.get();
    in.links = data.test_links;
    in.labeled.assign(data.train_links.begin(), data.train_links.begin() + 256);
    in.num_classes = data.num_classes;
    in.workers = std::max(1, nproc - 2);
    in.seed = opt.seed;
    in.cache_dir = opt.cache_dir;
    replay_layers(in, tracer, report);
  }
  finish_run(opt, tracer, report, host, main_spans, train_s, attempted, failed);
  return 0;
}

}  // namespace perfbench
