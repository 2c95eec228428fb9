// Workload entry points and the constants that define them.
//
// Every constant that shapes a workload lives here, so a reader can see the
// whole benchmark definition in one place (perfbench/README.md explains why
// each workload exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/link_predictor.h"
#include "graph/knowledge_graph.h"
#include "models/link_gnn.h"
#include "seal/dataset.h"

namespace perfbench {

namespace core = amdgcnn::core;
namespace graph = amdgcnn::graph;
namespace models = amdgcnn::models;
namespace seal = amdgcnn::seal;

// ---- Shared model / pipeline shape -----------------------------------------
// The paper's SEAL pipeline: 2-hop enclosing subgraphs capped at 48 nodes,
// DRNL labels clamped at 24, AM-DGCNN with the Cora-tuned defaults
// (hidden 64, SortPooling k = 30, lr 2e-3), f32 end to end.
inline constexpr std::int64_t kMaxSubgraphNodes = 48;
inline constexpr std::int64_t kMaxDrnlLabel = 24;

seal::SealDatasetOptions dataset_options(graph::NeighborhoodMode mode,
                                         std::int64_t threads);
models::ModelConfig model_config(const graph::KnowledgeGraph& g,
                                 const seal::FeatureOptions& features,
                                 std::int64_t num_classes);
double learning_rate();

// ---- train ------------------------------------------------------------------
inline constexpr std::int64_t kTrainLinks = 3000;
inline constexpr std::int64_t kTestLinks = 1500;
/// Set-up is timed this many times before the first cycle and, in untraced
/// runs, once after each cycle.
inline constexpr int kTrainSetupRepsBefore = 3;
/// --seconds is split into kTrainCycles cycles; kTrainEpochShare of each
/// cycle's time goes to whole epochs, the rest to single-batch calls.  The
/// per-cycle counts are round(time / expected seconds per call), at least
/// one, from these estimates for a 4-vCPU x86-64 host.
inline constexpr int kTrainCycles = 5;
inline constexpr double kTrainEpochShare = 0.5;
inline constexpr double kTrainSecondsPerEpoch = 1.2;
inline constexpr double kTrainSecondsPerStep = 0.012;
/// A run fails when held-out macro AUC ends below this floor.
inline constexpr double kTrainAucFloor = 0.80;

// ---- serve-cold / serve-hot -------------------------------------------------
/// The deployed graph and model are fixed (prepared once per checkout);
/// --seed drives the request stream, the updates and the check sample.
inline constexpr std::int64_t kServeNodes = 200'000;
inline constexpr std::uint64_t kServeGraphSeed = 7;
/// make_scale_kg types an edge (type(u) + type(v)) mod kServeEdgeTypes with
/// 10% noise; with two node types and three relations the relation counts
/// the endpoints of type 1 — a signal the edge-aware model can learn, so the
/// served answers carry a meaningful test_auc.
inline constexpr std::int32_t kServeNodeTypes = 2;
inline constexpr std::int32_t kServeEdgeTypes = 3;
/// Endpoints with more neighbors than this are hubs; streams avoid them.
inline constexpr std::int64_t kHubDegree = 16;
/// Served links are classified by relation type (the paper's task); the
/// checkpoint is trained on this many labeled non-hub edges.
inline constexpr std::int64_t kServeTrainLinks = 3000;
inline constexpr std::int64_t kServeTestLinks = 600;
inline constexpr std::int64_t kServeTrainEpochs = 6;
/// Set-up is timed this many times before the first phase cycle and after
/// each cycle.
inline constexpr int kSetupReps = 4;
/// Every request carries kLinksPerRequest links: the request shape of the
/// repository's serving bench (bench/bench_serving_throughput scores 32
/// links per request in its full cora-sim and scale-kg rows).  One size, so
/// the latency tail (load.req_p99_ms) is the tail of that size.
inline constexpr std::size_t kLinksPerRequest = 32;
inline constexpr std::size_t kClosedLoopOutstanding = 4;
/// The measured time is split into kPhaseCycles cycles, each a closed-loop
/// slice (kClosedShare of the cycle) followed by an open-loop slice, so both
/// phases sample the host over the whole run rather than one stretch of it.
inline constexpr int kPhaseCycles = 5;
inline constexpr double kClosedShare = 0.25;
/// Closed-loop throughput is the median over windows of this many
/// completions; on serve-hot a window spans one whole update and compaction
/// cycle (update_every * compact_every requests).
inline constexpr std::size_t kClosedWindow = 64;
/// One request in this many is byte-checked against serial predict_links.
inline constexpr std::uint64_t kCheckEvery = 24;
/// Labeled links among the first this-many answered ones give test_auc.
inline constexpr std::size_t kAucLinks = 16000;

struct ServeShape {
  const char* name;
  bool quantized;            // q8 checkpoint + relaxed forward
  double open_rate_rps;      // open-loop arrival rate (requests/s)
  double repeat_share;       // links that repeat a recent pair
  std::size_t hot_sources;   // 0 = every endpoint pair fresh (cold path)
  std::int64_t update_every; // requests between update batches (0 = none)
  std::int64_t updates_per_batch;
  std::int64_t compact_every;  // update batches between compact() calls
};
const ServeShape& serve_shape(const std::string& workload);

std::string snapshot_path(const std::string& cache_dir);
std::string checkpoint_path(const std::string& cache_dir, bool quantized);

// ---- entry points -------------------------------------------------------------
int run_train(const RunOptions& options);
int run_serve(const RunOptions& options);
/// Build the serving snapshot and both checkpoints into `cache_dir`.
int prep_serve(const std::string& cache_dir);

// ---- traced layer replay --------------------------------------------------------
/// Inputs of the traced replay: a seeded sample of one workload's links and
/// labeled samples, pushed through each module's public calls.  Metrics the
/// workload's main phase already measured are kept (Report::fill).
struct ReplayInputs {
  graph::KnowledgeGraph* graph = nullptr;  // mutated by the update replay
  const core::LinkPredictor* predictor = nullptr;
  models::LinkGNN* model = nullptr;  // weights source for fresh models
  std::vector<seal::LinkExample> links;    // unlabeled request links
  std::vector<seal::LinkExample> labeled;  // labeled links (training side)
  std::int64_t num_classes = 0;
  int workers = 1;
  std::uint64_t seed = 1;
  std::string cache_dir;
};
void replay_layers(const ReplayInputs& in, Tracer& tracer, Report& report);

/// Tensor buffer-pool hits and misses summed over this thread and every
/// OpenMP worker thread.
std::pair<double, double> pool_hits_misses();
void reset_pool_counters();

}  // namespace perfbench
