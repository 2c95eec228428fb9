// Batched link-classification inference (DESIGN.md §2.4).
//
// LinkPredictor freezes a trained model once and answers candidate-link
// queries through a per-link pipeline: enclosing-subgraph extraction -> DRNL
// labelling -> feature tensors -> arena-allocated frozen forward.  Each link
// runs all four stages back to back on one worker (the sample tensors are
// still cache-hot when the forward reads them, and nothing is materialised
// batch-wide), and links are independent, so the batch parallelises with the
// same deterministic util::parallel_for pattern as seal::build_samples: probabilities
// are bit-identical for ANY worker count, including the serial path.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "infer/frozen_model.h"
#include "seal/dataset.h"

namespace amdgcnn::core {

struct LinkPredictions {
  /// Row-major [links.size(), num_classes] class probabilities.
  std::vector<double> proba;
  /// Argmax class per link.
  std::vector<std::int32_t> labels;
  std::int64_t num_classes = 0;
};

class LinkPredictor {
 public:
  struct Options {
    /// Extraction / DRNL / feature options plus the worker count, exactly as
    /// used to build the training dataset (the features MUST match what the
    /// model was trained on).  num_threads: 0 = serial, >= 1 = up to that
    /// many util::parallel_for workers.
    seal::SealDatasetOptions dataset;
    /// Warm-up hints: when > 0, the constructor runs one synthetic forward
    /// of this size so the serial arena is right-sized before the first real
    /// query.  Worker arenas warm up on their first query instead.
    std::int64_t warm_nodes = 0;
    std::int64_t warm_edges = 0;
    /// Per-endpoint score cache for the dynamic-graph serving scenario
    /// (DESIGN.md §2.5).  Each cached (a, b) entry remembers the hop-hull of
    /// its extraction plus the graph generation at fill time; a hit is only
    /// served when no hull node has been touched by a later insert/delete
    /// (KnowledgeGraph::node_generation), so scores are always bit-identical
    /// to the cold path.  compact() preserves generations, so compaction
    /// never evicts anything.  The cache assumes one serving graph per
    /// predictor (it resets when a different graph instance is passed) and
    /// that predict_links calls are not issued concurrently.
    bool cache_scores = false;
    /// Entry cap; the cache is wiped when it would grow past this (simple,
    /// deterministic policy — the serving workload re-fills it in one pass).
    std::size_t cache_capacity = 1 << 16;
    /// Reuse hop-bounded BFS frontiers across links sharing an endpoint
    /// (graph::ExtractOptions::reuse_frontiers): candidate batches fan one
    /// source out against many destinations, exactly the cache's hit shape.
    /// On by default — extraction bytes are unchanged, only time.
    bool reuse_frontiers = true;
    /// Quantize-on-freeze scheme (DESIGN.md §2.7).  kNone keeps the exact
    /// bit-identical forward; kF16 / kQ8 shrink the resident weights and run
    /// the relaxed-numerics f32 forward — still deterministic for any worker
    /// count, but not bit-identical to the exact path.
    ag::quant::Scheme quantize = ag::quant::Scheme::kNone;
  };

  struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;        // cold entries (includes invalidations)
    std::int64_t invalidated = 0;   // evicted because a hull node went dirty
    std::int64_t evictions = 0;     // entries dropped by a capacity wipe
  };

  /// One plain snapshot of every cache the predictor's pipeline touches
  /// (serving dashboards and the benches read this instead of instrumenting
  /// call sites).  The score-cache rows are per-predictor; the frontier rows
  /// mirror graph::frontier_cache_stats(), which aggregates the per-thread
  /// extraction caches process-wide — with several live predictors they
  /// count all of them.
  struct Stats {
    CacheStats score;
    std::int64_t frontier_hits = 0;
    std::int64_t frontier_misses = 0;
    std::int64_t frontier_evictions = 0;
  };

  /// Snapshots `model`'s parameters (shared storage; the model may be
  /// dropped afterwards).
  LinkPredictor(const models::LinkGNN& model, Options options);

  /// Classify a batch of candidate links against `g`.
  LinkPredictions predict_links(
      const graph::KnowledgeGraph& g,
      const std::vector<seal::LinkExample>& links) const;

  /// Logits / probabilities for one prebuilt sample, widened to double into
  /// `out[num_classes]`.  Logits are bit-identical to the training forward.
  void forward_logits(const seal::SubgraphSample& sample, double* out) const;
  void predict_proba_sample(const seal::SubgraphSample& sample,
                            double* out) const;

  /// High-water mark of the serial/single-sample arena (worker arenas are
  /// thread-local and not aggregated here).
  std::size_t arena_peak_bytes() const { return arena_.peak_bytes(); }

  /// Resident weight bytes of the frozen model (quantized payload when
  /// Options::quantize is active).
  std::size_t weight_bytes() const { return frozen_.weight_bytes(); }

  const models::ModelConfig& config() const { return frozen_.config(); }
  const Options& options() const { return options_; }

  const CacheStats& cache_stats() const { return cache_stats_; }
  Stats stats() const;
  std::size_t cache_size() const { return cache_.size(); }
  void clear_cache() const;

  /// The frozen forward engine, for callers that manage their own arenas
  /// (the serving runtime gives every pool worker a warm one).  Logits /
  /// probabilities through this handle are exactly the ones predict_links
  /// produces — same kernels, same accumulation order.
  const infer::FrozenModel& frozen() const { return frozen_; }

 private:
  struct CacheEntry {
    std::vector<double> proba;           // one row, num_classes wide
    std::vector<graph::NodeId> members;  // hop-hull at fill time
    std::uint64_t generation = 0;        // graph generation at fill time
  };

  /// Batched scoring without the cache (the pre-dynamic-graph path).
  void predict_links_cold(const graph::KnowledgeGraph& g,
                          const std::vector<seal::LinkExample>& links,
                          LinkPredictions& result) const;
  void predict_links_cached(const graph::KnowledgeGraph& g,
                            const std::vector<seal::LinkExample>& links,
                            LinkPredictions& result) const;

  infer::FrozenModel frozen_;
  Options options_;
  mutable infer::Arena arena_;  // serial path + single-sample helpers

  // Score cache (active when options_.cache_scores); keyed by the ordered
  // (a, b) pair packed into one word.  Mutable: predict_links stays const
  // for cache-off callers, and the cache is an observably-pure memo — every
  // hit is bit-identical to recomputation (asserted by the coherence
  // property suite).
  mutable std::unordered_map<std::uint64_t, CacheEntry> cache_;
  mutable const graph::KnowledgeGraph* cache_graph_ = nullptr;
  mutable CacheStats cache_stats_;
};

}  // namespace amdgcnn::core
