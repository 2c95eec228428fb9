#include "core/link_predictor.h"

#include <algorithm>
#include <stdexcept>

#include "metrics/classification.h"
#include "util/worker_pool.h"

namespace amdgcnn::core {

namespace {
/// One arena per worker thread, shared across LinkPredictor instances (the
/// arena is shape-agnostic and grows to the largest pass it ever serves).
infer::Arena& tls_arena() {
  thread_local infer::Arena arena;
  return arena;
}
}  // namespace

LinkPredictor::LinkPredictor(const models::LinkGNN& model, Options options)
    : frozen_(model, options.quantize), options_(std::move(options)) {
  if (options_.dataset.num_threads < 0)
    throw std::invalid_argument("LinkPredictor: num_threads must be >= 0");
  options_.dataset.extract.reuse_frontiers = options_.reuse_frontiers;
  if (options_.warm_nodes > 0)
    frozen_.warm_up(arena_, options_.warm_nodes, options_.warm_edges);
}

LinkPredictions LinkPredictor::predict_links(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links) const {
  const std::int64_t c = frozen_.config().num_classes;
  LinkPredictions result;
  result.num_classes = c;
  result.proba.resize(links.size() * static_cast<std::size_t>(c));

  if (options_.cache_scores)
    predict_links_cached(g, links, result);
  else
    predict_links_cold(g, links, result);

  result.labels = metrics::argmax_rows(result.proba, c);
  return result;
}

void LinkPredictor::predict_links_cold(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links,
    LinkPredictions& result) const {
  const std::int64_t c = result.num_classes;
  const auto n = static_cast<std::int64_t>(links.size());

  if (options_.dataset.num_threads == 0) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto sample = seal::make_sample(g, links[i], options_.dataset);
      frozen_.predict_proba(sample, arena_, result.proba.data() + i * c);
    }
  } else {
    // Deterministic parallel path (same pattern as seal::build_samples):
    // links are distributed dynamically, but each probability row lands in
    // its pre-sized slot and depends only on its link — extraction scratch
    // comes from thread-local pools, activations from the worker's own
    // thread-local arena — so the batch is bit-identical for any worker
    // count.  The failure of the lowest link index is rethrown after the
    // join with stage context.
    util::parallel_for(
        "predict_links", n, options_.dataset.num_threads, [&](std::int64_t i) {
          const auto sample = seal::make_sample(g, links[i], options_.dataset);
          frozen_.predict_proba(sample, tls_arena(),
                                result.proba.data() + i * c);
        });
  }
}

namespace {
std::uint64_t cache_key(graph::NodeId a, graph::NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b));
}
}  // namespace

void LinkPredictor::predict_links_cached(
    const graph::KnowledgeGraph& g,
    const std::vector<seal::LinkExample>& links,
    LinkPredictions& result) const {
  const std::int64_t c = result.num_classes;
  const auto n = static_cast<std::int64_t>(links.size());
  if (cache_graph_ != &g) {  // new serving graph: nothing cached applies
    cache_.clear();
    cache_graph_ = &g;
  }

  // Phase 1 (serial): serve hits, collect misses.  An entry is live iff no
  // node of its hop-hull was touched after it was filled — any mutation
  // that could change the enclosing subgraph of (a, b) stamps a hull node
  // with a later generation (see EnclosingSubgraph::hull).
  std::vector<std::int64_t> miss;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto it = cache_.find(cache_key(links[i].a, links[i].b));
    if (it != cache_.end()) {
      const CacheEntry& entry = it->second;
      bool live = true;
      for (const auto v : entry.members)
        if (g.node_generation(v) > entry.generation) {
          live = false;
          break;
        }
      if (live) {
        std::copy(entry.proba.begin(), entry.proba.end(),
                  result.proba.begin() + i * c);
        ++cache_stats_.hits;
        continue;
      }
      cache_.erase(it);
      ++cache_stats_.invalidated;
    }
    ++cache_stats_.misses;
    miss.push_back(i);
  }
  if (miss.empty()) return;

  // Phase 2: score the misses with the cold pipeline (serial or the
  // deterministic parallel path), keeping each extraction's hull around.
  const auto m = static_cast<std::int64_t>(miss.size());
  std::vector<std::vector<graph::NodeId>> hulls(miss.size());
  auto extract_opts = options_.dataset.extract;
  extract_opts.collect_hull = true;
  auto score_one = [&](std::int64_t k, infer::Arena& arena) {
    const auto& link = links[static_cast<std::size_t>(miss[k])];
    auto sub = graph::extract_enclosing_subgraph(g, link.a, link.b,
                                                 extract_opts);
    const auto sample =
        seal::build_sample(g, sub, link.label, options_.dataset.features);
    frozen_.predict_proba(sample, arena,
                          result.proba.data() + miss[k] * c);
    hulls[static_cast<std::size_t>(k)] = std::move(sub.hull);
  };
  if (options_.dataset.num_threads == 0) {
    for (std::int64_t k = 0; k < m; ++k) score_one(k, arena_);
  } else {
    util::parallel_for("predict_links(cached)", m,
                       options_.dataset.num_threads,
                       [&](std::int64_t k) { score_one(k, tls_arena()); });
  }

  // Phase 3 (serial, after the join): admit the fresh entries.  Wipe-on-full
  // keeps the policy deterministic and branch-free; the snapshot generation
  // is the graph's current one (no mutation can interleave with a
  // predict_links call — single-writer contract).
  const std::uint64_t gen = g.generation();
  for (std::int64_t k = 0; k < m; ++k) {
    if (cache_.size() >= options_.cache_capacity) {
      cache_stats_.evictions += static_cast<std::int64_t>(cache_.size());
      cache_.clear();
    }
    const auto& link = links[static_cast<std::size_t>(miss[k])];
    CacheEntry entry;
    entry.proba.assign(result.proba.begin() + miss[k] * c,
                       result.proba.begin() + (miss[k] + 1) * c);
    entry.members = std::move(hulls[static_cast<std::size_t>(k)]);
    entry.generation = gen;
    cache_[cache_key(link.a, link.b)] = std::move(entry);
  }
}

LinkPredictor::Stats LinkPredictor::stats() const {
  Stats s;
  s.score = cache_stats_;
  const auto f = graph::frontier_cache_stats();
  s.frontier_hits = f.hits;
  s.frontier_misses = f.misses;
  s.frontier_evictions = f.evictions;
  return s;
}

void LinkPredictor::clear_cache() const {
  cache_.clear();
  cache_graph_ = nullptr;
  cache_stats_ = CacheStats{};
}

void LinkPredictor::forward_logits(const seal::SubgraphSample& sample,
                                   double* out) const {
  frozen_.forward_logits(sample, arena_, out);
}

void LinkPredictor::predict_proba_sample(const seal::SubgraphSample& sample,
                                         double* out) const {
  frozen_.predict_proba(sample, arena_, out);
}

}  // namespace amdgcnn::core
