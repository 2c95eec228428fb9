// Heuristic link-scorer tests: exact values on toy graphs and the
// documented analytical properties of PageRank / Katz / SimRank.
#include <gtest/gtest.h>

#include <cmath>

#include "heuristics/katz.h"
#include "heuristics/local_scores.h"
#include "heuristics/pagerank.h"
#include "heuristics/pair_features.h"
#include "heuristics/scorer.h"
#include "heuristics/simrank.h"
#include "test_util.h"
#include "util/parallel_error.h"

namespace amdgcnn::heuristics {
namespace {

TEST(LocalScores, CommonNeighborsOnTriangle) {
  auto g = testing::triangle_with_tail();  // 0-1, 1-2, 0-2, 2-3
  EXPECT_DOUBLE_EQ(common_neighbors(g, 0, 1), 1.0);  // node 2
  EXPECT_DOUBLE_EQ(common_neighbors(g, 0, 3), 1.0);  // node 2
  EXPECT_DOUBLE_EQ(common_neighbors(g, 1, 3), 1.0);
  auto path = testing::path_graph(4);
  EXPECT_DOUBLE_EQ(common_neighbors(path, 0, 3), 0.0);
}

TEST(LocalScores, JaccardOnTriangle) {
  auto g = testing::triangle_with_tail();
  // N(0) = {1,2}, N(1) = {0,2}: intersection {2}, union {0,1,2} -> 1/3.
  EXPECT_NEAR(jaccard(g, 0, 1), 1.0 / 3.0, 1e-12);
  // Disjoint neighborhoods.
  auto path = testing::path_graph(5);
  EXPECT_DOUBLE_EQ(jaccard(path, 0, 4), 0.0);
}

TEST(LocalScores, AdamicAdarWeighsByInverseLogDegree) {
  auto g = testing::triangle_with_tail();
  // Common neighbor of (0,1) is node 2 with degree 3 -> 1/log 3.
  EXPECT_NEAR(adamic_adar(g, 0, 1), 1.0 / std::log(3.0), 1e-12);
  // Common neighbor of (1,3) is node 2 as well.
  EXPECT_NEAR(adamic_adar(g, 1, 3), 1.0 / std::log(3.0), 1e-12);
}

TEST(LocalScores, AdamicAdarSkipsDegreeOneNeighbors) {
  // Path 0-1-2: common neighbor 1 has degree 2 -> 1/log2; now a star where
  // the shared hub has degree exactly 1 cannot happen, but a degree-1 hub is
  // skipped (guard against log(1)=0 division).
  auto path = testing::path_graph(3);
  EXPECT_NEAR(adamic_adar(path, 0, 2), 1.0 / std::log(2.0), 1e-12);
}

TEST(LocalScores, PreferentialAttachment) {
  auto g = testing::triangle_with_tail();
  EXPECT_DOUBLE_EQ(preferential_attachment(g, 0, 2), 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(preferential_attachment(g, 3, 3), 1.0);
}

TEST(Katz, PathCountingOnPathGraph) {
  auto g = testing::path_graph(3);
  KatzOptions opts;
  opts.beta = 0.1;
  opts.max_length = 3;
  // Paths 0->1: length1 (1 path), length3 (0-1-0-1 and 0-1-2-1): beta +
  // 2 beta^3.
  EXPECT_NEAR(katz_index(g, 0, 1, opts), 0.1 + 2 * 0.001, 1e-12);
  // Paths 0->2: length 2 only (0-1-2) within length 3: beta^2.
  EXPECT_NEAR(katz_index(g, 0, 2, opts), 0.01, 1e-12);
}

TEST(Katz, SymmetricOnUndirectedGraphs) {
  auto g = testing::triangle_with_tail();
  for (graph::NodeId u = 0; u < 4; ++u)
    for (graph::NodeId v = 0; v < 4; ++v)
      EXPECT_NEAR(katz_index(g, u, v), katz_index(g, v, u), 1e-12);
}

TEST(Katz, ValidatesOptions) {
  auto g = testing::path_graph(3);
  KatzOptions bad;
  bad.beta = 1.5;
  EXPECT_THROW(katz_index(g, 0, 1, bad), std::invalid_argument);
  bad = KatzOptions{};
  bad.max_length = 0;
  EXPECT_THROW(katz_index(g, 0, 1, bad), std::invalid_argument);
}

TEST(PageRank, SumsToOneAndRanksHubsHigher) {
  auto g = testing::triangle_with_tail();
  auto pr = pagerank(g);
  double sum = 0.0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-8);
  // Node 2 (degree 3) outranks the pendant node 3.
  EXPECT_GT(pr[2], pr[3]);
  EXPECT_GT(pr[2], pr[0]);
}

TEST(PageRank, UniformOnRegularGraph) {
  // A 4-cycle is 2-regular: PageRank must be uniform.
  graph::KnowledgeGraph g(1, 1);
  for (int i = 0; i < 4; ++i) g.add_node(0);
  for (int i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4, 0);
  g.finalize();
  auto pr = pagerank(g);
  for (double v : pr) EXPECT_NEAR(v, 0.25, 1e-8);
}

TEST(PageRank, PersonalizedConcentratesAroundSource) {
  auto g = testing::path_graph(6);
  auto ppr = personalized_pagerank(g, 0);
  // The degree-1 source hands all mass to its neighbor, so ppr[1] may top
  // ppr[0]; the decay property holds from the neighbor outward.
  EXPECT_GT(ppr[1], ppr[3]);
  EXPECT_GT(ppr[3], ppr[5]);
  EXPECT_GT(ppr[0], ppr[5]);
}

TEST(PageRank, LinkScoreSymmetricAndHigherForCloserPairs) {
  auto g = testing::path_graph(6);
  EXPECT_NEAR(ppr_link_score(g, 0, 1), ppr_link_score(g, 1, 0), 1e-12);
  EXPECT_GT(ppr_link_score(g, 0, 1), ppr_link_score(g, 0, 5));
}

TEST(PageRank, ValidatesOptions) {
  auto g = testing::path_graph(3);
  PageRankOptions bad;
  bad.damping = 1.0;
  EXPECT_THROW(pagerank(g, bad), std::invalid_argument);
  EXPECT_THROW(personalized_pagerank(g, 9), std::invalid_argument);
}

TEST(SimRank, SelfSimilarityIsOneAndSymmetric) {
  auto g = testing::triangle_with_tail();
  auto sim = simrank(g);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  for (std::size_t v = 0; v < n; ++v)
    EXPECT_DOUBLE_EQ(sim[v * n + v], 1.0);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v)
      EXPECT_NEAR(sim[u * n + v], sim[v * n + u], 1e-12);
}

TEST(SimRank, StructurallyEquivalentNodesScoreHighest) {
  // Star: leaves 1..3 around hub 0 are structurally identical.
  graph::KnowledgeGraph g(1, 1);
  for (int i = 0; i < 4; ++i) g.add_node(0);
  for (int i = 1; i < 4; ++i) g.add_edge(0, i, 0);
  g.finalize();
  SimRankOptions opts;
  opts.iterations = 8;
  auto sim = simrank(g, opts);
  // Leaf-leaf similarity equals decay C (all their neighbors coincide).
  EXPECT_NEAR(sim[1 * 4 + 2], opts.decay, 1e-9);
  EXPECT_GT(sim[1 * 4 + 2], sim[0 * 4 + 1]);
}

// An out-of-range node inside the parallel feature matrix must not tear
// down the process: the join rethrows util::WorkerError for the LOWEST
// failing pair, with the graph's range error nested.
TEST(PairFeatureMatrix, BadPairIsDeterministicWorkerError) {
  auto g = testing::path_graph(6);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (int r = 0; r < 4; ++r)
    for (graph::NodeId u = 0; u < 5; ++u) pairs.push_back({u, u + 1});
  pairs[2].second = 40;  // first failure: the one that must be reported
  pairs[11].first = 99;
  try {
    pair_feature_matrix(g, pairs);
    FAIL() << "expected util::WorkerError";
  } catch (const util::WorkerError& e) {
    EXPECT_EQ(e.item(), 2);
    EXPECT_NE(std::string(e.what()).find(
                  "pair_feature_matrix: worker failed at item 2"),
              std::string::npos)
        << e.what();
    EXPECT_THROW(std::rethrow_if_nested(e), std::invalid_argument);
  }
}

TEST(SimRank, EnforcesSizeCap) {
  auto g = testing::path_graph(5);
  SimRankOptions opts;
  opts.max_nodes = 3;
  EXPECT_THROW(simrank(g, opts), std::invalid_argument);
}

TEST(ScorerSuite, StandardScorersSeparateEdgePairsOnCommunityGraph) {
  // Two dense cliques: real edges inside cliques should outrank random
  // cross pairs for neighborhood-based scorers.
  graph::KnowledgeGraph g(1, 1);
  for (int i = 0; i < 12; ++i) g.add_node(0);
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 6; ++i)
      for (int j = i + 1; j < 6; ++j)
        g.add_edge(c * 6 + i, c * 6 + j, 0);
  g.add_edge(0, 6, 0);  // one bridge
  g.finalize();

  std::vector<seal::LinkExample> links;
  for (int i = 0; i < 5; ++i) links.push_back({0, static_cast<graph::NodeId>(i + 1), 1});
  for (int i = 1; i < 6; ++i)
    links.push_back({static_cast<graph::NodeId>(i),
                     static_cast<graph::NodeId>(i + 6), 0});

  for (const auto& scorer : standard_scorers()) {
    if (scorer.name == "preferential-attachment") continue;  // degree-blind here
    const double auc = scorer_auc(scorer, g, links);
    EXPECT_GT(auc, 0.9) << scorer.name;
  }
  EXPECT_EQ(standard_scorers().size(), 5u);
}

}  // namespace
}  // namespace amdgcnn::heuristics
