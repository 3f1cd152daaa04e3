#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datasets/datasets.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "graph/triangles.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder(0);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, SingleVertexNoEdges) {
  GraphBuilder builder(1);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, SelfLoopsDropped) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 0);
  builder.AddEdge(1, 1);
  builder.AddEdge(0, 1);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, DuplicateEdgesCollapsed) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  AttributedGraph g = builder.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, AttributesStored) {
  AttributedGraph g = MakeGraph("ab", {{0, 1}});
  EXPECT_EQ(g.attribute(0), Attribute::kA);
  EXPECT_EQ(g.attribute(1), Attribute::kB);
  EXPECT_EQ(g.attribute_counts().a(), 1);
  EXPECT_EQ(g.attribute_counts().b(), 1);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  AttributedGraph g = RandomAttributedGraph(60, 0.2, 101);
  EXPECT_TRUE(g.Validate().ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (VertexId w : nbrs) {
      auto back = g.neighbors(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v));
    }
  }
}

TEST(GraphTest, HasEdgeAgainstAdjacency) {
  AttributedGraph g = RandomAttributedGraph(40, 0.15, 7);
  std::set<std::pair<VertexId, VertexId>> edge_set;
  for (const Edge& e : g.edges()) edge_set.insert({e.u, e.v});
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      EXPECT_EQ(g.HasEdge(u, v), edge_set.count({u, v}) > 0);
      EXPECT_EQ(g.HasEdge(v, u), g.HasEdge(u, v));
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(GraphTest, FindEdgeReturnsConsistentIds) {
  AttributedGraph g = RandomAttributedGraph(30, 0.3, 3);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges()[e];
    EXPECT_EQ(g.FindEdge(edge.u, edge.v), e);
    EXPECT_EQ(g.FindEdge(edge.v, edge.u), e);
  }
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);
}

TEST(GraphTest, MaxDegreeMatchesManualScan) {
  AttributedGraph g = RandomAttributedGraph(50, 0.25, 9);
  uint32_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    expected = std::max(expected, g.degree(v));
  }
  EXPECT_EQ(g.max_degree(), expected);
}

TEST(InducedSubgraphTest, TriangleFromSquareWithDiagonal) {
  // 0-1-2-3-0 plus diagonal 0-2.
  AttributedGraph g =
      MakeGraph("abab", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<VertexId> verts{0, 1, 2};
  std::vector<VertexId> original;
  AttributedGraph sub = g.InducedSubgraph(verts, &original);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);  // Triangle 0-1-2.
  EXPECT_EQ(original, verts);
  EXPECT_EQ(sub.attribute(0), Attribute::kA);
  EXPECT_EQ(sub.attribute(1), Attribute::kB);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(InducedSubgraphTest, PreservesEdgesExactly) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 21);
  std::vector<VertexId> verts{3, 8, 9, 15, 22, 31, 39};
  AttributedGraph sub = g.InducedSubgraph(verts);
  for (size_t i = 0; i < verts.size(); ++i) {
    for (size_t j = i + 1; j < verts.size(); ++j) {
      EXPECT_EQ(sub.HasEdge(static_cast<VertexId>(i), static_cast<VertexId>(j)),
                g.HasEdge(verts[i], verts[j]));
    }
  }
}

TEST(FilteredSubgraphTest, DropsDeadVerticesAndEdges) {
  AttributedGraph g =
      MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<uint8_t> valive{1, 1, 1, 0};
  std::vector<uint8_t> ealive(g.num_edges(), 1);
  ealive[g.FindEdge(0, 2)] = 0;
  std::vector<VertexId> original;
  AttributedGraph sub = g.FilteredSubgraph(valive, ealive, &original);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 0-1, 1-2 survive; 0-2 dropped; 3 dead.
  EXPECT_EQ(original, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(ConnectedComponentsTest, SplitsDisjointTriangles) {
  AttributedGraph g =
      MakeGraph("aaabbb", {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(comps[1], (std::vector<VertexId>{3, 4, 5}));
}

TEST(ConnectedComponentsTest, IsolatedVerticesAreSingletons) {
  AttributedGraph g = MakeGraph("aab", {{0, 1}});
  auto comps = g.ConnectedComponents();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[1], (std::vector<VertexId>{2}));
}

TEST(ConnectedComponentsTest, CoverAllVerticesOnce) {
  AttributedGraph g = RandomAttributedGraph(80, 0.02, 5);
  auto comps = g.ConnectedComponents();
  std::set<VertexId> seen;
  for (const auto& comp : comps) {
    for (VertexId v : comp) {
      EXPECT_TRUE(seen.insert(v).second) << "vertex in two components";
    }
  }
  EXPECT_EQ(seen.size(), g.num_vertices());
}

TEST(TrianglesTest, CommonNeighborsOfSquareDiagonal) {
  AttributedGraph g =
      MakeGraph("abab", {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  // Common neighbors of 0 and 2 are 1 and 3.
  std::vector<VertexId> common;
  ForEachCommonNeighbor(g, 0, 2, [&](VertexId w, EdgeId e1, EdgeId e2) {
    common.push_back(w);
    EXPECT_EQ(g.edges()[e1].u, std::min<VertexId>(0, w));
    EXPECT_EQ(g.edges()[e2].u, std::min<VertexId>(2, w));
  });
  EXPECT_EQ(common, (std::vector<VertexId>{1, 3}));
}

TEST(TrianglesTest, CountTrianglesOnKnownGraphs) {
  // K4 has 4 triangles.
  AttributedGraph k4 =
      MakeGraph("aabb", {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(CountTriangles(k4), 4u);
  // A square has none.
  AttributedGraph square = MakeGraph("aabb", {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(CountTriangles(square), 0u);
}

TEST(TrianglesTest, CountMatchesBruteForce) {
  AttributedGraph g = RandomAttributedGraph(25, 0.3, 77);
  uint64_t brute = 0;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      for (VertexId c = b + 1; c < g.num_vertices(); ++c) {
        if (g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c)) ++brute;
      }
    }
  }
  EXPECT_EQ(CountTriangles(g), brute);
}

// Checks ForEachTriangle against brute force on `g`: every triangle is
// reported exactly once, lowest (degree, id) rank first, with each edge id
// naming the side it claims to.
void ExpectTrianglesMatchBruteForce(const AttributedGraph& g) {
  std::set<std::array<VertexId, 3>> brute;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < g.num_vertices(); ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) brute.insert({a, b, c});
      }
    }
  }
  auto rank_below = [&g](VertexId x, VertexId y) {
    return g.degree(x) != g.degree(y) ? g.degree(x) < g.degree(y) : x < y;
  };
  auto is_edge = [&g](EdgeId e, VertexId x, VertexId y) {
    return e < g.num_edges() &&
           g.edges()[e] == Edge{std::min(x, y), std::max(x, y)};
  };
  std::set<std::array<VertexId, 3>> listed;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w, EdgeId euv,
                         EdgeId euw, EdgeId evw) {
    EXPECT_TRUE(rank_below(u, v) && rank_below(v, w))
        << u << "," << v << "," << w;
    EXPECT_TRUE(is_edge(euv, u, v)) << "euv of " << u << "," << v;
    EXPECT_TRUE(is_edge(euw, u, w)) << "euw of " << u << "," << w;
    EXPECT_TRUE(is_edge(evw, v, w)) << "evw of " << v << "," << w;
    std::array<VertexId, 3> t{u, v, w};
    std::sort(t.begin(), t.end());
    EXPECT_TRUE(listed.insert(t).second)
        << "triangle " << t[0] << "," << t[1] << "," << t[2] << " twice";
  });
  EXPECT_EQ(listed, brute);
  EXPECT_EQ(CountTriangles(g), brute.size());
}

TEST(TrianglesTest, ForEachTriangleOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExpectTrianglesMatchBruteForce(RandomAttributedGraph(30, 0.3, seed));
  }
}

TEST(TrianglesTest, ForEachTriangleUnderDegreeTies) {
  // Circulant graphs are vertex-transitive: every vertex has the same
  // degree, so the orientation is decided by the id tie-break alone.
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 12 + trial * 3;
    std::vector<std::pair<int, int>> edges;
    for (int jump = 1; jump <= n / 2; ++jump) {
      if (!rng.NextBool()) continue;
      for (int v = 0; v < n; ++v) edges.push_back({v, (v + jump) % n});
    }
    AttributedGraph g = MakeGraph(std::string(n, 'a'), edges);
    for (VertexId v = 1; v < g.num_vertices(); ++v) {
      ASSERT_EQ(g.degree(v), g.degree(0));
    }
    ExpectTrianglesMatchBruteForce(g);
  }
  // Sparse random graphs: most vertices share one of a few small degrees.
  for (uint64_t seed : {5u, 6u, 7u}) {
    ExpectTrianglesMatchBruteForce(RandomAttributedGraph(40, 0.08, seed));
  }
}

TEST(TrianglesTest, ForEachTriangleOnCompleteStarAndEmpty) {
  for (int n : {3, 4, 7}) {
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) edges.push_back({a, b});
    }
    AttributedGraph kn = MakeGraph(std::string(n, 'b'), edges);
    ExpectTrianglesMatchBruteForce(kn);
    EXPECT_EQ(CountTriangles(kn), static_cast<uint64_t>(n * (n - 1) *
                                                        (n - 2) / 6));
  }
  std::vector<std::pair<int, int>> spokes;
  for (int leaf = 1; leaf < 9; ++leaf) spokes.push_back({0, leaf});
  AttributedGraph star = MakeGraph(std::string(9, 'a'), spokes);
  ExpectTrianglesMatchBruteForce(star);
  EXPECT_EQ(CountTriangles(star), 0u);
  AttributedGraph empty = MakeGraph("", {});
  ExpectTrianglesMatchBruteForce(empty);
  AttributedGraph isolated = MakeGraph("aab", {});
  ExpectTrianglesMatchBruteForce(isolated);
}

// ---------------------------------------------------------------------------
// Differential gate for the sort-free GraphBuilder::Build: a test-only copy of
// the comparison-sort build it replaced, adopted through FromCsr, must give
// the same CSR arrays, validity and fingerprint.

using Insertions = std::vector<std::pair<VertexId, VertexId>>;

namespace reference {

struct OwnedCsr {
  std::vector<uint64_t> offsets;
  std::vector<VertexId> adjacency;
  std::vector<EdgeId> edge_ids;
  std::vector<Edge> edges;
  std::vector<uint8_t> attributes;
};

// The sort-based build: std::sort over the edge list, then a fill followed
// by a std::sort of every adjacency row paired with its edge ids.
AttributedGraph SortBuild(VertexId n, const Insertions& insertions,
                          const std::vector<uint8_t>& attributes) {
  auto store = std::make_shared<OwnedCsr>();
  for (auto [u, v] : insertions) {
    if (u == v) continue;
    store->edges.push_back({std::min(u, v), std::max(u, v)});
  }
  std::sort(store->edges.begin(), store->edges.end());
  store->edges.erase(std::unique(store->edges.begin(), store->edges.end()),
                     store->edges.end());
  store->attributes = attributes;
  std::vector<uint32_t> deg(n, 0);
  for (const Edge& e : store->edges) {
    deg[e.u]++;
    deg[e.v]++;
  }
  store->offsets.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    store->offsets[v + 1] = store->offsets[v] + deg[v];
  }
  store->adjacency.resize(2 * store->edges.size());
  store->edge_ids.resize(2 * store->edges.size());
  std::vector<uint64_t> cursor(store->offsets.begin(),
                               store->offsets.end() - 1);
  for (EdgeId e = 0; e < store->edges.size(); ++e) {
    const Edge& edge = store->edges[e];
    store->adjacency[cursor[edge.u]] = edge.v;
    store->edge_ids[cursor[edge.u]++] = e;
    store->adjacency[cursor[edge.v]] = edge.u;
    store->edge_ids[cursor[edge.v]++] = e;
  }
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::vector<std::pair<VertexId, EdgeId>> row;
    for (uint64_t i = store->offsets[v]; i < store->offsets[v + 1]; ++i) {
      row.emplace_back(store->adjacency[i], store->edge_ids[i]);
    }
    std::sort(row.begin(), row.end());
    for (size_t i = 0; i < row.size(); ++i) {
      store->adjacency[store->offsets[v] + i] = row[i].first;
      store->edge_ids[store->offsets[v] + i] = row[i].second;
    }
    max_degree = std::max(max_degree, deg[v]);
  }
  return AttributedGraph::FromCsr(store->offsets, store->adjacency,
                                  store->edge_ids, store->edges,
                                  store->attributes, max_degree, store);
}

}  // namespace reference

AttributedGraph BuildFromInsertions(VertexId n, const Insertions& insertions,
                                    const std::vector<uint8_t>& attributes) {
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    builder.SetAttribute(v, static_cast<Attribute>(attributes[v]));
  }
  for (auto [u, v] : insertions) builder.AddEdge(u, v);
  return builder.Build();
}

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

void ExpectSameGraph(const AttributedGraph& got, const AttributedGraph& want,
                     const std::string& label) {
  EXPECT_EQ(ToVector(got.csr_offsets()), ToVector(want.csr_offsets()))
      << label;
  EXPECT_EQ(ToVector(got.csr_adjacency()), ToVector(want.csr_adjacency()))
      << label;
  EXPECT_EQ(ToVector(got.csr_edge_ids()), ToVector(want.csr_edge_ids()))
      << label;
  EXPECT_EQ(ToVector(got.edges()), ToVector(want.edges())) << label;
  EXPECT_EQ(ToVector(got.attribute_bytes()), ToVector(want.attribute_bytes()))
      << label;
  EXPECT_EQ(got.max_degree(), want.max_degree()) << label;
  EXPECT_EQ(got.attribute_counts(), want.attribute_counts()) << label;
  EXPECT_TRUE(got.Validate().ok()) << label;
  EXPECT_TRUE(want.Validate().ok()) << label;
  EXPECT_EQ(GraphFingerprint(got), GraphFingerprint(want)) << label;
}

std::vector<uint8_t> RandomAttributes(VertexId n, Rng& rng) {
  std::vector<uint8_t> attributes(n);
  for (uint8_t& a : attributes) a = rng.NextBool() ? 1 : 0;
  return attributes;
}

TEST(GraphBuilderDifferentialTest, RandomEdgeListsMatchSortBasedBuild) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const VertexId n = static_cast<VertexId>(rng.NextBounded(48));
    // Endpoints come from the low part of the id range only, so the top
    // vertices of some graphs stay isolated; n == 0 and m == 0 occur too.
    const VertexId span = n - static_cast<VertexId>(rng.NextBounded(n / 3 + 1));
    const size_t m = span == 0 ? 0 : rng.NextBounded(4 * span + 1);
    Insertions insertions;
    for (size_t i = 0; i < m; ++i) {
      if (!insertions.empty() && rng.NextBool(0.15)) {
        // Duplicate of an earlier insertion, sometimes reversed.
        auto [u, v] = insertions[rng.NextBounded(insertions.size())];
        insertions.push_back(rng.NextBool() ? std::pair{v, u}
                                            : std::pair{u, v});
        continue;
      }
      const VertexId u = static_cast<VertexId>(rng.NextBounded(span));
      const VertexId v = rng.NextBool(0.05)
                             ? u  // self-loop
                             : static_cast<VertexId>(rng.NextBounded(span));
      insertions.emplace_back(u, v);
    }
    const std::vector<uint8_t> attributes = RandomAttributes(n, rng);
    const AttributedGraph want =
        reference::SortBuild(n, insertions, attributes);

    Insertions sorted = insertions;
    std::sort(sorted.begin(), sorted.end(), [](auto a, auto b) {
      return std::pair{std::min(a.first, a.second),
                       std::max(a.first, a.second)} <
             std::pair{std::min(b.first, b.second),
                       std::max(b.first, b.second)};
    });
    Insertions shuffled = insertions;
    rng.Shuffle(shuffled);
    const std::string label = "seed " + std::to_string(seed);
    ExpectSameGraph(BuildFromInsertions(n, sorted, attributes), want,
                    label + " sorted");
    ExpectSameGraph(BuildFromInsertions(n, shuffled, attributes), want,
                    label + " shuffled");
  }
}

TEST(GraphBuilderDifferentialTest, StandInSubgraphsMatchSortBasedBuild) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    const AttributedGraph g = LoadDataset(spec.name);
    const VertexId n = g.num_vertices();
    const std::vector<uint8_t> attributes = ToVector(g.attribute_bytes());
    Insertions all;
    for (const Edge& e : g.edges()) all.emplace_back(e.v, e.u);
    Rng rng(GraphFingerprint(g));
    rng.Shuffle(all);
    ExpectSameGraph(BuildFromInsertions(n, all, attributes), g,
                    spec.name + " rebuilt");
    for (double keep : {0.3, 0.7, 1.0}) {
      const std::string label = spec.name + " keep " + std::to_string(keep);
      std::vector<uint8_t> vertex_alive(n);
      for (uint8_t& a : vertex_alive) a = rng.NextBool(keep) ? 1 : 0;
      std::vector<uint8_t> edge_alive(g.num_edges());
      for (uint8_t& a : edge_alive) a = rng.NextBool(keep) ? 1 : 0;
      std::vector<VertexId> kept;
      std::vector<VertexId> local(n, kInvalidVertex);
      for (VertexId v = 0; v < n; ++v) {
        if (!vertex_alive[v]) continue;
        local[v] = static_cast<VertexId>(kept.size());
        kept.push_back(v);
      }
      std::vector<uint8_t> kept_attributes;
      for (VertexId v : kept) kept_attributes.push_back(attributes[v]);
      Insertions filtered;
      Insertions induced;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& edge = g.edges()[e];
        if (!vertex_alive[edge.u] || !vertex_alive[edge.v]) continue;
        induced.emplace_back(local[edge.u], local[edge.v]);
        if (edge_alive[e]) filtered.emplace_back(local[edge.u], local[edge.v]);
      }
      const VertexId k = static_cast<VertexId>(kept.size());
      ExpectSameGraph(g.FilteredSubgraph(vertex_alive, edge_alive),
                      reference::SortBuild(k, filtered, kept_attributes),
                      label + " filtered");
      ExpectSameGraph(g.FilteredSubgraph(vertex_alive, {}),
                      reference::SortBuild(k, induced, kept_attributes),
                      label + " filtered, all edges");
      ExpectSameGraph(g.InducedSubgraph(kept),
                      reference::SortBuild(k, induced, kept_attributes),
                      label + " induced");
      // In shuffled order the subgraph's ids follow the shuffled list.
      std::vector<VertexId> order = kept;
      rng.Shuffle(order);
      std::vector<VertexId> position(n, kInvalidVertex);
      std::vector<uint8_t> order_attributes;
      for (VertexId i = 0; i < k; ++i) {
        position[order[i]] = i;
        order_attributes.push_back(attributes[order[i]]);
      }
      Insertions reordered;
      for (auto [u, v] : induced) {
        reordered.emplace_back(position[kept[u]], position[kept[v]]);
      }
      ExpectSameGraph(g.InducedSubgraph(order),
                      reference::SortBuild(k, reordered, order_attributes),
                      label + " induced, shuffled");
    }
  }
}

TEST(AttrCountsTest, Helpers) {
  AttrCounts c;
  c[Attribute::kA] = 5;
  c[Attribute::kB] = 3;
  EXPECT_EQ(c.Total(), 8);
  EXPECT_EQ(c.Min(), 3);
  EXPECT_EQ(c.Max(), 5);
  EXPECT_EQ(c.Diff(), 2);
}

TEST(FairnessParamsTest, SatisfiedConditions) {
  FairnessParams p{2, 1};
  AttrCounts ok;
  ok[Attribute::kA] = 2;
  ok[Attribute::kB] = 3;
  EXPECT_TRUE(p.Satisfied(ok));
  AttrCounts low = ok;
  low[Attribute::kA] = 1;
  EXPECT_FALSE(p.Satisfied(low));
  AttrCounts wide = ok;
  wide[Attribute::kB] = 4;
  EXPECT_FALSE(p.Satisfied(wide));
}

TEST(FairnessParamsTest, BestFairSubsetSize) {
  FairnessParams p{2, 1};
  AttrCounts avail;
  avail[Attribute::kA] = 3;
  avail[Attribute::kB] = 8;
  // min(11, 2*3+1) = 7.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 7);
  avail[Attribute::kA] = 1;  // Below k -> infeasible.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 0);
  avail[Attribute::kA] = 8;  // Balanced: total wins.
  EXPECT_EQ(p.BestFairSubsetSize(avail), 16);
}

}  // namespace
}  // namespace fairclique
