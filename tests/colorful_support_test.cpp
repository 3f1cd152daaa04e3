#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>

#include "core/enumeration.h"
#include "datasets/datasets.h"
#include "graph/coloring.h"
#include "graph/triangles.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Reference implementation for the differential tests: the merge-
// intersection ColorfulSup / EnColorfulSup the library used before its
// triangle-slot table. Every edge's (color, attribute) table is built by
// intersecting both endpoint rows, and every popped edge re-intersects them.
namespace reference {

struct EdgeColorTable {
  std::vector<uint32_t> keys;     // (color << 1) | attr, sorted per edge
  std::vector<uint32_t> counts;   // parallel to keys
  std::vector<uint64_t> offsets;  // size E+1

  static uint32_t MakeKey(ColorId color, Attribute attr) {
    return (static_cast<uint32_t>(color) << 1) | static_cast<uint32_t>(attr);
  }

  size_t Find(EdgeId e, uint32_t key) const {
    const uint32_t* begin = keys.data() + offsets[e];
    const uint32_t* end = keys.data() + offsets[e + 1];
    const uint32_t* it = std::lower_bound(begin, end, key);
    EXPECT_TRUE(it != end && *it == key) << "edge color key missing";
    return static_cast<size_t>(it - keys.data());
  }

  void Build(const AttributedGraph& g, const Coloring& coloring) {
    offsets.assign(g.num_edges() + 1, 0);
    std::vector<uint32_t> scratch;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edges()[e];
      scratch.clear();
      ForEachCommonNeighbor(g, edge.u, edge.v,
                            [&](VertexId w, EdgeId, EdgeId) {
                              scratch.push_back(MakeKey(coloring.color[w],
                                                        g.attribute(w)));
                            });
      std::sort(scratch.begin(), scratch.end());
      for (size_t i = 0; i < scratch.size();) {
        size_t j = i;
        while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
        keys.push_back(scratch[i]);
        counts.push_back(static_cast<uint32_t>(j - i));
        i = j;
      }
      offsets[e + 1] = keys.size();
    }
  }

  std::vector<AttrCounts> Supports() const {
    std::vector<AttrCounts> sup(offsets.size() - 1);
    for (EdgeId e = 0; e < sup.size(); ++e) {
      for (uint64_t i = offsets[e]; i < offsets[e + 1]; ++i) {
        sup[e][static_cast<Attribute>(keys[i] & 1)]++;
      }
    }
    return sup;
  }
};

template <typename ViolatesFn, typename LossFn>
std::vector<uint8_t> PeelEdges(const AttributedGraph& g,
                               ViolatesFn&& violates, LossFn&& on_loss) {
  const EdgeId m = g.num_edges();
  std::vector<uint8_t> alive(m, 1);
  std::vector<uint8_t> not_processed(m, 1);
  std::deque<EdgeId> queue;
  for (EdgeId e = 0; e < m; ++e) {
    if (violates(e)) {
      alive[e] = 0;
      queue.push_back(e);
    }
  }
  while (!queue.empty()) {
    const EdgeId e = queue.front();
    queue.pop_front();
    const VertexId u = g.edges()[e].u;
    const VertexId v = g.edges()[e].v;
    not_processed[e] = 0;
    ForEachCommonNeighbor(g, u, v, [&](VertexId, EdgeId euw, EdgeId evw) {
      if (!not_processed[euw] || !not_processed[evw]) return;
      if (alive[euw] && on_loss(euw, g.attribute(v), v) && violates(euw)) {
        alive[euw] = 0;
        queue.push_back(euw);
      }
      if (alive[evw] && on_loss(evw, g.attribute(u), u) && violates(evw)) {
        alive[evw] = 0;
        queue.push_back(evw);
      }
    });
  }
  return alive;
}

std::vector<uint8_t> ColorfulSup(const AttributedGraph& g,
                                 const Coloring& coloring, int k) {
  EdgeColorTable table;
  table.Build(g, coloring);
  std::vector<AttrCounts> sup = table.Supports();
  auto violates = [&](EdgeId e) {
    const Edge& edge = g.edges()[e];
    int64_t ta, tb;
    SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
    return sup[e][Attribute::kA] < ta || sup[e][Attribute::kB] < tb;
  };
  auto on_loss = [&](EdgeId e, Attribute attr_w, VertexId w) {
    size_t idx = table.Find(e, EdgeColorTable::MakeKey(coloring.color[w],
                                                       attr_w));
    if (--table.counts[idx] == 0) {
      sup[e][attr_w]--;
      return true;
    }
    return false;
  };
  return PeelEdges(g, violates, on_loss);
}

std::vector<uint8_t> EnColorfulSup(const AttributedGraph& g,
                                   const Coloring& coloring, int k) {
  EdgeColorTable table;
  table.Build(g, coloring);
  struct Classes {
    int64_t ca = 0, cb = 0, cm = 0;
  };
  std::vector<Classes> cls(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    uint64_t i = table.offsets[e];
    const uint64_t end = table.offsets[e + 1];
    while (i < end) {
      if (i + 1 < end && (table.keys[i] >> 1) == (table.keys[i + 1] >> 1)) {
        cls[e].cm++;
        i += 2;
      } else if ((table.keys[i] & 1) == 0) {
        cls[e].ca++;
        i += 1;
      } else {
        cls[e].cb++;
        i += 1;
      }
    }
  }
  auto violates = [&](EdgeId e) {
    const Edge& edge = g.edges()[e];
    int64_t ta, tb;
    SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
    return std::max<int64_t>(0, ta - cls[e].ca) +
               std::max<int64_t>(0, tb - cls[e].cb) >
           cls[e].cm;
  };
  auto on_loss = [&](EdgeId e, Attribute attr_w, VertexId w) {
    const ColorId color = coloring.color[w];
    size_t idx = table.Find(e, EdgeColorTable::MakeKey(color, attr_w));
    if (--table.counts[idx] != 0) return false;
    const uint32_t other_key = EdgeColorTable::MakeKey(color, Other(attr_w));
    const uint32_t* begin = table.keys.data() + table.offsets[e];
    const uint32_t* end = table.keys.data() + table.offsets[e + 1];
    const uint32_t* it = std::lower_bound(begin, end, other_key);
    const bool other_alive = it != end && *it == other_key &&
                             table.counts[it - table.keys.data()] > 0;
    if (other_alive) {
      cls[e].cm--;
      (attr_w == Attribute::kA ? cls[e].cb : cls[e].ca)++;
    } else {
      (attr_w == Attribute::kA ? cls[e].ca : cls[e].cb)--;
    }
    return true;
  };
  return PeelEdges(g, violates, on_loss);
}

}  // namespace reference

// Brute-force colorful supports from the definition.
std::vector<AttrCounts> BruteSupports(const AttributedGraph& g,
                                      const Coloring& c) {
  std::vector<AttrCounts> sup(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edges()[e];
    std::set<ColorId> ca, cb;
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (w == edge.u || w == edge.v) continue;
      if (g.HasEdge(edge.u, w) && g.HasEdge(edge.v, w)) {
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
    }
    sup[e][Attribute::kA] = static_cast<int64_t>(ca.size());
    sup[e][Attribute::kB] = static_cast<int64_t>(cb.size());
  }
  return sup;
}

// Brute-force fixpoint of the ColorfulSup conditions: repeatedly drop any
// edge violating Lemma 3 in the current subgraph.
std::vector<uint8_t> BruteColorfulSupFixpoint(const AttributedGraph& g,
                                              const Coloring& c, int k) {
  std::vector<uint8_t> alive(g.num_edges(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e]) continue;
      const Edge& edge = g.edges()[e];
      std::set<ColorId> ca, cb;
      for (VertexId w = 0; w < g.num_vertices(); ++w) {
        if (w == edge.u || w == edge.v) continue;
        EdgeId e1 = g.FindEdge(edge.u, w);
        EdgeId e2 = g.FindEdge(edge.v, w);
        if (e1 == kInvalidEdge || e2 == kInvalidEdge) continue;
        if (!alive[e1] || !alive[e2]) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      if (static_cast<int64_t>(ca.size()) < ta ||
          static_cast<int64_t>(cb.size()) < tb) {
        alive[e] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

// Brute-force fixpoint of the EnColorfulSup feasibility condition.
std::vector<uint8_t> BruteEnColorfulSupFixpoint(const AttributedGraph& g,
                                                const Coloring& c, int k) {
  std::vector<uint8_t> alive(g.num_edges(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!alive[e]) continue;
      const Edge& edge = g.edges()[e];
      std::set<ColorId> ca, cb;
      for (VertexId w = 0; w < g.num_vertices(); ++w) {
        if (w == edge.u || w == edge.v) continue;
        EdgeId e1 = g.FindEdge(edge.u, w);
        EdgeId e2 = g.FindEdge(edge.v, w);
        if (e1 == kInvalidEdge || e2 == kInvalidEdge) continue;
        if (!alive[e1] || !alive[e2]) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
      int64_t only_a = 0, only_b = 0, mixed = 0;
      for (ColorId col : ca) {
        if (cb.count(col)) {
          ++mixed;
        } else {
          ++only_a;
        }
      }
      for (ColorId col : cb) {
        if (!ca.count(col)) ++only_b;
      }
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      int64_t need_a = std::max<int64_t>(0, ta - only_a);
      int64_t need_b = std::max<int64_t>(0, tb - only_b);
      if (need_a + need_b > mixed) {
        alive[e] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

TEST(ColorfulSupportTest, SupportsMatchBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = RandomAttributedGraph(40, 0.25, seed);
    Coloring c = GreedyColoring(g);
    std::vector<AttrCounts> fast = ComputeColorfulSupports(g, c);
    std::vector<AttrCounts> brute = BruteSupports(g, c);
    ASSERT_EQ(fast.size(), brute.size());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(fast[e], brute[e]) << "edge " << e << " seed " << seed;
    }
  }
}

TEST(ColorfulSupportTest, PaperExample2) {
  // Example 2: supa(v2, v5) = 2, supb(v2, v5) = 1; the edge violates the
  // mixed-attribute condition for k = 3 (needs supb >= 2).
  AttributedGraph g = PaperFigure1Graph();
  Coloring c = GreedyColoring(g);
  std::vector<AttrCounts> sup = ComputeColorfulSupports(g, c);
  EdgeId e = g.FindEdge(1, 4);  // (v2, v5)
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(sup[e][Attribute::kA], 2);
  EXPECT_EQ(sup[e][Attribute::kB], 1);
  EdgeReductionResult r = ColorfulSupReduction(g, c, 3);
  EXPECT_FALSE(r.edge_alive[e]);
}

TEST(ColorfulSupReductionTest, ReachesExactFixpoint) {
  for (uint64_t seed : {4u, 5u, 6u, 7u}) {
    AttributedGraph g = RandomAttributedGraph(35, 0.3, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 4; ++k) {
      EdgeReductionResult fast = ColorfulSupReduction(g, c, k);
      std::vector<uint8_t> brute = BruteColorfulSupFixpoint(g, c, k);
      EXPECT_EQ(fast.edge_alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// ColorfulSupReduction first screens out every edge that violates Lemma 3 on
// its input, then peels the survivor subgraph. These cases pin down each
// branch of that split against the merge-intersection reference and the
// brute-force fixpoint.

// Round in which the level-synchronous peel removes each edge: 1 for the
// edges the screen drops, r for the edges that violate only once rounds
// 1..r-1 are gone, 0 for the fixpoint's survivors.
std::vector<int> PeelRounds(const AttributedGraph& g, const Coloring& c,
                            int k) {
  std::vector<int> round(g.num_edges(), 0);
  for (int r = 1;; ++r) {
    std::vector<EdgeId> dying;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (round[e] != 0) continue;
      const Edge& edge = g.edges()[e];
      std::set<ColorId> ca, cb;
      for (VertexId w = 0; w < g.num_vertices(); ++w) {
        const EdgeId e1 = g.FindEdge(edge.u, w);
        const EdgeId e2 = g.FindEdge(edge.v, w);
        if (e1 == kInvalidEdge || e2 == kInvalidEdge) continue;
        if (round[e1] != 0 || round[e2] != 0) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
      int64_t ta, tb;
      SupportThresholds(g.attribute(edge.u), g.attribute(edge.v), k, &ta, &tb);
      if (static_cast<int64_t>(ca.size()) < ta ||
          static_cast<int64_t>(cb.size()) < tb) {
        dying.push_back(e);
      }
    }
    if (dying.empty()) return round;
    for (EdgeId e : dying) round[e] = r;
  }
}

// ColorfulSupReduction's edge flags match both references, and its vertex
// flags and counts match its edge flags.
void ExpectExactColorfulSup(const AttributedGraph& g, const Coloring& c,
                            int k, const std::string& label) {
  const EdgeReductionResult r = ColorfulSupReduction(g, c, k);
  EXPECT_EQ(r.edge_alive, BruteColorfulSupFixpoint(g, c, k)) << label;
  EXPECT_EQ(r.edge_alive, reference::ColorfulSup(g, c, k)) << label;
  std::vector<uint8_t> vertex_alive(g.num_vertices(), 0);
  EdgeId edges_left = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!r.edge_alive[e]) continue;
    ++edges_left;
    vertex_alive[g.edges()[e].u] = 1;
    vertex_alive[g.edges()[e].v] = 1;
  }
  EXPECT_EQ(r.vertex_alive, vertex_alive) << label;
  EXPECT_EQ(r.edges_left, edges_left) << label;
  EXPECT_EQ(r.vertices_left,
            static_cast<VertexId>(
                std::count(vertex_alive.begin(), vertex_alive.end(), 1)))
      << label;
}

// K6 with three vertices per attribute under six distinct colors: an a-a
// edge sees 1 a-color and 3 b-colors, a mixed edge 2 of each.
AttributedGraph BalancedK6() {
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) edges.push_back({u, v});
  }
  return MakeGraph("aaabbb", edges);
}

TEST(ColorfulSupScreenTest, ScreenRemovesNothing) {
  const AttributedGraph g = BalancedK6();
  const Coloring c = GreedyColoring(g);
  const std::vector<int> rounds = PeelRounds(g, c, 3);
  ASSERT_TRUE(std::all_of(rounds.begin(), rounds.end(),
                          [](int r) { return r == 0; }));
  ExpectExactColorfulSup(g, c, 3, "K6 k=3");
}

TEST(ColorfulSupScreenTest, ScreenRemovesEverything) {
  // k=4 asks an a-a edge of K6 for 2 a-colors; a path has no triangles.
  const AttributedGraph path =
      MakeGraph("abab", {{0, 1}, {1, 2}, {2, 3}});
  for (const auto& [g, k] :
       {std::pair{BalancedK6(), 4}, std::pair{path, 2}}) {
    const Coloring c = GreedyColoring(g);
    const std::vector<int> rounds = PeelRounds(g, c, k);
    ASSERT_TRUE(std::all_of(rounds.begin(), rounds.end(),
                            [](int r) { return r == 1; }));
    ExpectExactColorfulSup(g, c, k, "k=" + std::to_string(k));
  }
}

TEST(ColorfulSupScreenTest, ChainReactionAfterTheScreen) {
  // Random graphs on which edges that pass the screen die in the peel, some
  // only after other screen survivors died (round >= 3), some of them with
  // a non-empty fixpoint.
  int chained = 0;
  int chained_with_survivors = 0;
  for (uint64_t seed : {4u, 5u, 6u, 7u, 40u, 41u}) {
    const AttributedGraph g = RandomAttributedGraph(30, 0.5, seed);
    const Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 4; ++k) {
      const std::vector<int> rounds = PeelRounds(g, c, k);
      if (*std::max_element(rounds.begin(), rounds.end()) >= 3) {
        ++chained;
        chained_with_survivors += std::count(rounds.begin(), rounds.end(), 0) > 0;
      }
      ExpectExactColorfulSup(
          g, c, k, "seed=" + std::to_string(seed) + " k=" + std::to_string(k));
    }
  }
  EXPECT_GE(chained, 10) << "too few graphs exercise the peel after the screen";
  EXPECT_GE(chained_with_survivors, 4);
}

TEST(ColorfulSupScreenTest, EdgeIdsMapBackThroughRenumbering) {
  // Spread a random graph over 3x the vertex ids: isolated vertices between
  // the originals, and pendant vertices whose edges the screen always drops
  // (no triangles). The screen's survivor subgraph renumbers vertices and
  // edges; its flags must land on the right edges of the spread graph.
  int with_survivors = 0;
  for (uint64_t seed : {4u, 6u, 40u}) {
    const AttributedGraph g = RandomAttributedGraph(30, 0.5, seed);
    const VertexId n = g.num_vertices();
    GraphBuilder builder(3 * n);
    for (VertexId v = 0; v < n; ++v) {
      builder.SetAttribute(3 * v + 1, g.attribute(v));
      builder.SetAttribute(3 * v + 2, Other(g.attribute(v)));
      if (v % 2 == 0) builder.AddEdge(3 * v + 1, 3 * v + 2);  // pendant
    }
    for (const Edge& e : g.edges()) builder.AddEdge(3 * e.u + 1, 3 * e.v + 1);
    const AttributedGraph spread = builder.Build();
    const Coloring sc = GreedyColoring(spread);
    Coloring c;
    c.num_colors = sc.num_colors;
    for (VertexId v = 0; v < n; ++v) c.color.push_back(sc.color[3 * v + 1]);
    for (int k = 2; k <= 4; ++k) {
      const std::string label =
          "seed=" + std::to_string(seed) + " k=" + std::to_string(k);
      ExpectExactColorfulSup(spread, sc, k, label);
      const EdgeReductionResult compact = ColorfulSupReduction(g, c, k);
      const EdgeReductionResult wide = ColorfulSupReduction(spread, sc, k);
      EXPECT_EQ(wide.edges_left, compact.edges_left) << label;
      with_survivors += wide.edges_left > 0;
      EXPECT_EQ(wide.vertices_left, compact.vertices_left) << label;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const EdgeId se =
            spread.FindEdge(3 * g.edges()[e].u + 1, 3 * g.edges()[e].v + 1);
        EXPECT_EQ(wide.edge_alive[se], compact.edge_alive[e]) << label;
      }
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(wide.vertex_alive[3 * v + 1], compact.vertex_alive[v])
            << label;
        EXPECT_FALSE(wide.vertex_alive[3 * v]) << label;
        EXPECT_FALSE(wide.vertex_alive[3 * v + 2]) << label;
      }
    }
  }
  EXPECT_GE(with_survivors, 6);
}

TEST(EnColorfulSupReductionTest, ReachesExactFixpoint) {
  for (uint64_t seed : {8u, 9u, 10u, 11u}) {
    AttributedGraph g = RandomAttributedGraph(35, 0.3, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 4; ++k) {
      EdgeReductionResult fast = EnColorfulSupReduction(g, c, k);
      std::vector<uint8_t> brute = BruteEnColorfulSupFixpoint(g, c, k);
      EXPECT_EQ(fast.edge_alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(EnColorfulSupReductionTest, StrongerThanColorfulSup) {
  for (uint64_t seed : {12u, 13u, 14u}) {
    AttributedGraph g = RandomAttributedGraph(50, 0.25, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 2; k <= 3; ++k) {
      EdgeReductionResult plain = ColorfulSupReduction(g, c, k);
      EdgeReductionResult enhanced = EnColorfulSupReduction(g, c, k);
      EXPECT_LE(enhanced.edges_left, plain.edges_left);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (enhanced.edge_alive[e]) {
          EXPECT_TRUE(plain.edge_alive[e]) << "edge " << e;
        }
      }
    }
  }
}

TEST(GreedyEnhancedSupportTest, PaperExample3) {
  // Fig. 2: ca=1, cb=2, cm=2, endpoints both 'a', k=4 -> thresholds (2, 4).
  // Greedy: gamma_a = min(2-1, 2) = 1 -> gsup_a = 2; rest = 1;
  // gamma_b = min(4-2, 1) = 1 -> gsup_b = 3. Edge violates gsup_b >= 4.
  AttrCounts gsup = GreedyEnhancedSupport(1, 2, 2, 2, 4);
  EXPECT_EQ(gsup[Attribute::kA], 2);
  EXPECT_EQ(gsup[Attribute::kB], 3);
}

TEST(GreedyEnhancedSupportTest, FeasibilityEquivalence) {
  // The greedy assignment meets both thresholds iff the deficit condition
  // max(0,ta-ca) + max(0,tb-cb) <= cm holds.
  for (int64_t ca = 0; ca <= 4; ++ca) {
    for (int64_t cb = 0; cb <= 4; ++cb) {
      for (int64_t cm = 0; cm <= 4; ++cm) {
        for (int64_t ta = 0; ta <= 4; ++ta) {
          for (int64_t tb = 0; tb <= 4; ++tb) {
            AttrCounts gsup = GreedyEnhancedSupport(ca, cb, cm, ta, tb);
            bool greedy_ok = gsup[Attribute::kA] >= ta &&
                             gsup[Attribute::kB] >= tb;
            bool feasible = std::max<int64_t>(0, ta - ca) +
                                std::max<int64_t>(0, tb - cb) <=
                            cm;
            EXPECT_EQ(greedy_ok, feasible)
                << ca << "," << cb << "," << cm << "," << ta << "," << tb;
          }
        }
      }
    }
  }
}

TEST(ReductionSoundnessTest, FairCliquesAlwaysSurviveAllStages) {
  // The flagship soundness property (Lemmas 2-4): run the full pipeline and
  // verify the exact maximum fair clique value is unchanged.
  for (uint64_t seed : {20u, 21u, 22u, 23u, 24u}) {
    AttributedGraph g = RandomAttributedGraph(45, 0.3, seed);
    for (int k = 2; k <= 3; ++k) {
      for (int delta = 0; delta <= 2; ++delta) {
        FairnessParams params{k, delta};
        CliqueResult before = MaxFairCliqueByEnumeration(g, params);
        ReductionPipelineResult reduced =
            ReduceForFairClique(g, k, ReductionOptions{});
        CliqueResult after =
            MaxFairCliqueByEnumeration(reduced.reduced, params);
        EXPECT_EQ(before.size(), after.size())
            << "reduction lost the optimum: seed=" << seed << " k=" << k
            << " delta=" << delta;
      }
    }
  }
}

TEST(ReductionPipelineTest, StagesMonotonicallyShrink) {
  AttributedGraph g = RandomAttributedGraph(80, 0.15, 30);
  ReductionPipelineResult r = ReduceForFairClique(g, 3, ReductionOptions{});
  ASSERT_EQ(r.stages.size(), 3u);
  EXPECT_LE(r.stages[0].vertices_left, g.num_vertices());
  for (size_t i = 1; i < r.stages.size(); ++i) {
    EXPECT_LE(r.stages[i].vertices_left, r.stages[i - 1].vertices_left);
    EXPECT_LE(r.stages[i].edges_left, r.stages[i - 1].edges_left);
  }
  EXPECT_EQ(r.reduced.num_vertices(), r.stages.back().vertices_left);
  // original_ids maps back into the input graph with matching attributes.
  for (VertexId v = 0; v < r.reduced.num_vertices(); ++v) {
    EXPECT_EQ(r.reduced.attribute(v), g.attribute(r.original_ids[v]));
  }
}

TEST(ReductionPipelineTest, DisabledStagesAreSkipped) {
  AttributedGraph g = RandomAttributedGraph(40, 0.2, 31);
  ReductionOptions opts;
  opts.use_colorful_sup = false;
  ReductionPipelineResult r = ReduceForFairClique(g, 2, opts);
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].name, "EnColorfulCore");
  EXPECT_EQ(r.stages[1].name, "EnColorfulSup");
}

TEST(ReductionPipelineTest, EmptyAndTinyGraphs) {
  AttributedGraph empty = MakeGraph("", {});
  ReductionPipelineResult r0 = ReduceForFairClique(empty, 2, {});
  EXPECT_EQ(r0.reduced.num_vertices(), 0u);
  AttributedGraph tiny = MakeGraph("ab", {{0, 1}});
  ReductionPipelineResult r1 = ReduceForFairClique(tiny, 2, {});
  // A (2,*) fair clique needs 4 vertices; everything dies.
  EXPECT_EQ(r1.reduced.num_edges(), 0u);
}

// Differential gate: on every stand-in dataset and every k of its sweep,
// the slot-table reductions leave bit-identical survivors to the merge-
// intersection reference for the same coloring — both on the raw graph and
// on the EnColorfulCore output the pipeline actually feeds them.
class ColorfulSupDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ColorfulSupDifferentialTest, MatchesMergeIntersectionReference) {
  const DatasetSpec spec = DatasetByName(GetParam());
  const AttributedGraph raw = LoadDataset(spec.name);
  const Coloring raw_coloring = GreedyColoring(raw);
  for (int k : spec.k_range) {
    VertexReductionResult core = EnColorfulCore(raw, raw_coloring, k - 1);
    const AttributedGraph cored = raw.FilteredSubgraph(core.alive, {});
    for (const AttributedGraph* g : {&raw, &cored}) {
      const char* which = g == &raw ? "raw" : "cored";
      const Coloring c = GreedyColoring(*g);
      EXPECT_EQ(ColorfulSupReduction(*g, c, k).edge_alive,
                reference::ColorfulSup(*g, c, k))
          << spec.name << " " << which << " k=" << k;
      EXPECT_EQ(EnColorfulSupReduction(*g, c, k).edge_alive,
                reference::EnColorfulSup(*g, c, k))
          << spec.name << " " << which << " k=" << k;
    }
  }
  reference::EdgeColorTable table;
  table.Build(raw, raw_coloring);
  const std::vector<AttrCounts> fast =
      ComputeColorfulSupports(raw, raw_coloring);
  const std::vector<AttrCounts> slow = table.Supports();
  ASSERT_EQ(fast.size(), slow.size());
  EXPECT_TRUE(std::equal(fast.begin(), fast.end(), slow.begin()))
      << spec.name << ": colorful supports differ";
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ColorfulSupDifferentialTest,
                         ::testing::Values("themarker-s", "google-s", "dblp-s",
                                           "flixster-s", "pokec-s",
                                           "aminer-s"));

}  // namespace
}  // namespace fairclique
