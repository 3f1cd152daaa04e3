#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/logging.h"
#include "core/enumeration.h"
#include "datasets/datasets.h"
#include "graph/coloring.h"
#include "reduction/colorful_core.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

// Brute-force colorful k-core: repeatedly delete any vertex with
// min(Da, Db) < k until stable.
std::vector<uint8_t> BruteColorfulCore(const AttributedGraph& g,
                                       const Coloring& c, int k) {
  const VertexId n = g.num_vertices();
  std::vector<uint8_t> alive(n, 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      std::set<ColorId> ca, cb;
      for (VertexId w : g.neighbors(v)) {
        if (!alive[w]) continue;
        (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
      }
      if (static_cast<int>(std::min(ca.size(), cb.size())) < k) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

// Brute-force enhanced colorful k-core using the balanced assignment.
std::vector<uint8_t> BruteEnColorfulCore(const AttributedGraph& g,
                                         const Coloring& c, int k) {
  const VertexId n = g.num_vertices();
  std::vector<uint8_t> alive(n, 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      std::set<ColorId> ca, cb;
      for (VertexId w : g.neighbors(v)) {
        if (!alive[w]) continue;
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
      if (BalancedAssignMin(only_a, only_b, mixed) < k) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

TEST(ColorfulCoreTest, KZeroKeepsEverything) {
  AttributedGraph g = RandomAttributedGraph(30, 0.2, 1);
  Coloring c = GreedyColoring(g);
  VertexReductionResult r = ColorfulCore(g, c, 0);
  EXPECT_EQ(r.vertices_left, g.num_vertices());
  EXPECT_EQ(r.edges_left, g.num_edges());
}

TEST(ColorfulCoreTest, MatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    AttributedGraph g = RandomAttributedGraph(60, 0.15, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 1; k <= 4; ++k) {
      VertexReductionResult fast = ColorfulCore(g, c, k);
      std::vector<uint8_t> brute = BruteColorfulCore(g, c, k);
      EXPECT_EQ(fast.alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(ColorfulCoreTest, SurvivorsSatisfyDegreeInvariant) {
  AttributedGraph g = RandomAttributedGraph(100, 0.1, 7);
  Coloring c = GreedyColoring(g);
  const int k = 2;
  VertexReductionResult r = ColorfulCore(g, c, k);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!r.alive[v]) continue;
    std::set<ColorId> ca, cb;
    for (VertexId w : g.neighbors(v)) {
      if (!r.alive[w]) continue;
      (g.attribute(w) == Attribute::kA ? ca : cb).insert(c.color[w]);
    }
    EXPECT_GE(static_cast<int>(std::min(ca.size(), cb.size())), k);
  }
}

TEST(EnColorfulCoreTest, MatchesBruteForce) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    AttributedGraph g = RandomAttributedGraph(60, 0.15, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 1; k <= 4; ++k) {
      VertexReductionResult fast = EnColorfulCore(g, c, k);
      std::vector<uint8_t> brute = BruteEnColorfulCore(g, c, k);
      EXPECT_EQ(fast.alive, brute) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(EnColorfulCoreTest, StrongerThanColorfulCore) {
  // ED(u) <= Dmin(u), so the enhanced core is contained in the plain core.
  for (uint64_t seed : {21u, 22u, 23u}) {
    AttributedGraph g = RandomAttributedGraph(80, 0.12, seed);
    Coloring c = GreedyColoring(g);
    for (int k = 1; k <= 3; ++k) {
      VertexReductionResult plain = ColorfulCore(g, c, k);
      VertexReductionResult enhanced = EnColorfulCore(g, c, k);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (enhanced.alive[v]) {
          EXPECT_TRUE(plain.alive[v]) << "vertex " << v;
        }
      }
    }
  }
}

TEST(EnColorfulCoreTest, FairCliquesSurvive) {
  // Lemma 2: every (k, delta) fair clique is inside the enhanced colorful
  // (k-1)-core. Verify on random graphs using the oracle's maximal cliques.
  for (uint64_t seed : {31u, 32u, 33u}) {
    AttributedGraph g = RandomAttributedGraph(40, 0.3, seed);
    Coloring c = GreedyColoring(g);
    const int k = 2;
    VertexReductionResult core = EnColorfulCore(g, c, k - 1);
    EnumerateMaximalCliques(g, [&](const std::vector<VertexId>& m) {
      AttrCounts cnt;
      for (VertexId v : m) cnt[g.attribute(v)]++;
      if (cnt.a() >= k && cnt.b() >= k) {
        // This maximal clique contains a fair clique touching all of m's
        // balanced subsets; in particular every vertex participating in a
        // fair sub-clique must survive. Conservatively check: if a fair
        // subset of size 2k exists, the minority-side vertices survive.
        // Simplest sound check: every vertex of m that belongs to some
        // (k,*) fair sub-clique survives; a vertex v in m belongs to one
        // iff m has >= k vertices of each attribute counting v's side
        // appropriately — true here, so all of m must survive when both
        // counts >= k... only vertices needed: all of m qualify since any
        // k a's + k b's containing v can be chosen when cnt >= k on both
        // sides (v included in its side's selection).
        for (VertexId v : m) {
          EXPECT_TRUE(core.alive[v])
              << "vertex " << v << " of a fair-feasible maximal clique was "
              << "removed (seed " << seed << ")";
        }
      }
    });
  }
}

// Drives EnColorfulCore's mixed -> single-attribute reclassification while
// the colour's other side is still live. Vertex 0 sees colour 0 on one side
// (vertex 1) and colour 1 on both sides (vertices 2 and 4). Pendant vertex 4
// dies first; colour 1 must then move from mixed to vertex 2's side, leaving
// vertex 0 with one colour per attribute (ED = 1). Dropping colour 1
// altogether instead would leave ED = 0 and cascade through the whole
// graph. Run with the attributes as given and flipped, so both the a-side
// (other key after it) and the b-side (other key before it) are checked.
TEST(EnColorfulCoreTest, MixedColourKeepsItsLiveSide) {
  //   0 - 1, 0 - 2, 1 - 2, 2 - 3, 1 - 3, 0 - 4
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {2, 3}, {1, 3}, {0, 4}};
  Coloring c;
  c.color = {2, 0, 1, 2, 1};
  c.num_colors = 3;
  for (const char* attrs : {"aabba", "bbaab"}) {
    AttributedGraph g = MakeGraph(attrs, edges);
    ASSERT_TRUE(IsProperColoring(g, c));
    VertexReductionResult r = EnColorfulCore(g, c, 1);
    EXPECT_EQ(r.alive, (std::vector<uint8_t>{1, 1, 1, 1, 0})) << attrs;
    EXPECT_EQ(r.alive, BruteEnColorfulCore(g, c, 1)) << attrs;
    EXPECT_EQ(r.vertices_left, 4u) << attrs;
    EXPECT_EQ(r.edges_left, 5u) << attrs;
  }
}

TEST(ColorfulCoreDecompositionTest, CcoreConsistentWithThresholdCores) {
  for (uint64_t seed : {41u, 42u}) {
    AttributedGraph g = RandomAttributedGraph(50, 0.2, seed);
    Coloring c = GreedyColoring(g);
    ColorfulCoreDecomposition dec = ComputeColorfulCores(g, c);
    uint32_t max_ccore = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      max_ccore = std::max(max_ccore, dec.ccore[v]);
    }
    EXPECT_EQ(dec.colorful_degeneracy, max_ccore);
    for (uint32_t k = 1; k <= dec.colorful_degeneracy; ++k) {
      VertexReductionResult core = ColorfulCore(g, c, static_cast<int>(k));
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(core.alive[v] != 0, dec.ccore[v] >= k)
            << "seed=" << seed << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(ColorfulCoreDecompositionTest, PeelOrderIsPermutation) {
  AttributedGraph g = RandomAttributedGraph(70, 0.1, 51);
  Coloring c = GreedyColoring(g);
  ColorfulCoreDecomposition dec = ComputeColorfulCores(g, c);
  ASSERT_EQ(dec.peel_order.size(), g.num_vertices());
  std::set<VertexId> seen(dec.peel_order.begin(), dec.peel_order.end());
  EXPECT_EQ(seen.size(), g.num_vertices());
  for (uint32_t i = 0; i < dec.peel_order.size(); ++i) {
    EXPECT_EQ(dec.position[dec.peel_order[i]], i);
  }
}

TEST(ColorfulCoreDecompositionTest, EmptyGraph) {
  AttributedGraph g = MakeGraph("", {});
  Coloring c = GreedyColoring(g);
  ColorfulCoreDecomposition dec = ComputeColorfulCores(g, c);
  EXPECT_EQ(dec.colorful_degeneracy, 0u);
  EXPECT_TRUE(dec.peel_order.empty());
}

// ---------------------------------------------------------------------------
// Differential gate for the sort-free colour-count table: a test-only copy of
// the reductions over the comparison-sort table they were built on (one
// std::sort per neighbourhood) must agree exactly on every stand-in dataset.

namespace reference {

// Per-vertex multiset of neighbor (attribute, color) pairs, stored as a
// sorted flat array keyed by (color << 1) | attr with a count per key.
// Lookup is binary search; the whole structure is built once in O(sum deg).
struct ColorCountTable {
  std::vector<uint32_t> keys;    // concatenated per-vertex sorted key arrays
  std::vector<uint32_t> counts;  // parallel to keys
  std::vector<uint64_t> offsets; // size V+1

  static uint32_t MakeKey(ColorId color, Attribute attr) {
    return (static_cast<uint32_t>(color) << 1) | static_cast<uint32_t>(attr);
  }

  // Index of `key` within vertex v's slice; FC_CHECKs that it exists.
  size_t Find(VertexId v, uint32_t key) const {
    const uint32_t* begin = keys.data() + offsets[v];
    const uint32_t* end = keys.data() + offsets[v + 1];
    const uint32_t* it = std::lower_bound(begin, end, key);
    FC_CHECK(it != end && *it == key) << "color count key missing";
    return static_cast<size_t>(it - keys.data());
  }

  void Build(const AttributedGraph& g, const Coloring& coloring) {
    const VertexId n = g.num_vertices();
    offsets.assign(n + 1, 0);
    std::vector<uint32_t> scratch;
    std::vector<uint32_t> scratch_counts;
    keys.clear();
    counts.clear();
    keys.reserve(2 * g.num_edges());
    counts.reserve(2 * g.num_edges());
    for (VertexId v = 0; v < n; ++v) {
      scratch.clear();
      for (VertexId w : g.neighbors(v)) {
        scratch.push_back(MakeKey(coloring.color[w], g.attribute(w)));
      }
      std::sort(scratch.begin(), scratch.end());
      scratch_counts.clear();
      size_t out = 0;
      for (size_t i = 0; i < scratch.size();) {
        size_t j = i;
        while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
        scratch[out] = scratch[i];
        scratch_counts.push_back(static_cast<uint32_t>(j - i));
        ++out;
        i = j;
      }
      keys.insert(keys.end(), scratch.begin(), scratch.begin() + out);
      counts.insert(counts.end(), scratch_counts.begin(), scratch_counts.end());
      offsets[v + 1] = keys.size();
    }
  }
};

VertexReductionResult ColorfulCore(const AttributedGraph& g,
                                   const Coloring& coloring, int k) {
  const VertexId n = g.num_vertices();
  VertexReductionResult result;
  result.alive.assign(n, 1);
  if (k <= 0) {
    // Every vertex trivially qualifies.
    result.vertices_left = n;
    result.edges_left = g.num_edges();
    return result;
  }

  ColorCountTable table;
  table.Build(g, coloring);
  // Distinct-color degree per attribute.
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.offsets[v]; i < table.offsets[v + 1]; ++i) {
      Attribute attr = static_cast<Attribute>(table.keys[i] & 1);
      d[v][attr]++;
    }
  }

  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (d[v].Min() < k) {
      result.alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    uint32_t key = ColorCountTable::MakeKey(coloring.color[v], g.attribute(v));
    for (VertexId u : g.neighbors(v)) {
      if (!result.alive[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] == 0) {
        Attribute attr = g.attribute(v);
        if (--d[u][attr] < k && d[u][attr] + 1 == k) {
          // Dropped below threshold just now.
          result.alive[u] = 0;
          queue.push_back(u);
        }
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (result.alive[v]) result.vertices_left++;
  }
  for (const Edge& e : g.edges()) {
    if (result.alive[e.u] && result.alive[e.v]) result.edges_left++;
  }
  return result;
}

VertexReductionResult EnColorfulCore(const AttributedGraph& g,
                                     const Coloring& coloring, int k) {
  const VertexId n = g.num_vertices();
  VertexReductionResult result;
  result.alive.assign(n, 1);
  if (k <= 0) {
    result.vertices_left = n;
    result.edges_left = g.num_edges();
    return result;
  }

  ColorCountTable table;
  table.Build(g, coloring);
  // Per-vertex color-class sizes: ca (a-only colors), cb (b-only), cm (mixed).
  struct Classes {
    int64_t ca = 0, cb = 0, cm = 0;
    int64_t Ed() const { return BalancedAssignMin(ca, cb, cm); }
  };
  std::vector<Classes> cls(n);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t i = table.offsets[v];
    const uint64_t end = table.offsets[v + 1];
    while (i < end) {
      // Keys for the same color are adjacent: (c<<1|0) then (c<<1|1).
      if (i + 1 < end && (table.keys[i] >> 1) == (table.keys[i + 1] >> 1)) {
        cls[v].cm++;
        i += 2;
      } else if ((table.keys[i] & 1) == 0) {
        cls[v].ca++;
        i += 1;
      } else {
        cls[v].cb++;
        i += 1;
      }
    }
  }

  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (cls[v].Ed() < k) {
      result.alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    const ColorId color = coloring.color[v];
    const Attribute attr = g.attribute(v);
    const uint32_t key = ColorCountTable::MakeKey(color, attr);
    const uint32_t other_key = ColorCountTable::MakeKey(color, Other(attr));
    for (VertexId u : g.neighbors(v)) {
      if (!result.alive[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] != 0) continue;
      // Color `color` lost its `attr` side at u; reclassify.
      // Does u still see the other attribute with this color?
      const uint32_t* begin = table.keys.data() + table.offsets[u];
      const uint32_t* end = table.keys.data() + table.offsets[u + 1];
      const uint32_t* it = std::lower_bound(begin, end, other_key);
      bool other_alive = false;
      if (it != end && *it == other_key) {
        other_alive = table.counts[it - table.keys.data()] > 0;
      }
      if (other_alive) {
        // mixed -> other-only
        cls[u].cm--;
        if (attr == Attribute::kA) {
          cls[u].cb++;
        } else {
          cls[u].ca++;
        }
      } else {
        // attr-only -> gone
        if (attr == Attribute::kA) {
          cls[u].ca--;
        } else {
          cls[u].cb--;
        }
      }
      if (cls[u].Ed() < k) {
        result.alive[u] = 0;
        queue.push_back(u);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (result.alive[v]) result.vertices_left++;
  }
  for (const Edge& e : g.edges()) {
    if (result.alive[e.u] && result.alive[e.v]) result.edges_left++;
  }
  return result;
}

ColorfulCoreDecomposition ComputeColorfulCores(const AttributedGraph& g,
                                               const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  ColorfulCoreDecomposition result;
  result.ccore.assign(n, 0);
  result.position.assign(n, 0);
  result.peel_order.reserve(n);
  if (n == 0) return result;

  ColorCountTable table;
  table.Build(g, coloring);
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.offsets[v]; i < table.offsets[v + 1]; ++i) {
      Attribute attr = static_cast<Attribute>(table.keys[i] & 1);
      d[v][attr]++;
    }
  }

  // Bucket peeling on Dmin with lazy entries: a vertex may sit in several
  // buckets; stale entries (bucket != current Dmin) are skipped.
  auto dmin = [&d](VertexId v) {
    return static_cast<uint32_t>(d[v].Min());
  };
  uint32_t max_val = 0;
  for (VertexId v = 0; v < n; ++v) max_val = std::max(max_val, dmin(v));
  std::vector<std::vector<VertexId>> buckets(max_val + 1);
  for (VertexId v = 0; v < n; ++v) buckets[dmin(v)].push_back(v);

  std::vector<uint8_t> removed(n, 0);
  uint32_t level = 0;
  uint32_t processed = 0;
  uint32_t cursor = 0;
  while (processed < n) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    FC_CHECK(cursor < buckets.size()) << "colorful core peel ran dry";
    VertexId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v] || dmin(v) != cursor) continue;  // Stale entry.
    removed[v] = 1;
    level = std::max(level, cursor);
    result.ccore[v] = level;
    result.position[v] = processed;
    result.peel_order.push_back(v);
    ++processed;
    const uint32_t key =
        ColorCountTable::MakeKey(coloring.color[v], g.attribute(v));
    for (VertexId u : g.neighbors(v)) {
      if (removed[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] == 0) {
        d[u][g.attribute(v)]--;
        uint32_t nd = dmin(u);
        buckets[nd].push_back(u);
        // Dmin only drops during peeling; rewind the cursor when a vertex
        // falls below the current level so it is processed next.
        cursor = std::min(cursor, nd);
      }
    }
  }
  result.colorful_degeneracy = level;
  return result;
}

}  // namespace reference

class ColorCountTableDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ColorCountTableDifferentialTest, MatchesSortBasedTable) {
  const DatasetSpec spec = DatasetByName(GetParam());
  const AttributedGraph g = LoadDataset(spec.name);
  const Coloring c = GreedyColoring(g);
  auto expect_same = [&](const VertexReductionResult& got,
                         const VertexReductionResult& want,
                         const std::string& label) {
    EXPECT_EQ(got.alive, want.alive) << label;
    EXPECT_EQ(got.vertices_left, want.vertices_left) << label;
    EXPECT_EQ(got.edges_left, want.edges_left) << label;
  };
  for (int k : spec.k_range) {
    for (int level : {k - 1, k}) {
      const std::string label = spec.name + " level=" + std::to_string(level);
      expect_same(ColorfulCore(g, c, level),
                  reference::ColorfulCore(g, c, level),
                  label + " ColorfulCore");
      expect_same(EnColorfulCore(g, c, level),
                  reference::EnColorfulCore(g, c, level),
                  label + " EnColorfulCore");
    }
  }
  const ColorfulCoreDecomposition got = ComputeColorfulCores(g, c);
  const ColorfulCoreDecomposition want = reference::ComputeColorfulCores(g, c);
  EXPECT_EQ(got.ccore, want.ccore) << spec.name;
  EXPECT_EQ(got.position, want.position) << spec.name;
  EXPECT_EQ(got.peel_order, want.peel_order) << spec.name;
  EXPECT_EQ(got.colorful_degeneracy, want.colorful_degeneracy) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ColorCountTableDifferentialTest,
                         ::testing::Values("themarker-s", "google-s", "dblp-s",
                                           "flixster-s", "pokec-s",
                                           "aminer-s"));

}  // namespace
}  // namespace fairclique
