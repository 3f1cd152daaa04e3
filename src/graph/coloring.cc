#include "graph/coloring.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "graph/cores.h"

namespace fairclique {

namespace {

std::vector<VertexId> OrderVertices(const AttributedGraph& g,
                                    ColoringOrder order) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> verts(n);
  std::iota(verts.begin(), verts.end(), 0);
  switch (order) {
    case ColoringOrder::kNatural:
      break;
    case ColoringOrder::kDegreeDescending: {
      // Counting sort by degree, descending; ties by id for determinism.
      uint32_t dmax = g.max_degree();
      std::vector<std::vector<VertexId>> buckets(dmax + 1);
      for (VertexId v = 0; v < n; ++v) buckets[g.degree(v)].push_back(v);
      verts.clear();
      for (size_t d = buckets.size(); d-- > 0;) {
        for (VertexId v : buckets[d]) verts.push_back(v);
      }
      break;
    }
    case ColoringOrder::kDegeneracy: {
      // Smallest-last: color in reverse peeling order, which bounds the
      // number of colors by degeneracy + 1.
      CoreDecomposition cores = ComputeCores(g);
      verts.assign(cores.peel_order.rbegin(), cores.peel_order.rend());
      break;
    }
  }
  return verts;
}

}  // namespace

Coloring GreedyColoring(const AttributedGraph& g, ColoringOrder order) {
  const VertexId n = g.num_vertices();
  Coloring result;
  result.color.assign(n, -1);
  std::vector<VertexId> verts = OrderVertices(g, order);

  // `used[c] == v` marks color c as used by a neighbor of the vertex v being
  // colored; avoids clearing a bitmap between vertices.
  std::vector<VertexId> used(static_cast<size_t>(g.max_degree()) + 2,
                             kInvalidVertex);
  int num_colors = 0;
  for (VertexId v : verts) {
    for (VertexId w : g.neighbors(v)) {
      ColorId c = result.color[w];
      if (c >= 0) used[static_cast<size_t>(c)] = v;
    }
    ColorId c = 0;
    while (used[static_cast<size_t>(c)] == v) ++c;
    result.color[v] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  result.num_colors = num_colors;
  return result;
}

bool IsProperColoring(const AttributedGraph& g, const Coloring& coloring) {
  if (coloring.color.size() != g.num_vertices()) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ColorId c = coloring.color[v];
    if (c < 0 || c >= coloring.num_colors) return false;
    for (VertexId w : g.neighbors(v)) {
      if (coloring.color[w] == c) return false;
    }
  }
  return true;
}

std::vector<VertexId> KeyOrderedNeighbors(const AttributedGraph& g,
                                          const Coloring& coloring,
                                          TaskRunner* runner) {
  const VertexId n = g.num_vertices();
  FC_CHECK(coloring.color.size() == n) << "coloring does not match graph";
  if (n == 0) return {};
  auto key = [&](VertexId v) {
    return ColorAttrKey(coloring.color[v], g.attribute(v));
  };
  std::vector<VertexId> start(2 * static_cast<size_t>(coloring.num_colors) + 1,
                              0);
  for (VertexId v = 0; v < n; ++v) ++start[key(v) + 1];
  for (size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<VertexId> by_key(n);
  for (VertexId v = 0; v < n; ++v) by_key[start[key(v)]++] = v;

  std::span<const uint64_t> offsets = g.csr_offsets();
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<VertexId> rows(offsets.back());
  // Block b owns the rows starting in the b-th equal share of the adjacency
  // array. Scanning every vertex w in key order, it writes w into its own
  // rows only: w's neighbors in the block's vertex range are one stretch of
  // w's id-sorted row.
  const size_t blocks = static_cast<size_t>(ParallelWidth(runner));
  auto first_row = [&](size_t b) -> VertexId {
    if (b == 0) return 0;
    if (b == blocks) return n;
    const uint64_t share = offsets.back() * b / blocks;
    return static_cast<VertexId>(
        std::lower_bound(offsets.begin(), offsets.end() - 1, share) -
        offsets.begin());
  };
  ParallelFor(runner, blocks, 1, [&](int, size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const VertexId lo = first_row(b);
      const VertexId hi = first_row(b + 1);
      if (lo == hi) continue;
      for (VertexId w : by_key) {
        const auto nbrs = g.neighbors(w);
        auto it = lo == 0 ? nbrs.begin()
                          : std::lower_bound(nbrs.begin(), nbrs.end(), lo);
        for (; it != nbrs.end() && *it < hi; ++it) rows[cursor[*it]++] = w;
      }
    }
  });
  return rows;
}

std::vector<AttrCounts> ColorfulDegrees(const AttributedGraph& g,
                                        const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  std::vector<AttrCounts> result(n);
  // seen[attr][color] == v marks (attr, color) as counted for vertex v.
  std::vector<VertexId> seen[2];
  seen[0].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  seen[1].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.neighbors(v)) {
      int ai = AttrIndex(g.attribute(w));
      size_t c = static_cast<size_t>(coloring.color[w]);
      if (seen[ai][c] != v) {
        seen[ai][c] = v;
        result[v].counts[ai]++;
      }
    }
  }
  return result;
}

std::vector<int64_t> EnhancedColorfulDegrees(const AttributedGraph& g,
                                             const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  std::vector<int64_t> result(n, 0);
  // For each vertex, classify each neighbor color as a-only / b-only / mixed.
  std::vector<VertexId> seen[2];
  seen[0].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  seen[1].assign(static_cast<size_t>(coloring.num_colors), kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    int64_t ca = 0, cb = 0, cm = 0;
    for (VertexId w : g.neighbors(v)) {
      int ai = AttrIndex(g.attribute(w));
      int oi = 1 - ai;
      size_t c = static_cast<size_t>(coloring.color[w]);
      if (seen[ai][c] == v) continue;  // (attr, color) already seen.
      seen[ai][c] = v;
      bool other_present = seen[oi][c] == v;
      if (other_present) {
        // Color moves from the other-only class to mixed.
        if (oi == 0) {
          --ca;
        } else {
          --cb;
        }
        ++cm;
      } else {
        if (ai == 0) {
          ++ca;
        } else {
          ++cb;
        }
      }
    }
    result[v] = BalancedAssignMin(ca, cb, cm);
  }
  return result;
}

}  // namespace fairclique
