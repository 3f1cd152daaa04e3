#include "reduction/colorful_core.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace fairclique {

namespace {

// Vertices per claimed chunk of a per-vertex loop: small, because the
// stand-in graphs put their hubs at low ids.
constexpr size_t kVertexGrain = 8;

// Per-vertex multiset of neighbor (attribute, color) pairs: vertex v's
// distinct ColorAttrKeys, ascending, each with a count, in the slice
// [begin(v), end(v)) of two flat arrays, at the start of v's CSR row.
// Lookup is binary search; the whole structure is built once in
// O(V + E + colors).
struct ColorCountTable {
  std::vector<uint32_t> keys;    // v's sorted keys at the start of row v
  std::vector<uint32_t> counts;  // parallel to keys
  std::span<const uint64_t> rows;  // the graph's CSR offsets, size V+1
  std::vector<uint64_t> ends;      // size V

  uint64_t begin(VertexId v) const { return rows[v]; }
  uint64_t end(VertexId v) const { return ends[v]; }

  // Index of `key` within vertex v's slice; FC_CHECKs that it exists.
  size_t Find(VertexId v, uint32_t key) const {
    const uint32_t* first = keys.data() + begin(v);
    const uint32_t* last = keys.data() + end(v);
    const uint32_t* it = std::lower_bound(first, last, key);
    FC_CHECK(it != last && *it == key) << "color count key missing";
    return static_cast<size_t>(it - keys.data());
  }

  void Build(const AttributedGraph& g, const Coloring& coloring,
             TaskRunner* runner) {
    rows = g.csr_offsets();
    ends.resize(g.num_vertices());
    // Rows of KeyOrderedNeighbors hold equal keys together, so each row
    // run-length encodes into (key, count) pairs in place, left to right,
    // independently of every other row.
    keys = KeyOrderedNeighbors(g, coloring, runner);
    counts.resize(keys.size());
    ParallelFor(runner, g.num_vertices(), kVertexGrain,
                [&](int, size_t first, size_t last) {
                  for (size_t v = first; v < last; ++v) {
                    uint64_t out = rows[v];
                    for (uint64_t i = rows[v]; i < rows[v + 1]; ++i) {
                      const VertexId w = keys[i];
                      const uint32_t key =
                          ColorAttrKey(coloring.color[w], g.attribute(w));
                      if (out > rows[v] && keys[out - 1] == key) {
                        ++counts[out - 1];
                      } else {
                        keys[out] = key;
                        counts[out++] = 1;
                      }
                    }
                    ends[v] = out;
                  }
                });
  }
};

}  // namespace

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
  table.Build(g, coloring, nullptr);
  // Distinct-color degree per attribute.
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.begin(v); i < table.end(v); ++i) {
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
    uint32_t key = ColorAttrKey(coloring.color[v], g.attribute(v));
    // fclint: hot-path-begin(colour_core_peel)
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
    // fclint: hot-path-end
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
                                     const Coloring& coloring, int k,
                                     TaskRunner* runner) {
  const VertexId n = g.num_vertices();
  VertexReductionResult result;
  result.alive.assign(n, 1);
  if (k <= 0) {
    result.vertices_left = n;
    result.edges_left = g.num_edges();
    return result;
  }

  ColorCountTable table;
  table.Build(g, coloring, runner);
  // Per-vertex color-class sizes: ca (a-only colors), cb (b-only), cm (mixed).
  struct Classes {
    int64_t ca = 0, cb = 0, cm = 0;
    int64_t Ed() const { return BalancedAssignMin(ca, cb, cm); }
  };
  std::vector<Classes> cls(n);
  ParallelFor(runner, n, kVertexGrain, [&](int, size_t first, size_t last) {
    for (size_t v = first; v < last; ++v) {
      uint64_t i = table.begin(v);
      const uint64_t end = table.end(v);
      while (i < end) {
        // Keys for the same color are adjacent: (c<<1|0) then (c<<1|1).
        if (i + 1 < end &&
            (table.keys[i] >> 1) == (table.keys[i + 1] >> 1)) {
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
  });

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
    const uint32_t key = ColorAttrKey(color, attr);
    const uint32_t other_key = ColorAttrKey(color, Other(attr));
    // fclint: hot-path-begin(colour_core_peel)
    for (VertexId u : g.neighbors(v)) {
      if (!result.alive[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] != 0) continue;
      // Color `color` lost its `attr` side at u; reclassify.
      // Does u still see the other attribute with this color? A color's
      // two keys sit next to each other in u's sorted slice.
      bool other_alive = false;
      if (attr == Attribute::kA) {
        other_alive = idx + 1 < table.end(u) &&
                      table.keys[idx + 1] == other_key &&
                      table.counts[idx + 1] > 0;
      } else {
        other_alive = idx > table.begin(u) &&
                      table.keys[idx - 1] == other_key &&
                      table.counts[idx - 1] > 0;
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
    // fclint: hot-path-end
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
  table.Build(g, coloring, nullptr);
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.begin(v); i < table.end(v); ++i) {
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
        ColorAttrKey(coloring.color[v], g.attribute(v));
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

}  // namespace fairclique
