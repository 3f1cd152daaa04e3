#ifndef FAIRCLIQUE_GRAPH_TRIANGLES_H_
#define FAIRCLIQUE_GRAPH_TRIANGLES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fairclique {

/// Calls `fn(w, euw, evw)` for every common neighbor w of u and v, where
/// euw/evw are the edge ids of {u,w} and {v,w}. Merge-intersects the two
/// sorted adjacency rows: O(deg(u) + deg(v)). For one pair; to visit every
/// triangle of a graph use ForEachTriangle, which is O(alpha * E) in total.
template <typename Fn>
void ForEachCommonNeighbor(const AttributedGraph& g, VertexId u, VertexId v,
                           Fn&& fn) {
  auto nu = g.neighbors(u);
  auto nv = g.neighbors(v);
  auto eu = g.edge_ids(u);
  auto ev = g.edge_ids(v);
  size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      fn(nu[i], eu[i], ev[j]);
      ++i;
      ++j;
    }
  }
}

/// The degree orientation of a graph: every edge points from its endpoint
/// of lower (degree, id) rank to the higher one, so each vertex keeps at
/// most O(sqrt(E)) out-arcs and the sum over arcs (u, v) of outdeg(v) is
/// O(alpha * E), alpha the arboricity (Chiba & Nishizeki 1985).
struct DegreeOrientation {
  struct Arc {
    VertexId head;
    EdgeId edge;
  };
  std::vector<EdgeId> offsets;  // size V+1
  std::vector<Arc> arcs;        // size E, rows in ascending head id

  std::span<const Arc> out(VertexId v) const {
    return {arcs.data() + offsets[v], arcs.data() + offsets[v + 1]};
  }
};

/// True when u ranks below v in (degree, id) order: the orientation's arc
/// between them runs u -> v.
inline bool RanksBelow(const AttributedGraph& g, VertexId u, VertexId v) {
  const uint32_t du = g.degree(u);
  const uint32_t dv = g.degree(v);
  return du != dv ? du < dv : u < v;
}

/// Builds the degree orientation of `g`. O(V + E).
DegreeOrientation OrientByDegree(const AttributedGraph& g);

/// Calls `fn(u, v, w, euv, euw, evw)` exactly once for every triangle
/// {u, v, w} of the graph `orient` was built from, with rank(u) < rank(v) <
/// rank(w) in (degree, id) order and e.. the edge ids of its three sides.
/// "Compact-forward" listing (Latapy 2008): for each u, mark its
/// out-neighbors with their arc's edge id, then scan the out-rows of those
/// out-neighbors for marks. O(alpha * E) time, 4 B per vertex of scratch.
///
/// This overload lists only the triangles whose lowest-ranked vertex u is
/// in [first, last), so chunks of a ParallelFor over [0, V) list every
/// triangle once between them. `mark` is caller-owned scratch of V entries,
/// all kInvalidEdge on entry and again on return.
template <typename Fn>
void ForEachTriangle(const DegreeOrientation& orient, VertexId first,
                     VertexId last, EdgeId* mark, Fn&& fn) {
  // mark[w] = id of the edge {u, w} while w is an out-neighbor of the
  // current u; kInvalidEdge otherwise.
  for (VertexId u = first; u < last; ++u) {
    const auto out_u = orient.out(u);
    if (out_u.size() < 2) continue;
    for (const auto& arc : out_u) mark[arc.head] = arc.edge;
    for (const auto& uv : out_u) {
      for (const auto& vw : orient.out(uv.head)) {
        const EdgeId euw = mark[vw.head];
        if (euw != kInvalidEdge) {
          fn(u, uv.head, vw.head, uv.edge, euw, vw.edge);
        }
      }
    }
    for (const auto& arc : out_u) mark[arc.head] = kInvalidEdge;
  }
}

/// Every triangle of the graph `orient` was built from.
template <typename Fn>
void ForEachTriangle(const DegreeOrientation& orient, Fn&& fn) {
  const VertexId n = static_cast<VertexId>(orient.offsets.size() - 1);
  std::vector<EdgeId> mark(n, kInvalidEdge);
  ForEachTriangle(orient, 0, n, mark.data(), fn);
}

/// Same, orienting `g` first: 8 B per edge plus 8 B per vertex of scratch.
template <typename Fn>
void ForEachTriangle(const AttributedGraph& g, Fn&& fn) {
  ForEachTriangle(OrientByDegree(g), fn);
}

/// Total number of triangles in the graph (each counted once).
uint64_t CountTriangles(const AttributedGraph& g);

}  // namespace fairclique

#endif  // FAIRCLIQUE_GRAPH_TRIANGLES_H_
