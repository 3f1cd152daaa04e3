#include "graph/triangles.h"

namespace fairclique {

DegreeOrientation OrientByDegree(const AttributedGraph& g) {
  const VertexId n = g.num_vertices();
  auto ranks_below = [&g](VertexId u, VertexId v) {
    const uint32_t du = g.degree(u);
    const uint32_t dv = g.degree(v);
    return du != dv ? du < dv : u < v;
  };
  DegreeOrientation orient;
  orient.offsets.resize(n + 1);
  orient.arcs.resize(g.num_edges());
  // Each edge is kept in the row of its lower-ranked endpoint only, so the
  // rows pack into exactly E arcs in one walk over the CSR, and walking each
  // row in order keeps every out-row sorted by head id.
  EdgeId pos = 0;
  for (VertexId u = 0; u < n; ++u) {
    orient.offsets[u] = pos;
    auto nbrs = g.neighbors(u);
    auto eids = g.edge_ids(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (ranks_below(u, nbrs[i])) orient.arcs[pos++] = {nbrs[i], eids[i]};
    }
  }
  orient.offsets[n] = pos;
  return orient;
}

uint64_t CountTriangles(const AttributedGraph& g) {
  uint64_t total = 0;
  ForEachTriangle(g, [&total](VertexId, VertexId, VertexId, EdgeId, EdgeId,
                              EdgeId) { ++total; });
  return total;
}

}  // namespace fairclique
