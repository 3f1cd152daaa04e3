#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <string>

#include "common/logging.h"

namespace fairclique {

bool AttributedGraph::HasEdge(VertexId u, VertexId v) const {
  return FindEdge(u, v) != kInvalidEdge;
}

EdgeId AttributedGraph::FindEdge(VertexId u, VertexId v) const {
  if (u == v) return kInvalidEdge;
  // Search the shorter adjacency row.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto nbrs = neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return edge_ids(u)[static_cast<size_t>(it - nbrs.begin())];
}

AttributedGraph AttributedGraph::InducedSubgraph(
    std::span<const VertexId> vertices,
    std::vector<VertexId>* original_ids) const {
  std::vector<VertexId> local(num_vertices(), kInvalidVertex);
  for (size_t i = 0; i < vertices.size(); ++i) {
    FC_CHECK(local[vertices[i]] == kInvalidVertex)
        << "duplicate vertex " << vertices[i] << " in InducedSubgraph";
    local[vertices[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(vertices.size()));
  for (size_t i = 0; i < vertices.size(); ++i) {
    builder.SetAttribute(static_cast<VertexId>(i), attribute(vertices[i]));
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    VertexId u = vertices[i];
    for (VertexId w : neighbors(u)) {
      // Emit each edge once, from the endpoint with the smaller original
      // id: for a sorted vertex list the edges then arrive in order.
      if (w > u && local[w] != kInvalidVertex) {
        builder.AddEdge(static_cast<VertexId>(i), local[w]);
      }
    }
  }
  if (original_ids != nullptr) {
    original_ids->assign(vertices.begin(), vertices.end());
  }
  return builder.Build();
}

AttributedGraph AttributedGraph::FilteredSubgraph(
    std::span<const uint8_t> vertex_alive, std::span<const uint8_t> edge_alive,
    std::vector<VertexId>* original_ids) const {
  FC_CHECK(vertex_alive.size() == num_vertices());
  FC_CHECK(edge_alive.empty() || edge_alive.size() == num_edges());
  std::vector<VertexId> kept;
  kept.reserve(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (vertex_alive[v]) kept.push_back(v);
  }
  std::vector<VertexId> local(num_vertices(), kInvalidVertex);
  for (size_t i = 0; i < kept.size(); ++i) {
    local[kept[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(kept.size()));
  for (size_t i = 0; i < kept.size(); ++i) {
    builder.SetAttribute(static_cast<VertexId>(i), attribute(kept[i]));
  }
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (!edge_alive.empty() && !edge_alive[e]) continue;
    const Edge& edge = edges_[e];
    if (vertex_alive[edge.u] && vertex_alive[edge.v]) {
      builder.AddEdge(local[edge.u], local[edge.v]);
    }
  }
  if (original_ids != nullptr) *original_ids = std::move(kept);
  return builder.Build();
}

std::vector<std::vector<VertexId>> AttributedGraph::ConnectedComponents()
    const {
  std::vector<std::vector<VertexId>> components;
  std::vector<uint8_t> visited(num_vertices(), 0);
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < num_vertices(); ++s) {
    if (visited[s]) continue;
    std::vector<VertexId> component;
    stack.push_back(s);
    visited[s] = 1;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      component.push_back(v);
      for (VertexId w : neighbors(v)) {
        if (!visited[w]) {
          visited[w] = 1;
          stack.push_back(w);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

Status AttributedGraph::Validate() const {
  if (offsets_.empty()) {
    return Status::Corruption("graph has no offset array");
  }
  if (attributes_.size() != num_vertices()) {
    return Status::Corruption("attribute array size mismatch");
  }
  if (adjacency_.size() != 2 * static_cast<size_t>(num_edges())) {
    return Status::Corruption("adjacency size != 2 * num_edges");
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    auto nbrs = neighbors(v);
    auto eids = edge_ids(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == v) {
        return Status::Corruption("self-loop at vertex " + std::to_string(v));
      }
      if (i > 0 && nbrs[i] <= nbrs[i - 1]) {
        return Status::Corruption("adjacency of vertex " + std::to_string(v) +
                                  " not strictly sorted");
      }
      const Edge& e = edges_[eids[i]];
      VertexId lo = std::min(v, nbrs[i]);
      VertexId hi = std::max(v, nbrs[i]);
      if (e.u != lo || e.v != hi) {
        return Status::Corruption("edge id wiring broken at vertex " +
                                  std::to_string(v));
      }
    }
  }
  for (EdgeId e = 0; e + 1 < num_edges(); ++e) {
    if (!(edges_[e] < edges_[e + 1])) {
      return Status::Corruption("edge list not strictly sorted");
    }
  }
  return Status::OK();
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices), attributes_(num_vertices, 0) {}

void GraphBuilder::SetAttribute(VertexId v, Attribute attr) {
  FC_CHECK(v < num_vertices_) << "SetAttribute: vertex out of range";
  attributes_[v] = static_cast<uint8_t>(attr);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  FC_CHECK(u < num_vertices_ && v < num_vertices_)
      << "AddEdge: endpoint out of range (" << u << ", " << v << ")";
  if (u == v) return;  // Self-loops are silently dropped.
  if (u > v) std::swap(u, v);
  raw_edges_.push_back({u, v});
}

namespace {

// Stable counting sort of `in` by the endpoint `field` into `out`: O(V + E).
void CountingSortEdges(std::span<const Edge> in, VertexId Edge::*field,
                       VertexId num_vertices, std::span<Edge> out) {
  std::vector<size_t> start(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : in) ++start[e.*field + 1];
  for (size_t v = 1; v < start.size(); ++v) start[v] += start[v - 1];
  for (const Edge& e : in) out[start[e.*field]++] = e;
}

// The edges of `raw` (each with u < v) sorted by (u, v), duplicates dropped.
// Input already in order (FilteredSubgraph, DynamicGraph::Rebuild) is only
// copied; otherwise two stable counting sorts, by v then by u, order it in
// O(V + E).
std::vector<Edge> SortedUniqueEdges(std::span<const Edge> raw,
                                    VertexId num_vertices) {
  std::vector<Edge> edges;
  if (std::is_sorted(raw.begin(), raw.end())) {
    edges.assign(raw.begin(), raw.end());
  } else {
    std::vector<Edge> by_v(raw.size());
    CountingSortEdges(raw, &Edge::v, num_vertices, by_v);
    edges.resize(raw.size());
    CountingSortEdges(by_v, &Edge::u, num_vertices, edges);
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

AttributedGraph GraphBuilder::Build() const {
  auto store = std::make_shared<AttributedGraph::OwnedCsr>();
  store->edges = SortedUniqueEdges(raw_edges_, num_vertices_);
  store->attributes = attributes_;

  AttributedGraph g;
  g.attr_counts_ = AttrCounts{};
  for (uint8_t a : store->attributes) {
    g.attr_counts_[static_cast<Attribute>(a)]++;
  }

  const size_t n = num_vertices_;
  const std::span<const Edge> edges = store->edges;
  store->offsets.assign(n + 1, 0);
  store->adjacency.resize(2 * edges.size());
  store->adjacency_edge_ids.resize(2 * edges.size());
  std::vector<uint64_t> cursor(n, 0);
  uint64_t* offsets = store->offsets.data();
  VertexId* adjacency = store->adjacency.data();
  EdgeId* adjacency_edge_ids = store->adjacency_edge_ids.data();
  // fclint: hot-path-begin(csr_build)
  for (const Edge& e : edges) {
    offsets[e.u + 1]++;
    offsets[e.v + 1]++;
  }
  for (size_t v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_,
                             static_cast<uint32_t>(offsets[v + 1]));
    cursor[v] = offsets[v];
    offsets[v + 1] += offsets[v];
  }
  // Edges are sorted by (u, v), so row x first receives its neighbors
  // below x (edges (u, x), in increasing u) and then those above it (edges
  // (x, v), in increasing v): every row fills already sorted.
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    adjacency[cursor[edge.u]] = edge.v;
    adjacency_edge_ids[cursor[edge.u]++] = e;
    adjacency[cursor[edge.v]] = edge.u;
    adjacency_edge_ids[cursor[edge.v]++] = e;
  }
  // fclint: hot-path-end
  g.offsets_ = store->offsets;
  g.adjacency_ = store->adjacency;
  g.adjacency_edge_ids_ = store->adjacency_edge_ids;
  g.edges_ = store->edges;
  g.attributes_ = store->attributes;
  g.keeper_ = std::move(store);
  return g;
}

AttributedGraph AttributedGraph::FromCsr(
    std::span<const uint64_t> offsets, std::span<const VertexId> adjacency,
    std::span<const EdgeId> adjacency_edge_ids, std::span<const Edge> edges,
    std::span<const uint8_t> attributes, uint32_t max_degree,
    std::shared_ptr<const void> keeper) {
  FC_CHECK(!offsets.empty()) << "FromCsr: offsets must have size V+1 >= 1";
  FC_CHECK(offsets.size() == attributes.size() + 1)
      << "FromCsr: offsets/attributes size mismatch";
  FC_CHECK(adjacency.size() == 2 * edges.size())
      << "FromCsr: adjacency size != 2 * num_edges";
  FC_CHECK(adjacency_edge_ids.size() == adjacency.size())
      << "FromCsr: edge-id array not parallel to adjacency";
  FC_CHECK(offsets.front() == 0 && offsets.back() == adjacency.size())
      << "FromCsr: offsets do not span the adjacency array";
  AttributedGraph g;
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.adjacency_edge_ids_ = adjacency_edge_ids;
  g.edges_ = edges;
  g.attributes_ = attributes;
  g.max_degree_ = max_degree;
  g.attr_counts_ = AttrCounts{};
  for (uint8_t a : attributes) g.attr_counts_[static_cast<Attribute>(a)]++;
  g.keeper_ = std::move(keeper);
  return g;
}

AttributedGraph BuildGraph(VertexId num_vertices,
                           std::span<const Edge> edge_list,
                           std::span<const Attribute> attributes) {
  FC_CHECK(attributes.size() == num_vertices);
  GraphBuilder builder(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    builder.SetAttribute(v, attributes[v]);
  }
  for (const Edge& e : edge_list) builder.AddEdge(e.u, e.v);
  return builder.Build();
}

}  // namespace fairclique
