#include "model/architecture.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::model {

ResourceId ArchitectureGraph::AddResource(Resource resource) {
  const auto id = static_cast<ResourceId>(resources_.size());
  resources_.push_back(std::move(resource));
  adjacency_.emplace_back();
  return id;
}

void ArchitectureGraph::AddLink(ResourceId a, ResourceId b) {
  if (a >= resources_.size() || b >= resources_.size())
    throw std::invalid_argument("link endpoint out of range");
  if (a == b) throw std::invalid_argument("self-link");
  if (Linked(a, b)) return;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  std::sort(adjacency_[a].begin(), adjacency_[a].end());
  std::sort(adjacency_[b].begin(), adjacency_[b].end());
}

bool ArchitectureGraph::Linked(ResourceId a, ResourceId b) const {
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

std::optional<std::vector<ResourceId>> ArchitectureGraph::ShortestPath(
    ResourceId a, ResourceId b) const {
  if (a >= resources_.size() || b >= resources_.size()) return std::nullopt;
  const std::vector<ResourceId> pred = ShortestPathTree(a);
  if (pred[b] == kInvalidId) return std::nullopt;
  std::vector<ResourceId> path{b};
  for (ResourceId p = b; p != a;) {
    p = pred[p];
    path.push_back(p);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<ResourceId> ArchitectureGraph::ShortestPathTree(
    ResourceId a) const {
  std::vector<ResourceId> pred(resources_.size(), kInvalidId);
  if (a >= resources_.size()) return pred;
  // Each resource enters the queue at most once, so a vector with a read
  // head serves as the queue.
  std::vector<ResourceId> queue{a};
  pred[a] = a;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    // Adjacency lists are sorted: lowest-id tie-break.
    for (ResourceId next : adjacency_[queue[head]]) {
      if (pred[next] != kInvalidId) continue;
      pred[next] = queue[head];
      queue.push_back(next);
    }
  }
  return pred;
}

std::vector<ResourceId> ArchitectureGraph::ResourcesOfKind(
    ResourceKind kind) const {
  std::vector<ResourceId> out;
  for (ResourceId id = 0; id < resources_.size(); ++id) {
    if (resources_[id].kind == kind) out.push_back(id);
  }
  return out;
}

ResourceId ArchitectureGraph::Gateway() const {
  const auto gws = ResourcesOfKind(ResourceKind::Gateway);
  if (gws.size() != 1)
    throw std::logic_error("architecture must have exactly one gateway");
  return gws[0];
}

}  // namespace bistdse::model
