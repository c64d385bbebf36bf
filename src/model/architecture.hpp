// Architecture graph g_A = (R, E_A): ECUs, sensors, actuators, buses and the
// central gateway, with bidirectional communication links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"

namespace bistdse::model {

struct Resource {
  std::string name;
  ResourceKind kind = ResourceKind::Ecu;
  double base_cost = 0.0;              ///< Monetary cost when allocated.
  double cost_per_byte = 0.0;          ///< Pattern-memory cost (ECU/gateway).
  double bus_bitrate_bps = 500e3;      ///< Meaningful for buses.
};

class ArchitectureGraph {
 public:
  ResourceId AddResource(Resource resource);

  /// Adds a bidirectional link (e.g. ECU <-> bus, bus <-> gateway).
  void AddLink(ResourceId a, ResourceId b);

  std::size_t ResourceCount() const { return resources_.size(); }
  const Resource& GetResource(ResourceId id) const { return resources_[id]; }
  std::span<const ResourceId> Neighbors(ResourceId id) const {
    return adjacency_[id];
  }
  bool Linked(ResourceId a, ResourceId b) const;

  /// Shortest path a -> b (inclusive of both endpoints) by BFS; nullopt when
  /// disconnected. Deterministic (lowest-id tie-break).
  std::optional<std::vector<ResourceId>> ShortestPath(ResourceId a,
                                                      ResourceId b) const;
  /// The BFS tree under ShortestPath(a, ·): the predecessor of every
  /// resource on its path from `a`, with pred[a] == a and kInvalidId where
  /// `a` cannot reach. Walking pred back from b yields ShortestPath(a, b)
  /// reversed.
  std::vector<ResourceId> ShortestPathTree(ResourceId a) const;

  std::vector<ResourceId> ResourcesOfKind(ResourceKind kind) const;

  /// The unique gateway resource; throws std::logic_error if there is none
  /// or more than one.
  ResourceId Gateway() const;

 private:
  std::vector<Resource> resources_;
  std::vector<std::vector<ResourceId>> adjacency_;
};

}  // namespace bistdse::model
