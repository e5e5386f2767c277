// Synthetic traffic patterns (BookSim-style): destination generators used
// by the open-loop injection process.
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "topology/topology.hpp"

namespace flexrouter {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  /// Destination for a packet sourced at `src`. May return src or a faulty
  /// node; the injector redraws/skips per fault assumption iii.
  virtual NodeId dest(NodeId src, Rng& rng) const = 0;
};

/// Uniformly random destination != src.
class UniformTraffic final : public TrafficPattern {
 public:
  explicit UniformTraffic(const Topology& topo) : topo_(&topo) {}
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  const Topology* topo_;
};

/// dest = bit-complement of src (worst-case distance on cubes/meshes).
class BitComplementTraffic final : public TrafficPattern {
 public:
  explicit BitComplementTraffic(const Topology& topo) : topo_(&topo) {}
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  const Topology* topo_;
};

/// Matrix transpose on square 2-D meshes: (x, y) -> (y, x).
class TransposeTraffic final : public TrafficPattern {
 public:
  explicit TransposeTraffic(const Topology& topo);
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  const Topology* topo_;
};

/// Tornado: half-way around each dimension (adversarial for minimal
/// adaptive routing on meshes/tori).
class TornadoTraffic final : public TrafficPattern {
 public:
  explicit TornadoTraffic(const Topology& topo);
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  const Topology* topo_;
};

/// A fraction of traffic targets one hot node, the rest is uniform.
class HotspotTraffic final : public TrafficPattern {
 public:
  HotspotTraffic(const Topology& topo, NodeId hot, double fraction);
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  const Topology* topo_;
  NodeId hot_;
  double fraction_;
  UniformTraffic uniform_;
};

/// A fixed random permutation drawn once from a seed.
class PermutationTraffic final : public TrafficPattern {
 public:
  PermutationTraffic(const Topology& topo, std::uint64_t seed);
  NodeId dest(NodeId src, Rng& rng) const override;

 private:
  std::vector<NodeId> perm_;
};

/// Factory: "uniform", "bitcomp", "transpose", "tornado", "hotspot",
/// "permutation".
std::unique_ptr<TrafficPattern> make_traffic(const std::string& name,
                                             const Topology& topo,
                                             std::uint64_t seed = 1);

}  // namespace flexrouter
