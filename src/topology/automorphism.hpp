// Topology automorphisms: node permutations that preserve the link
// structure, with the induced per-node port permutation.
//
// The fault-certification engine (ruleanalysis/fault_cert) quotients the
// space of bounded fault sets by these symmetries: two fault sets related
// by an automorphism under which the routing program is provably
// equivariant have identical verdicts, so only one canonical orbit
// representative is re-certified. The group is built by closing a small
// generator set (mesh axis reflections and equal-radix axis swaps,
// hypercube translations and bit swaps) under composition; every element
// is mechanically re-verified against the topology, so a wrong generator
// can never smuggle in an unsound identification.
#pragma once

#include <cstddef>
#include <vector>

#include "topology/topology.hpp"

namespace flexrouter {

/// One automorphism: a node permutation plus the induced port map.
/// `port_map[node * degree + port]` is the port at `node_map[node]` whose
/// link mirrors (node, port). Unconnected ports map to unconnected ports.
struct Automorphism {
  std::vector<NodeId> node_map;
  std::vector<PortId> port_map;

  NodeId map_node(NodeId n) const {
    return node_map[static_cast<std::size_t>(n)];
  }
  PortId map_port(NodeId n, PortId p, PortId degree) const {
    return port_map[static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(degree) +
                    static_cast<std::size_t>(p)];
  }
  /// Image of a directed link endpoint.
  LinkRef map_link(const LinkRef& l, PortId degree) const {
    return {map_node(l.node), map_port(l.node, l.port, degree)};
  }
};

Automorphism identity_automorphism(const Topology& topo);

/// True iff `a` is a bijection on nodes whose port map carries every link
/// onto a link (and every unconnected port onto an unconnected port).
bool verify_automorphism(const Topology& topo, const Automorphism& a);

/// f after g: apply(g) then apply(f).
Automorphism compose(const Topology& topo, const Automorphism& f,
                     const Automorphism& g);

/// Generator candidates of Aut(topo) for the topology families the corpus
/// routes: meshes (per-axis reflections, adjacent equal-radix axis swaps)
/// and hypercubes (per-bit translations, adjacent bit swaps). Other
/// topologies get an empty set (the engine then falls back to full fault
/// enumeration). Every returned element is verified.
std::vector<Automorphism> automorphism_generators(const Topology& topo);

}  // namespace flexrouter
