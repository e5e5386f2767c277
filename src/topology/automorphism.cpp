#include "topology/automorphism.hpp"

#include <utility>

#include "common/assert.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

/// Build the port map induced by `node_map` by solving the neighbor
/// equation per (node, port): the image port is the unique port of the
/// image node that leads to the image neighbor. Unconnected ports fall back
/// to a same-index unconnected port when possible. Returns false when no
/// consistent port map exists (node_map is not an automorphism).
bool induce_port_map(const Topology& topo, const std::vector<NodeId>& node_map,
                     std::vector<PortId>& port_map) {
  const PortId degree = topo.degree();
  port_map.assign(static_cast<std::size_t>(topo.num_nodes()) *
                      static_cast<std::size_t>(degree),
                  kInvalidPort);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const NodeId gn = node_map[static_cast<std::size_t>(n)];
    std::vector<bool> used(static_cast<std::size_t>(degree), false);
    // Connected ports first: the image is forced by the image neighbor.
    for (PortId p = 0; p < degree; ++p) {
      const NodeId m = topo.neighbor(n, p);
      if (m == kInvalidNode) continue;
      const NodeId gm = node_map[static_cast<std::size_t>(m)];
      PortId image = kInvalidPort;
      for (PortId q = 0; q < degree; ++q) {
        if (used[static_cast<std::size_t>(q)]) continue;
        if (topo.neighbor(gn, q) == gm) {
          image = q;
          break;
        }
      }
      if (image == kInvalidPort) return false;
      used[static_cast<std::size_t>(image)] = true;
      port_map[static_cast<std::size_t>(n) * static_cast<std::size_t>(degree) +
               static_cast<std::size_t>(p)] = image;
    }
    // Unconnected ports fill the remaining unconnected slots.
    for (PortId p = 0; p < degree; ++p) {
      if (topo.neighbor(n, p) != kInvalidNode) continue;
      PortId image = kInvalidPort;
      for (PortId q = 0; q < degree; ++q) {
        if (used[static_cast<std::size_t>(q)]) continue;
        if (topo.neighbor(gn, q) == kInvalidNode) {
          image = q;
          break;
        }
      }
      if (image == kInvalidPort) return false;
      used[static_cast<std::size_t>(image)] = true;
      port_map[static_cast<std::size_t>(n) * static_cast<std::size_t>(degree) +
               static_cast<std::size_t>(p)] = image;
    }
  }
  return true;
}

/// Wrap a node permutation into a verified Automorphism; returns false when
/// the permutation does not preserve the link structure.
bool make_automorphism(const Topology& topo, std::vector<NodeId> node_map,
                       Automorphism& out) {
  Automorphism a;
  a.node_map = std::move(node_map);
  if (!induce_port_map(topo, a.node_map, a.port_map)) return false;
  if (!verify_automorphism(topo, a)) return false;
  out = std::move(a);
  return true;
}

}  // namespace

Automorphism identity_automorphism(const Topology& topo) {
  Automorphism a;
  a.node_map.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    a.node_map[static_cast<std::size_t>(n)] = n;
  FR_REQUIRE(induce_port_map(topo, a.node_map, a.port_map));
  return a;
}

bool verify_automorphism(const Topology& topo, const Automorphism& a) {
  const PortId degree = topo.degree();
  if (a.node_map.size() != static_cast<std::size_t>(topo.num_nodes()))
    return false;
  if (a.port_map.size() !=
      a.node_map.size() * static_cast<std::size_t>(degree))
    return false;
  std::vector<bool> hit(a.node_map.size(), false);
  for (const NodeId gn : a.node_map) {
    if (!topo.valid_node(gn) || hit[static_cast<std::size_t>(gn)])
      return false;
    hit[static_cast<std::size_t>(gn)] = true;
  }
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (PortId p = 0; p < degree; ++p) {
      const PortId gp = a.map_port(n, p, degree);
      if (!topo.valid_port(gp)) return false;
      const NodeId m = topo.neighbor(n, p);
      const NodeId image = topo.neighbor(a.map_node(n), gp);
      if (m == kInvalidNode) {
        if (image != kInvalidNode) return false;
      } else if (image != a.map_node(m)) {
        return false;
      }
    }
  }
  return true;
}

Automorphism compose(const Topology& topo, const Automorphism& f,
                     const Automorphism& g) {
  const PortId degree = topo.degree();
  Automorphism h;
  h.node_map.resize(g.node_map.size());
  h.port_map.resize(g.port_map.size());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const NodeId gn = g.map_node(n);
    h.node_map[static_cast<std::size_t>(n)] = f.map_node(gn);
    for (PortId p = 0; p < degree; ++p)
      h.port_map[static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(degree) +
                 static_cast<std::size_t>(p)] =
          f.map_port(gn, g.map_port(n, p, degree), degree);
  }
  return h;
}

std::vector<Automorphism> automorphism_generators(const Topology& topo) {
  std::vector<Automorphism> out;
  if (const auto* mesh = dynamic_cast<const Mesh*>(&topo)) {
    const int dims = mesh->dims();
    // Per-axis reflections.
    for (int d = 0; d < dims; ++d) {
      std::vector<NodeId> nm(static_cast<std::size_t>(topo.num_nodes()));
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        std::vector<int> c = mesh->coords(n);
        c[static_cast<std::size_t>(d)] =
            mesh->radix(d) - 1 - c[static_cast<std::size_t>(d)];
        nm[static_cast<std::size_t>(n)] = mesh->node_at(c);
      }
      Automorphism a;
      if (make_automorphism(topo, std::move(nm), a)) out.push_back(std::move(a));
    }
    // Adjacent equal-radix axis swaps (generate every radix-respecting
    // axis permutation under closure).
    for (int d = 0; d + 1 < dims; ++d) {
      if (mesh->radix(d) != mesh->radix(d + 1)) continue;
      std::vector<NodeId> nm(static_cast<std::size_t>(topo.num_nodes()));
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        std::vector<int> c = mesh->coords(n);
        std::swap(c[static_cast<std::size_t>(d)],
                  c[static_cast<std::size_t>(d + 1)]);
        nm[static_cast<std::size_t>(n)] = mesh->node_at(c);
      }
      Automorphism a;
      if (make_automorphism(topo, std::move(nm), a)) out.push_back(std::move(a));
    }
    return out;
  }
  if (const auto* cube = dynamic_cast<const Hypercube*>(&topo)) {
    const int dim = cube->dimension();
    // Translations (XOR by a unit vector).
    for (int i = 0; i < dim; ++i) {
      std::vector<NodeId> nm(static_cast<std::size_t>(topo.num_nodes()));
      for (NodeId n = 0; n < topo.num_nodes(); ++n)
        nm[static_cast<std::size_t>(n)] = n ^ (NodeId{1} << i);
      Automorphism a;
      if (make_automorphism(topo, std::move(nm), a)) out.push_back(std::move(a));
    }
    // Adjacent bit swaps (generate all bit permutations under closure).
    for (int i = 0; i + 1 < dim; ++i) {
      std::vector<NodeId> nm(static_cast<std::size_t>(topo.num_nodes()));
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        const NodeId bi = (n >> i) & 1;
        const NodeId bj = (n >> (i + 1)) & 1;
        NodeId m = n & ~((NodeId{1} << i) | (NodeId{1} << (i + 1)));
        m |= bj << i;
        m |= bi << (i + 1);
        nm[static_cast<std::size_t>(n)] = m;
      }
      Automorphism a;
      if (make_automorphism(topo, std::move(nm), a)) out.push_back(std::move(a));
    }
    return out;
  }
  return out;
}

}  // namespace flexrouter
