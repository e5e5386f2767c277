#include "sim/fault_schedule.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace flexrouter {

namespace {

/// Exponential inter-arrival draw: -mean * ln(1 - U), U uniform in [0, 1).
/// SplitMix64 stream + det_log keep the materialised schedule bit-identical
/// across platforms and standard libraries (std::exponential_distribution
/// and libm's log are both unspecified at the last ulp).
double exp_draw(SplitMix64& sm, double mean) {
  return -mean * det_log(1.0 - sm.next_unit());
}

}  // namespace

void FaultSchedule::push(const FaultEvent& e) {
  FR_REQUIRE(e.at >= 0);
  events_.push_back(e);
  sorted_ = false;
}

void FaultSchedule::fail_link_at(Cycle at, NodeId node, PortId port) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::LinkFault;
  e.node = node;
  e.port = port;
  push(e);
}

void FaultSchedule::fail_node_at(Cycle at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::NodeFault;
  e.node = node;
  push(e);
}

void FaultSchedule::repair_link_at(Cycle at, NodeId node, PortId port) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::LinkRepair;
  e.node = node;
  e.port = port;
  push(e);
}

void FaultSchedule::repair_node_at(Cycle at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::NodeRepair;
  e.node = node;
  push(e);
}

void FaultSchedule::degrade_link_at(Cycle at, NodeId node, PortId port,
                                    int factor) {
  FR_REQUIRE_MSG(factor >= 1, "degradation factor must be >= 1");
  FaultEvent e;
  e.at = at;
  e.kind = FaultEvent::Kind::LinkDegrade;
  e.node = node;
  e.port = port;
  e.factor = factor;
  push(e);
}

void FaultSchedule::add_random_link_faults(const Topology& topo,
                                           double mtbf_cycles, Cycle horizon,
                                           std::uint64_t seed) {
  FR_REQUIRE(mtbf_cycles > 0.0 && horizon >= 0);
  const std::vector<LinkRef> links = topo.undirected_links();
  FR_REQUIRE_MSG(!links.empty(), "topology has no links to fail");
  SplitMix64 sm(seed);
  double t = 0.0;
  for (;;) {
    t += exp_draw(sm, mtbf_cycles);
    const auto at = static_cast<Cycle>(t);
    if (at > horizon) break;
    const LinkRef l =
        links[sm.next_below(static_cast<std::uint64_t>(links.size()))];
    fail_link_at(at, l.node, l.port);
  }
}

void FaultSchedule::add_flapping_link(NodeId node, PortId port,
                                      Cycle first_down, Cycle horizon,
                                      double down_mean, double up_mean,
                                      std::uint64_t seed) {
  FR_REQUIRE(first_down >= 0 && horizon >= first_down);
  FR_REQUIRE_MSG(down_mean >= 1.0 && up_mean >= 1.0,
                 "flap dwell means must be >= 1 cycle");
  SplitMix64 sm(seed);
  double t = static_cast<double>(first_down);
  bool down = false;
  for (;;) {
    const auto at = static_cast<Cycle>(t);
    if (at > horizon) break;
    if (!down) {
      fail_link_at(at, node, port);
      // Dwell at least one cycle in each state so a kill and its repair
      // never share a firing cycle.
      t += 1.0 + exp_draw(sm, down_mean);
    } else {
      repair_link_at(at, node, port);
      t += 1.0 + exp_draw(sm, up_mean);
    }
    down = !down;
  }
}

int FaultSchedule::add_region_storm(const Topology& topo, Cycle at,
                                    const std::vector<int>& lo,
                                    const std::vector<int>& hi) {
  const auto* mesh = dynamic_cast<const Mesh*>(&topo);
  const auto* torus = mesh ? nullptr : dynamic_cast<const Torus*>(&topo);
  FR_REQUIRE_MSG(mesh != nullptr || torus != nullptr,
                 "region storm needs a k-ary Mesh or Torus, got '" +
                     topo.name() + "'");
  const int dims = mesh ? mesh->dims() : torus->dims();
  FR_REQUIRE_MSG(static_cast<int>(lo.size()) == dims &&
                     static_cast<int>(hi.size()) == dims,
                 "region storm on '" + topo.name() +
                     "' needs one [lo, hi] pair per dimension");
  for (int d = 0; d < dims; ++d) {
    const int radix = mesh ? mesh->radix(d) : torus->radix(d);
    FR_REQUIRE_MSG(lo[static_cast<std::size_t>(d)] >= 0 &&
                       hi[static_cast<std::size_t>(d)] < radix,
                   "region storm extends past the edge of '" + topo.name() +
                       "'");
    FR_REQUIRE_MSG(
        lo[static_cast<std::size_t>(d)] <= hi[static_cast<std::size_t>(d)],
        "region storm corners are inverted");
  }
  // Collect the region's nodes, then emit kills in ascending node order so
  // same-cycle storms fire deterministically whatever the corner walk.
  std::vector<NodeId> nodes;
  std::vector<int> c = lo;
  for (;;) {
    nodes.push_back(mesh ? mesh->node_at(c) : torus->node_at(c));
    int d = 0;
    for (; d < dims; ++d) {
      if (c[static_cast<std::size_t>(d)] < hi[static_cast<std::size_t>(d)]) {
        ++c[static_cast<std::size_t>(d)];
        break;
      }
      c[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];
    }
    if (d == dims) break;
  }
  std::sort(nodes.begin(), nodes.end());
  for (const NodeId n : nodes) fail_node_at(at, n);
  return static_cast<int>(nodes.size());
}

int FaultSchedule::add_subcube_storm(const Topology& topo, Cycle at,
                                     std::uint64_t mask, std::uint64_t value) {
  const auto* cube = dynamic_cast<const Hypercube*>(&topo);
  FR_REQUIRE_MSG(cube != nullptr,
                 "subcube storm needs a Hypercube, got '" + topo.name() + "'");
  const auto all =
      (std::uint64_t{1} << static_cast<unsigned>(cube->dimension())) - 1;
  FR_REQUIRE_MSG((mask & ~all) == 0 && (value & ~mask) == 0,
                 "subcube storm mask/value outside the cube's address bits");
  int killed = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if ((static_cast<std::uint64_t>(n) & mask) != value) continue;
    fail_node_at(at, n);
    ++killed;
  }
  return killed;
}

const std::vector<FaultEvent>& FaultSchedule::events() const {
  if (!sorted_) {
    std::stable_sort(
        events_.begin(), events_.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    sorted_ = true;
  }
  return events_;
}

}  // namespace flexrouter
