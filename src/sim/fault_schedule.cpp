#include "sim/fault_schedule.hpp"

#include <algorithm>
#include <string>

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

void FaultSchedule::append(const FaultSchedule& other) {
  for (const FaultEvent& e : other.events()) push(e);
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

const char* fault_regime_name(FaultRegime r) {
  switch (r) {
    case FaultRegime::FailStop: return "fail_stop";
    case FaultRegime::Repair: return "repair";
    case FaultRegime::Flap: return "flap";
    case FaultRegime::FailSlow: return "failslow";
    case FaultRegime::Storm: return "storm";
  }
  return "?";
}

FaultSchedule chaos_schedule(FaultRegime reg, const Topology& topo,
                             Cycle warmup, Cycle measure, std::uint64_t seed) {
  const Cycle min_measure = reg == FaultRegime::Flap ? 10
                            : reg == FaultRegime::FailStop ||
                                    reg == FaultRegime::FailSlow
                                ? 2
                                : 0;
  FR_REQUIRE_MSG(measure >= min_measure,
                 std::string("fault_regime ") + fault_regime_name(reg) +
                     " needs measure >= " + std::to_string(min_measure) +
                     " for its draws (got " + std::to_string(measure) + ")");
  FaultSchedule s;
  SplitMix64 sm(seed ^ (0x9d5c0c5bULL + static_cast<std::uint64_t>(reg)));
  const std::vector<LinkRef> links = topo.undirected_links();
  const auto rand_link = [&] {
    return links[sm.next_below(static_cast<std::uint64_t>(links.size()))];
  };
  const auto rand_cycle = [&] {
    // Somewhere in the middle half of the measurement window, so damage
    // lands under measured traffic and recovery can finish inside the run.
    return warmup + measure / 4 +
           static_cast<Cycle>(
               sm.next_below(static_cast<std::uint64_t>(measure / 2)));
  };
  switch (reg) {
    case FaultRegime::FailStop: {
      const int kills = 1 + static_cast<int>(sm.next_below(2));
      for (int i = 0; i < kills; ++i) {
        const LinkRef l = rand_link();
        s.fail_link_at(rand_cycle(), l.node, l.port);
      }
      break;
    }
    case FaultRegime::Repair: {
      const LinkRef l = rand_link();
      s.fail_link_at(warmup + measure / 4, l.node, l.port);
      s.repair_link_at(warmup + (3 * measure) / 4, l.node, l.port);
      break;
    }
    case FaultRegime::Flap: {
      const LinkRef l = rand_link();
      s.add_flapping_link(l.node, l.port, warmup + measure / 4,
                          warmup + measure, static_cast<double>(measure) / 10,
                          static_cast<double>(measure) / 5, sm.next());
      break;
    }
    case FaultRegime::FailSlow: {
      const int slows = 1 + static_cast<int>(sm.next_below(3));
      for (int i = 0; i < slows; ++i) {
        const LinkRef l = rand_link();
        const int factor = 4 + static_cast<int>(sm.next_below(13));
        s.degrade_link_at(rand_cycle(), l.node, l.port, factor);
      }
      break;
    }
    case FaultRegime::Storm: {
      const Cycle at = warmup + measure / 4;
      if (const auto* cube = dynamic_cast<const Hypercube*>(&topo)) {
        // 1-subcube: fix all but one address bit — two correlated kills.
        const auto all =
            (std::uint64_t{1} << static_cast<unsigned>(cube->dimension())) -
            1;
        const std::uint64_t free_bit =
            std::uint64_t{1} << sm.next_below(
                static_cast<std::uint64_t>(cube->dimension()));
        const std::uint64_t mask = all ^ free_bit;
        s.add_subcube_storm(topo, at, mask, sm.next() & mask);
      } else {
        // 2x1 block at a random grid position.
        const auto* mesh = dynamic_cast<const Mesh*>(&topo);
        const auto* torus = dynamic_cast<const Torus*>(&topo);
        FR_REQUIRE_MSG(mesh != nullptr || torus != nullptr,
                       "storm regime needs a mesh, torus or hypercube");
        const auto radix = [&](int d) {
          return static_cast<std::uint64_t>(mesh ? mesh->radix(d)
                                                 : torus->radix(d));
        };
        const int x = static_cast<int>(sm.next_below(radix(0) - 1));
        const int y = static_cast<int>(sm.next_below(radix(1)));
        s.add_region_storm(topo, at, {x, y}, {x + 1, y});
      }
      break;
    }
  }
  return s;
}

}  // namespace flexrouter
