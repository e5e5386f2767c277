// Conformance suite: every routing algorithm in the repository, on its
// topology, under increasing fault counts, must (a) deliver 100% of
// offered traffic with no deadlock-watchdog trip, and (b) present an
// acyclic channel dependency graph for its deadlock layer (full function
// for algorithms claiming standalone deadlock freedom, escape layer for
// the Duato-style ones). One parameterized test covers the whole matrix.
#include <gtest/gtest.h>

#include "routing/cdg.hpp"
#include "sim/fault_injector.hpp"
#include "sim/scenario.hpp"

namespace flexrouter {
namespace {

struct Case {
  TopologyKind topo;
  std::vector<int> size;  // radices, or {dimension} of a hypercube
  std::string algo;       // any name build_algorithm takes
  int link_faults;
  int node_faults;
  bool fault_tolerant;  // whether this combination must tolerate faults

  std::string label() const {
    // ft-mesh-rules on the ARON tables kept its older label.
    std::string l = (algo == "ft-mesh-rules" ? "rule-ft-mesh" : algo) + "_" +
                    topology_kind_name(topo) + (size.size() == 3 ? "3d" : "") +
                    "_f" + std::to_string(link_faults + node_faults);
    for (char& c : l)
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    return l;
  }
};

class Conformance : public ::testing::TestWithParam<Case> {};

TEST_P(Conformance, DeliversAndStaysDeadlockFree) {
  const Case& c = GetParam();
  auto topo = make_topology(c.topo, c.size);
  auto algo = build_algorithm(c.algo, *topo, rules::ExecMode::Table);
  Network net(*topo, *algo);

  if (c.link_faults > 0 || c.node_faults > 0) {
    Rng rng(static_cast<std::uint64_t>(c.link_faults) * 131 +
            static_cast<std::uint64_t>(c.node_faults) * 17 + 7);
    net.apply_faults([&](FaultSet& f) {
      inject_random_node_faults(f, c.node_faults, rng);
      inject_random_link_faults(f, c.link_faults, rng);
    });
  }

  // (b) the deadlock layer's CDG is acyclic.
  const bool escape_only = !algo->is_escape_vc(0) || !algo->is_escape_vc(
      algo->num_vcs() - 1);
  const CdgReport rep =
      check_cdg(*topo, net.faults(), *algo, escape_only);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
  EXPECT_GT(rep.num_channels, 0);

  // (a) traffic delivery.
  UniformTraffic traffic(*topo);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.seed = 12;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected) << r.to_string();
  EXPECT_GT(r.injected_packets, 0);
  EXPECT_EQ(r.delivered_packets, r.injected_packets) << r.to_string();
  EXPECT_GE(r.min_hops_ratio, 1.0);
}

std::vector<Case> conformance_matrix() {
  constexpr TopologyKind mesh = TopologyKind::Mesh;
  constexpr TopologyKind cube = TopologyKind::Hypercube;
  const std::vector<int> six = {6, 6}, three_d = {3, 3, 3}, four_d = {4};
  std::vector<Case> cases;
  // Fault-free only (non-fault-tolerant algorithms).
  for (const char* a : {"dor-mesh", "nara", "planar-adaptive"})
    cases.push_back({mesh, six, a, 0, 0, false});
  cases.push_back({cube, four_d, "ecube", 0, 0, false});
  cases.push_back({cube, four_d, "route_c_nft", 0, 0, false});
  cases.push_back({TopologyKind::Torus, six, "dor-torus", 0, 0, false});
  cases.push_back({mesh, three_d, "planar-adaptive", 0, 0, false});
  // Fault-tolerant algorithms: 0 / few / many faults.
  for (const char* a :
       {"nafta", "updown", "spanning-tree", "negative-hop", "ft-mesh-rules",
        "planar-adaptive-ft"}) {
    cases.push_back({mesh, six, a, 0, 0, true});
    cases.push_back({mesh, six, a, 4, 0, true});
    cases.push_back({mesh, six, a, 8, 1, true});
  }
  cases.push_back({cube, four_d, "route_c", 0, 0, true});
  cases.push_back({cube, four_d, "route_c", 2, 1, true});
  cases.push_back({cube, four_d, "route_c", 4, 2, true});
  cases.push_back({cube, four_d, "updown", 3, 1, true});
  cases.push_back({mesh, three_d, "planar-adaptive-ft", 6, 1, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, Conformance,
                         ::testing::ValuesIn(conformance_matrix()),
                         [](const auto& info) { return info.param.label(); });

}  // namespace
}  // namespace flexrouter
