// One scenario spec: the keys that describe a simulation run (flexsim's
// command line) parse into a Scenario, and this unit makes the three
// decisions that turn names into a run, once each: the topology from a
// kind and a size, the routing algorithm from a name, and an algorithm's
// native topology kind.
//
// A malformed value, an out-of-range setting, an unknown key or name, or a
// fault outside the topology is a config error: parse_scenario throws
// before anything runs. What only attach() can check (NAFTA needs a 2-D
// mesh) fails when a replica runs.
//
// Keys (all optional):
//   topology   = mesh | torus | hypercube      (default mesh)
//   width      = 8      height = 8             (mesh/torus)
//   dimension  = 4                             (hypercube)
//   algorithm  = nafta (default) | nara | dor-mesh | dor-torus | ecube |
//                route_c | route_c_nft | updown | spanning-tree |
//                planar-adaptive | planar-adaptive-ft | negative-hop |
//                nara-rules | ft-mesh-rules (mesh) | ecube-rules (hypercube)
//                -- the *-rules algorithms run the corpus rule programs
//                   through RuleDrivenRouting instead of native C++
//   traffic    = uniform | transpose | tornado | bitcomp | hotspot |
//                permutation
//   rate       = 0.10                          (flits/node/cycle)
//   rates      = 0.02,0.06,0.10                (sweep: overrides rate)
//   threads    = 0                             (sweep workers; 0 = auto)
//   packet_length = 4
//   warmup     = 1000   measure = 2000
//   link_faults = 0     node_faults = 0
//   seed       = 1
//   show_links = false                         (top-5 link loads, single run)
//   shards     = 1                             (spatial shards; results are
//                                               bit-identical at any count)
//   shard_threads = 0                          (shard pool size; 0 = auto)
//
// Live fault lifecycle (optional; arms the recovery controller):
//   fault_at   = 1500:link:27:1,2200:node:12   (timed mid-run kill events:
//                <cycle>:link:<node>:<port> or <cycle>:node:<id>)
//   repair_after = 800                         (repair every fault_at kill
//                                               that many cycles after it
//                                               lands; needs fault_at)
//   flap       = 27:1:1500:120:260             (intermittent link
//                <node>:<port>:<first_down>:<down_mean>:<up_mean> —
//                seeded on/off duty cycles until warmup + measure)
//   failslow   = 1500:27:1:8                   (<cycle>:<node>:<port>:<factor>
//                comma list: throttle the link to 1/factor bandwidth;
//                factor >= 2)
//   fault_regime = fail_stop | repair | flap | failslow | storm
//                                              (one seeded chaos campaign
//                                               pattern, chaos_schedule;
//                                               conflicts with fault_at)
//   detection_delay = 0                        (cycles before diagnosis)
//   max_retries     = 3                        (abort-and-retransmit budget)
//
// Rule-engine keys (need a *-rules algorithm; contract error otherwise):
//   exec_mode  = interp | vm | aot             (decision backend; default
//                aot, the pre-resolved table ladder — flexsim's summary
//                reports the tier actually chosen, direct or compressed
//                (xor-fold, or offset-sign filled on first touch), or why
//                the VM kept serving; vm = the bare bytecode VM, no table;
//                interp = the AST interpreter)
//   swap_rules_at = 2000,new_rules.txt         (live hot-swap: at the cycle,
//                load the rule program from the file and commit it under
//                traffic — quiescent drain for stateful programs,
//                between-cycles otherwise)
//   swap_policy = auto | immediate | quiescent | rolling
//                                              (commit policy for the swap;
//                                               rolling drains and flips one
//                                               spatial shard at a time)
//   rolling_shards = 8                         (shards a rolling swap drains
//                                               sequentially)
//
// A multi-point sweep (rates with more than one entry) runs one replica
// per offered load, each seeded from (seed, point index), so results are
// identical at any thread count. A single rate keeps the historical
// behaviour: the configured seed drives the one replica directly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "routing/rule_driven.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"

namespace flexrouter {

enum class TopologyKind { Mesh, Torus, Hypercube };

/// "mesh", "torus" or "hypercube".
const char* topology_kind_name(TopologyKind kind);

/// A mesh or torus with the radices `size`, or the hypercube of dimension
/// `size[0]`.
std::unique_ptr<Topology> make_topology(TopologyKind kind,
                                        const std::vector<int>& size);

/// Hypercube for ecube, route_c, route_c_nft and ecube-rules, torus for
/// dor-torus, mesh for the rest.
TopologyKind native_topology_kind(const std::string& algorithm);

/// True for the *-rules names.
bool rule_driven_name(const std::string& algorithm);

/// The corpus program of a *-rules name, generated for `topo`; throws
/// std::invalid_argument when `topo` is not of the program's kind.
std::string rule_program_source(const std::string& algorithm,
                                const Topology& topo);

/// Any algorithm the `algorithm` key names, not yet attached: the natives
/// of make_algorithm, negative-hop with the VCs `topo` needs, or a *-rules
/// program sized to `topo` with its VC count and escape VC, run under
/// `mode`. Throws on an unknown name or a program on the wrong kind.
std::unique_ptr<RoutingAlgorithm> build_algorithm(
    const std::string& name, const Topology& topo,
    rules::ExecMode mode = rules::ExecMode::Aot);

/// A run the keys above describe; the defaults are theirs.
struct Scenario {
  TopologyKind topology = TopologyKind::Mesh;
  std::vector<int> size = {8, 8};  // radices, or {dimension} of a hypercube
  std::string algorithm = "nafta";
  rules::ExecMode exec_mode = rules::ExecMode::Aot;
  std::string traffic = "uniform";
  std::vector<double> rates = {0.10};
  int threads = 0;
  int link_faults = 0;  // static faults, drawn from `seed`
  int node_faults = 0;
  /// Seeds the static faults, the traffic, the fault pattern and, with
  /// one rate, the simulator.
  std::uint64_t seed = 1;
  bool show_links = false;
  SimConfig sim;  // each replica sets injection_rate and seed
  NetworkConfig network;
  FaultSchedule faults;  // fault_at, repair_after, flap, failslow
  std::optional<FaultRegime> fault_regime;  // a pattern on top of `faults`
  Cycle swap_at = 0;
  std::string swap_source;  // the program swapped in; none when empty
  Simulator::RuleSwapPolicy swap_policy = Simulator::RuleSwapPolicy::Auto;

  std::unique_ptr<Topology> make_topology() const {
    return flexrouter::make_topology(topology, size);
  }
};

/// Parse the keys and check that the scenario can run: every name builds
/// on the topology, every fault event lies inside it and the window holds
/// the regime's draws. Throws on the first problem.
Scenario parse_scenario(const Config& cfg);

/// One replica's result and what it reports beside it.
struct ReplicaRun {
  SimResult result;
  int exchanges = 0;  // reconfiguration cost of the static faults
  /// The AOT tier of a rule-driven algorithm, read before the run.
  std::optional<RuleDrivenRouting::AotTierInfo> tier;
  std::vector<Network::LinkLoad> link_loads;  // hottest first; show_links
};

/// Replica `point` of `sc` on `topo`, at load `sc.rates[point]`; with more
/// than one rate the simulator takes the sweep's `derived_seed`.
ReplicaRun run_replica(const Scenario& sc, const Topology& topo,
                       std::size_t point, std::uint64_t derived_seed);

}  // namespace flexrouter
