#include "sim/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "routing/dor.hpp"
#include "routing/dor_torus.hpp"
#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "routing/negative_hop.hpp"
#include "routing/planar_adaptive.hpp"
#include "routing/route_c.hpp"
#include "routing/spanning_tree.hpp"
#include "routing/updown.hpp"
#include "rulebases/corpus.hpp"
#include "sim/fault_injector.hpp"
#include "sim/traffic.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

namespace flexrouter {

std::unique_ptr<RoutingAlgorithm> make_algorithm(const std::string& name) {
  if (name == "dor-mesh") return std::make_unique<DimensionOrderMesh>();
  if (name == "ecube") return std::make_unique<ECubeHypercube>();
  if (name == "nara") return std::make_unique<Nara>();
  if (name == "nafta") return std::make_unique<Nafta>();
  if (name == "route_c") return std::make_unique<RouteC>();
  if (name == "route_c_nft") return std::make_unique<StrippedRouteC>();
  if (name == "updown") return std::make_unique<UpDownRouting>();
  if (name == "spanning-tree") return std::make_unique<SpanningTreeRouting>();
  if (name == "dor-torus") return std::make_unique<DimensionOrderTorus>();
  if (name == "planar-adaptive")
    return std::make_unique<PlanarAdaptive>(false);
  if (name == "planar-adaptive-ft")
    return std::make_unique<PlanarAdaptive>(true);
  FR_REQUIRE_MSG(false, "unknown routing algorithm '" + name + "'");
  return nullptr;
}

std::vector<std::string> algorithm_names() {
  return {"dor-mesh",      "ecube",         "nara",
          "nafta",         "route_c",       "route_c_nft",
          "updown",        "spanning-tree", "dor-torus",
          "planar-adaptive", "planar-adaptive-ft"};
}

namespace {

/// The corpus programs behind the *-rules names: the topology kind each is
/// generated for, its VC count and its escape VC (-1: none).
struct RuleProgramSpec {
  const char* name;
  TopologyKind kind;
  int num_vcs;
  VcId escape_vc;
};
constexpr RuleProgramSpec kRulePrograms[] = {
    {"nara-rules", TopologyKind::Mesh, 2, -1},
    {"ft-mesh-rules", TopologyKind::Mesh, 3, 2},
    {"ecube-rules", TopologyKind::Hypercube, 1, -1},
};

const RuleProgramSpec* find_rule_program(const std::string& name) {
  for (const RuleProgramSpec& p : kRulePrograms)
    if (name == p.name) return &p;
  return nullptr;
}

}  // namespace

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Mesh: return "mesh";
    case TopologyKind::Torus: return "torus";
    case TopologyKind::Hypercube: return "hypercube";
  }
  return "?";
}

std::unique_ptr<Topology> make_topology(TopologyKind kind,
                                        const std::vector<int>& size) {
  switch (kind) {
    case TopologyKind::Mesh: return std::make_unique<Mesh>(size);
    case TopologyKind::Torus: return std::make_unique<Torus>(size);
    case TopologyKind::Hypercube:
      FR_REQUIRE_MSG(size.size() == 1,
                     "a hypercube's size is its one dimension");
      return std::make_unique<Hypercube>(size[0]);
  }
  FR_UNREACHABLE("bad topology kind");
}

TopologyKind native_topology_kind(const std::string& algorithm) {
  if (const RuleProgramSpec* p = find_rule_program(algorithm)) return p->kind;
  if (algorithm == "ecube" || algorithm == "route_c" ||
      algorithm == "route_c_nft")
    return TopologyKind::Hypercube;
  if (algorithm == "dor-torus") return TopologyKind::Torus;
  return TopologyKind::Mesh;
}

bool rule_driven_name(const std::string& algorithm) {
  return find_rule_program(algorithm) != nullptr;
}

std::string rule_program_source(const std::string& algorithm,
                                const Topology& topo) {
  const RuleProgramSpec* p = find_rule_program(algorithm);
  FR_REQUIRE_MSG(p != nullptr, "'" + algorithm + "' runs no rule program");
  if (p->kind == TopologyKind::Hypercube) {
    const auto* cube = dynamic_cast<const Hypercube*>(&topo);
    if (cube == nullptr)
      throw std::invalid_argument(algorithm + " needs topology = hypercube");
    return rulebases::ecube_route_source(cube->dimension());
  }
  const auto* mesh = dynamic_cast<const Mesh*>(&topo);
  if (mesh == nullptr || mesh->dims() != 2)
    throw std::invalid_argument(algorithm + " needs topology = mesh");
  return algorithm == "nara-rules"
             ? rulebases::nara_route_source(mesh->radix(0), mesh->radix(1))
             : rulebases::ft_mesh_route_source(mesh->radix(0),
                                               mesh->radix(1));
}

std::unique_ptr<RoutingAlgorithm> build_algorithm(const std::string& name,
                                                  const Topology& topo,
                                                  rules::ExecMode mode) {
  if (const RuleProgramSpec* p = find_rule_program(name))
    return std::make_unique<RuleDrivenRouting>(
        rule_program_source(name, topo), p->num_vcs, mode, "route",
        p->escape_vc);
  if (name == "negative-hop")
    return std::make_unique<NegativeHop>(NegativeHop::vcs_needed_for(topo));
  return make_algorithm(name);
}

namespace {

/// The keys documented in scenario.hpp; anything else is a typo
/// (`exec_mod = vm` must not silently run the default tier).
bool known_key(const std::string& key) {
  static const char* const known[] = {
      "topology",      "width",           "height",        "dimension",
      "algorithm",     "traffic",         "rate",          "rates",
      "threads",       "packet_length",   "warmup",        "measure",
      "link_faults",   "node_faults",     "seed",          "show_links",
      "shards",        "shard_threads",   "fault_at",      "repair_after",
      "flap",          "failslow",        "fault_regime",  "detection_delay",
      "max_retries",   "exec_mode",       "swap_rules_at", "swap_policy",
      "rolling_shards",
  };
  return std::find(std::begin(known), std::end(known), key) != std::end(known);
}

TopologyKind parse_topology_kind(const std::string& name) {
  for (const TopologyKind k :
       {TopologyKind::Mesh, TopologyKind::Torus, TopologyKind::Hypercube})
    if (name == topology_kind_name(k)) return k;
  throw std::invalid_argument("unknown topology '" + name + "'");
}

/// Parse `fault_at = <cycle>:link:<node>:<port>,<cycle>:node:<id>,...`
/// into timed kill events.
void parse_fault_at(FaultSchedule& schedule, const std::string& spec) {
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string cycle_s, kind, a, b;
    std::getline(fields, cycle_s, ':');
    std::getline(fields, kind, ':');
    std::getline(fields, a, ':');
    const Cycle at = std::stoll(cycle_s);
    if (kind == "link") {
      std::getline(fields, b, ':');
      schedule.fail_link_at(at, std::stoi(a), std::stoi(b));
    } else if (kind == "node") {
      schedule.fail_node_at(at, std::stoi(a));
    } else {
      throw std::invalid_argument("fault_at entry '" + entry +
                                  "': kind must be 'link' or 'node'");
    }
  }
}

/// `repair_after = N`: schedule a matching repair N cycles after every
/// fault_at kill, turning each fail-stop event into a die -> reintegrate
/// round trip.
void append_repairs(FaultSchedule& schedule, Cycle delay) {
  const std::vector<FaultEvent> kills = schedule.events();  // copied: we push
  for (const FaultEvent& e : kills) {
    if (e.kind == FaultEvent::Kind::LinkFault)
      schedule.repair_link_at(e.at + delay, e.node, e.port);
    else if (e.kind == FaultEvent::Kind::NodeFault)
      schedule.repair_node_at(e.at + delay, e.node);
  }
}

/// `flap = <node>:<port>:<first_down>:<down_mean>:<up_mean>` — an
/// intermittent link flapping until the end of the measurement window.
void parse_flap(FaultSchedule& schedule, const std::string& spec,
                Cycle horizon, std::uint64_t seed) {
  std::istringstream fields(spec);
  std::string node_s, port_s, first_s, down_s, up_s;
  if (!(std::getline(fields, node_s, ':') &&
        std::getline(fields, port_s, ':') &&
        std::getline(fields, first_s, ':') &&
        std::getline(fields, down_s, ':') && std::getline(fields, up_s)))
    throw std::invalid_argument(
        "flap must be <node>:<port>:<first_down>:<down_mean>:<up_mean> "
        "(got '" +
        spec + "')");
  schedule.add_flapping_link(std::stoi(node_s), std::stoi(port_s),
                             std::stoll(first_s), horizon, std::stod(down_s),
                             std::stod(up_s), seed ^ 0xf1a9ULL);
}

/// `failslow = <cycle>:<node>:<port>:<factor>,...` — throttle links to one
/// flit per `factor` cycles. A factor below 2 is a contract error: a
/// fail-slow link still moves flits, it is just slower.
void parse_failslow(FaultSchedule& schedule, const std::string& spec) {
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string cycle_s, node_s, port_s, factor_s;
    if (!(std::getline(fields, cycle_s, ':') &&
          std::getline(fields, node_s, ':') &&
          std::getline(fields, port_s, ':') &&
          std::getline(fields, factor_s)))
      throw std::invalid_argument("failslow entry '" + entry +
                                  "' must be <cycle>:<node>:<port>:<factor>");
    const int factor = std::stoi(factor_s);
    if (factor < 2)
      throw std::invalid_argument(
          "failslow entry '" + entry +
          "': factor must be >= 2 (a fail-slow link still moves flits)");
    schedule.degrade_link_at(std::stoll(cycle_s), std::stoi(node_s),
                             std::stoi(port_s), factor);
  }
}

/// `fault_regime = ...`: the chaos campaign regime of that name.
FaultRegime parse_fault_regime(const std::string& name) {
  for (const FaultRegime r : kFaultRegimes)
    if (name == fault_regime_name(r)) return r;
  throw std::invalid_argument(
      "fault_regime must be fail_stop, repair, flap, failslow or storm "
      "(got '" +
      name + "')");
}

rules::ExecMode parse_exec_mode(const std::string& mode) {
  if (mode == "interp") return rules::ExecMode::Interpret;
  if (mode == "vm") return rules::ExecMode::Vm;
  if (mode == "aot") return rules::ExecMode::Aot;
  throw std::invalid_argument("exec_mode must be interp, vm or aot (got '" +
                              mode + "')");
}

Simulator::RuleSwapPolicy parse_swap_policy(const std::string& policy) {
  if (policy == "auto") return Simulator::RuleSwapPolicy::Auto;
  if (policy == "immediate") return Simulator::RuleSwapPolicy::Immediate;
  if (policy == "quiescent") return Simulator::RuleSwapPolicy::Quiescent;
  if (policy == "rolling") return Simulator::RuleSwapPolicy::Rolling;
  throw std::invalid_argument(
      "swap_policy must be auto, immediate, quiescent or rolling (got '" +
      policy + "')");
}

/// `swap_rules_at = <cycle>,<file>`: the cycle and the program text.
void parse_swap(Scenario& sc, const std::string& spec) {
  const std::size_t comma = spec.find(',');
  if (comma == std::string::npos)
    throw std::invalid_argument("swap_rules_at must be <cycle>,<file> (got '" +
                                spec + "')");
  sc.swap_at = std::stoll(spec.substr(0, comma));
  const std::string path = spec.substr(comma + 1);
  std::ifstream in(path);
  if (!in)
    throw std::invalid_argument("swap_rules_at: cannot read rule file '" +
                                path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  sc.swap_source = buf.str();
}

/// Everything a replica builds from names or places on the topology,
/// built once here so a bad name or position is a config error.
void check_runnable(const Scenario& sc) {
  const std::unique_ptr<Topology> topo = sc.make_topology();
  build_algorithm(sc.algorithm, *topo, sc.exec_mode);
  make_traffic(sc.traffic, *topo, sc.seed);
  if (sc.fault_regime)
    chaos_schedule(*sc.fault_regime, *topo, sc.sim.warmup_cycles,
                   sc.sim.measure_cycles, sc.seed);
  for (const FaultEvent& e : sc.faults.events()) {
    const bool node_event = e.kind == FaultEvent::Kind::NodeFault ||
                            e.kind == FaultEvent::Kind::NodeRepair;
    if (!topo->valid_node(e.node) || (!node_event && !topo->valid_port(e.port)))
      throw std::invalid_argument(
          "the fault at cycle " + std::to_string(e.at) + " names node " +
          std::to_string(e.node) +
          (node_event ? "" : " port " + std::to_string(e.port)) +
          ", outside " + topo->name());
  }
}

}  // namespace

Scenario parse_scenario(const Config& cfg) {
  for (const std::string& key : cfg.keys())
    if (!known_key(key))
      throw std::invalid_argument(
          "unknown key '" + key +
          "' (the accepted keys are listed at the top of "
          "src/sim/scenario.hpp)");

  Scenario sc;
  sc.topology = parse_topology_kind(cfg.get_string("topology", "mesh"));
  sc.size = sc.topology == TopologyKind::Hypercube
                ? std::vector<int>{static_cast<int>(
                      cfg.get_int("dimension", 4))}
                : std::vector<int>{static_cast<int>(cfg.get_int("width", 8)),
                                   static_cast<int>(cfg.get_int("height", 8))};
  sc.algorithm = cfg.get_string("algorithm", "nafta");

  // Rule-engine keys: both are contracts on the algorithm choice — a
  // decision backend or a live program swap only mean something when the
  // router is executing rules.
  const std::string exec_mode = cfg.get_string("exec_mode", "");
  const std::string swap_spec = cfg.get_string("swap_rules_at", "");
  if ((!exec_mode.empty() || !swap_spec.empty()) &&
      !rule_driven_name(sc.algorithm))
    throw std::invalid_argument(
        std::string(!exec_mode.empty() ? "exec_mode" : "swap_rules_at") +
        " needs a rule-driven algorithm (nara-rules, ft-mesh-rules or "
        "ecube-rules); algorithm = '" +
        sc.algorithm + "' executes no rules");
  if (!exec_mode.empty()) sc.exec_mode = parse_exec_mode(exec_mode);
  const std::string policy = cfg.get_string("swap_policy", "");
  if (!policy.empty()) {
    if (swap_spec.empty())
      throw std::invalid_argument(
          "swap_policy needs a scheduled swap (swap_rules_at)");
    sc.swap_policy = parse_swap_policy(policy);
  }
  if (!swap_spec.empty()) parse_swap(sc, swap_spec);

  sc.traffic = cfg.get_string("traffic", "uniform");
  sc.link_faults = static_cast<int>(cfg.get_int("link_faults", 0));
  sc.node_faults = static_cast<int>(cfg.get_int("node_faults", 0));
  sc.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  sc.rates = cfg.get_double_list("rates", {});
  if (sc.rates.empty()) sc.rates.push_back(cfg.get_double("rate", 0.10));
  sc.threads = static_cast<int>(cfg.get_int("threads", 0));

  sc.sim.packet_length = static_cast<int>(cfg.get_int("packet_length", 4));
  sc.sim.warmup_cycles = cfg.get_int("warmup", 1000);
  sc.sim.measure_cycles = cfg.get_int("measure", 2000);
  sc.sim.detection_delay = cfg.get_int("detection_delay", 0);
  sc.sim.max_retries = static_cast<int>(cfg.get_int("max_retries", 3));
  sc.sim.rolling_shards = static_cast<int>(cfg.get_int("rolling_shards", 8));

  sc.network.shards = static_cast<int>(cfg.get_int("shards", 1));
  sc.network.shard_threads = static_cast<int>(cfg.get_int("shard_threads", 0));
  if (sc.network.shards < 1) throw std::invalid_argument("shards must be >= 1");
  if (sc.network.shard_threads < 0)
    throw std::invalid_argument("shard_threads must be >= 0 (0 = auto)");

  const std::string fault_at = cfg.get_string("fault_at", "");
  parse_fault_at(sc.faults, fault_at);
  const std::string regime = cfg.get_string("fault_regime", "");
  if (!regime.empty()) {
    if (!sc.faults.empty())
      throw std::invalid_argument(
          "fault_regime generates its own schedule and conflicts with "
          "fault_at — pick one");
    sc.fault_regime = parse_fault_regime(regime);
  }
  const Cycle repair_after = cfg.get_int("repair_after", 0);
  if (repair_after < 0)
    throw std::invalid_argument("repair_after must be >= 0");
  if (repair_after > 0) {
    if (fault_at.empty())
      throw std::invalid_argument(
          "repair_after needs fault_at kill events to repair");
    append_repairs(sc.faults, repair_after);
  }
  const std::string flap = cfg.get_string("flap", "");
  if (!flap.empty())
    parse_flap(sc.faults, flap, sc.sim.warmup_cycles + sc.sim.measure_cycles,
               sc.seed);
  parse_failslow(sc.faults, cfg.get_string("failslow", ""));
  sc.show_links = cfg.get_bool("show_links", false);

  check_runnable(sc);
  return sc;
}

ReplicaRun run_replica(const Scenario& sc, const Topology& topo,
                       std::size_t point, std::uint64_t derived_seed) {
  ReplicaRun run;
  const auto algo = build_algorithm(sc.algorithm, topo, sc.exec_mode);
  const auto traffic = make_traffic(sc.traffic, topo, sc.seed);
  Network net(topo, *algo, sc.network);
  if (sc.link_faults > 0 || sc.node_faults > 0) {
    Rng frng(sc.seed ^ 0xfa017ULL);
    run.exchanges = net.apply_faults([&](FaultSet& f) {
      inject_random_node_faults(f, sc.node_faults, frng);
      inject_random_link_faults(f, sc.link_faults, frng);
    });
  }
  if (const auto* rd = dynamic_cast<const RuleDrivenRouting*>(algo.get()))
    run.tier = rd->aot_tier_info();

  SimConfig cfg = sc.sim;
  cfg.injection_rate = sc.rates[point];
  cfg.seed = sc.rates.size() == 1 ? sc.seed : derived_seed;
  Simulator sim(net, *traffic, cfg);
  FaultSchedule schedule;
  if (sc.fault_regime)
    schedule = chaos_schedule(*sc.fault_regime, topo, cfg.warmup_cycles,
                              cfg.measure_cycles, sc.seed);
  schedule.append(sc.faults);
  if (!schedule.empty()) sim.set_fault_schedule(schedule);
  if (!sc.swap_source.empty())
    sim.schedule_rule_swap(sc.swap_at, sc.swap_source, sc.swap_policy);
  run.result = sim.run();
  if (sc.show_links) run.link_loads = net.link_utilization(sim.now());
  return run;
}

}  // namespace flexrouter
