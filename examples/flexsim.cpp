// flexsim — config-driven simulation driver (BookSim-style front end).
//
// Usage:
//   ./flexsim                       # built-in default experiment
//   ./flexsim my.cfg                # read a config file
//   ./flexsim my.cfg "rate = 0.2"   # extra overrides, last wins
//
// A malformed value, an out-of-range setting or a key not listed below is
// a config error: one `config error: ...` line on stderr, exit status 2,
// before anything runs.
//
// Config keys (all optional):
//   topology   = mesh | torus | hypercube      (default mesh)
//   width      = 8      height = 8             (mesh/torus)
//   dimension  = 4                             (hypercube)
//   algorithm  = nafta | nara | dor-mesh | dor-torus | ecube | route_c |
//                route_c_nft | updown | spanning-tree | negative-hop |
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
//                                               aot, the pre-resolved table
//                                               ladder — the summary line
//                                               reports the tier actually
//                                               chosen, direct or
//                                               compressed (xor-fold, or
//                                               offset-sign filled on first
//                                               touch), or why the VM kept
//                                               serving; vm = the bare
//                                               bytecode VM, no table;
//                                               interp = the AST
//                                               interpreter)
//   swap_rules_at = 2000,new_rules.txt         (live hot-swap: at the cycle,
//                                               load the rule program from
//                                               the file and commit it under
//                                               traffic — quiescent drain
//                                               for stateful programs,
//                                               between-cycles otherwise)
//   swap_policy = auto | immediate | quiescent | rolling
//                                              (commit policy for the swap;
//                                               rolling drains and flips one
//                                               spatial shard at a time)
//   rolling_shards = 8                         (shards a rolling swap drains
//                                               sequentially)
//
// A multi-point sweep (rates with more than one entry) runs on the
// deterministic SweepRunner: one independent replica per offered load,
// per-point seeds derived from (seed, point index), results identical at
// any thread count. A single rate keeps the historical behaviour (the
// configured seed drives the one replica directly).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "routing/dor_torus.hpp"
#include "routing/negative_hop.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

using namespace flexrouter;

namespace {

/// The keys documented at the top of this file; anything else is a typo
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

/// Parse `fault_at = <cycle>:link:<node>:<port>,<cycle>:node:<id>,...`
/// into a FaultSchedule. Throws std::invalid_argument on malformed entries
/// (caught by the config error handler in main).
FaultSchedule parse_fault_schedule(const std::string& spec) {
  FaultSchedule schedule;
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
  return schedule;
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

bool rule_driven_name(const std::string& aname) {
  return aname == "nara-rules" || aname == "ft-mesh-rules" ||
         aname == "ecube-rules";
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

/// One-line AOT tier report for the summary: which tier serves decisions
/// and — when the VM kept serving — why the tables stayed off.
std::string tier_summary(const RuleDrivenRouting& rd) {
  const RuleDrivenRouting::AotTierInfo ti = rd.aot_tier_info();
  std::ostringstream os;
  os << " [tier " << RuleDrivenRouting::tier_name(ti.tier);
  if (ti.classifier != rules::DestClassifier::None)
    os << ", " << rules::to_string(ti.classifier);
  if (ti.compression_ratio > 1.0)
    os << ", " << ti.compression_ratio << "x compression";
  if (ti.tier == RuleDrivenRouting::AotTier::Vm && !ti.reason.empty())
    os << ": " << ti.reason;
  os << "]";
  return os.str();
}

/// The *-rules algorithms are generated for the topology's construction
/// parameters (the corpus generators are parameterised the same way).
std::unique_ptr<RoutingAlgorithm> build_rule_algorithm(
    const std::string& aname, const Topology& topo, rules::ExecMode mode) {
  if (aname == "ecube-rules") {
    const auto* cube = dynamic_cast<const Hypercube*>(&topo);
    if (cube == nullptr)
      throw std::invalid_argument("ecube-rules needs topology = hypercube");
    return std::make_unique<RuleDrivenRouting>(
        rulebases::ecube_route_source(cube->dimension()), 1, mode);
  }
  const auto* mesh = dynamic_cast<const Mesh*>(&topo);
  if (mesh == nullptr)
    throw std::invalid_argument(aname + " needs topology = mesh");
  const int w = mesh->radix(0);
  const int h = mesh->radix(1);
  if (aname == "nara-rules")
    return std::make_unique<RuleDrivenRouting>(
        rulebases::nara_route_source(w, h), 2, mode);
  return std::make_unique<RuleDrivenRouting>(
      rulebases::ft_mesh_route_source(w, h), 3, mode, "route",
      /*escape_vc=*/2);
}

std::unique_ptr<RoutingAlgorithm> build_algorithm(const std::string& aname,
                                                  rules::ExecMode mode,
                                                  const Topology& topo) {
  if (rule_driven_name(aname)) return build_rule_algorithm(aname, topo, mode);
  if (aname == "negative-hop")
    return std::make_unique<NegativeHop>(NegativeHop::vcs_needed_for(topo));
  if (aname == "dor-torus") return std::make_unique<DimensionOrderTorus>();
  return make_algorithm(aname);
}

}  // namespace

// Everything outside the sweep's own try block reads configuration, so any
// throw that reaches the handler at the bottom is a config error.
int main(int argc, char** argv) try {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    cfg = cfg.overridden_by(arg.find('=') != std::string::npos
                                ? Config::parse(arg)
                                : Config::from_file(arg));
  }
  for (const std::string& key : cfg.keys())
    if (!known_key(key))
      throw std::invalid_argument(
          "unknown key '" + key +
          "' (the accepted keys are listed at the top of "
          "examples/flexsim.cpp)");

  // Topology (shared by every replica — it is immutable).
  std::unique_ptr<Topology> topo;
  const std::string tname = cfg.get_string("topology", "mesh");
  if (tname == "mesh") {
    topo = std::make_unique<Mesh>(std::vector<int>{
        static_cast<int>(cfg.get_int("width", 8)),
        static_cast<int>(cfg.get_int("height", 8))});
  } else if (tname == "torus") {
    topo = std::make_unique<Torus>(std::vector<int>{
        static_cast<int>(cfg.get_int("width", 8)),
        static_cast<int>(cfg.get_int("height", 8))});
  } else if (tname == "hypercube") {
    topo = std::make_unique<Hypercube>(
        static_cast<int>(cfg.get_int("dimension", 4)));
  } else {
    throw std::invalid_argument("unknown topology '" + tname + "'");
  }

  const std::string aname = cfg.get_string("algorithm", "nafta");

  // Rule-engine keys: both are contracts on the algorithm choice — a
  // decision backend or a live program swap only mean something when the
  // router is executing rules.
  const std::string exec_mode_s = cfg.get_string("exec_mode", "");
  const std::string swap_spec = cfg.get_string("swap_rules_at", "");
  if ((!exec_mode_s.empty() || !swap_spec.empty()) &&
      !rule_driven_name(aname))
    throw std::invalid_argument(
        std::string(!exec_mode_s.empty() ? "exec_mode" : "swap_rules_at") +
        " needs a rule-driven algorithm (nara-rules, ft-mesh-rules or "
        "ecube-rules); algorithm = '" +
        aname + "' executes no rules");
  rules::ExecMode exec_mode = rules::ExecMode::Aot;
  Cycle swap_at = 0;
  std::string swap_source;
  auto swap_policy = Simulator::RuleSwapPolicy::Auto;
  if (!exec_mode_s.empty()) exec_mode = parse_exec_mode(exec_mode_s);
  const std::string policy_s = cfg.get_string("swap_policy", "");
  if (!policy_s.empty()) {
    if (swap_spec.empty())
      throw std::invalid_argument(
          "swap_policy needs a scheduled swap (swap_rules_at)");
    swap_policy = parse_swap_policy(policy_s);
  }
  if (!swap_spec.empty()) {
    const std::size_t comma = swap_spec.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument(
          "swap_rules_at must be <cycle>,<file> (got '" + swap_spec + "')");
    swap_at = std::stoll(swap_spec.substr(0, comma));
    const std::string path = swap_spec.substr(comma + 1);
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("swap_rules_at: cannot read rule file '" +
                                  path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    swap_source = buf.str();
  }

  const std::string pattern = cfg.get_string("traffic", "uniform");
  const auto link_faults = static_cast<int>(cfg.get_int("link_faults", 0));
  const auto node_faults = static_cast<int>(cfg.get_int("node_faults", 0));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  std::vector<double> rates = cfg.get_double_list("rates", {});
  if (rates.empty()) rates.push_back(cfg.get_double("rate", 0.10));
  const bool single = rates.size() == 1;

  SimConfig base;
  base.packet_length = static_cast<int>(cfg.get_int("packet_length", 4));
  base.warmup_cycles = cfg.get_int("warmup", 1000);
  base.measure_cycles = cfg.get_int("measure", 2000);
  base.detection_delay = cfg.get_int("detection_delay", 0);
  base.max_retries = static_cast<int>(cfg.get_int("max_retries", 3));
  base.rolling_shards = static_cast<int>(cfg.get_int("rolling_shards", 8));

  NetworkConfig ncfg;
  ncfg.shards = static_cast<int>(cfg.get_int("shards", 1));
  ncfg.shard_threads = static_cast<int>(cfg.get_int("shard_threads", 0));
  if (ncfg.shards < 1) throw std::invalid_argument("shards must be >= 1");
  if (ncfg.shard_threads < 0)
    throw std::invalid_argument("shard_threads must be >= 0 (0 = auto)");

  FaultSchedule schedule =
      parse_fault_schedule(cfg.get_string("fault_at", ""));
  const std::string regime = cfg.get_string("fault_regime", "");
  if (!regime.empty()) {
    if (!schedule.empty())
      throw std::invalid_argument(
          "fault_regime generates its own schedule and conflicts with "
          "fault_at — pick one");
    // The campaign's own pattern builder; a window too short for its
    // draws fails its contracts, which the handler below reports as a
    // config error.
    schedule = chaos_schedule(parse_fault_regime(regime), *topo,
                              base.warmup_cycles, base.measure_cycles, seed);
  }
  const Cycle repair_after = cfg.get_int("repair_after", 0);
  if (repair_after < 0)
    throw std::invalid_argument("repair_after must be >= 0");
  if (repair_after > 0) {
    if (cfg.get_string("fault_at", "").empty())
      throw std::invalid_argument(
          "repair_after needs fault_at kill events to repair");
    append_repairs(schedule, repair_after);
  }
  const std::string flap_spec = cfg.get_string("flap", "");
  if (!flap_spec.empty())
    parse_flap(schedule, flap_spec, base.warmup_cycles + base.measure_cycles,
               seed);
  parse_failslow(schedule, cfg.get_string("failslow", ""));
  const bool show_links = cfg.get_bool("show_links", false);

  // One grid point per offered load. Each replica applies the SAME fault
  // pattern (the fault RNG restarts per point) so the series varies only
  // in load.
  int exchanges = 0;
  std::string link_report;
  std::string tier_report;  // AOT tier of the first point's algorithm
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const bool first_point = i == 0;
    points.push_back({[&, rate, first_point](std::uint64_t derived_seed) {
      auto algo = build_algorithm(aname, exec_mode, *topo);
      auto traffic = make_traffic(pattern, *topo, seed);
      Network net(*topo, *algo, ncfg);
      if (link_faults > 0 || node_faults > 0) {
        Rng frng(seed ^ 0xfa017ULL);
        const int ex = net.apply_faults([&](FaultSet& f) {
          inject_random_node_faults(f, node_faults, frng);
          inject_random_link_faults(f, link_faults, frng);
        });
        if (first_point) exchanges = ex;  // identical on every point
      }
      if (first_point)
        if (const auto* rd = dynamic_cast<const RuleDrivenRouting*>(algo.get()))
          tier_report = tier_summary(*rd);
      SimConfig scfg = base;
      scfg.injection_rate = rate;
      scfg.seed = single ? seed : derived_seed;
      Simulator sim(net, *traffic, scfg);
      if (!schedule.empty()) sim.set_fault_schedule(schedule);
      if (!swap_source.empty())
        sim.schedule_rule_swap(swap_at, swap_source, swap_policy);
      SimResult r = sim.run();
      if (single && show_links) {
        std::ostringstream os;
        os << "hottest links (flits/cycle):\n";
        const auto loads = net.link_utilization(sim.now());
        for (std::size_t j = 0; j < std::min<std::size_t>(5, loads.size());
             ++j)
          os << "  node " << loads[j].from << " port " << loads[j].port
             << ": " << loads[j].utilization << "\n";
        link_report = os.str();
      }
      return r;
    }});
  }

  SweepOptions sopts;
  sopts.num_threads =
      single ? 1 : static_cast<int>(cfg.get_int("threads", 0));
  sopts.base_seed = seed;
  SweepRunner runner(sopts);

  std::vector<SimResult> results;
  try {
    results = runner.run(points);
  } catch (const std::exception& e) {
    std::cerr << "simulation error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "flexsim: " << topo->name() << ", " << aname << ", " << pattern
            << " traffic";
  if (link_faults > 0 || node_faults > 0)
    std::cout << ", " << link_faults << " link + " << node_faults
              << " node faults (reconfiguration: " << exchanges
              << " exchanges)";
  if (ncfg.shards > 1) std::cout << ", " << ncfg.shards << " shards";
  if (rule_driven_name(aname))
    std::cout << ", exec " << (exec_mode_s.empty() ? "aot" : exec_mode_s)
              << tier_report;
  if (!swap_source.empty()) {
    std::cout << ", rule swap at cycle " << swap_at << " ("
              << results[0].rule_swaps << " committed, "
              << results[0].swap_gated_cycles << " gated cycles";
    if (results[0].swap_gated_node_cycles > 0)
      std::cout << ", " << results[0].swap_gated_node_cycles
                << " gated node-cycles";
    std::cout << ")";
  }
  if (!single)
    std::cout << ", sweep of " << rates.size() << " loads on "
              << runner.num_threads() << " threads";
  std::cout << "\n";

  bool deadlock = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!single) std::cout << "rate " << rates[i] << ": ";
    std::cout << results[i].to_string() << "\n";
    deadlock = deadlock || results[i].deadlock_suspected;
  }
  if (!single) {
    const SweepReport rep = summarize(results);
    std::cout << rep.to_string() << "\n";
  }
  if (!link_report.empty()) std::cout << link_report;
  return deadlock ? 1 : 0;
} catch (const std::exception& e) {
  std::cerr << "config error: " << e.what() << "\n";
  return 2;
}
