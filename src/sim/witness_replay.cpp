#include "sim/witness_replay.hpp"

#include <memory>
#include <optional>
#include <sstream>

#include "common/assert.hpp"
#include "routing/rule_driven.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"

namespace flexrouter {

WitnessReplayResult replay_fault_pattern(
    const std::string& source, const ruleanalysis::FaultPattern& pattern,
    const WitnessReplayOptions& opts) {
  const rules::Program prog = rules::parse_program(source);
  const std::optional<ruleanalysis::DeadlockModel> model =
      ruleanalysis::model_for(prog);
  FR_REQUIRE_MSG(model.has_value(), "witness replay: no rule base routes");
  const std::unique_ptr<Topology> topo = ruleanalysis::topology_of(prog);
  FR_REQUIRE_MSG(topo != nullptr,
                 "witness replay: program constants describe no topology");

  RuleDrivenRouting algo(source, model->num_vcs, rules::ExecMode::Interpret,
                         model->route_base, model->escape_vc);
  Network net(*topo, algo);
  UniformTraffic traffic(*topo);
  SimConfig cfg;
  cfg.injection_rate = opts.injection_rate;
  cfg.packet_length = opts.packet_length;
  cfg.warmup_cycles = opts.warmup_cycles;
  cfg.measure_cycles = opts.measure_cycles;
  cfg.seed = opts.seed;
  FaultSchedule schedule;
  for (const LinkRef& l : pattern.links)
    schedule.fail_link_at(opts.fault_cycle, l.node, l.port);
  for (const NodeId n : pattern.nodes)
    schedule.fail_node_at(opts.fault_cycle, n);

  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);

  WitnessReplayResult res;
  res.sim = sim.run();
  res.failure = res.sim.deadlock_suspected ||
                res.sim.packets_unrecoverable > 0 ||
                res.sim.delivered_packets < res.sim.injected_packets;
  std::ostringstream os;
  os << "replay of " << pattern.to_string() << " on " << prog.name << ": "
     << (res.failure ? "FAILED" : "delivered") << " ("
     << res.sim.delivered_packets << "/" << res.sim.injected_packets
     << " delivered, " << res.sim.packets_unrecoverable << " unrecoverable"
     << (res.sim.deadlock_suspected ? ", deadlock suspected" : "") << ")";
  res.summary = os.str();
  return res;
}

}  // namespace flexrouter
