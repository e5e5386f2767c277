// Differential tests for the bytecode VM: every behaviour the reference
// interpreter exhibits — fired rule, RETURN value, emitted events, register
// effects, contract violations — must be reproduced bit-identically by the
// compiled bytecode, over the shipped corpora and over runnable routing
// programs driving RuleDrivenRouting (ExecMode::Vm, the bare-VM oracle the
// AOT table tiers in test_aot.cpp are checked against).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "named_inputs.hpp"
#include "routing/rule_driven.hpp"
#include "topology/hypercube.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/bytecode.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"

namespace flexrouter {
namespace {

using rules::EventManager;
using rules::ExecMode;
using rules::FireResult;
using rules::Program;
using rules::Value;

// --------------------------------------- corpus-wide differential execution
// Fire every rule base of the shipped corpora in Interpret and Vm modes
// under memoized random inputs and require identical fired rules, RETURNs,
// event cascades, register state and contract violations.
class VmCorpusDiff : public ::testing::TestWithParam<const char*> {};

// GCC 12 at -O3 reports a -Wrestrict false positive inside libstdc++
// char_traits when `"/" + std::string(...)` is fully inlined below;
// suppress locally so -Werror stays usable.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
TEST_P(VmCorpusDiff, VmMatchesInterpreterOnRandomInputs) {
  std::string source;
  const std::string which = GetParam();
  if (which == "nafta")
    source = flexrouter::rulebases::nafta_program_source(8, 8);
  else if (which == "route_c")
    source = flexrouter::rulebases::route_c_program_source(4, 2);
  else if (which == "nara")
    source = flexrouter::rulebases::nara_program_source(8, 8);
  else
    source = flexrouter::rulebases::route_c_nft_program_source(4, 2);
  const Program prog = rules::parse_program(source);

  EventManager direct(prog, ExecMode::Interpret);
  EventManager vm(prog, ExecMode::Vm);
  ASSERT_NE(vm.bytecode(), nullptr);

  Rng rng(0xbeef00 + which.size());
  std::map<std::string, Value> memo;
  auto key = [&](const std::string& name, const std::vector<Value>& idx) {
    std::string k = name;
    for (const Value& v : idx) k += "/" + v.to_string(prog.syms);
    return k;
  };
  testutil::NamedInputs inputs(prog, [&](const std::string& name,
                                         const std::vector<Value>& idx) {
    const std::string k = key(name, idx);
    const auto it = memo.find(k);
    if (it != memo.end()) return it->second;
    const rules::InputDecl* decl = prog.find_input(name);
    FR_REQUIRE(decl != nullptr);
    const Value v =
        decl->domain.value_at(rng.next_below(decl->domain.cardinality()));
    memo.emplace(k, v);
    return v;
  });
  inputs.install(direct);
  inputs.install(vm);

  for (int iter = 0; iter < 600; ++iter) {
    memo.clear();
    const rules::RuleBase& rb =
        prog.rule_bases[rng.next_below(prog.rule_bases.size())];
    std::vector<Value> args;
    for (const rules::Param& p : rb.params)
      args.push_back(p.domain.value_at(rng.next_below(p.domain.cardinality())));

    std::optional<FireResult> a, b;
    bool a_threw = false, b_threw = false;
    try {
      a = direct.fire(rb.name, args);
    } catch (const ContractViolation&) {
      a_threw = true;
    }
    try {
      b = vm.fire(rb.name, args);
    } catch (const ContractViolation&) {
      b_threw = true;
    }
    ASSERT_EQ(a_threw, b_threw) << rb.name << " iteration " << iter;
    if (a_threw) {
      direct.reset_state();
      vm.reset_state();
      continue;
    }
    ASSERT_EQ(a->rule_index, b->rule_index) << rb.name << " iter " << iter;
    ASSERT_EQ(a->returned.has_value(), b->returned.has_value());
    if (a->returned) {
      ASSERT_TRUE(*a->returned == *b->returned);
    }
    ASSERT_EQ(a->events.size(), b->events.size());
    for (std::size_t e = 0; e < a->events.size(); ++e) {
      ASSERT_EQ(a->events[e].name, b->events[e].name);
      ASSERT_EQ(a->events[e].args.size(), b->events[e].args.size());
      for (std::size_t k2 = 0; k2 < a->events[e].args.size(); ++k2)
        ASSERT_TRUE(a->events[e].args[k2] == b->events[e].args[k2]);
    }
    try {
      direct.drain();
      vm.drain();
    } catch (const ContractViolation&) {
      direct.reset_state();
      vm.reset_state();
      continue;
    }
    ASSERT_TRUE(direct.env() == vm.env()) << rb.name << " iter " << iter;
    ASSERT_EQ(direct.total_interpretations(), vm.total_interpretations())
        << rb.name << " iter " << iter;
  }
}
#pragma GCC diagnostic pop

INSTANTIATE_TEST_SUITE_P(Programs, VmCorpusDiff,
                         ::testing::Values("nafta", "route_c", "nara",
                                           "route_c_nft"),
                         [](const auto& info) { return info.param; });

// --------------------------------------------- routing decision differential
using CandTuple = std::tuple<PortId, VcId, int>;

std::vector<CandTuple> cands(const RouteDecision& d) {
  std::vector<CandTuple> out;
  for (const RouteCandidate& c : d.candidates)
    out.emplace_back(c.port, c.vc, c.priority);
  return out;
}

TEST(VmRouting, NaraVmMatchesInterpretEverywhere) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting interp(rulebases::nara_route_source(6, 6), 2,
                           ExecMode::Interpret);
  RuleDrivenRouting vm(rulebases::nara_route_source(6, 6), 2, ExecMode::Vm);
  interp.attach(m, f);
  vm.attach(m, f);
  Rng rng(17);
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      RouteContext ctx;
      ctx.node = s;
      ctx.dest = t;
      ctx.src = s;
      ctx.in_port = static_cast<PortId>(rng.next_below(
          static_cast<std::size_t>(m.degree()) + 1));
      ctx.in_vc = static_cast<VcId>(rng.next_below(2));
      const RouteDecision a = interp.route(ctx);
      const RouteDecision b = vm.route(ctx);
      ASSERT_EQ(cands(a), cands(b)) << s << " -> " << t;
      ASSERT_EQ(a.steps, b.steps) << s << " -> " << t;
    }
}

TEST(VmRouting, EcubeVmMatchesInterpretEverywhere) {
  Hypercube h(4);
  FaultSet f(h);
  RuleDrivenRouting interp(rulebases::ecube_route_source(4), 1,
                           ExecMode::Interpret);
  RuleDrivenRouting vm(rulebases::ecube_route_source(4), 1, ExecMode::Vm);
  interp.attach(h, f);
  vm.attach(h, f);
  for (NodeId s = 0; s < h.num_nodes(); ++s)
    for (NodeId t = 0; t < h.num_nodes(); ++t) {
      RouteContext ctx;
      ctx.node = s;
      ctx.dest = t;
      ctx.src = s;
      ctx.in_port = h.degree();
      ctx.in_vc = 0;
      ASSERT_EQ(cands(interp.route(ctx)), cands(vm.route(ctx)))
          << s << " -> " << t;
    }
}

TEST(VmRouting, FtMeshVmMatchesInterpretUnderFaults) {
  Rng rng(91);
  for (int trial = 0; trial < 3; ++trial) {
    Mesh m = Mesh::two_d(5, 5);
    FaultSet f(m);
    RuleDrivenRouting interp(rulebases::ft_mesh_route_source(5, 5), 3,
                             ExecMode::Interpret, "route", /*escape_vc=*/2);
    RuleDrivenRouting vm(rulebases::ft_mesh_route_source(5, 5), 3,
                         ExecMode::Vm, "route", /*escape_vc=*/2);
    interp.attach(m, f);
    vm.attach(m, f);
    inject_random_link_faults(f, 2 * trial, rng);
    interp.reconfigure();
    vm.reconfigure();
    for (NodeId s = 0; s < m.num_nodes(); ++s)
      for (NodeId t = 0; t < m.num_nodes(); ++t) {
        if (s == t || !f.node_ok(s) || !f.node_ok(t)) continue;
        RouteContext ctx;
        ctx.node = s;
        ctx.dest = t;
        ctx.src = s;
        // Arrival on the escape VC implies a packet the up*/down* protocol
        // actually steered here; fabricated escape arrivals can be
        // unrealizable, so fuzz only adaptive-layer VCs.
        ctx.in_port = static_cast<PortId>(rng.next_below(
            static_cast<std::size_t>(m.degree()) + 1));
        ctx.in_vc = static_cast<VcId>(rng.next_below(2));
        const RouteDecision a = interp.route(ctx);
        const RouteDecision b = vm.route(ctx);
        ASSERT_EQ(cands(a), cands(b))
            << "trial " << trial << ": " << s << " -> " << t;
        ASSERT_EQ(a.steps, b.steps)
            << "trial " << trial << ": " << s << " -> " << t;
      }
  }
}

TEST(VmRouting, VmDrivesAFullNetwork) {
  // End-to-end: the bare VM routes real traffic.
  Mesh m = Mesh::two_d(5, 5);
  RuleDrivenRouting algo(rulebases::nara_route_source(5, 5), 2, ExecMode::Vm);
  Network net(m, algo);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 400;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_GT(r.injected_packets, 30);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_DOUBLE_EQ(r.min_hops_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.avg_decision_steps, 1.0);
}

// ----------------------------------------------- static reachability analysis
TEST(RouteAnalysis, SeesThroughEventsAndSubbases) {
  static const char* kSource =
      "PROGRAM reach;\n"
      "VARIABLE seen IN 0 TO 1\n"
      "INPUT node IN 0 TO 63\n"
      "INPUT path_len IN 0 TO 255\n"
      "ON helper RETURNS 0 TO 255\n"
      "  IF 1 = 1 THEN RETURN(path_len);\n"
      "END helper\n"
      "ON note\n"
      "  IF 1 = 1 THEN seen <- 1;\n"
      "END note\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF helper >= 0 THEN !note(), RETURN(4);\n"
      "END route\n";
  const Program prog = rules::parse_program(kSource);
  const rules::RouteAnalysis a = rules::analyze_reachable(prog, "route");
  EXPECT_TRUE(a.writes_state);          // via the !note event
  EXPECT_TRUE(a.reads_input("path_len"));  // via the helper subbase
  EXPECT_FALSE(a.reads_input("node"));

  const rules::RouteAnalysis h = rules::analyze_reachable(prog, "helper");
  EXPECT_FALSE(h.writes_state);
  EXPECT_TRUE(h.reads_input("path_len"));
}

// -------------------------------------------------- interned event plumbing
TEST(VmEvents, EmittedEventsCarryResolvedIds) {
  static const char* kSource =
      "PROGRAM ids;\n"
      "ON ping\n"
      "  IF 1 = 1 THEN !pong(3), !host_only(1);\n"
      "END ping\n"
      "ON pong(x IN 0 TO 7)\n"
      "  IF x >= 0 THEN !host_only(x);\n"
      "END pong\n";
  const Program prog = rules::parse_program(kSource);
  EventManager vm(prog, ExecMode::Vm);
  const FireResult r = vm.fire("ping", {});
  ASSERT_EQ(r.events.size(), 2u);
  // pong is handled by a rule base; host_only is host-bound.
  EXPECT_GE(r.events[0].target_rb, 0);
  EXPECT_EQ(r.events[1].target_rb, -1);
  int host_calls = 0;
  vm.set_host_handler([&](const rules::EmittedEvent& ev) {
    EXPECT_EQ(ev.name, "host_only");
    ++host_calls;
  });
  vm.drain();
  EXPECT_EQ(host_calls, 2);  // one direct, one from the pong cascade
}

}  // namespace
}  // namespace flexrouter
