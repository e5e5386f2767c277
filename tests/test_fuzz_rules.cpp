// Property/fuzz tests for the rule engine: randomly generated rule
// programs are executed both by the reference interpreter and through the
// compiled ARON tables; any divergence in selected rule, state effects,
// emitted events or RETURN values is a compiler bug. Also fuzzes the lexer/
// parser for crash-freedom on corrupted sources, the compressed AOT
// tier against the VM on randomly generated classifier-eligible routing
// programs, and the interpreter, the VM and the ARON tables against each
// other through the one id-keyed input provider.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "common/rng.hpp"
#include "named_inputs.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/bytecode.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/lexer.hpp"
#include "ruleengine/parser.hpp"
#include "ruleengine/vm.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter::rules {
namespace {

/// Generates small random rule programs from a seed. The shapes cover the
/// compiler's whole feature-classification matrix: symbolic direct axes,
/// small-int direct axes, comparison atoms over wide ints, membership
/// tests, parameter axes, quantified atoms over indexed inputs, and
/// conclusions with parallel assignments, counters, FORALL expansion,
/// events and RETURNs.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzz;\n";
    os << "CONSTANT dirs = 4\n";
    os << "CONSTANT modes = {alpha, beta, gamma"
       << (rng_.next_bool(0.5) ? ", delta" : "") << "}\n";
    // State: one symbolic register, two integer registers (one small/direct,
    // one wide/atom), one array.
    os << "VARIABLE mode IN modes\n";
    os << "VARIABLE small IN 0 TO 3\n";
    os << "VARIABLE wide IN 0 TO 63\n";
    os << "VARIABLE slot[dirs] IN 0 TO 7\n";
    // Inputs: one symbolic, one small int, one wide int, one indexed.
    os << "INPUT sig IN modes\n";
    os << "INPUT tiny IN 0 TO 2\n";
    os << "INPUT big IN 0 TO 99\n";
    os << "INPUT chan(dirs) IN 0 TO 1\n";
    os << "ON step(d IN dirs) RETURNS 0 TO 7\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r) {
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    }
    os << "END step\n";
    return os.str();
  }

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      if (rng_.next_bool(0.3)) os << "NOT ";
      os << "(" << atom() << ")";
    }
    return os.str();
  }

  std::string atom() {
    switch (rng_.next_below(8)) {
      case 0: return std::string("mode = ") + sym();
      case 1: return std::string("sig = ") + sym();
      case 2: return "small " + cmp() + " " + std::to_string(rng_.next_below(4));
      case 3: return "wide " + cmp() + " " + std::to_string(rng_.next_below(64));
      case 4: return "big " + cmp() + " " + std::to_string(rng_.next_below(100));
      case 5: return "tiny = " + std::to_string(rng_.next_below(3));
      case 6: {
        std::ostringstream os;
        os << "sig IN {" << sym() << ", " << sym() << "}";
        return os.str();
      }
      default: {
        std::ostringstream os;
        os << (rng_.next_bool(0.5) ? "EXISTS" : "FORALL")
           << " i IN dirs: chan(i) = " << rng_.next_below(2);
        return os.str();
      }
    }
  }

  std::string conclusion() {
    const int cmds = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    // Track assigned targets to avoid parallel-write conflicts.
    bool used_mode = false, used_small = false, used_wide = false,
         used_ret = false, used_slot = false;
    for (int i = 0; i < cmds; ++i) {
      if (i) os << ", ";
      switch (rng_.next_below(7)) {
        case 0:
          if (used_mode) { os << "!noop(0)"; break; }
          used_mode = true;
          os << "mode <- " << sym();
          break;
        case 1:
          if (used_small) { os << "!noop(1)"; break; }
          used_small = true;
          os << "small <- min(small + 1, 3)";
          break;
        case 2:
          if (used_wide) { os << "!noop(2)"; break; }
          used_wide = true;
          os << (rng_.next_bool(0.5) ? "wide <- min(wide + 1, 63)"
                                     : "wide <- 0");
          break;
        case 3:
          if (used_slot) { os << "!noop(3)"; break; }
          used_slot = true;
          os << "slot(d) <- " << rng_.next_below(8);
          break;
        case 4:
          if (used_slot) { os << "!noop(4)"; break; }
          used_slot = true;
          os << "FORALL i IN dirs: slot(i) <- " << rng_.next_below(8);
          break;
        case 5:
          if (used_ret) { os << "!noop(5)"; break; }
          used_ret = true;
          os << "RETURN(" << rng_.next_below(8) << ")";
          break;
        default:
          os << "!emit(d, " << rng_.next_below(16) << ")";
          break;
      }
    }
    return os.str();
  }

  std::string sym() {
    static const char* names[] = {"alpha", "beta", "gamma"};
    return names[rng_.next_below(3)];
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

struct FuzzParam {
  std::uint64_t seed;
};

class RuleFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RuleFuzz, CompiledTableMatchesInterpreter) {
  ProgramGenerator gen(GetParam().seed);
  const std::string source = gen.generate();
  SCOPED_TRACE(source);

  Program prog;
  ASSERT_NO_THROW(prog = parse_program(source));

  EventManager direct(prog, ExecMode::Interpret);
  EventManager table(prog, ExecMode::Table);
  EventManager vm(prog, ExecMode::Vm);
  // Aot at the engine level must behave exactly as the VM (the decision
  // table lives a layer up, in RuleDrivenRouting).
  EventManager aot(prog, ExecMode::Aot);

  Rng rng(GetParam().seed ^ 0xf00dULL);
  std::int64_t sig_idx = 0, tiny = 0, big = 0;
  std::int64_t chan[4] = {0, 0, 0, 0};
  const SymId alpha = prog.syms.lookup("alpha");
  testutil::NamedInputs inputs(prog, [&](const std::string& name,
                                         const std::vector<Value>& idx) {
    if (name == "sig") return Value::make_sym(alpha + static_cast<SymId>(sig_idx));
    if (name == "tiny") return Value::make_int(tiny);
    if (name == "big") return Value::make_int(big);
    if (name == "chan") return Value::make_int(chan[idx[0].as_int()]);
    throw std::logic_error("input " + name);
  });
  for (EventManager* em : {&direct, &table, &vm, &aot}) inputs.install(*em);

  for (int iter = 0; iter < 400; ++iter) {
    sig_idx = static_cast<std::int64_t>(rng.next_below(3));
    tiny = static_cast<std::int64_t>(rng.next_below(3));
    big = static_cast<std::int64_t>(rng.next_below(100));
    for (auto& c : chan) c = static_cast<std::int64_t>(rng.next_below(2));
    const auto d = Value::make_int(static_cast<std::int64_t>(rng.next_below(4)));

    const FireResult a = direct.fire("step", {d});
    const FireResult b = table.fire("step", {d});
    const FireResult c = vm.fire("step", {d});
    const FireResult e = aot.fire("step", {d});
    for (const FireResult* other : {&b, &c, &e}) {
      ASSERT_EQ(a.rule_index, other->rule_index) << "iteration " << iter;
      ASSERT_EQ(a.returned.has_value(), other->returned.has_value());
      if (a.returned) {
        ASSERT_TRUE(*a.returned == *other->returned);
      }
      ASSERT_EQ(a.events.size(), other->events.size());
      for (std::size_t e = 0; e < a.events.size(); ++e) {
        ASSERT_EQ(a.events[e].name, other->events[e].name);
        ASSERT_EQ(a.events[e].args.size(), other->events[e].args.size());
        for (std::size_t k = 0; k < a.events[e].args.size(); ++k)
          ASSERT_TRUE(a.events[e].args[k] == other->events[e].args[k]);
      }
    }
    ASSERT_TRUE(direct.env() == table.env()) << "iteration " << iter;
    ASSERT_TRUE(direct.env() == vm.env()) << "iteration " << iter;
    ASSERT_TRUE(direct.env() == aot.env()) << "iteration " << iter;
  }
}

std::vector<FuzzParam> fuzz_seeds() {
  std::vector<FuzzParam> out;
  for (std::uint64_t s = 1; s <= 40; ++s) out.push_back({s * 7919});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzz, ::testing::ValuesIn(fuzz_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// ----------------------------------------- corpus-wide differential fuzzing
// Fire every rule base of the shipped NAFTA and ROUTE_C corpora in both
// execution modes under randomized inputs (memoized per firing so both
// engines observe identical signals) and require bit-identical behaviour.
class CorpusFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusFuzz, BothEnginesAgreeOnRandomInputs) {
  std::string source;
  if (std::string(GetParam()) == "nafta")
    source = flexrouter::rulebases::nafta_program_source(8, 8);
  else
    source = flexrouter::rulebases::route_c_program_source(4, 2);
  const Program prog = parse_program(source);

  EventManager direct(prog, ExecMode::Interpret);
  EventManager table(prog, ExecMode::Table);
  EventManager vm(prog, ExecMode::Vm);
  EventManager aot(prog, ExecMode::Aot);

  Rng rng(0xc0ffee);
  // Memoized random inputs: one value per (name, indices) per iteration.
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
    const InputDecl* decl = prog.find_input(name);
    FR_REQUIRE(decl != nullptr);
    const Value v =
        decl->domain.value_at(rng.next_below(decl->domain.cardinality()));
    memo.emplace(k, v);
    return v;
  });
  for (EventManager* em : {&direct, &table, &vm, &aot}) inputs.install(*em);

  for (int iter = 0; iter < 600; ++iter) {
    memo.clear();
    const RuleBase& rb = prog.rule_bases[rng.next_below(
        prog.rule_bases.size())];
    std::vector<Value> args;
    for (const Param& p : rb.params)
      args.push_back(p.domain.value_at(rng.next_below(p.domain.cardinality())));

    std::optional<FireResult> a, b, c, d;
    bool a_threw = false, b_threw = false, c_threw = false, d_threw = false;
    try {
      a = direct.fire(rb.name, args);
    } catch (const ContractViolation&) {
      a_threw = true;
    }
    try {
      b = table.fire(rb.name, args);
    } catch (const ContractViolation&) {
      b_threw = true;
    }
    try {
      c = vm.fire(rb.name, args);
    } catch (const ContractViolation&) {
      c_threw = true;
    }
    try {
      d = aot.fire(rb.name, args);
    } catch (const ContractViolation&) {
      d_threw = true;
    }
    ASSERT_EQ(a_threw, b_threw) << rb.name << " iteration " << iter;
    ASSERT_EQ(a_threw, c_threw) << rb.name << " iteration " << iter;
    ASSERT_EQ(a_threw, d_threw) << rb.name << " iteration " << iter;
    if (a_threw) {
      // A domain-range violation may have committed partial state in one
      // engine's env copy semantics; resynchronise all to keep comparing.
      direct.reset_state();
      table.reset_state();
      vm.reset_state();
      aot.reset_state();
      continue;
    }
    for (const auto* other : {&b, &c, &d}) {
      ASSERT_EQ(a->rule_index, (*other)->rule_index)
          << rb.name << " iter " << iter;
      ASSERT_EQ(a->returned.has_value(), (*other)->returned.has_value());
      if (a->returned) {
        ASSERT_TRUE(*a->returned == *(*other)->returned);
      }
      ASSERT_EQ(a->events.size(), (*other)->events.size());
    }
    // Process the generated event cascades in all engines (self-handled
    // events like update_state re-fire; unhandled ones drop) and require
    // the accumulated register state to stay identical.
    try {
      direct.drain();
      table.drain();
      vm.drain();
      aot.drain();
    } catch (const ContractViolation&) {
      direct.reset_state();
      table.reset_state();
      vm.reset_state();
      aot.reset_state();
      continue;
    }
    ASSERT_TRUE(direct.env() == table.env()) << rb.name << " iter " << iter;
    ASSERT_TRUE(direct.env() == vm.env()) << rb.name << " iter " << iter;
    ASSERT_TRUE(direct.env() == aot.env()) << rb.name << " iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusFuzz,
                         ::testing::Values("nafta", "route_c"));

// ------------------------------------------- compressed-tier routing fuzz
// Random e-cube-shaped decision programs: every node/dest read sits inside
// xor(node, dest) or a direct node-dest comparison, which is exactly the
// shape the XorFold classifier must accept. A budget below the full
// premise space then forces the compressed table; the fill's exhaustive
// validation plus an external premise-space walk require it bit-identical
// to the VM. The lane is gated on classifier applicability — a program the
// classifier (conservatively) rejects is skipped, not failed — but the
// generator's shapes should qualify essentially always.
class XorRouteGenerator {
 public:
  explicit XorRouteGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzzxor;\n"
       << "CONSTANT dim = " << kDim << "\n"
       << "CONSTANT maxnode = " << ((1 << kDim) - 1) << "\n"
       << "INPUT node IN 0 TO maxnode\n"
       << "INPUT dest IN 0 TO maxnode\n"
       << "INPUT in_port IN 0 TO dim\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "ON route\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    // Catch-all that reads no id input raw (a bare `node >= 0` would
    // rightly block the classifier).
    os << "  IF in_port >= 0 THEN !cand(dim, 0, 0);\n"
       << "END route;\n";
    return os.str();
  }

  static constexpr int kDim = 3;

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      switch (rng_.next_below(4)) {
        case 0:
          os << "bit(xor(node, dest), " << rng_.next_below(kDim)
             << ") = " << rng_.next_below(2);
          break;
        case 1:
          os << "in_vc = " << rng_.next_below(2);
          break;
        case 2:
          os << "in_port " << cmp() << " " << rng_.next_below(kDim + 1);
          break;
        default:
          os << "node " << (rng_.next_bool(0.5) ? "=" : "<>") << " dest";
          break;
      }
    }
    return os.str();
  }

  std::string conclusion() {
    const int cands = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < cands; ++i) {
      if (i) os << ", ";
      os << "!cand(" << rng_.next_below(kDim + 1) << ", "
         << rng_.next_below(2) << ", " << rng_.next_below(4) << ")";
    }
    return os.str();
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

/// Every premise point the table is built over (collapsed -1 axes
/// included): `aot` must match `vm` — same decision and step count, or the
/// same throw.
void expect_vm_lockstep(const flexrouter::Topology& topo,
                        const flexrouter::RuleDrivenRouting& vm,
                        const flexrouter::RuleDrivenRouting& aot, int vcs) {
  for (flexrouter::NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (flexrouter::NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      for (flexrouter::PortId p = -1; p <= topo.degree(); ++p) {
        for (flexrouter::VcId v = -1; v < vcs; ++v) {
          flexrouter::RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          bool vm_threw = false, aot_threw = false;
          flexrouter::RouteDecision want, got;
          try {
            want = vm.route(ctx);
          } catch (const ContractViolation&) {
            vm_threw = true;
          } catch (const EvalError&) {
            vm_threw = true;
          }
          try {
            got = aot.route(ctx);
          } catch (const ContractViolation&) {
            aot_threw = true;
          } catch (const EvalError&) {
            aot_threw = true;
          }
          ASSERT_EQ(vm_threw, aot_threw)
              << "node=" << n << " dest=" << dst << " p=" << p << " v=" << v;
          if (vm_threw) continue;
          ASSERT_EQ(want.steps, got.steps)
              << "node=" << n << " dest=" << dst << " p=" << p << " v=" << v;
          ASSERT_EQ(want.candidates.size(), got.candidates.size())
              << "node=" << n << " dest=" << dst << " p=" << p << " v=" << v;
          for (std::size_t i = 0; i < want.candidates.size(); ++i)
            ASSERT_TRUE(want.candidates[i] == got.candidates[i])
                << "cand " << i << " node=" << n << " dest=" << dst
                << " p=" << p << " v=" << v;
        }
      }
    }
  }
}

TEST(CompressedFuzz, XorFoldProgramsMatchVmOverFullPremiseSpace) {
  constexpr int kDim = XorRouteGenerator::kDim;
  flexrouter::Hypercube topo(kDim);
  // Full premise space: N * N * (degree + 2) * (vcs + 1).
  const std::uint64_t full = std::uint64_t{1} << (2 * kDim);
  const std::uint64_t full_entries =
      full * static_cast<std::uint64_t>(kDim + 2) * 3;
  int compressed = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    XorRouteGenerator gen(seed * 52361);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    flexrouter::FaultSet f(topo);
    flexrouter::RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    flexrouter::RuleDrivenRouting aot(source, 2, ExecMode::Aot);
    aot.set_aot_budget(full_entries / 2);
    vm.attach(topo, f);
    aot.attach(topo, f);
    const auto ti = aot.aot_tier_info();
    if (ti.classifier == DestClassifier::None) continue;  // gated lane
    // An eligible program must land on the compressed table, not demote:
    // at this size the fill validates every premise point exhaustively, so
    // a demotion here means the classifier accepted a shape it shouldn't.
    ASSERT_EQ(ti.tier, flexrouter::RuleDrivenRouting::AotTier::Compressed)
        << ti.reason;
    ++compressed;
    ASSERT_NO_FATAL_FAILURE(expect_vm_lockstep(topo, vm, aot, 2));
  }
  EXPECT_GT(compressed, 15);
}

// Random mesh decision programs of the offset-sign shape: xdes/ydes read
// only in comparisons against xpos/ypos, plus node-determined atoms, the
// arrival port and VC, and the dest-bound dest_reachable the read-set gate
// must keep out of the class entries. Some programs hand off to a sub rule
// base through an event whose parameter either has a fresh name or reuses
// the name of `xpos`/`ypos` — the parameter then shadows the input, so its
// `xpos < xdes` compares a constant against the raw xdes, which no sign
// class determines. The offset-sign table has no fill-time validation: its
// first touch of a class stores what the VM answered, so the classifier's
// proof and the read-set gate alone keep it sound.
class SignRouteGenerator {
 public:
  explicit SignRouteGenerator(std::uint64_t seed) : rng_(seed) {}

  /// `shadow`: name the sub rule base's parameter after an input.
  std::string generate(bool shadow) {
    std::ostringstream os;
    os << "PROGRAM fuzzsign;\n"
       << "INPUT xpos IN 0 TO " << kWidth - 1 << "\n"
       << "INPUT ypos IN 0 TO " << kHeight - 1 << "\n"
       << "INPUT xdes IN 0 TO " << kWidth - 1 << "\n"
       << "INPUT ydes IN 0 TO " << kHeight - 1 << "\n"
       << "INPUT in_port IN 0 TO 4\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "INPUT dest_reachable IN 0 TO 1\n"
       << "ON route\n";
    param_ = shadow ? (rng_.next_bool(0.5) ? "xpos" : "ypos") : "k";
    const bool hop = shadow || rng_.next_bool(0.5);
    const int rules = 2 + static_cast<int>(rng_.next_below(4));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise(false) << " THEN "
         << (hop && r == 0 ? "!hop(" + std::to_string(rng_.next_below(4)) +
                                 ")"
                           : conclusion())
         << ";\n";
    os << "  IF in_port >= 0 THEN !cand(4, 0, 0);\n"
       << "END route;\n";
    if (hop) {
      os << "ON hop(" << param_ << " IN 0 TO 3)\n";
      const int sub = 2 + static_cast<int>(rng_.next_below(3));
      for (int r = 0; r < sub; ++r)
        os << "  IF " << premise(true) << " THEN " << conclusion() << ";\n";
      os << "  IF in_port >= 0 THEN !cand(4, 1, 0);\n"
         << "END hop;\n";
    }
    return os.str();
  }

  static constexpr int kWidth = 5;
  static constexpr int kHeight = 4;

 private:
  std::string premise(bool in_hop) {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      switch (rng_.next_below(in_hop ? 6 : 5)) {
        case 0:
          os << sign_cmp("xpos", "xdes");
          break;
        case 1:
          os << sign_cmp("ypos", "ydes");
          break;
        case 2:
          os << "in_port " << cmp() << " " << rng_.next_below(5);
          break;
        case 3:
          os << (rng_.next_bool(0.5) ? "in_vc = " : "xpos > ")
             << rng_.next_below(2);
          break;
        case 4:
          os << "dest_reachable = " << rng_.next_below(2);
          break;
        default:
          os << param_ << " " << cmp() << " " << rng_.next_below(4);
          break;
      }
    }
    return os.str();
  }

  std::string sign_cmp(const char* pos, const char* des) {
    return rng_.next_bool(0.5) ? std::string(pos) + " " + cmp() + " " + des
                               : std::string(des) + " " + cmp() + " " + pos;
  }

  std::string conclusion() {
    const int cands = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < cands; ++i) {
      if (i) os << ", ";
      os << "!cand(" << rng_.next_below(5) << ", " << rng_.next_below(2)
         << ", " << rng_.next_below(4) << ")";
    }
    return os.str();
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
  std::string param_ = "k";
};

TEST(CompressedFuzz, OffsetSignProgramsMatchVmOverFullPremiseSpace) {
  constexpr int kW = SignRouteGenerator::kWidth;
  constexpr int kH = SignRouteGenerator::kHeight;
  const flexrouter::Mesh topo = flexrouter::Mesh::two_d(kW, kH);
  const auto n = static_cast<std::uint64_t>(kW * kH);
  const std::uint64_t full_entries = n * n * 6 * 3;  // ports x vcs axes
  int compressed = 0, shadowing = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SignRouteGenerator gen(seed * 7919);
    const bool shadow = seed % 3 == 0;
    const std::string source = gen.generate(shadow);
    SCOPED_TRACE(source);
    flexrouter::FaultSet f(topo);
    flexrouter::RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    flexrouter::RuleDrivenRouting aot(source, 2, ExecMode::Aot);
    aot.set_aot_budget(full_entries / 2);  // the sign-class table fits
    vm.attach(topo, f);
    aot.attach(topo, f);
    const auto ti = aot.aot_tier_info();
    if (shadow) {
      // A parameter named after an input must block the classifier.
      EXPECT_EQ(ti.classifier, DestClassifier::None) << ti.reason;
      EXPECT_NE(ti.reason.find("shadows the input"), std::string::npos)
          << ti.reason;
      ++shadowing;
    } else if (ti.classifier == DestClassifier::OffsetSign2D) {
      ASSERT_EQ(ti.tier, flexrouter::RuleDrivenRouting::AotTier::Compressed)
          << ti.reason;
      ++compressed;
    }
    ASSERT_NO_FATAL_FAILURE(expect_vm_lockstep(topo, vm, aot, 2));
    // A dead router makes dest_reachable differ between members of a
    // sign class: decisions that read it must not be stored for the class.
    f.fail_node(topo.at(2, 1));
    vm.reconfigure();
    aot.reconfigure();
    ASSERT_NO_FATAL_FAILURE(expect_vm_lockstep(topo, vm, aot, 2));
  }
  EXPECT_EQ(shadowing, 10);
  EXPECT_GT(compressed, 15);
}

// ---------------------------------------------------------- parser fuzzing
TEST(ParserFuzz, CorruptedSourcesNeverCrash) {
  ProgramGenerator gen(101);
  const std::string base = gen.generate();
  Rng rng(2027);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = base;
    // Apply 1-4 random mutations: delete, duplicate or perturb characters.
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated.erase(pos, 1); break;
        case 1: mutated.insert(pos, 1, mutated[pos]); break;
        default:
          mutated[pos] = static_cast<char>(' ' + rng.next_below(94));
          break;
      }
    }
    try {
      const Program p = parse_program(mutated);
      ++parsed;  // still valid — fine
    } catch (const ParseError&) {
      ++rejected;  // clean rejection — fine
    } catch (const ContractViolation&) {
      ++rejected;  // domain-level rejection — fine
    }
    // Anything else (segfault, std::bad_alloc, uncaught logic_error)
    // fails the test by crashing or escaping.
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed + rejected, 0);
}

TEST(ParserFuzz, RandomTokenSoup) {
  static const char* tokens[] = {
      "IF",  "THEN", "ON",    "END",  "CONSTANT", "VARIABLE", "INPUT",
      "IN",  "TO",   "AND",   "OR",   "NOT",      "EXISTS",   "FORALL",
      "<-",  "=",    "<>",    "<",    ">",        "(",        ")",
      "{",   "}",    ",",     ";",    ":",        "!",        "RETURN",
      "x",   "y",    "dirs",  "42",   "7",        "foo",      "MOD",
      "min", "max",  "UNION", "abs"};
  Rng rng(31337);
  for (int iter = 0; iter < 300; ++iter) {
    std::ostringstream os;
    const int len = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < len; ++i)
      os << tokens[rng.next_below(std::size(tokens))] << " ";
    try {
      parse_program(os.str());
    } catch (const ParseError&) {
    } catch (const ContractViolation&) {
    }
  }
  SUCCEED();  // reaching here without a crash is the property
}

// ------------------------------------- input-provider differential firing
// Every engine reads inputs by id through the one provider type. Fired
// through the interpreter, the VM and the compiled ARON tables, every
// program must agree on the fired rule, RETURN, events and register
// commits; the interpreter and the VM also on the fire count and on the
// exact error when a host signal leaves its declared domain.

/// One host value per (input, indices) per firing, shared by every engine
/// so all of them observe the same signals. About one read in 64 returns a
/// value outside the input's domain, driving the error paths.
class SignalOracle {
 public:
  SignalOracle(const Program& prog, std::uint64_t seed)
      : prog_(prog), rng_(seed) {}

  void next_firing() { memo_.clear(); }

  Value get(std::int32_t id, const Value* idx, std::size_t n) {
    std::string key = std::to_string(id);
    for (std::size_t i = 0; i < n; ++i) {
      key += '/';
      key += idx[i].to_string(prog_.syms);
    }
    const Domain& d = prog_.inputs[static_cast<std::size_t>(id)].domain;
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      const Value v = rng_.next_below(64) == 0
                          ? Value::make_int(std::int64_t{1} << 40)
                          : d.value_at(rng_.next_below(d.cardinality()));
      it = memo_.emplace(key, v).first;
    }
    if (!d.contains(it->second)) ++bad_reads_;
    return it->second;
  }

  /// Reads served so far that returned a value outside the input's domain.
  int bad_reads() const { return bad_reads_; }

  static Value raw(void* self, std::int32_t id, const Value* idx,
                   std::size_t n) {
    return static_cast<SignalOracle*>(self)->get(id, idx, n);
  }

 private:
  const Program& prog_;
  Rng rng_;
  std::map<std::string, Value> memo_;
  int bad_reads_ = 0;
};

/// What one engine made of one firing: its result, or the error it threw
/// ("eval: <message>" or "contract: <message>").
struct Firing {
  FireResult result;
  std::string error;
};

template <typename Fire>
Firing attempt(const Fire& fire) {
  Firing f;
  try {
    f.result = fire();
  } catch (const EvalError& e) {
    f.error = std::string("eval: ") + e.what();
  } catch (const ContractViolation& e) {
    f.error = std::string("contract: ") + e.what();
  }
  return f;
}

/// Contract-violation texts carry the throwing source location, which
/// differs between engines: only their kind is compared.
void expect_same_firing(const Firing& a, const Firing& b,
                        const std::string& where) {
  const auto is_contract = [](const std::string& e) {
    return e.rfind("contract: ", 0) == 0;
  };
  if (is_contract(a.error)) {
    EXPECT_TRUE(is_contract(b.error)) << where << ": " << b.error;
    return;
  }
  ASSERT_EQ(a.error, b.error) << where;
  if (!a.error.empty()) return;
  ASSERT_EQ(a.result.rule_index, b.result.rule_index) << where;
  ASSERT_EQ(a.result.returned.has_value(), b.result.returned.has_value())
      << where;
  if (a.result.returned) {
    ASSERT_TRUE(*a.result.returned == *b.result.returned) << where;
  }
  ASSERT_EQ(a.result.events.size(), b.result.events.size()) << where;
  for (std::size_t e = 0; e < a.result.events.size(); ++e) {
    ASSERT_EQ(a.result.events[e].name, b.result.events[e].name) << where;
    ASSERT_EQ(a.result.events[e].args.size(), b.result.events[e].args.size())
        << where;
    for (std::size_t k = 0; k < a.result.events[e].args.size(); ++k)
      ASSERT_TRUE(a.result.events[e].args[k] == b.result.events[e].args[k])
          << where;
  }
}

/// Fires random rule bases of `prog` through the interpreter, the VM and the
/// ARON tables; returns how many firings threw (identically in the
/// interpreter and the VM).
int fire_three_ways(const Program& prog, std::uint64_t seed, int iters) {
  SignalOracle oracle(prog, seed);
  Interpreter interp(prog);
  interp.set_input_provider(&SignalOracle::raw, &oracle);
  RuleEnv env_interp(prog), env_vm(prog), env_table(prog);
  Vm vm(compile_bytecode(prog), env_vm);
  vm.set_input_provider(&SignalOracle::raw, &oracle);
  // The tables fire through their own interpreter, as in Table mode.
  Interpreter table_interp(prog);
  table_interp.set_input_provider(&SignalOracle::raw, &oracle);
  const std::vector<CompiledRuleBase> tables =
      compile_program(prog, table_interp);

  Rng rng(seed ^ 0x5eedULL);
  int errors = 0;
  for (int iter = 0; iter < iters; ++iter) {
    const std::size_t rb_ix = rng.next_below(prog.rule_bases.size());
    const RuleBase& rb = prog.rule_bases[rb_ix];
    std::vector<Value> args;
    for (const Param& p : rb.params)
      args.push_back(p.domain.value_at(rng.next_below(p.domain.cardinality())));
    const std::string where = rb.name + " iteration " + std::to_string(iter);

    oracle.next_firing();
    const Firing a = attempt([&] { return interp.fire(env_interp, rb, args); });
    const Firing c =
        attempt([&] { return vm.fire(static_cast<int>(rb_ix), args); });
    expect_same_firing(a, c, where + " (vm)");
    const int bad_before = oracle.bad_reads();
    const Firing t = attempt(
        [&] { return tables[rb_ix].fire(table_interp, env_table, args); });
    if (!a.error.empty()) {
      // The table evaluates every premise axis before it selects a rule,
      // so it may meet a different bad signal first: it must fail, but
      // possibly with another message.
      EXPECT_FALSE(t.error.empty()) << where << " (table)";
    } else if (oracle.bad_reads() > bad_before) {
      // A bad signal behind a premise the interpreter short-circuited:
      // the table must reject it; resync its registers to go on.
      EXPECT_NE(t.error.find("host returned value outside domain"),
                std::string::npos)
          << where << " (table): " << t.error;
      env_table = env_interp;
    } else {
      expect_same_firing(a, t, where + " (table)");
    }
    if (::testing::Test::HasFatalFailure()) return errors;
    if (!a.error.empty()) {
      ++errors;
      env_interp.reset();
      env_vm.reset();
      env_table.reset();
      continue;
    }
    EXPECT_TRUE(env_interp == env_vm) << where;
    EXPECT_TRUE(env_interp == env_table) << where;
  }
  EXPECT_EQ(interp.total_fires(), vm.total_fires());
  return errors;
}

TEST(InputProviderDiff, CorpusProgramsFireAlikeThreeWays) {
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"nafta", flexrouter::rulebases::nafta_program_source(8, 8)},
      {"nara", flexrouter::rulebases::nara_program_source(8, 8)},
      {"route_c", flexrouter::rulebases::route_c_program_source(4, 2)},
      {"route_c_nft", flexrouter::rulebases::route_c_nft_program_source(4, 2)},
      {"ft_mesh", flexrouter::rulebases::ft_mesh_route_source(4, 4)},
      {"nara_route", flexrouter::rulebases::nara_route_source(4, 4)},
      {"ecube", flexrouter::rulebases::ecube_route_source(3)},
      {"ecube_msb", flexrouter::rulebases::ecube_msb_route_source(3)},
  };
  std::uint64_t seed = 0xd1ffULL;
  for (const auto& [name, source] : corpus) {
    SCOPED_TRACE(name);
    const Program prog = parse_program(source);
    // Every corpus program reads inputs often enough to meet the oracle's
    // out-of-domain values: the error path is compared, not skipped.
    EXPECT_GT(fire_three_ways(prog, ++seed, 400), 0);
    if (HasFatalFailure()) return;
  }
}

TEST(InputProviderDiff, FuzzProgramsFireAlikeThreeWays) {
  int errors = 0;
  for (const FuzzParam& p : fuzz_seeds()) {
    ProgramGenerator gen(p.seed);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    const Program prog = parse_program(source);
    errors += fire_three_ways(prog, p.seed, 200);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(errors, 0);
}

}  // namespace
}  // namespace flexrouter::rules
