// Tests for the rule language: lexer, parser, interpreter semantics,
// ARON compiler (feature axes, table filling) and event manager — including
// the paper's Figure 4 excerpt (ROUTE_C state update).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "named_inputs.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/hwcost.hpp"
#include "ruleengine/lexer.hpp"
#include "ruleengine/parser.hpp"

namespace flexrouter::rules {
namespace {

using testutil::NamedInputs;

// --------------------------------------------------------------------- lexer
TEST(Lexer, TokenisesOperatorsAndKeywords) {
  const auto toks = lex("IF xpos<xdes AND ypos=ydes THEN RETURN(east);");
  ASSERT_GE(toks.size(), 13u);
  EXPECT_EQ(toks[0].kind, Tok::KwIf);
  EXPECT_EQ(toks[1].kind, Tok::Ident);
  EXPECT_EQ(toks[1].text, "xpos");
  EXPECT_EQ(toks[2].kind, Tok::Lt);
  EXPECT_EQ(toks[4].kind, Tok::KwAnd);
  EXPECT_EQ(toks.back().kind, Tok::End);
}

TEST(Lexer, AssignVsComparisonVsComment) {
  const auto toks = lex("x <- y -- this is a comment <- ignored\nz <= 3 <> 4");
  // x <- y | z <= 3 <> 4 | eof
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[1].kind, Tok::Assign);
  EXPECT_EQ(toks[4].kind, Tok::Le);
  EXPECT_EQ(toks[6].kind, Tok::Ne);
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  const auto toks = lex("forall FORALL ForAll");
  EXPECT_EQ(toks[0].kind, Tok::KwForall);
  EXPECT_EQ(toks[1].kind, Tok::KwForall);
  EXPECT_EQ(toks[2].kind, Tok::KwForall);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(lex("a $ b"), ParseError);
}

// -------------------------------------------------------------------- parser
const char* kNaftaDirectionSnippet = R"(
  PROGRAM direction_demo;
  CONSTANT width = 4
  INPUT xpos IN 0 TO width-1
  INPUT ypos IN 0 TO width-1
  INPUT xdes IN 0 TO width-1
  INPUT ydes IN 0 TO width-1
  CONSTANT outs = {east, west, north, south, local}
  ON route RETURNS outs
    IF xpos<xdes AND ypos=ydes THEN RETURN(east);
    IF xpos>xdes AND ypos=ydes THEN RETURN(west);
    IF ypos<ydes THEN RETURN(north);
    IF ypos>ydes THEN RETURN(south);
    IF xpos=xdes AND ypos=ydes THEN RETURN(local);
  END route;
)";

TEST(Parser, ParsesPaperStyleRouteRules) {
  const Program p = parse_program(kNaftaDirectionSnippet);
  EXPECT_EQ(p.name, "direction_demo");
  EXPECT_EQ(p.inputs.size(), 4u);
  ASSERT_EQ(p.rule_bases.size(), 1u);
  const RuleBase& rb = p.rule_bases[0];
  EXPECT_EQ(rb.name, "route");
  EXPECT_EQ(rb.rules.size(), 5u);
  ASSERT_TRUE(rb.returns.has_value());
  EXPECT_EQ(rb.returns->cardinality(), 5u);
}

TEST(Parser, ConstantEnumDeclaresDomainAndSet) {
  const Program p = parse_program(
      "CONSTANT states = {safe, unsafe, faulty}\n"
      "VARIABLE s IN states INIT unsafe\n"
      "ON tick IF s = safe THEN s <- faulty; END");
  ASSERT_EQ(p.variables.size(), 1u);
  EXPECT_EQ(p.variables[0].domain.cardinality(), 3u);
  ASSERT_TRUE(p.variables[0].init.has_value());
  // The constant also exists as the full set.
  const auto it = p.constants.find("states");
  ASSERT_NE(it, p.constants.end());
  EXPECT_EQ(it->second.as_set().size(), 3u);
}

TEST(Parser, ArraysAndIntConstantDomains) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "VARIABLE queue[dirs] IN 0 TO 15\n"
      "ON noop IF 1 = 1 THEN queue(0) <- 0; END");
  ASSERT_EQ(p.variables.size(), 1u);
  EXPECT_EQ(p.variables[0].array_size, 4);
  EXPECT_EQ(p.variables[0].register_bits(), 16);  // 4 bits x 4 elements
}

TEST(Parser, ParamWithIntConstantDomain) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "ON update(dir IN dirs) IF dir = 0 THEN !ping(dir); END update");
  ASSERT_EQ(p.rule_bases[0].params.size(), 1u);
  EXPECT_EQ(p.rule_bases[0].params[0].domain.cardinality(), 4u);
}

TEST(Parser, RejectsDuplicateDeclarations) {
  EXPECT_THROW(parse_program("CONSTANT a = 1\nCONSTANT a = 2"), ParseError);
  EXPECT_THROW(parse_program("VARIABLE v IN 0 TO 1\nVARIABLE v IN 0 TO 1"),
               ParseError);
  EXPECT_THROW(parse_program("ON e IF 1=1 THEN !x(); END\n"
                             "ON e IF 1=1 THEN !y(); END"),
               ParseError);
}

TEST(Parser, RejectsMismatchedEndTrailer) {
  EXPECT_THROW(parse_program("ON foo IF 1=1 THEN !x(); END bar"), ParseError);
}

TEST(Parser, RejectsUnknownDomainName) {
  EXPECT_THROW(parse_program("VARIABLE v IN nowhere"), ParseError);
}

TEST(Parser, RejectsInitOutsideDomain) {
  EXPECT_THROW(parse_program("VARIABLE v IN 0 TO 3 INIT 9"), ParseError);
}

TEST(Parser, QuantifiedExpressionsParse) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "INPUT free(dirs) IN 0 TO 1\n"
      "ON pick RETURNS 0 TO 1\n"
      "  IF EXISTS i IN dirs: free(i) = 1 THEN RETURN(1);\n"
      "  IF FORALL i IN dirs: free(i) = 0 THEN RETURN(0);\n"
      "END pick");
  EXPECT_EQ(p.rule_bases[0].rules.size(), 2u);
  EXPECT_EQ(p.rule_bases[0].rules[0].premise->kind, Expr::Kind::Quantified);
}

TEST(Parser, PrettyPrintRoundTrips) {
  const Program p = parse_program(kNaftaDirectionSnippet);
  for (const Rule& r : p.rule_bases[0].rules) {
    const std::string text = to_string(r, p.syms);
    EXPECT_NE(text.find("IF"), std::string::npos);
    EXPECT_NE(text.find("RETURN"), std::string::npos);
  }
}

// --------------------------------------------------------------- interpreter
TEST(Interp, SelectsFirstApplicableRule) {
  const Program p = parse_program(kNaftaDirectionSnippet);
  Interpreter interp(p);
  RuleEnv env(p);
  std::map<std::string, std::int64_t> sig{
      {"xpos", 1}, {"ypos", 2}, {"xdes", 3}, {"ydes", 2}};
  NamedInputs inputs(p, [&](const std::string& name,
                            const std::vector<Value>&) {
    return Value::make_int(sig.at(name));
  });
  inputs.install(interp);
  const FireResult r = interp.fire(env, "route", {});
  EXPECT_EQ(r.rule_index, 0);
  ASSERT_TRUE(r.returned.has_value());
  EXPECT_EQ(p.syms.name(r.returned->as_sym()), "east");
}

TEST(Interp, NoApplicableRuleReturnsMinusOne) {
  const Program p = parse_program(
      "ON never IF 1 = 2 THEN !boom(); END");
  Interpreter interp(p);
  RuleEnv env(p);
  const FireResult r = interp.fire(env, "never", {});
  EXPECT_FALSE(r.applied());
  EXPECT_TRUE(r.events.empty());
}

TEST(Interp, ParallelConclusionUsesPreState) {
  // Swap two registers in one conclusion: only possible with parallel
  // (pre-state) semantics.
  const Program p = parse_program(
      "VARIABLE a IN 0 TO 9 INIT 3\n"
      "VARIABLE b IN 0 TO 9 INIT 7\n"
      "ON swap IF 1 = 1 THEN a <- b, b <- a; END");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "swap", {});
  EXPECT_EQ(env.get("a").as_int(), 7);
  EXPECT_EQ(env.get("b").as_int(), 3);
}

TEST(Interp, ConflictingParallelWritesThrow) {
  const Program p = parse_program(
      "VARIABLE a IN 0 TO 9\n"
      "ON bad IF 1 = 1 THEN a <- 1, a <- 2; END");
  Interpreter interp(p);
  RuleEnv env(p);
  EXPECT_THROW(interp.fire(env, "bad", {}), EvalError);
}

TEST(Interp, IdenticalParallelWritesAreAllowed) {
  const Program p = parse_program(
      "VARIABLE a IN 0 TO 9\n"
      "ON ok IF 1 = 1 THEN a <- 5, a <- 5; END");
  Interpreter interp(p);
  RuleEnv env(p);
  EXPECT_NO_THROW(interp.fire(env, "ok", {}));
  EXPECT_EQ(env.get("a").as_int(), 5);
}

TEST(Interp, DomainViolationOnAssignThrows) {
  const Program p = parse_program(
      "VARIABLE a IN 0 TO 3\n"
      "ON inc IF 1 = 1 THEN a <- a + 1; END");
  Interpreter interp(p);
  RuleEnv env(p);
  for (int i = 0; i < 3; ++i) interp.fire(env, "inc", {});
  EXPECT_EQ(env.get("a").as_int(), 3);
  EXPECT_THROW(interp.fire(env, "inc", {}), ContractViolation);
}

TEST(Interp, ForAllCommandExpandsOverRange) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "VARIABLE mark[dirs] IN 0 TO 1\n"
      "ON set_all IF 1 = 1 THEN FORALL i IN dirs: mark(i) <- 1; END");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "set_all", {});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(env.get("mark", i).as_int(), 1);
}

TEST(Interp, EmittedEventsCarryEvaluatedArgs) {
  const Program p = parse_program(
      "CONSTANT dirs = 3\n"
      "ON fanout(x IN 0 TO 9)\n"
      "  IF x > 0 THEN FORALL i IN dirs: !send(i, x + 1);\n"
      "END");
  Interpreter interp(p);
  RuleEnv env(p);
  const FireResult r = interp.fire(env, "fanout", {Value::make_int(4)});
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[0].name, "send");
  EXPECT_EQ(r.events[2].args[0].as_int(), 2);
  EXPECT_EQ(r.events[2].args[1].as_int(), 5);
}

TEST(Interp, SetOperationsAndMembership) {
  const Program p = parse_program(
      "CONSTANT states = {a, b, c, d}\n"
      "VARIABLE s IN SET OF states INIT {a, b}\n"
      "VARIABLE hit IN 0 TO 1\n"
      "ON go IF c IN (s UNION {c}) AND NOT (d IN s) THEN\n"
      "  s <- (s UNION {c}) SETMINUS {a}, hit <- 1;\n"
      "END");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "go", {});
  EXPECT_EQ(env.get("hit").as_int(), 1);
  const SetValue& s = env.get("s").as_set();
  EXPECT_EQ(s.size(), 2u);  // {b, c}
  EXPECT_TRUE(s.contains(Value::make_sym(p.syms.lookup("b"))));
  EXPECT_TRUE(s.contains(Value::make_sym(p.syms.lookup("c"))));
}

TEST(Interp, QuantifierOverSetValuedExpression) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "INPUT load(dirs) IN 0 TO 7\n"
      "ON least RETURNS 0 TO 3\n"
      "  IF EXISTS i IN dirs: (FORALL j IN dirs: load(i) <= load(j))\n"
      "    AND i >= 0 THEN RETURN(0);\n"
      "END least");
  Interpreter interp(p);
  NamedInputs inputs(p, [](const std::string&,
                           const std::vector<Value>& idx) {
    static const int loads[] = {5, 2, 7, 2};
    return Value::make_int(loads[idx[0].as_int()]);
  });
  inputs.install(interp);
  RuleEnv env(p);
  const FireResult r = interp.fire(env, "least", {});
  EXPECT_TRUE(r.applied());
}

TEST(Interp, BuiltinsEvaluate) {
  const Program p = parse_program(
      "VARIABLE r IN 0 TO 63\n"
      "ON go(x IN 0 TO 63, y IN 0 TO 63)\n"
      "  IF 1 = 1 THEN r <- popcount(xor(x, y));\n"
      "END");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "go", {Value::make_int(0b101010), Value::make_int(0b010101)});
  EXPECT_EQ(env.get("r").as_int(), 6);
}

TEST(Interp, MeshDistBuiltin) {
  const Program p = parse_program(
      "VARIABLE d IN 0 TO 30\n"
      "ON go(a IN 0 TO 7, b IN 0 TO 7, c IN 0 TO 7, e IN 0 TO 7)\n"
      "  IF 1 = 1 THEN d <- meshdist(a, b, c, e);\n"
      "END");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "go",
              {Value::make_int(1), Value::make_int(2), Value::make_int(4),
               Value::make_int(7)});
  EXPECT_EQ(env.get("d").as_int(), 8);
}

TEST(Interp, SubbaseCallReturnsValue) {
  const Program p = parse_program(
      "VARIABLE out IN 0 TO 20\n"
      "ON double(x IN 0 TO 10) RETURNS 0 TO 20\n"
      "  IF 1 = 1 THEN RETURN(x * 2);\n"
      "END double\n"
      "ON go(x IN 0 TO 10) IF double(x) > 5 THEN out <- double(x); END go");
  Interpreter interp(p);
  RuleEnv env(p);
  interp.fire(env, "go", {Value::make_int(4)});
  EXPECT_EQ(env.get("out").as_int(), 8);
}

TEST(Interp, ImpureSubbaseInExpressionThrows) {
  const Program p = parse_program(
      "VARIABLE n IN 0 TO 10\n"
      "ON impure RETURNS 0 TO 10\n"
      "  IF 1 = 1 THEN n <- n + 1, RETURN(n);\n"
      "END impure\n"
      "ON go IF impure() > 0 THEN n <- 0; END go");
  Interpreter interp(p);
  RuleEnv env(p);
  EXPECT_THROW(interp.fire(env, "go", {}), EvalError);
}

TEST(Interp, ArgumentDomainChecked) {
  const Program p = parse_program(
      "ON f(x IN 0 TO 3) IF x = 0 THEN !e(); END");
  Interpreter interp(p);
  RuleEnv env(p);
  EXPECT_THROW(interp.fire(env, "f", {Value::make_int(7)}),
               ContractViolation);
  EXPECT_THROW(interp.fire(env, "f", {}), ContractViolation);
}

// Name resolution: each Ref of the program is resolved once, but bound
// names (parameters, quantifier variables) are still looked up first, so
// they shadow an input or a register of the same name.
TEST(Interp, BoundNamesShadowInputsAndVariables) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "VARIABLE count IN 0 TO 7 INIT 5\n"
      "INPUT load IN 0 TO 3\n"
      "ON probe(load IN 0 TO 3) RETURNS 0 TO 7\n"
      "  IF load = 2 THEN RETURN(count);\n"
      "  IF EXISTS count IN dirs : count = load + 1 THEN RETURN(count);\n"
      "END probe\n"
      "ON scan RETURNS 0 TO 7\n"
      "  IF EXISTS load IN dirs : load = 3 THEN RETURN(load + count);\n"
      "END scan");
  Interpreter interp(p);
  RuleEnv env(p);
  int reads = 0;
  NamedInputs inputs(p, [&](const std::string&, const std::vector<Value>&) {
    ++reads;
    return Value::make_int(0);
  });
  inputs.install(interp);
  // Parameter `load` shadows the input; the register `count` is read
  // outside the quantifier and shadowed inside it.
  FireResult r = interp.fire(env, "probe", {Value::make_int(2)});
  ASSERT_TRUE(r.returned.has_value());
  EXPECT_EQ(r.returned->as_int(), 5);
  r = interp.fire(env, "probe", {Value::make_int(1)});
  EXPECT_EQ(r.rule_index, 1);
  // RETURN(count) sits outside the quantifier: the register again.
  EXPECT_EQ(r.returned->as_int(), 5);
  // Quantifier variable `load` shadows the input inside its body; after
  // it the name is the input again.
  r = interp.fire(env, "scan", {});
  ASSERT_TRUE(r.applied());
  EXPECT_EQ(r.returned->as_int(), 5);  // input load = 0, count = 5
  EXPECT_EQ(reads, 1);                 // only the RETURN read the input
}

TEST(Interp, EvalExprOnForeignExprResolvesByName) {
  // Exprs the program does not own are resolved by name to the input id
  // the provider receives, so a temporary built after construction
  // evaluates like any program expression.
  const Program p = parse_program(
      "VARIABLE count IN 0 TO 7 INIT 3\n"
      "INPUT load(0 TO 3) IN 0 TO 9\n"
      "ON go IF load(1) = 4 THEN count <- 1; END go");
  Interpreter interp(p);
  RuleEnv env(p);
  NamedInputs inputs(p, [](const std::string& name,
                           const std::vector<Value>& idx) {
    EXPECT_EQ(name, "load");
    return Value::make_int(idx[0].as_int() + 3);
  });
  inputs.install(interp);
  interp.fire(env, "go", {});  // resolves the program's own Refs
  EXPECT_EQ(env.get("count").as_int(), 1);
  const ExprPtr sum = Expr::make_binary(
      BinOp::Add, Expr::make_ref("count"),
      Expr::make_ref("load", {Expr::make_int(2)}));
  EXPECT_EQ(interp.eval_expr(env, sum, {}).as_int(), 6);
  const ExprPtr bound = Expr::make_ref("count");
  EXPECT_EQ(interp.eval_expr(env, bound, {{"count", Value::make_int(7)}})
                .as_int(),
            7);
  try {
    interp.eval_expr(env, Expr::make_ref("nosuch", {}, 9), {});
    FAIL() << "unknown name evaluated";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "line 9: unknown name 'nosuch'");
  }
}

// --------------------------------------------- the paper's Figure 4 excerpt
const char* kFigure4 = R"(
  PROGRAM route_c_update_state;
  -- it is assumed that the event update_state occurs if a neighboring node
  -- fails, or the neighbor's state changes, or a link to it
  CONSTANT fault_states = {safe, faulty, ounsafe, sunsafe, lfault}
  CONSTANT dirs = 4
  VARIABLE number_unsafe IN 0 TO dirs
  VARIABLE number_faulty IN 0 TO dirs
  VARIABLE state IN fault_states INIT safe
  VARIABLE neighb_state[dirs] IN fault_states
  INPUT new_state(dirs) IN fault_states

  ON update_state(dir IN dirs)
    -- the first neighbor gets faulty, just note it
    IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
    THEN neighb_state(dir) <- new_state(dir),
         number_faulty <- number_faulty + 1,
         number_unsafe <- number_unsafe + 1;
    -- now too many neighbors are unsafe, change state and propagate
    IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe
       AND number_unsafe = 2
    THEN state <- ounsafe,
         number_unsafe <- number_unsafe + 1,
         FORALL i IN dirs: !send_newmessage(i, ounsafe),
         neighb_state(dir) <- new_state(dir);
  END update_state;
)";

TEST(Figure4, ParsesAndFiresFirstRule) {
  const Program p = parse_program(kFigure4);
  Interpreter interp(p);
  RuleEnv env(p);
  SymId faulty = p.syms.lookup("faulty");
  NamedInputs inputs(p, [&](const std::string&, const std::vector<Value>&) {
    return Value::make_sym(faulty);
  });
  inputs.install(interp);
  const FireResult r = interp.fire(env, "update_state", {Value::make_int(2)});
  EXPECT_EQ(r.rule_index, 0);
  EXPECT_EQ(env.get("number_faulty").as_int(), 1);
  EXPECT_EQ(env.get("number_unsafe").as_int(), 1);
  EXPECT_EQ(p.syms.name(env.get("neighb_state", 2).as_sym()), "faulty");
}

TEST(Figure4, SecondRulePropagatesToAllNeighbors) {
  const Program p = parse_program(kFigure4);
  Interpreter interp(p);
  RuleEnv env(p);
  env.set("number_unsafe", 0, Value::make_int(2));
  SymId sunsafe = p.syms.lookup("sunsafe");
  NamedInputs inputs(p, [&](const std::string&, const std::vector<Value>&) {
    return Value::make_sym(sunsafe);
  });
  inputs.install(interp);
  const FireResult r = interp.fire(env, "update_state", {Value::make_int(0)});
  EXPECT_EQ(r.rule_index, 1);
  EXPECT_EQ(p.syms.name(env.get("state").as_sym()), "ounsafe");
  EXPECT_EQ(env.get("number_unsafe").as_int(), 3);
  ASSERT_EQ(r.events.size(), 4u);  // one per direction
  for (const auto& e : r.events) {
    EXPECT_EQ(e.name, "send_newmessage");
    EXPECT_EQ(p.syms.name(e.args[1].as_sym()), "ounsafe");
  }
}

// ------------------------------------------------------------------ compiler
TEST(Compiler, Figure7AxisClassification) {
  // The paper's Figure 7: state and new_state(dir) index directly, the
  // counters are reduced to compare-with-constant bits.
  const Program p = parse_program(kFigure4);
  Interpreter interp(p);
  const CompiledRuleBase c =
      compile_rule_base(p, p.rule_base("update_state"), interp);
  int direct = 0, atom = 0;
  for (const FeatureAxis& a : c.axes())
    (a.kind == FeatureAxis::Kind::Direct ? direct : atom) += 1;
  EXPECT_EQ(direct, 2);  // new_state(dir), state
  EXPECT_EQ(atom, 2);    // number_faulty = 0, number_unsafe = 2
  EXPECT_EQ(c.table_entries(), 5u * 5u * 2u * 2u);  // 100 entries
  EXPECT_GT(c.table_width_bits(), 0);
}

TEST(Compiler, TableAgreesWithInterpreterOnAllStates) {
  const Program p = parse_program(kFigure4);
  // Exhaustive differential test over the full input space of Figure 4.
  const auto fault_states = p.named_domains.at("fault_states").enumerate();
  for (const Value& new_state : fault_states) {
    for (int nf = 0; nf <= 4; ++nf) {
      for (int nu = 0; nu <= 4; ++nu) {
        for (const Value& st : fault_states) {
          EventManager direct(p, ExecMode::Interpret);
          EventManager table(p, ExecMode::Table);
          NamedInputs inputs(
              p, [&](const std::string&, const std::vector<Value>&) {
                return new_state;
              });
          for (EventManager* em : {&direct, &table}) {
            inputs.install(*em);
            em->env().set("number_faulty", 0, Value::make_int(nf));
            em->env().set("number_unsafe", 0, Value::make_int(nu));
            em->env().set("state", 0, st);
          }
          // Some synthetic states overflow the counter domains (e.g.
          // number_unsafe already at its maximum when a rule increments) —
          // both engines must then fail identically.
          std::optional<FireResult> a, b;
          bool a_threw = false, b_threw = false;
          try {
            a = direct.fire("update_state", {Value::make_int(1)});
          } catch (const ContractViolation&) {
            a_threw = true;
          }
          try {
            b = table.fire("update_state", {Value::make_int(1)});
          } catch (const ContractViolation&) {
            b_threw = true;
          }
          ASSERT_EQ(a_threw, b_threw);
          if (a_threw) continue;
          EXPECT_EQ(a->rule_index, b->rule_index);
          EXPECT_EQ(a->events.size(), b->events.size());
          EXPECT_TRUE(direct.env() == table.env());
        }
      }
    }
  }
}

TEST(Compiler, ReturnsContributeToWidth) {
  const Program p = parse_program(kNaftaDirectionSnippet);
  Interpreter interp(p);
  const CompiledRuleBase c = compile_rule_base(p, p.rule_base("route"), interp);
  // 5 distinct conclusions (+none) need 3 bits, the returned direction
  // domain (5 symbols) needs 3 more.
  EXPECT_EQ(c.table_width_bits(), 6);
  // Positions are 0..3 each: too wide for direct int indexing (threshold 4
  // allows card 4), so every comparison is an atom — actually positions have
  // cardinality 4 == threshold, so they index directly.
  EXPECT_EQ(c.table_entries(), 4u * 4u * 4u * 4u);
}

TEST(Compiler, AtomFallbackForWideIntDomains) {
  const Program p = parse_program(
      "INPUT big IN 0 TO 1000\n"
      "ON check RETURNS 0 TO 1\n"
      "  IF big > 500 THEN RETURN(1);\n"
      "  IF big <= 500 THEN RETURN(0);\n"
      "END check");
  Interpreter interp(p);
  const CompiledRuleBase c = compile_rule_base(p, p.rule_base("check"), interp);
  ASSERT_EQ(c.axes().size(), 2u);  // two comparison atoms
  EXPECT_EQ(c.axes()[0].kind, FeatureAxis::Kind::Atom);
  EXPECT_EQ(c.table_entries(), 4u);
}

TEST(Compiler, QuantifiedPremisesBecomeSingleAtoms) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "INPUT free(dirs) IN 0 TO 1\n"
      "ON any RETURNS 0 TO 1\n"
      "  IF EXISTS i IN dirs: free(i) = 1 THEN RETURN(1);\n"
      "END any");
  Interpreter interp(p);
  const CompiledRuleBase c = compile_rule_base(p, p.rule_base("any"), interp);
  ASSERT_EQ(c.axes().size(), 1u);
  EXPECT_EQ(c.axes()[0].kind, FeatureAxis::Kind::Atom);
  EXPECT_EQ(c.table_entries(), 2u);
}

TEST(Compiler, TableBudgetEnforced) {
  const Program p = parse_program(
      "INPUT a IN 0 TO 3\nINPUT b IN 0 TO 3\nINPUT c IN 0 TO 3\n"
      "ON big IF a = b AND b = c THEN !hit(); END big");
  Interpreter interp(p);
  CompileOptions opts;
  opts.max_entries = 8;  // 4*4*4 = 64 > 8
  EXPECT_THROW(compile_rule_base(p, p.rule_base("big"), interp, opts),
               CompileError);
}

TEST(Compiler, RandomisedDifferentialAgainstInterpreter) {
  // A rule base mixing direct axes, atom axes, arrays and events; compare
  // table execution vs AST interpretation over random states.
  const char* src = R"(
    CONSTANT dirs = 4
    CONSTANT st = {ok, warn, bad}
    VARIABLE mode IN st
    VARIABLE count IN 0 TO 15
    VARIABLE tag[dirs] IN 0 TO 3
    INPUT sensor(dirs) IN 0 TO 7
    ON step(d IN dirs)
      IF mode = ok AND sensor(d) > 5 THEN mode <- warn, count <- count + 1;
      IF mode = warn AND sensor(d) > 5 AND count >= 3 THEN
        mode <- bad, FORALL i IN dirs: tag(i) <- 3, !alarm(d);
      IF mode = warn AND sensor(d) <= 5 THEN mode <- ok;
      IF mode = bad AND count >= 1 THEN count <- count - 1;
    END step
  )";
  const Program p = parse_program(src);
  Rng rng(777);
  EventManager direct(p, ExecMode::Interpret);
  EventManager table(p, ExecMode::Table);
  int sensor_vals[4] = {0, 0, 0, 0};
  NamedInputs inputs(p, [&](const std::string&,
                            const std::vector<Value>& idx) {
    return Value::make_int(sensor_vals[idx[0].as_int()]);
  });
  inputs.install(direct);
  inputs.install(table);
  for (int iter = 0; iter < 2000; ++iter) {
    for (int& s : sensor_vals) s = static_cast<int>(rng.next_below(8));
    const auto d = static_cast<std::int64_t>(rng.next_below(4));
    const FireResult a = direct.fire("step", {Value::make_int(d)});
    const FireResult b = table.fire("step", {Value::make_int(d)});
    ASSERT_EQ(a.rule_index, b.rule_index) << "iteration " << iter;
    ASSERT_TRUE(direct.env() == table.env()) << "iteration " << iter;
  }
}

TEST(Compiler, FcfbSplitPremiseVsConclusion) {
  const Program p = parse_program(kFigure4);
  Interpreter interp(p);
  const CompiledRuleBase c =
      compile_rule_base(p, p.rule_base("update_state"), interp);
  // Premise FCFBs: the two counter comparisons (zero check + compare const).
  EXPECT_GE(c.premise_fcfbs().total_instances(), 2);
  // Conclusion FCFBs: conditional increments on the two counters.
  EXPECT_GE(c.conclusion_fcfbs().count(FcfbKind::ConditionalIncrement), 2);
  EXPECT_GT(c.decision_delay_units(), 0.0);
}

// ------------------------------------------------------------- event manager
TEST(EventManager, DrainCascades) {
  const Program p = parse_program(
      "VARIABLE n IN 0 TO 10\n"
      "ON tick(k IN 0 TO 10)\n"
      "  IF k > 0 THEN n <- k, !tick(k - 1);\n"
      "END tick");
  EventManager em(p);
  em.post("tick", {Value::make_int(5)});
  const int fired = em.drain();
  EXPECT_EQ(fired, 6);  // tick(5)..tick(0)
  EXPECT_EQ(em.env().get("n").as_int(), 1);
  EXPECT_EQ(em.total_interpretations(), 6);
}

TEST(EventManager, HostHandlerReceivesUnboundEvents) {
  const Program p = parse_program(
      "ON go IF 1 = 1 THEN !send(3), !send(5); END");
  EventManager em(p);
  std::vector<std::int64_t> sent;
  em.set_host_handler([&](const EmittedEvent& ev) {
    EXPECT_EQ(ev.name, "send");
    sent.push_back(ev.args[0].as_int());
  });
  em.fire("go", {});
  em.drain();
  EXPECT_EQ(sent, (std::vector<std::int64_t>{3, 5}));
}

TEST(EventManager, RunawayCascadeThrows) {
  const Program p = parse_program(
      "ON loop IF 1 = 1 THEN !loop(); END");
  EventManager em(p);
  em.post("loop", {});
  EXPECT_THROW(em.drain(100), ContractViolation);
}

TEST(EventManager, TraceSeesEveryInterpretation) {
  const Program p = parse_program(
      "VARIABLE n IN 0 TO 10\n"
      "ON tick(k IN 0 TO 10)\n"
      "  IF k > 0 THEN n <- k, !tick(k - 1);\n"
      "END tick");
  EventManager em(p);
  std::vector<std::string> lines;
  em.set_trace([&](const RuleBase& rb, const std::vector<Value>& args,
                   const FireResult& r) {
    lines.push_back(EventManager::describe_firing(p, rb, args, r));
  });
  em.fire("tick", {Value::make_int(2)});
  em.drain();
  ASSERT_EQ(lines.size(), 3u);  // tick(2), tick(1), tick(0)
  EXPECT_EQ(lines[0], "tick(2) -> rule #1, !tick(1)");
  EXPECT_EQ(lines[1], "tick(1) -> rule #1, !tick(0)");
  EXPECT_EQ(lines[2], "tick(0) -> no rule applicable");
}

TEST(EventManager, TraceInTableModeToo) {
  const Program p = parse_program(
      "CONSTANT outs = {east, west}\n"
      "ON pick(x IN 0 TO 1) RETURNS outs\n"
      "  IF x = 0 THEN RETURN(east);\n"
      "  IF x = 1 THEN RETURN(west);\n"
      "END pick");
  EventManager em(p, ExecMode::Table);
  std::string last;
  em.set_trace([&](const RuleBase& rb, const std::vector<Value>& args,
                   const FireResult& r) {
    last = EventManager::describe_firing(p, rb, args, r);
  });
  em.fire("pick", {Value::make_int(1)});
  EXPECT_EQ(last, "pick(1) -> rule #2, RETURN west");
}

TEST(EventManager, ResetStateRestoresInitialImage) {
  const Program p = parse_program(
      "VARIABLE n IN 0 TO 10 INIT 2\n"
      "ON bump IF n < 10 THEN n <- n + 1; END");
  EventManager em(p);
  em.fire("bump", {});
  EXPECT_EQ(em.env().get("n").as_int(), 3);
  em.reset_state();
  EXPECT_EQ(em.env().get("n").as_int(), 2);
}

// ----------------------------------------------------------------- hw report
TEST(HwReport, RegistersAndTables) {
  const Program p = parse_program(kFigure4);
  const ProgramReport rep = report_program(p);
  // Registers: number_unsafe (3 bits) + number_faulty (3) + state (3) +
  // neighb_state (3 x 4).
  EXPECT_EQ(rep.total_register_bits, 3 + 3 + 3 + 12);
  EXPECT_EQ(rep.num_registers, 4);
  ASSERT_EQ(rep.rule_bases.size(), 1u);
  EXPECT_EQ(rep.rule_bases[0].entries, 100u);
  EXPECT_FALSE(rep.rule_bases[0].in_nft);
  const std::string text = render_report(rep);
  EXPECT_NE(text.find("update_state"), std::string::npos);
}

TEST(HwReport, NftDiffMarksSharedRuleBases) {
  const Program ft = parse_program(
      "VARIABLE a IN 0 TO 3\nVARIABLE ftonly IN 0 TO 255\n"
      "ON shared IF a = 0 THEN a <- 1; END\n"
      "ON ft_extra IF a = 1 THEN ftonly <- 9; END");
  const Program nft = parse_program(
      "VARIABLE a IN 0 TO 3\n"
      "ON shared IF a = 0 THEN a <- 1; END");
  const ProgramReport rep = report_program(ft, {}, &nft);
  EXPECT_TRUE(rep.rule_bases[0].in_nft);
  EXPECT_FALSE(rep.rule_bases[1].in_nft);
  EXPECT_EQ(rep.ft_register_bits, 8);
}

}  // namespace
}  // namespace flexrouter::rules
