// Tests for the hardware cost model: FCFB catalog/inventory, compiled
// pipeline delay, program reports, Table renderers, and the Section-5
// evaluation module.
#include <gtest/gtest.h>

#include "hwcost/evaluation.hpp"
#include "ruleengine/fcfb.hpp"
#include "ruleengine/parser.hpp"

namespace flexrouter::rules {
namespace {

TEST(Fcfb, CatalogCoversEveryKindWithPositiveCosts) {
  for (int k = 0; k <= static_cast<int>(FcfbKind::Popcount); ++k) {
    const auto kind = static_cast<FcfbKind>(k);
    EXPECT_GT(cost_of(kind).area, 0.0) << to_string(kind);
    EXPECT_GT(cost_of(kind).delay, 0.0) << to_string(kind);
    EXPECT_STRNE(to_string(kind), "?");
  }
}

TEST(Fcfb, InventoryArithmetic) {
  FcfbInventory inv;
  EXPECT_TRUE(inv.empty());
  EXPECT_EQ(inv.to_string(), "no FCFB needed");
  inv.add(FcfbKind::Adder, 2);
  inv.add(FcfbKind::ZeroCheck);
  EXPECT_EQ(inv.total_instances(), 3);
  EXPECT_DOUBLE_EQ(inv.total_area(),
                   2 * cost_of(FcfbKind::Adder).area +
                       cost_of(FcfbKind::ZeroCheck).area);
  EXPECT_DOUBLE_EQ(inv.max_delay(), cost_of(FcfbKind::Adder).delay);
  FcfbInventory other;
  other.add(FcfbKind::Adder);
  inv.merge(other);
  EXPECT_EQ(inv.count(FcfbKind::Adder), 3);
  EXPECT_NE(inv.to_string().find("adder"), std::string::npos);
}

TEST(Fcfb, InferenceDedupesSharedExpressions) {
  // The same comparison in two rules uses ONE hardware comparator (the
  // FCFB pool is shared); distinct comparisons use separate ones.
  const Program p = parse_program(
      "VARIABLE a IN 0 TO 99\n"
      "VARIABLE b IN 0 TO 99\n"
      "ON go\n"
      "  IF a > 50 THEN b <- 0;\n"
      "  IF a > 50 AND b > 10 THEN a <- 0;\n"
      "END go");
  const auto inv = infer_premise_fcfbs(p, p.rule_base("go"));
  EXPECT_EQ(inv.count(FcfbKind::CompareConst), 2);  // a>50 shared, b>10
}

TEST(Fcfb, CounterIdiomsBecomeDedicatedUnits) {
  const Program p = parse_program(
      "VARIABLE up IN 0 TO 15\nVARIABLE down IN 0 TO 15\n"
      "ON go\n"
      "  IF up < 15 THEN up <- up + 1;\n"
      "  IF down > 0 THEN down <- down - 1;\n"
      "END go");
  const auto inv = infer_conclusion_fcfbs(p, p.rule_base("go"));
  EXPECT_EQ(inv.count(FcfbKind::ConditionalIncrement), 1);
  EXPECT_EQ(inv.count(FcfbKind::Decrementer), 1);
  EXPECT_EQ(inv.count(FcfbKind::Adder), 0);  // no general adder needed
}

TEST(Fcfb, MinSelectionAndMeshDistance) {
  const Program p = parse_program(
      "CONSTANT dirs = 4\n"
      "INPUT q(dirs) IN 0 TO 7\n"
      "INPUT xpos IN 0 TO 15\nINPUT ypos IN 0 TO 15\n"
      "INPUT xdes IN 0 TO 15\nINPUT ydes IN 0 TO 15\n"
      "VARIABLE best IN 0 TO 7\n"
      "ON go\n"
      "  IF EXISTS i IN dirs: (FORALL j IN dirs: q(i) <= q(j))\n"
      "     AND meshdist(xpos, ypos, xdes, ydes) > 2\n"
      "    THEN best <- min(q(0), 7);\n"
      "END go");
  const auto inv = infer_fcfbs(p, p.rule_base("go"));
  EXPECT_GE(inv.count(FcfbKind::MinimumSelection), 1);
  EXPECT_GE(inv.count(FcfbKind::MeshDistance), 1);
}

TEST(HwcostEval, PipelineDelayModel) {
  // Section 4.3: decision time = wiring (negligible) + two FCFB stages +
  // one table access.
  const Program p = parse_program(
      "VARIABLE n IN 0 TO 99\n"
      "ON go\n"
      "  IF n > 50 THEN n <- n - 1;\n"
      "END go");
  Interpreter interp(p);
  const auto c = compile_rule_base(p, p.rule_base("go"), interp);
  const double table_access = 2.0;
  EXPECT_DOUBLE_EQ(c.decision_delay_units(),
                   c.premise_fcfbs().max_delay() +
                       c.conclusion_fcfbs().max_delay() + table_access);
  EXPECT_GT(c.decision_delay_units(), table_access);
}

TEST(HwcostEval, Table1RenderContainsEveryRow) {
  const auto rep = flexrouter::hwcost::table1_nafta(8, 8);
  const std::string text = rep.render();
  for (const auto& row : rep.program.rule_bases)
    EXPECT_NE(text.find(row.name), std::string::npos) << row.name;
  EXPECT_NE(text.find("47 bits account for fault tolerance"),
            std::string::npos);
}

TEST(HwcostEval, Table1IsStableAcrossMeshSizes) {
  // Rule-base structure does not depend on the mesh size (only input
  // domains widen, which the atom encoding absorbs).
  const auto small = flexrouter::hwcost::table1_nafta(8, 8);
  const auto large = flexrouter::hwcost::table1_nafta(32, 32);
  const auto& s = small.program.rule_bases;
  const auto& l = large.program.rule_bases;
  ASSERT_EQ(s.size(), l.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].entries, l[i].entries) << s[i].name;
    EXPECT_EQ(s[i].in_nft, l[i].in_nft);
  }
}

TEST(HwcostEval, Table2ScalesOnlyWhereExpected) {
  const auto d4 = flexrouter::hwcost::table2_route_c(4, 2);
  const auto d8 = flexrouter::hwcost::table2_route_c(8, 2);
  auto entries = [](const flexrouter::hwcost::TableReport& r,
                    const std::string& n) -> std::uint64_t {
    for (const auto& row : r.program.rule_bases)
      if (row.name == n) return row.entries;
    return 0;
  };
  EXPECT_EQ(entries(d4, "decide_dir"), entries(d8, "decide_dir"));  // 512
  EXPECT_EQ(entries(d4, "decide_vc"), 16u);                         // 4d
  EXPECT_EQ(entries(d8, "decide_vc"), 32u);
}

TEST(HwcostEval, CombinedBlowupMonotoneInBothParameters) {
  using flexrouter::hwcost::combined_rulebase_bits;
  for (int d = 3; d < 10; ++d) {
    EXPECT_LT(combined_rulebase_bits(d, 2), combined_rulebase_bits(d + 1, 2));
    EXPECT_LT(combined_rulebase_bits(d, 1), combined_rulebase_bits(d, 2));
  }
  // The paper's instance: 1024 * 2^d * (d + 1 + a).
  EXPECT_EQ(combined_rulebase_bits(6, 2), 1024LL * 64 * 9);
}

TEST(HwcostEval, RegisterFormulaEdgeDimensions) {
  using namespace flexrouter::hwcost;
  EXPECT_EQ(route_c_register_formula(2), 15 * 2 + 2 * 1 + 3);
  EXPECT_EQ(route_c_register_formula(8), 15 * 8 + 2 * 3 + 3);
  EXPECT_EQ(route_c_register_measured(2, 2), route_c_register_formula(2));
  EXPECT_EQ(route_c_register_measured(16, 2), route_c_register_formula(16));
}

}  // namespace
}  // namespace flexrouter::rules
