// Tests for the rule-program static analyzer (rulelint).
//
// Strategy: the shipped corpus must lint clean under --werror semantics;
// then seeded mutants — one deliberate fault each, injected into a pristine
// corpus source by exact string surgery — must each be caught with the
// expected diagnostic class. The static certificate is additionally checked
// for agreement with the dynamic channel-dependency checker (`check_cdg`)
// on every corpus program that has a live twin and on the cyclic mutants.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "routing/cdg.hpp"
#include "routing/dor.hpp"
#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "routing/route_c.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleanalysis/corpus_lint.hpp"
#include "ruleengine/parser.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

using ruleanalysis::AnalysisReport;
using ruleanalysis::DiagClass;
using ruleanalysis::Finding;
using ruleanalysis::Severity;

/// Replace exactly one occurrence of `from` with `to`; the test fails if
/// the anchor text is missing or ambiguous, so mutations cannot rot
/// silently when the corpus is edited.
std::string mutate(std::string source, const std::string& from,
                   const std::string& to) {
  const auto pos = source.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor not found: " << from;
  EXPECT_EQ(source.find(from, pos + 1), std::string::npos)
      << "mutation anchor ambiguous: " << from;
  if (pos == std::string::npos) return source;
  source.replace(pos, from.size(), to);
  return source;
}

int count_class(const AnalysisReport& rep, DiagClass cls) {
  int n = 0;
  for (const Finding& f : rep.findings)
    if (f.cls == cls) ++n;
  return n;
}

const Finding* find_class(const AnalysisReport& rep, DiagClass cls) {
  for (const Finding& f : rep.findings)
    if (f.cls == cls) return &f;
  return nullptr;
}

AnalysisReport lint(const std::string& source) {
  return ruleanalysis::lint_source(source);
}

// ------------------------------------------------------------ corpus gate

TEST(RulelintCorpus, EveryShippedProgramIsCleanUnderWerror) {
  const auto result = ruleanalysis::lint_corpus();
  EXPECT_TRUE(result.clean(/*werror=*/true)) << result.to_string();
  // All four runnable-program certificates plus the accounting corpora.
  EXPECT_EQ(result.reports.size(), 8u);
}

TEST(RulelintCorpus, DeadlockCertificatesCoverEveryModeledProgram) {
  // Exact verdict, channel, edge and decision figures per report. The
  // decision count includes the arrival states the closure decides, so on
  // the healthy fabric it equals the baseline pinned in
  // FaultCertCorpus.OneFaultCertificatesArePinned.
  const char* const want[] = {
      "deadlock certificate: acyclic, 448 channels, 680 edges, 8416 decisions",
      "deadlock certificate: acyclic, 24 channels, 24 edges, 88 decisions",
      "deadlock certificate: acyclic, 144 channels, 120 edges, 672 decisions",
      "deadlock certificate: acyclic, 96 channels, 120 edges, 560 decisions",
      "deadlock certificate: acyclic, 96 channels, 120 edges, 560 decisions",
      "deadlock certificate: acyclic, 48 channels, 36 edges, 112 decisions",
      "deadlock certificate: acyclic, 48 channels, 36 edges, 112 decisions",
      "deadlock certificate (1 link + 1 node fault): acyclic, 114 channels, "
      "104 edges, 588 decisions",
  };
  const auto result = ruleanalysis::lint_corpus();
  ASSERT_EQ(result.reports.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const AnalysisReport& rep = result.reports[i];
    SCOPED_TRACE(rep.program);
    ASSERT_FALSE(rep.info.empty());
    EXPECT_EQ(rep.info.back(), want[i]);
  }
}

TEST(RulelintCorpus, RouteCExcludedClassesAreReportedNotSilent) {
  // The certifier covers ROUTE_C's ascending/descending classes; the
  // escape and misroute classes fall outside the VC mapping and must be
  // called out rather than silently dropped.
  const auto rep = lint(rulebases::route_c_program_source(3, 2));
  const Finding* f = find_class(rep, DiagClass::DeadlockUnmodeled);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("classes"), std::string::npos);
  EXPECT_EQ(f->severity, Severity::Note);
}

// --------------------------------------------------- seeded mutants (>=10)

// Mutant 1: syntax damage -> invalid-program error.
TEST(RulelintMutants, UnterminatedRuleBaseIsInvalidProgram) {
  const auto rep = lint(
      mutate(rulebases::nara_route_source(4, 4), "END route;\n", ""));
  const Finding* f = find_class(rep, DiagClass::InvalidProgram);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  EXPECT_FALSE(rep.clean(/*werror=*/false));
}

// Mutant 2: undeclared register -> invalid-program error (validation).
TEST(RulelintMutants, UndeclaredNameIsInvalidProgram) {
  const auto rep = lint(mutate(rulebases::nara_route_source(4, 4),
                               "THEN !cand(0, in_vc, 0);",
                               "THEN !cand(0, ghost_vc, 0);"));
  const Finding* f = find_class(rep, DiagClass::InvalidProgram);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
}

// Mutant 3: dropped local-delivery rule -> completeness gap, and arrivals
// the certificate's closure reaches are never consumed.
TEST(RulelintMutants, DroppedDeliveryRuleIsIncomplete) {
  ASSERT_EQ(count_class(lint(rulebases::nara_route_source(4, 4)),
                        DiagClass::Incomplete),
            0);
  const auto rep = lint(
      mutate(rulebases::nara_route_source(4, 4),
             "  IF ypos = ydes AND xpos = xdes THEN !cand(4, 0, 0);\n", ""));
  const Finding* f = find_class(rep, DiagClass::Incomplete);
  ASSERT_NE(f, nullptr);
  // The witness names the uncovered abstract state.
  EXPECT_NE(f->witness.find("xpos"), std::string::npos);
  ASSERT_FALSE(rep.bases.empty());
  EXPECT_GT(rep.bases[0].gap_states, 0u);

  const Finding* hole = find_class(rep, DiagClass::Blackhole);
  ASSERT_NE(hole, nullptr);
  EXPECT_EQ(hole->severity, Severity::Error);
  EXPECT_NE(hole->witness.find("not consumed by any delivery rule"),
            std::string::npos)
      << hole->witness;
  EXPECT_FALSE(rep.clean(/*werror=*/false));
}

// Mutant 4: dropped x-aligned northbound case -> a different gap.
TEST(RulelintMutants, DroppedAxisCaseIsIncomplete) {
  const auto rep = lint(mutate(
      rulebases::nara_route_source(4, 4),
      "  IF ypos < ydes AND xpos = xdes THEN !cand(2, 1, 0);\n", ""));
  EXPECT_GE(count_class(rep, DiagClass::Incomplete), 1);
}

// Mutant 5: widened premise swallows a later rule -> shadowed rule.
TEST(RulelintMutants, WidenedPremiseShadowsLaterRule) {
  const auto rep = lint(mutate(rulebases::nara_route_source(4, 4),
                               "IF ypos < ydes AND xpos > xdes THEN",
                               "IF ypos < ydes THEN"));
  const Finding* f = find_class(rep, DiagClass::ShadowedRule);
  ASSERT_NE(f, nullptr);
  // The input space is exact, so the verdict is a proof -> warning.
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->rule_index, 2);  // "ypos < ydes AND xpos = xdes" is dead code
  EXPECT_FALSE(rep.clean(/*werror=*/true));
}

// Mutant 6: duplicated rule -> the copy is shadowed by the original.
TEST(RulelintMutants, DuplicatedRuleIsShadowed) {
  const std::string line =
      "  IF ypos = ydes AND xpos = xdes THEN !cand(4, 0, 0);\n";
  const auto rep =
      lint(mutate(rulebases::nara_route_source(4, 4), line, line + line));
  const Finding* f = find_class(rep, DiagClass::ShadowedRule);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("rule #10"), std::string::npos);
}

// Mutant 7: contradictory premise -> dead rule.
TEST(RulelintMutants, ContradictoryPremiseIsDeadRule) {
  const auto rep = lint(mutate(
      rulebases::nara_route_source(4, 4),
      "IF ypos < ydes AND xpos = xdes THEN !cand(2, 1, 0);",
      "IF ypos < ydes AND ypos > ydes THEN !cand(2, 1, 0);"));
  const Finding* f = find_class(rep, DiagClass::DeadRule);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->rule_index, 2);
}

// Mutant 8: widened guard lets a counter leave its declared width.
TEST(RulelintMutants, WidenedGuardOverflowsRegister) {
  ASSERT_EQ(count_class(lint(rulebases::nafta_program_source(4, 4)),
                        DiagClass::RangeOverflow),
            0);
  // fault_count is 5 bits (0..31); "< 2" guards the increment. Flipping
  // the comparison admits fault_count = 31, where +1 assigns 32.
  const auto rep = lint(mutate(rulebases::nafta_program_source(4, 4),
                               "IF fault_count < 2\n",
                               "IF fault_count > 2\n"));
  const Finding* f = find_class(rep, DiagClass::RangeOverflow);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->rule_base, "consider_neighbor_state");
  EXPECT_NE(f->witness.find("fault_count=31"), std::string::npos);
}

// Mutant 9: computed store index exceeds the array bound.
TEST(RulelintMutants, ComputedIndexOverflowsArray) {
  // dir_state has 4 entries; fault_count + 3 reaches 4 under the < 2 guard.
  const auto rep = lint(mutate(
      rulebases::nafta_program_source(4, 4),
      "THEN fault_count <- fault_count + 1, dir_state(0) <- nb_state;",
      "THEN fault_count <- fault_count + 1,"
      " dir_state(fault_count + 3) <- nb_state;"));
  const Finding* f = find_class(rep, DiagClass::IndexOverflow);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("dir_state"), std::string::npos);
}

// Mutant 10: sideways candidates on the southbound network close a
// dependency cycle (east at x = xdes flips the sign, west flips it back).
TEST(RulelintMutants, SidewaysCandidatesAreACertifiedDeadlock) {
  const std::string mutant = mutate(
      rulebases::nara_route_source(4, 4),
      "IF ypos > ydes AND xpos = xdes THEN !cand(3, 0, 0);",
      "IF ypos > ydes AND xpos = xdes"
      " THEN !cand(3, 0, 0), !cand(0, 0, 0), !cand(1, 0, 0);");
  const auto rep = lint(mutant);
  const Finding* f = find_class(rep, DiagClass::DeadlockCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  // The graph and its witness cycle, in channel notation.
  EXPECT_EQ(f->message,
            "channel-dependency cycle under no faults (96 channels, 138 "
            "edges)");
  EXPECT_EQ(f->witness, "(6:0/0) -> (7:1/0) -> (6:0/0)");
  ASSERT_FALSE(rep.info.empty());
  EXPECT_EQ(rep.info.back(),
            "deadlock certificate: CYCLIC, 96 channels, 138 edges, "
            "518 decisions");
  EXPECT_FALSE(rep.clean(/*werror=*/false));

  // The dynamic checker agrees: the same program driving a live router
  // yields a cyclic channel-dependency graph.
  Mesh m = Mesh::two_d(4, 4);
  FaultSet faults(m);
  RuleDrivenRouting algo(mutant, 2, rules::ExecMode::Interpret);
  algo.attach(m, faults);
  EXPECT_FALSE(check_full_cdg(m, faults, algo).acyclic);
}

// Mutant 11: letting the e-cube correct a not-yet-due dimension breaks the
// dimension order -> two-channel cycle, caught statically and dynamically.
TEST(RulelintMutants, BrokenDimensionOrderIsACertifiedDeadlock) {
  const std::string mutant =
      mutate(rulebases::ecube_route_source(3),
             "IF bit(xor(node, dest), 0) = 1 THEN !cand(0, 0, 0);",
             "IF bit(xor(node, dest), 0) = 1"
             " THEN !cand(0, 0, 0), !cand(1, 0, 0);");
  const auto rep = lint(mutant);
  const Finding* f = find_class(rep, DiagClass::DeadlockCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  EXPECT_EQ(f->message,
            "channel-dependency cycle under no faults (24 channels, 40 "
            "edges)");
  EXPECT_EQ(f->witness,
            "(0:0/0) -> (1:1/0) -> (3:0/0) -> (2:1/0) -> (0:0/0)");
  ASSERT_FALSE(rep.info.empty());
  EXPECT_EQ(rep.info.back(),
            "deadlock certificate: CYCLIC, 24 channels, 40 edges, "
            "120 decisions");

  Hypercube h(3);
  FaultSet faults(h);
  RuleDrivenRouting algo(mutant, 1, rules::ExecMode::Interpret);
  algo.attach(h, faults);
  EXPECT_FALSE(check_full_cdg(h, faults, algo).acyclic);
}

// Mutant 12: an input space too wide to reduce -> state-blowup note, not a
// hang and not a bogus verdict.
TEST(RulelintMutants, IrreducibleInputSpaceReportsBlowup) {
  std::string src = "PROGRAM blowup;\n";
  for (int i = 0; i < 13; ++i)
    src += "INPUT w" + std::to_string(i) + " IN 0 TO 1000000\n";
  src += "ON act\n  IF w0 = 0";
  for (int i = 1; i < 13; ++i) src += " AND w" + std::to_string(i) + " = 0";
  src += " THEN !go(0);\nEND act;\n";
  const auto rep = lint(src);
  const Finding* f = find_class(rep, DiagClass::StateBlowup);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Note);
}

// ------------------------------------- static vs dynamic CDG agreement

/// One static-vs-dynamic agreement row: a corpus program, the live
/// algorithm that must agree with its certificate, the fabric and the
/// fault set both are checked under.
struct AgreementRow {
  const char* name;
  std::string source;
  const Topology* topo;
  std::function<std::unique_ptr<RoutingAlgorithm>()> live;
  ruleanalysis::FaultPattern faults;
};

TEST(RulelintAgreement, StaticCertificatesMatchLiveTwins) {
  const Mesh mesh = Mesh::two_d(4, 4);
  const Hypercube cube(3);
  const std::string nara_rules = rulebases::nara_route_source(4, 4);
  const std::string ft_mesh = rulebases::ft_mesh_route_source(4, 4);
  // The faulted row of the lint corpus: one link and one node.
  ruleanalysis::FaultPattern link_and_node;
  link_and_node.links.push_back({mesh.at(1, 1), /*port=*/0});
  link_and_node.nodes.push_back(mesh.at(2, 2));

  const AgreementRow rows[] = {
      {"nara_rules", nara_rules, &mesh,
       [&] {
         return std::make_unique<RuleDrivenRouting>(
             nara_rules, 2, rules::ExecMode::Interpret);
       },
       {}},
      {"ecube_rules", rulebases::ecube_route_source(3), &cube,
       [] { return std::make_unique<ECubeHypercube>(); }, {}},
      {"ft_mesh_rules", ft_mesh, &mesh,
       [&] {
         return std::make_unique<RuleDrivenRouting>(
             ft_mesh, 3, rules::ExecMode::Interpret, "route",
             /*escape_vc=*/2);
       },
       link_and_node},
      {"nafta", rulebases::nafta_program_source(4, 4), &mesh,
       [] { return std::make_unique<Nafta>(); }, {}},
      {"nara", rulebases::nara_program_source(4, 4), &mesh,
       [] { return std::make_unique<Nara>(); }, {}},
      {"route_c_nft", rulebases::route_c_nft_program_source(3, 2), &cube,
       [] { return std::make_unique<StrippedRouteC>(); }, {}},
  };
  for (const AgreementRow& row : rows) {
    SCOPED_TRACE(row.name);
    const auto prog = rules::parse_program(row.source);
    const auto model = ruleanalysis::model_for(prog);
    ASSERT_TRUE(model.has_value());
    const auto cert =
        ruleanalysis::certify_fault_set(prog, *model, *row.topo, row.faults);
    EXPECT_TRUE(cert.modeled);
    EXPECT_TRUE(cert.cdg.acyclic) << cert.cdg.to_string();

    const FaultSet faults = row.faults.to_fault_set(*row.topo);
    const std::unique_ptr<RoutingAlgorithm> live = row.live();
    live->attach(*row.topo, faults);
    if (!row.faults.empty()) live->reconfigure();
    EXPECT_EQ(cert.cdg.acyclic,
              check_full_cdg(*row.topo, faults, *live).acyclic);
  }
}

TEST(RulelintAgreement, FaultedOrbitSampleMatchesDynamicCdg) {
  // The k = 1 certifier and the live channel-dependency checker must agree
  // on acyclicity over faulted orbits: the static certificate reports zero
  // deadlock failures across every k = 1 orbit, so a live router rebuilt
  // under each sampled fault pattern must present an acyclic CDG too.
  const std::string src = rulebases::ft_mesh_route_source(4, 4);
  const auto report = ruleanalysis::fault_cert_source(src);
  ASSERT_TRUE(report.has_value());
  for (const auto& regime : report->regimes)
    EXPECT_EQ(regime.deadlock_failures, 0u) << regime.name;

  Mesh m = Mesh::two_d(4, 4);
  std::vector<ruleanalysis::FaultPattern> sample = report->certified_samples;
  ruleanalysis::FaultPattern corner, interior;
  corner.nodes.push_back(m.at(0, 0));
  interior.nodes.push_back(m.at(1, 2));
  sample.push_back(corner);
  sample.push_back(interior);
  ASSERT_GT(sample.size(), 2u);
  for (const auto& pattern : sample) {
    const FaultSet faults = pattern.to_fault_set(m);
    RuleDrivenRouting algo(src, 3, rules::ExecMode::Interpret, "route",
                           /*escape_vc=*/2);
    algo.attach(m, faults);
    algo.reconfigure();
    EXPECT_TRUE(check_full_cdg(m, faults, algo).acyclic)
        << "dynamic CDG cyclic under " << pattern.to_string();
  }
}

// ------------------------------------- the model is the program's own

std::string read_testdata(const std::string& file) {
  std::ifstream in(std::string(FLEXROUTER_TESTDATA) + "/" + file);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `text` with every `from` replaced by `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (auto pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size()))
    text.replace(pos, from.size(), to);
  return text;
}

void expect_same_model(const ruleanalysis::DeadlockModel& got,
                       const ruleanalysis::DeadlockModel& want) {
  EXPECT_EQ(got.route_base, want.route_base);
  EXPECT_EQ(got.style, want.style);
  EXPECT_EQ(got.injection, want.injection);
  EXPECT_EQ(got.num_vcs, want.num_vcs);
  EXPECT_EQ(got.escape_vc, want.escape_vc);
  EXPECT_EQ(got.class_vcs, want.class_vcs);
  EXPECT_EQ(got.fault_tolerance, want.fault_tolerance);
  EXPECT_EQ(got.ft_route_base, want.ft_route_base);
}

// ft_mesh_rules under another name certifies exactly as the original: every
// certificate byte apart from the program name.
TEST(HostModel, RenamedProgramCertifiesIdentically) {
  const std::string original = rulebases::ft_mesh_route_source(4, 4);
  const std::string renamed = read_testdata("renamed_ft_mesh.rules");
  // The fixture is the corpus program with only its PROGRAM line changed.
  ASSERT_EQ(renamed, mutate(original, "PROGRAM ft_mesh_rules;",
                            "PROGRAM my_ft_mesh;"));
  const rules::Program p0 = rules::parse_program(original);
  const rules::Program p1 = rules::parse_program(renamed);
  const auto m0 = ruleanalysis::model_for(p0);
  const auto m1 = ruleanalysis::model_for(p1);
  ASSERT_TRUE(m0.has_value() && m1.has_value());
  expect_same_model(*m1, *m0);
  EXPECT_EQ(m1->escape_vc, 2);
  EXPECT_EQ(m1->fault_tolerance, 2);

  const Mesh mesh = Mesh::two_d(4, 4);
  ruleanalysis::FaultPattern link_and_node;
  link_and_node.links.push_back({mesh.at(1, 1), /*port=*/0});
  link_and_node.nodes.push_back(mesh.at(2, 2));
  for (const ruleanalysis::FaultPattern& pattern :
       {ruleanalysis::FaultPattern{}, link_and_node}) {
    SCOPED_TRACE(pattern.to_string());
    const auto c0 = ruleanalysis::certify_fault_set(p0, *m0, mesh, pattern);
    const auto c1 = ruleanalysis::certify_fault_set(p1, *m1, mesh, pattern);
    EXPECT_EQ(c1.cdg.to_string(), c0.cdg.to_string());
    EXPECT_EQ(c1.decisions, c0.decisions);
    EXPECT_EQ(c1.connected, c0.connected);
    EXPECT_EQ(c1.progress, c0.progress);
    EXPECT_EQ(c1.modeled, c0.modeled);
    ASSERT_EQ(c1.findings.size(), c0.findings.size());
    for (std::size_t i = 0; i < c0.findings.size(); ++i)
      EXPECT_EQ(c1.findings[i].to_string(), c0.findings[i].to_string());
  }

  ruleanalysis::FaultCertOptions opts;
  opts.max_faults = 1;
  const auto r0 = ruleanalysis::certify_faults(p0, *m0, mesh, opts);
  const auto r1 = ruleanalysis::certify_faults(p1, *m1, mesh, opts);
  EXPECT_TRUE(r1.certified);
  EXPECT_EQ(replace_all(r1.to_string(), "my_ft_mesh", "ft_mesh_rules"),
            r0.to_string());
}

// A NARA program named `nafta` gets the model its own text states, not
// NAFTA's: its !cand route base, no fault-mode companion, no claim.
TEST(HostModel, ProgramNameSelectsNoModel) {
  const std::string impostor = read_testdata("impostor_nafta.rules");
  ASSERT_EQ(impostor, mutate(rulebases::nara_route_source(4, 4),
                             "PROGRAM nara_rules;", "PROGRAM nafta;"));
  const auto m = ruleanalysis::model_for(rules::parse_program(impostor));
  const auto nara = ruleanalysis::model_for(
      rules::parse_program(rulebases::nara_route_source(4, 4)));
  ASSERT_TRUE(m.has_value() && nara.has_value());
  expect_same_model(*m, *nara);
  EXPECT_EQ(m->route_base, "route");
  EXPECT_EQ(m->fault_tolerance, 0);
  EXPECT_TRUE(m->ft_route_base.empty());

  // The real NAFTA states its companion base, injection rule and claim.
  const auto nafta = ruleanalysis::model_for(
      rules::parse_program(rulebases::nafta_program_source(4, 4)));
  ASSERT_TRUE(nafta.has_value());
  EXPECT_EQ(nafta->style, ruleanalysis::DecisionStyle::ReturnPort);
  EXPECT_EQ(nafta->route_base, "incoming_message");
  EXPECT_EQ(nafta->ft_route_base, "in_message_ft");
  EXPECT_EQ(nafta->injection, ruleanalysis::InjectionVcs::BySignDy);
  EXPECT_EQ(nafta->num_vcs, 2);
  EXPECT_EQ(nafta->fault_tolerance, 1);

  // A declared escape VC outside the program's VCs certifies nothing.
  const auto bad_escape = ruleanalysis::fault_cert_source(
      mutate(rulebases::ft_mesh_route_source(4, 4), "CONSTANT escape_vc = 2",
             "CONSTANT escape_vc = 3"));
  ASSERT_TRUE(bad_escape.has_value());
  EXPECT_FALSE(bad_escape->certified);
  EXPECT_EQ(bad_escape->stats.members_checked, 0u);

  // ROUTE_C's classes 0/1 take VCs 0/1; the rest stay excluded.
  const auto route_c = ruleanalysis::model_for(
      rules::parse_program(rulebases::route_c_program_source(3, 2)));
  ASSERT_TRUE(route_c.has_value());
  EXPECT_EQ(route_c->style, ruleanalysis::DecisionStyle::DirsetMask);
  EXPECT_EQ(route_c->route_base, "decide_dir");
  EXPECT_EQ(route_c->class_vcs, (std::map<std::int64_t, int>{{0, 0}, {1, 1}}));
}

}  // namespace
}  // namespace flexrouter
