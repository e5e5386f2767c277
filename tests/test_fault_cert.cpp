// Tests for the exhaustive bounded-fault certification engine
// (rulelint --faults).
//
// Strategy mirrors the rulelint suite: the shipped corpus must certify
// clean at k = 1 with warnings-as-errors — fault-tolerant programs within
// their claims, fault-oblivious ones degrading to note-level findings
// only — and seeded fault-intolerance mutants must each FAIL the k = 1
// certificate with a concrete witness fault set. The loop is then closed
// dynamically: a mutant's witness pattern struck mid-run through the
// fault schedule loses traffic, while the pristine program delivers under
// the same strike, and certified-safe sample patterns keep a live run
// fully delivering.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "rulebases/corpus.hpp"
#include "ruleanalysis/corpus_lint.hpp"
#include "sim/witness_replay.hpp"

namespace flexrouter {
namespace {

using ruleanalysis::DiagClass;
using ruleanalysis::FaultCertOptions;
using ruleanalysis::FaultCertReport;
using ruleanalysis::FaultPattern;
using ruleanalysis::Finding;
using ruleanalysis::RegimeSummary;
using ruleanalysis::Severity;

/// Replace exactly one occurrence of `from` with `to`; fails the test when
/// the anchor is missing or ambiguous so mutations cannot rot silently.
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

/// The k = 1 corpus certification, computed once for the whole suite.
const ruleanalysis::FaultCertCorpusResult& corpus_k1() {
  static const auto result = ruleanalysis::fault_cert_corpus();
  return result;
}

const FaultCertReport* report_for(const std::string& program) {
  for (const FaultCertReport& r : corpus_k1().reports)
    if (r.program == program) return &r;
  return nullptr;
}

const Finding* find_error(const FaultCertReport& rep, DiagClass cls) {
  for (const Finding& f : rep.findings)
    if (f.cls == cls && f.severity == Severity::Error) return &f;
  return nullptr;
}

// ---------------------------------------------------------- corpus gate

TEST(FaultCertCorpus, EveryShippedProgramCertifiesOneFault) {
  const auto& result = corpus_k1();
  EXPECT_EQ(result.reports.size(), 7u);
  EXPECT_TRUE(result.clean(/*werror=*/true)) << result.to_string();
  for (const FaultCertReport& r : result.reports)
    EXPECT_TRUE(r.certified) << r.to_string();
}

TEST(FaultCertCorpus, FaultTolerantProgramsCertifyWithinClaim) {
  const FaultCertReport* ft = report_for("ft_mesh_rules");
  ASSERT_NE(ft, nullptr);
  EXPECT_EQ(ft->fault_tolerance, 2);
  for (const RegimeSummary& r : ft->regimes)
    EXPECT_TRUE(r.certified()) << ft->program << " regime " << r.name;

  const FaultCertReport* nafta = report_for("nafta");
  ASSERT_NE(nafta, nullptr);
  EXPECT_EQ(nafta->fault_tolerance, 1);
  for (const RegimeSummary& r : nafta->regimes)
    EXPECT_TRUE(r.certified()) << nafta->program << " regime " << r.name;
}

TEST(FaultCertCorpus, FaultObliviousProgramsDegradeToNotesOnly) {
  // nara_rules claims no fault tolerance: faults outside the claim may
  // break connectivity, but only as note-level findings — the regime
  // counters still record every failing orbit honestly.
  const FaultCertReport* nara = report_for("nara_rules");
  ASSERT_NE(nara, nullptr);
  EXPECT_EQ(nara->fault_tolerance, 0);
  EXPECT_TRUE(nara->certified);
  std::uint64_t conn = 0;
  for (const RegimeSummary& r : nara->regimes) {
    conn += r.connectivity_failures;
    EXPECT_EQ(r.deadlock_failures, 0u) << r.name;
    EXPECT_EQ(r.progress_failures, 0u) << r.name;
  }
  EXPECT_GT(conn, 0u);
  for (const Finding& f : nara->findings)
    EXPECT_NE(f.severity, Severity::Error) << f.message;
}

TEST(FaultCertCorpus, SymmetryReductionIsEffective) {
  // 4x4 / 8x8 meshes keep the axis reflections (the diagonal is not a
  // program symmetry of x-then-y routing): order 4. The e-cube keeps the
  // bit translations: order 2^3.
  const FaultCertReport* ft = report_for("ft_mesh_rules");
  ASSERT_NE(ft, nullptr);
  EXPECT_EQ(ft->group_order, 4u);
  EXPECT_TRUE(ft->group_complete);
  EXPECT_GT(ft->reduction_factor, 3.0);
  EXPECT_GT(ft->raw_fault_sets, ft->orbit_count);

  const FaultCertReport* ecube = report_for("ecube_rules");
  ASSERT_NE(ecube, nullptr);
  EXPECT_EQ(ecube->group_order, 8u);
  EXPECT_GT(ecube->reduction_factor, 3.0);
}

TEST(FaultCertCorpus, BaselineReuseDominatesRecheckCost) {
  // nara_rules reads no fault-sensitive inputs: every faulted orbit must
  // revalidate its entire enumeration from the healthy baseline without a
  // single fresh decision.
  const FaultCertReport* nara = report_for("nara_rules");
  ASSERT_NE(nara, nullptr);
  EXPECT_EQ(nara->stats.decisions_evaluated, nara->stats.baseline_decisions);
  EXPECT_GT(nara->stats.decisions_reused, nara->stats.baseline_decisions);

  // ft_mesh reads link_ok/escape inputs, so faulted orbits re-enumerate
  // the touched premise points — but reuse still dominates.
  const FaultCertReport* ft = report_for("ft_mesh_rules");
  ASSERT_NE(ft, nullptr);
  EXPECT_GT(ft->stats.decisions_evaluated, ft->stats.baseline_decisions);
  EXPECT_GT(ft->stats.decisions_reused, ft->stats.decisions_evaluated);
}

TEST(FaultCertCorpus, WitnessesNameTheFaultSetAndElideLongLists) {
  // Satellite: connectivity witnesses carry the concrete fault set and cap
  // the per-set state list at max_witnesses_per_fault_set with "+M more".
  const FaultCertReport* nara = report_for("nara_rules");
  ASSERT_NE(nara, nullptr);
  bool saw_fault_set = false;
  bool saw_elision = false;
  for (const Finding& f : nara->findings) {
    if (f.cls != DiagClass::Blackhole) continue;
    if (f.message.find("faults={") != std::string::npos) saw_fault_set = true;
    if (f.witness.find("more)") != std::string::npos) saw_elision = true;
  }
  EXPECT_TRUE(saw_fault_set);
  EXPECT_TRUE(saw_elision);
}

/// FNV-1a over the report text: a compact pin for the certificate bytes.
std::uint64_t text_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FaultCertCorpus, OneFaultCertificatesArePinned) {
  // Exact k = 1 figures per program: how much was enumerated fresh, how
  // much revalidated from the healthy baseline, the baseline size, the
  // orbit and member counts, and a hash of the whole certificate text. Any
  // change to what the certifier computes or prints moves one of them.
  struct Pin {
    const char* program;
    std::uint64_t evaluated, reused, baseline, orbits, members, text;
  };
  const Pin pins[] = {
      {"nara_rules", 8416, 547808, 8416, 69, 69, 0x57c4c611e528b5f0ULL},
      {"ecube_rules", 88, 450, 88, 9, 9, 0x11cce51000503c4dULL},
      {"ft_mesh_rules", 1566, 9650, 672, 19, 19, 0xe8a350597f23a4e9ULL},
      {"nafta", 2048, 7336, 560, 19, 19, 0xa3bcb1141ba9121dULL},
      {"nara", 560, 8824, 560, 19, 19, 0x33c69d9781f57288ULL},
      {"route_c", 112, 1007, 112, 14, 14, 0xe1371a25dbfa3085ULL},
      {"route_c_nft", 112, 1007, 112, 14, 14, 0x2c843f75a234ec63ULL},
  };
  ASSERT_EQ(corpus_k1().reports.size(), std::size(pins));
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.program);
    const FaultCertReport* r = report_for(pin.program);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->stats.decisions_evaluated, pin.evaluated);
    EXPECT_EQ(r->stats.decisions_reused, pin.reused);
    EXPECT_EQ(r->stats.baseline_decisions, pin.baseline);
    EXPECT_EQ(r->stats.orbits_checked, pin.orbits);
    EXPECT_EQ(r->orbit_count, pin.orbits);
    EXPECT_EQ(r->stats.members_checked, pin.members);
    EXPECT_EQ(text_hash(r->to_string()), pin.text) << r->to_string();
  }
}

// ------------------------------------------------------- bounds + options

TEST(FaultCert, HealthyOnlyBoundChecksExactlyOneSet) {
  FaultCertOptions opts;
  opts.max_faults = 0;
  opts.correlated = false;
  const auto rep = ruleanalysis::fault_cert_source(
      rulebases::ft_mesh_route_source(4, 4), opts);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->certified) << rep->to_string();
  EXPECT_EQ(rep->raw_fault_sets, 1u);
  ASSERT_EQ(rep->regimes.size(), 1u);
  EXPECT_EQ(rep->regimes[0].name, "k=0");
}

TEST(FaultCert, TwoFaultCertificationOfFtMesh) {
  // The program claims tolerance 2: every pair of link/node faults must
  // certify, C(24 + 16, 2) = 780 raw pairs orbit-reduced.
  FaultCertOptions opts;
  opts.max_faults = 2;
  opts.correlated = false;
  const auto rep = ruleanalysis::fault_cert_source(
      rulebases::ft_mesh_route_source(4, 4), opts);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(rep->certified) << rep->to_string();
  const RegimeSummary* k2 = nullptr;
  for (const RegimeSummary& r : rep->regimes)
    if (r.name == "k=2") k2 = &r;
  ASSERT_NE(k2, nullptr);
  EXPECT_EQ(k2->raw_sets, 780u);
  EXPECT_TRUE(k2->certified());
  EXPECT_GT(k2->raw_sets, k2->orbits);
}

TEST(FaultCert, ReportIsDeterministicAcrossThreadCounts) {
  const std::string src = rulebases::ft_mesh_route_source(4, 4);
  FaultCertOptions opts;
  opts.num_threads = 1;
  const auto serial = ruleanalysis::fault_cert_source(src, opts);
  opts.num_threads = 3;
  const auto parallel = ruleanalysis::fault_cert_source(src, opts);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(serial->to_string(), parallel->to_string());
}

// -------------------------------------------- fault-intolerance mutants

/// ft_mesh with the escape-entry rule deleted: the moment every minimal
/// link of a header is broken there is nowhere left to go.
std::string ft_mesh_without_escape_entry() {
  return mutate(rulebases::ft_mesh_route_source(4, 4),
                "  IF escape_ok = 1 THEN !cand(escape_port, 2, 0);\n", "");
}

TEST(FaultCertMutants, DeletedEscapeEntryFailsOneFaultCert) {
  const auto rep =
      ruleanalysis::fault_cert_source(ft_mesh_without_escape_entry());
  ASSERT_TRUE(rep.has_value());
  EXPECT_FALSE(rep->certified);
  EXPECT_FALSE(rep->clean(/*werror=*/false));
  const Finding* f = find_error(*rep, DiagClass::Blackhole);
  ASSERT_NE(f, nullptr) << rep->to_string();
  // The witness names the concrete fault set inside the claim.
  EXPECT_NE(f->message.find("faults={"), std::string::npos) << f->message;
  EXPECT_FALSE(rep->failing_sets.empty());
}

TEST(FaultCertMutants, InjectedOnlyEscapeStrandsInFlightHeaders) {
  // Narrowing the escape entry to freshly injected headers dead-ends every
  // in-flight header whose minimal links broke under it.
  const std::string mutant =
      mutate(rulebases::ft_mesh_route_source(4, 4),
             "  IF escape_ok = 1 THEN !cand(escape_port, 2, 0);",
             "  IF escape_ok = 1 AND injected = 1"
             " THEN !cand(escape_port, 2, 0);");
  const auto rep = ruleanalysis::fault_cert_source(mutant);
  ASSERT_TRUE(rep.has_value());
  EXPECT_FALSE(rep->certified);
  EXPECT_NE(find_error(*rep, DiagClass::Blackhole), nullptr)
      << rep->to_string();
}

TEST(FaultCertMutants, NaftaWithNarrowedFtRulesFailsOneFaultCert) {
  // Chained mutation disabling the east/west/south fault-mode outputs: the
  // surviving north rule cannot rescue a header whose own north link broke.
  std::string mutant = rulebases::nafta_program_source(4, 4);
  mutant = mutate(mutant,
                  "  IF deadend(0) = 0 AND link_fault(0) = 0"
                  " THEN RETURN(east),\n"
                  "      fault_count <- min(fault_count, 31);\n",
                  "");
  mutant = mutate(
      mutant, "  IF deadend(1) = 0 AND link_fault(1) = 0 THEN RETURN(west);\n",
      "");
  mutant = mutate(
      mutant, "  IF deadend(3) = 0 AND link_fault(3) = 0 THEN RETURN(south);\n",
      "");
  const auto rep = ruleanalysis::fault_cert_source(mutant);
  ASSERT_TRUE(rep.has_value());
  EXPECT_FALSE(rep->certified) << rep->to_string();
  const Finding* f = find_error(*rep, DiagClass::Blackhole);
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(rep->failing_sets.empty());
  // A single-fault witness: this program claims tolerance 1.
  EXPECT_EQ(rep->failing_sets.front().elements(), 1u);
}

// -------------------------------------- dynamic witness cross-validation

TEST(FaultCertDynamic, MutantWitnessFailsLiveAndPristineSurvivesIt) {
  const std::string mutant = ft_mesh_without_escape_entry();
  const auto rep = ruleanalysis::fault_cert_source(mutant);
  ASSERT_TRUE(rep.has_value());
  // Node-fault replays retire traffic terminating at the dead router by
  // design; cross-validate with a link-only witness.
  const FaultPattern* witness = nullptr;
  for (const FaultPattern& p : rep->failing_sets)
    if (p.nodes.empty() && !p.links.empty()) witness = &p;
  ASSERT_NE(witness, nullptr) << rep->to_string();

  const auto broken = replay_fault_pattern(mutant, *witness);
  EXPECT_TRUE(broken.failure) << broken.summary;

  const auto pristine =
      replay_fault_pattern(rulebases::ft_mesh_route_source(4, 4), *witness);
  EXPECT_FALSE(pristine.failure) << pristine.summary;
}

TEST(FaultCertDynamic, CertifiedSamplePatternsDeliverLive) {
  const FaultCertReport* ft = report_for("ft_mesh_rules");
  ASSERT_NE(ft, nullptr);
  ASSERT_FALSE(ft->certified_samples.empty());
  for (const FaultPattern& p : ft->certified_samples) {
    const auto res =
        replay_fault_pattern(rulebases::ft_mesh_route_source(4, 4), p);
    EXPECT_FALSE(res.failure) << res.summary;
  }
}

}  // namespace
}  // namespace flexrouter
