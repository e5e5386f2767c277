// rulelint driver: run the full static-analysis pipeline (parse, validate,
// abstract interpretation, deadlock certification) over one source text or
// over the whole rule-base corpus. Shared by the tools/rulelint CLI, the
// rulelint_corpus ctest and the mutation tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ruleanalysis/analyzer.hpp"
#include "ruleanalysis/deadlock.hpp"
#include "ruleanalysis/fault_cert.hpp"

namespace flexrouter::ruleanalysis {

struct CorpusLintOptions {
  AnalysisOptions analysis;
  /// Skip the deadlock certification stage (analysis only).
  bool deadlock = true;
};

/// Lint one rule program source: parse, validate, analyze and — when
/// `model_for` finds a routing rule base — certify it (certify_fault_set:
/// deadlock freedom, connectivity and progress) on the healthy topology
/// the program's own constants describe (topology_of). Parse and
/// validation failures are reported as error findings, not exceptions.
AnalysisReport lint_source(const std::string& source,
                           const CorpusLintOptions& opts = {});

struct CorpusLintResult {
  std::vector<AnalysisReport> reports;

  bool clean(bool werror) const;
  std::string to_string() const;
};

/// Lint every program of rulebases:: — the runnable decision programs at
/// the sizes the differential tests use, the Table 1/2 accounting corpora
/// at a closure-friendly 4x4 / d=3, plus a faulted ft_mesh certification.
CorpusLintResult lint_corpus(const CorpusLintOptions& opts = {});

/// Fault-certify one rule program source on the topology its constants
/// describe (rulelint --faults, mutation tests). nullopt when the source
/// does not parse/validate, has no deadlock model, or names no topology.
std::optional<FaultCertReport> fault_cert_source(
    const std::string& source, const FaultCertOptions& opts = {});

struct FaultCertCorpusResult {
  std::vector<FaultCertReport> reports;

  bool clean(bool werror) const;
  std::string to_string() const;
};

/// The per-program k-fault certificate over the shipped corpus, each on its
/// home test-scale topology (the same sizes lint_corpus certifies). The CI
/// gate: with max_faults = 1 and --werror every report must be clean —
/// programs that claim fault tolerance must certify it, and programs that
/// claim none may only degrade to note-level findings.
FaultCertCorpusResult fault_cert_corpus(const FaultCertOptions& opts = {});

/// One runnable rule base AOT-compiled to its decision table
/// (rulelint --emit-table / the aot_table_corpus ctest).
struct TableReport {
  std::string program;            // program @ the topology it was built for
  bool active = false;            // a table tier is serving (analysis
                                  // accepted; direct or compressed)
  std::string tier = "vm";        // chosen tier: vm/direct/compressed
  std::string classifier = "none";  // dest-class classifier, if any
  std::string tier_reason;        // why this tier (budget arithmetic,
                                  // classifier verdict, VM keep-alive cause)
  std::uint64_t full_entries = 0;  // uncompressed premise-space size
  double compression_ratio = 1.0;  // full_entries / allocated entries
  std::uint64_t entries = 0;      // premise points (or classes) tabulated
  std::uint64_t resolved = 0;     // entries with a stored decision
  std::uint64_t dest_bound = 0;   // sign-class entries the read-set gate
                                  // leaves to the VM
  std::uint64_t unreachable = 0;  // points no packet can present
  std::uint64_t fallback = 0;     // presentable points left to the VM
  std::uint64_t bytes = 0;        // table footprint (entries x 16)
  double fallback_fraction = 1.0;
};

/// AOT-compile every runnable decision program of the corpus — at the sizes
/// the differential tests use AND at the 4096-node scale (64x64 meshes,
/// 12-cubes) — and report its table. A first-touch (offset-sign) table is
/// first walked through route() at every presentable sign-class
/// representative, so its stats read like an eager fill's. The
/// shipped-corpus gate: each report must reach a non-VM tier and leave
/// zero presentable premise points to the VM fallback (dest-bound entries
/// are counted apart).
std::vector<TableReport> emit_table_corpus();

std::string to_string(const std::vector<TableReport>& reports);

}  // namespace flexrouter::ruleanalysis
