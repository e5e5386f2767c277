// Dynamic cross-validation of static fault certificates.
//
// The k-fault certifier (ruleanalysis/fault_cert) emits concrete witness
// fault sets with its verdicts. This module closes the loop against the
// simulator: a statically-predicted blackhole/deadlock fault set is struck
// mid-run through a FaultSchedule and must reproduce as lost traffic, and a
// certified-safe fault set must keep a live run fully delivering. Tests use
// link-fault patterns for both directions — a node fault retires the
// traffic terminating at the dead router as unrecoverable by design, which
// would drown the signal.
#pragma once

#include <cstdint>
#include <string>

#include "ruleanalysis/fault_cert.hpp"
#include "sim/simulator.hpp"

namespace flexrouter {

struct WitnessReplayOptions {
  double injection_rate = 0.05;
  int packet_length = 4;
  Cycle warmup_cycles = 300;
  Cycle measure_cycles = 1500;
  /// When the witness pattern's faults strike (inside the warmup window by
  /// default, so the whole measured window runs on the faulted fabric).
  Cycle fault_cycle = 200;
  std::uint64_t seed = 7;
};

struct WitnessReplayResult {
  SimResult sim;
  /// The static verdict reproduced dynamically: packets were abandoned for
  /// good, the deadlock watchdog fired, or measured traffic went
  /// undelivered past the drain window.
  bool failure = false;
  std::string summary;
};

/// Replay `pattern` under live uniform traffic: build the rule program as
/// an interpreted router — VCs, route base and escape VC as model_for reads
/// them off the program — on the topology its own constants describe,
/// strike the pattern's faults via the fault schedule, run, and report
/// whether the network failed. Throws only on programs without a model or
/// a known topology.
WitnessReplayResult replay_fault_pattern(
    const std::string& source, const ruleanalysis::FaultPattern& pattern,
    const WitnessReplayOptions& opts = {});

}  // namespace flexrouter
