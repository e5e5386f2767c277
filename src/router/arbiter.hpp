// Round-robin switch arbitration. Grant rotation provides the fairness
// guarantee of Section 3 ("scheduling and fairness"): no requester starves
// while others are served, and misrouted messages can be boosted via a
// priority input to compensate their "double disadvantage".
#pragma once

#include "common/assert.hpp"

namespace flexrouter {

/// One requester in a gathered candidate list.
struct ArbCandidate {
  int idx = -1;
  int priority = 0;
};

/// Winner among `count` requesters sorted ascending by idx: the highest
/// priority wins; among equals the one closest (cyclically) after
/// `last_grant` wins (-1 before the first grant). Returns -1 when there is
/// no requester. Pure: the caller records a consumed grant as the new
/// `last_grant`, so a winner that cannot use its grant keeps its turn.
inline int round_robin_pick(const ArbCandidate* cands, int count,
                            int last_grant) {
  // Cyclic order from last_grant+1: indices above the pointer come first
  // (ascending), then the wrapped ones. The winner is the max-priority
  // candidate earliest in that order — ascending input order means the
  // first candidate seen in each wrap class has the smallest idx.
  int best = -1;
  int best_prio = 0;
  bool best_wrapped = false;
  for (int i = 0; i < count; ++i) {
    FR_ASSERT(cands[i].idx >= 0 && (i == 0 || cands[i - 1].idx < cands[i].idx));
    const bool wrapped = cands[i].idx <= last_grant;
    if (best < 0 || cands[i].priority > best_prio ||
        (cands[i].priority == best_prio && best_wrapped && !wrapped)) {
      best = cands[i].idx;
      best_prio = cands[i].priority;
      best_wrapped = wrapped;
    }
  }
  return best;
}

}  // namespace flexrouter
