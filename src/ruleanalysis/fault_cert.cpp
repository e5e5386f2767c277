#include "ruleanalysis/fault_cert.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "routing/cdg.hpp"
#include "ruleanalysis/decision_enum.hpp"
#include "sim/sweep.hpp"
#include "topology/automorphism.hpp"
#include "topology/graph_algo.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter::ruleanalysis {
namespace {

constexpr std::size_t kMaxGroupOrder = 4096;
constexpr std::size_t kMaxFailingSets = 32;

// ---- symmetries: verified automorphisms + a VC relabeling ----------------

/// A program symmetry: a (verified) topology automorphism together with the
/// VC permutation under which the program's decisions are equivariant.
/// sigma always fixes the escape VC.
struct Symmetry {
  Automorphism map;
  std::vector<VcId> sigma;
};

std::vector<VcId> identity_sigma(int num_vcs) {
  std::vector<VcId> s(static_cast<std::size_t>(num_vcs));
  std::iota(s.begin(), s.end(), VcId{0});
  return s;
}

/// All VC permutations that fix the escape VC and move only certified VCs,
/// identity first (the deterministic tie-break when several work).
std::vector<std::vector<VcId>> sigma_candidates(const DeadlockModel& model,
                                                const std::set<VcId>& vcs) {
  std::vector<VcId> movable;
  for (const VcId v : vcs)
    if (v != model.escape_vc) movable.push_back(v);
  std::vector<VcId> perm = movable;  // ascending = identity image first
  std::vector<std::vector<VcId>> out;
  do {
    std::vector<VcId> sigma = identity_sigma(model.num_vcs);
    for (std::size_t i = 0; i < movable.size(); ++i)
      sigma[static_cast<std::size_t>(movable[i])] = perm[i];
    out.push_back(std::move(sigma));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

/// g . nu: permute the per-port link bits of a valuation along the port map
/// of node `n`; the dest_reachable / escape_ok bits ride along unchanged.
std::uint32_t map_valuation(const Automorphism& g, NodeId n, PortId degree,
                            std::uint32_t nu) {
  std::uint32_t out = (nu >> degree) << degree;
  for (PortId p = 0; p < degree; ++p)
    if ((nu >> p) & 1u) out |= 1u << g.map_port(n, p, degree);
  return out;
}

/// The abstract-input valuations that have to be compared at node `n`:
/// every assignment of the fault-sensitive inputs the program reads, with
/// bits of unconnected ports pinned to 0 (a dead port can never read ok).
std::vector<std::uint32_t> node_valuations(const Topology& topo,
                                           const FaultInputAxes& axes,
                                           NodeId n) {
  std::vector<std::uint32_t> bits;
  if (axes.link_bits)
    for (PortId p = 0; p < topo.degree(); ++p)
      if (topo.neighbor(n, p) != kInvalidNode)
        bits.push_back(1u << p);
  if (axes.dest_reachable) bits.push_back(1u << topo.degree());
  if (axes.escape_ok) bits.push_back(1u << (topo.degree() + 1));
  std::vector<std::uint32_t> out;
  out.reserve(std::size_t{1} << bits.size());
  for (std::uint32_t m = 0; m < (1u << bits.size()); ++m) {
    std::uint32_t nu = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
      if ((m >> i) & 1u) nu |= bits[i];
    out.push_back(nu);
  }
  return out;
}

/// Transport a candidate set through (g, sigma) at deciding node `n` and
/// sort it back into set order. Escape candidates are presence tokens (the
/// concrete escape hop is tree-dependent); everything else maps port-wise.
std::vector<Cand> transport_cands(const std::vector<Cand>& cands,
                                  const Automorphism& g,
                                  const std::vector<VcId>& sigma, NodeId n,
                                  PortId degree) {
  std::vector<Cand> out;
  out.reserve(cands.size());
  for (const Cand& c : cands) {
    const PortId p = c.first == kAbstractEscapePort
                         ? kAbstractEscapePort
                         : g.map_port(n, c.first, degree);
    out.push_back({p, sigma[static_cast<std::size_t>(c.second)]});
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Proof obligation for using automorphism `g` with relabeling `sigma` in
/// orbit reduction: for EVERY decision header and EVERY valuation nu of the
/// declared fault-sensitive inputs, D(g.h, g.nu) == sigma.g.D(h, nu).
/// Sweeping all valuations (not just the healthy one) is what makes the
/// identification sound — faulted valuations exercise rule branches no
/// healthy header reaches. Injected headers are special: the injection VC
/// comes from the model, not the header, so both sides take the union over
/// their own seed VCs and the unions must transport onto each other.
bool check_equivariance(DecisionEnumerator& en, const Automorphism& g,
                        const std::vector<VcId>& sigma) {
  const Topology& topo = en.topo();
  const PortId degree = topo.degree();
  std::vector<VcId> vr, vm;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const NodeId gn = g.map_node(n);
    const std::vector<std::uint32_t> vals =
        node_valuations(topo, en.axes(), n);
    for (NodeId d = 0; d < topo.num_nodes(); ++d) {
      const NodeId gd = g.map_node(d);
      for (const std::uint32_t nu : vals) {
        const std::uint32_t gnu = map_valuation(g, n, degree, nu);
        if (n != d) {
          // Injected header: compare the seed-VC unions.
          std::set<Cand> rep, repft, mem, memft;
          en.seed_vcs(n, d, vr);
          for (const VcId v : vr) {
            const AbstractDecision& a = en.decide_abstract(n, d, degree, v, nu);
            if (a.escape_violation) return false;
            rep.insert(a.cands.begin(), a.cands.end());
            repft.insert(a.ft_cands.begin(), a.ft_cands.end());
          }
          en.seed_vcs(gn, gd, vm);
          for (const VcId v : vm) {
            const AbstractDecision& a =
                en.decide_abstract(gn, gd, degree, v, gnu);
            if (a.escape_violation) return false;
            mem.insert(a.cands.begin(), a.cands.end());
            memft.insert(a.ft_cands.begin(), a.ft_cands.end());
          }
          const std::vector<Cand> r(rep.begin(), rep.end());
          const std::vector<Cand> rf(repft.begin(), repft.end());
          if (transport_cands(r, g, sigma, n, degree) !=
              std::vector<Cand>(mem.begin(), mem.end()))
            return false;
          if (transport_cands(rf, g, sigma, n, degree) !=
              std::vector<Cand>(memft.begin(), memft.end()))
            return false;
        }
        // In-flight (and delivery) headers transport in_vc through sigma.
        for (PortId p = 0; p < degree; ++p) {
          if (topo.neighbor(n, p) == kInvalidNode) continue;
          const PortId gp = g.map_port(n, p, degree);
          for (const VcId v : en.included_vcs()) {
            const AbstractDecision& a = en.decide_abstract(n, d, p, v, nu);
            const AbstractDecision& b = en.decide_abstract(
                gn, gd, gp, sigma[static_cast<std::size_t>(v)], gnu);
            if (a.escape_violation || b.escape_violation) return false;
            if (a.delivers != b.delivers) return false;
            if (transport_cands(a.cands, g, sigma, n, degree) != b.cands)
              return false;
            if (transport_cands(a.ft_cands, g, sigma, n, degree) != b.ft_cands)
              return false;
          }
        }
      }
    }
  }
  return true;
}

/// Close the accepted (g, sigma) pairs under composition. Composition of
/// equivariant symmetries is equivariant, so closure members need no
/// re-check. Keyed by (node_map, sigma); includes the identity.
std::vector<Symmetry> close_symmetries(const Topology& topo,
                                       const DeadlockModel& model,
                                       const std::vector<Symmetry>& gens,
                                       bool* complete) {
  using Key = std::pair<std::vector<NodeId>, std::vector<VcId>>;
  std::map<Key, std::size_t> seen;
  std::vector<Symmetry> out;
  Symmetry id{identity_automorphism(topo), identity_sigma(model.num_vcs)};
  seen.emplace(Key{id.map.node_map, id.sigma}, 0);
  out.push_back(std::move(id));
  *complete = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const Symmetry& g : gens) {
      Symmetry h;
      h.map = compose(topo, g.map, out[i].map);  // apply out[i], then g
      h.sigma.resize(out[i].sigma.size());
      for (std::size_t v = 0; v < h.sigma.size(); ++v)
        h.sigma[v] =
            g.sigma[static_cast<std::size_t>(out[i].sigma[v])];
      const Key key{h.map.node_map, h.sigma};
      if (seen.count(key)) continue;
      if (out.size() >= kMaxGroupOrder) {
        *complete = false;
        return out;
      }
      seen.emplace(key, out.size());
      out.push_back(std::move(h));
    }
  }
  return out;
}

// ---- fault regimes and orbit reduction -----------------------------------

LinkRef canon_link(const Topology& topo, const LinkRef& l) {
  const NodeId m = topo.neighbor(l.node, l.port);
  if (m != kInvalidNode && m < l.node)
    return {m, topo.reverse_port(l.node, l.port)};
  return l;
}

FaultPattern map_pattern(const Topology& topo, const Automorphism& g,
                         const FaultPattern& pat) {
  FaultPattern out;
  out.links.reserve(pat.links.size());
  for (const LinkRef& l : pat.links)
    out.links.push_back(canon_link(topo, g.map_link(l, topo.degree())));
  out.nodes.reserve(pat.nodes.size());
  for (const NodeId n : pat.nodes) out.nodes.push_back(g.map_node(n));
  std::sort(out.links.begin(), out.links.end());
  std::sort(out.nodes.begin(), out.nodes.end());
  return out;
}

struct Regime {
  std::string name;
  std::vector<FaultPattern> sets;
};

/// One canonical orbit: the minimal pattern over the group plus the raw
/// regime members it stands for.
struct Orbit {
  FaultPattern rep;
  std::vector<FaultPattern> members;
  std::size_t regime = 0;
};

void append_combinations(const Topology& topo, int k,
                         std::vector<FaultPattern>& out) {
  const std::vector<LinkRef> links = topo.undirected_links();
  const std::size_t num_elems =
      links.size() + static_cast<std::size_t>(topo.num_nodes());
  std::vector<std::size_t> ix(static_cast<std::size_t>(k));
  std::iota(ix.begin(), ix.end(), std::size_t{0});
  const auto emit = [&] {
    FaultPattern p;
    for (const std::size_t e : ix) {
      if (e < links.size())
        p.links.push_back(links[e]);
      else
        p.nodes.push_back(static_cast<NodeId>(e - links.size()));
    }
    out.push_back(std::move(p));
  };
  if (static_cast<std::size_t>(k) > num_elems) return;
  while (true) {
    emit();
    // Next k-combination of {0..num_elems-1} in lexicographic order.
    std::size_t i = ix.size();
    while (i > 0 && ix[i - 1] == num_elems - (ix.size() - (i - 1))) --i;
    if (i == 0) break;
    ++ix[i - 1];
    for (std::size_t j = i; j < ix.size(); ++j) ix[j] = ix[j - 1] + 1;
  }
}

std::vector<Regime> make_regimes(const Topology& topo,
                                 const FaultCertOptions& opts) {
  std::vector<Regime> regimes;
  regimes.push_back({"k=0", {FaultPattern{}}});
  for (int k = 1; k <= opts.max_faults; ++k) {
    Regime r;
    r.name = "k=" + std::to_string(k);
    append_combinations(topo, k, r.sets);
    regimes.push_back(std::move(r));
  }
  if (!opts.correlated) return regimes;

  // A router that dies together with all of its line cards.
  Regime rl;
  rl.name = "router+links";
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    FaultPattern p;
    p.nodes.push_back(n);
    for (PortId q = 0; q < topo.degree(); ++q)
      if (topo.neighbor(n, q) != kInvalidNode)
        p.links.push_back(canon_link(topo, {n, q}));
    std::sort(p.links.begin(), p.links.end());
    rl.sets.push_back(std::move(p));
  }
  regimes.push_back(std::move(rl));

  if (const auto* mesh = dynamic_cast<const Mesh*>(&topo);
      mesh != nullptr && mesh->dims() == 2 && mesh->radix(1) > 1) {
    // A whole mesh row failing (backplane / power domain).
    Regime rows;
    rows.name = "row";
    for (int y = 0; y < mesh->radix(1); ++y) {
      FaultPattern p;
      for (int x = 0; x < mesh->radix(0); ++x)
        p.nodes.push_back(mesh->at(x, y));
      rows.sets.push_back(std::move(p));
    }
    regimes.push_back(std::move(rows));
  }
  if (const auto* cube = dynamic_cast<const Hypercube*>(&topo);
      cube != nullptr && cube->dimension() >= 2) {
    // A whole (d-1)-subcube failing: every node with bit b of its address
    // equal to v.
    Regime sub;
    sub.name = "subcube";
    for (int b = 0; b < cube->dimension(); ++b)
      for (int v = 0; v < 2; ++v) {
        FaultPattern p;
        for (NodeId n = 0; n < topo.num_nodes(); ++n)
          if (((n >> b) & 1) == v) p.nodes.push_back(n);
        sub.sets.push_back(std::move(p));
      }
    regimes.push_back(std::move(sub));
  }
  return regimes;
}

std::vector<Orbit> reduce_regime(const Topology& topo,
                                 const std::vector<Symmetry>& group,
                                 const std::vector<FaultPattern>& sets,
                                 std::size_t regime_ix) {
  std::map<FaultPattern, std::vector<FaultPattern>> orbits;
  for (const FaultPattern& pat : sets) {
    FaultPattern canon = pat;
    for (const Symmetry& g : group) {
      FaultPattern m = map_pattern(topo, g.map, pat);
      if (m < canon) canon = std::move(m);
    }
    orbits[std::move(canon)].push_back(pat);
  }
  std::vector<Orbit> out;
  out.reserve(orbits.size());
  for (auto& [rep, members] : orbits)
    out.push_back({rep, std::move(members), regime_ix});
  return out;
}

// ---- per-fault-set certification -----------------------------------------

struct OrbitOutcome {
  bool deadlock_failed = false;
  bool conn_failed = false;
  bool progress_failed = false;
  bool expanded = false;
  bool clean = true;  // no failure at any severity
  std::uint64_t members_checked = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t reused = 0;
  std::vector<Finding> findings;
  std::vector<FaultPattern> failing;  // members with error-level findings
};

Finding unmodeled_note(const std::string& rule_base, std::string message) {
  Finding f;
  f.cls = DiagClass::DeadlockUnmodeled;
  f.severity = Severity::Note;
  f.rule_base = rule_base;
  f.message = std::move(message);
  return f;
}

std::string state_str(const Channel& c, NodeId dest) {
  std::ostringstream os;
  os << "(" << c.node << ":" << c.port << "/" << c.vc << " | dest " << dest
     << ")";
  return os.str();
}

/// Depth-first search for a cycle in the per-destination decision relation;
/// returns the state indices along the first cycle found (empty = acyclic).
std::vector<int> find_state_cycle(const std::vector<std::vector<int>>& adj) {
  const std::size_t n = adj.size();
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<int> path;
  std::vector<std::pair<int, std::size_t>> stack;
  for (std::size_t s0 = 0; s0 < n; ++s0) {
    if (color[s0] != 0) continue;
    stack.push_back({static_cast<int>(s0), 0});
    while (!stack.empty()) {
      auto& [s, child] = stack.back();
      if (child == 0) {
        color[static_cast<std::size_t>(s)] = 1;
        path.push_back(s);
      }
      if (child < adj[static_cast<std::size_t>(s)].size()) {
        const int t = adj[static_cast<std::size_t>(s)][child++];
        if (color[static_cast<std::size_t>(t)] == 0) {
          stack.push_back({t, 0});
        } else if (color[static_cast<std::size_t>(t)] == 1) {
          const auto it = std::find(path.begin(), path.end(), t);
          return std::vector<int>(it, path.end());
        }
      } else {
        color[static_cast<std::size_t>(s)] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
  }
  return {};
}

class MemberCertifier {
 public:
  MemberCertifier(DecisionEnumerator& en, const FaultCertOptions& opts)
      : en_(en), opts_(opts), topo_(en.topo()) {}

  DecisionEnumerator& enumerator() { return en_; }

  FaultSetCertificate run(const FaultPattern& pat) {
    pat_ = &pat;
    const FaultSet fs = pat.to_fault_set(topo_);
    en_.set_faults(fs);
    const std::uint64_t ev0 = en_.evaluated();
    graph_ = ChannelDepGraph{};
    for (const auto& [cid, dest] : states_)  // reset only what was used
      state_ix_[slot(cid, dest)] = -1;
    states_.clear();
    adj_.clear();
    frontier_.clear();
    witnesses_.clear();
    suppressed_ = 0;
    res_ = FaultSetCertificate{};

    // Intern every usable channel up front, as check_cdg does, so isolated
    // channels still count.
    for (NodeId n = 0; n < topo_.num_nodes(); ++n)
      for (PortId p = 0; p < topo_.degree(); ++p)
        if (fs.link_usable(n, p))
          for (const VcId vc : en_.included_vcs())
            graph_.channel_id({n, p, vc});

    seed_all(fs);
    while (!frontier_.empty()) {
      const int s = frontier_.back();
      frontier_.pop_back();
      expand(s, fs);
    }

    finish_connectivity(fs);
    res_.cdg = graph_.check();
    const CdgReport& cdg = res_.cdg;
    if (!cdg.acyclic) {
      Finding f;
      f.cls = DiagClass::DeadlockCycle;
      f.severity = Severity::Error;
      f.rule_base = en_.model().route_base;
      std::ostringstream msg;
      msg << "channel-dependency cycle under " << describe_faults(fs) << " ("
          << cdg.num_channels << " channels, " << cdg.num_edges << " edges)";
      f.message = msg.str();
      f.witness = format_cycle_witness(cdg.cycle, fs);
      res_.findings.push_back(std::move(f));
    }
    const std::vector<int> cyc = find_state_cycle(adj_);
    if (!cyc.empty()) {
      res_.progress = false;
      Finding f;
      f.cls = DiagClass::LivelockCycle;
      f.severity = Severity::Error;
      f.rule_base = en_.model().route_base;
      std::ostringstream msg;
      msg << "no well-founded progress measure: " << cyc.size()
          << "-state decision cycle toward one destination under "
          << describe_faults(fs);
      f.message = msg.str();
      std::ostringstream wit;
      const std::size_t shown =
          std::min<std::size_t>(cyc.size(), kMaxWitnessChannels);
      for (std::size_t i = 0; i < shown; ++i) {
        const auto& [cid, dest] = states_[static_cast<std::size_t>(cyc[i])];
        wit << state_str(graph_.channel(cid), dest) << " -> ";
      }
      if (cyc.size() > shown)
        wit << "... +" << (cyc.size() - shown) << " more -> ";
      const auto& [cid0, dest0] = states_[static_cast<std::size_t>(cyc[0])];
      wit << state_str(graph_.channel(cid0), dest0);
      f.witness = wit.str();
      res_.findings.push_back(std::move(f));
    }
    res_.decisions = en_.evaluated() - ev0;
    return std::move(res_);
  }

 private:
  std::size_t slot(int cid, NodeId dest) const {
    return static_cast<std::size_t>(cid) *
               static_cast<std::size_t>(topo_.num_nodes()) +
           static_cast<std::size_t>(dest);
  }

  int intern_state(int cid, NodeId dest, bool* fresh) {
    const std::size_t ix = slot(cid, dest);
    if (ix >= state_ix_.size()) state_ix_.resize(ix + 1, -1);
    int& st = state_ix_[ix];
    *fresh = st < 0;
    if (st < 0) {
      st = static_cast<int>(states_.size());
      states_.push_back({cid, dest});
      adj_.emplace_back();
    }
    return st;
  }

  /// Record a connectivity failure; `describe` builds the witness text,
  /// and only runs while the per-set list is under its cap.
  template <typename Describe>
  void witness_conn(const Describe& describe) {
    if (witnesses_.size() < opts_.max_witnesses_per_fault_set)
      witnesses_.push_back(describe());
    else
      ++suppressed_;
    res_.connected = false;
  }

  /// Usable candidates of a decision under `fs`: the primary base, joined
  /// by the fault-mode companion base when faults are present.
  void usable_cands(const EnumeratedDecision& d, NodeId node,
                    const FaultSet& fs, std::vector<Cand>& primary,
                    bool* ft_covers) {
    primary.clear();
    for (const Cand& c : d.cands)
      if (fs.link_usable(node, c.first)) primary.push_back(c);
    *ft_covers = false;
    if (!fs.fault_free() && en_.has_ft_base()) {
      for (const Cand& c : d.ft_cands)
        if (fs.link_usable(node, c.first)) {
          *ft_covers = true;
          break;
        }
    }
  }

  void seed_all(const FaultSet& fs) {
    std::vector<VcId> seeds;
    std::vector<Cand> usable;
    for (NodeId s = 0; s < topo_.num_nodes(); ++s) {
      if (fs.node_faulty(s)) continue;
      for (NodeId d = 0; d < topo_.num_nodes(); ++d) {
        if (d == s || fs.node_faulty(d)) continue;
        if (!en_.connected_now(s, d)) continue;
        en_.seed_vcs(s, d, seeds);
        for (const VcId vc : seeds) {
          const EnumeratedDecision& dec =
              en_.decide(s, d, topo_.degree(), vc);
          bool ft_covers = false;
          usable_cands(dec, s, fs, usable, &ft_covers);
          if (usable.empty() && !ft_covers)
            witness_conn([&] {
              return "injection at " + std::to_string(s) + " for dest " +
                     std::to_string(d) + " on vc " + std::to_string(vc) +
                     " has no usable candidate";
            });
          for (const Cand& c : usable) {
            const int to = graph_.channel_id({s, c.first, c.second});
            bool fresh = false;
            const int st = intern_state(to, d, &fresh);
            if (fresh) frontier_.push_back(st);
          }
        }
      }
    }
  }

  void expand(int state, const FaultSet& fs) {
    const auto [cid, dest] = states_[static_cast<std::size_t>(state)];
    const Channel c = graph_.channel(cid);
    const NodeId m = topo_.neighbor(c.node, c.port);
    const PortId rev = topo_.reverse_port(c.node, c.port);
    const EnumeratedDecision& dec = en_.decide(m, dest, rev, c.vc);
    if (m == dest) {
      // Arrival state: a delivery rule must consume the header; candidates
      // past the destination are not followed (consumption assumption).
      if (!dec.delivers)
        witness_conn([&] {
          return "arrival " + state_str(c, dest) +
                 " is not consumed by any delivery rule";
        });
      return;
    }
    bool ft_covers = false;
    usable_cands(dec, m, fs, usable_, &ft_covers);
    if (usable_.empty() && !ft_covers)
      witness_conn([&] {
        return "state " + state_str(c, dest) + " dead-ends: no usable candidate";
      });
    for (const Cand& cc : usable_) {
      const int to = graph_.channel_id({m, cc.first, cc.second});
      graph_.add_edge(cid, to);
      bool fresh = false;
      const int st = intern_state(to, dest, &fresh);
      adj_[static_cast<std::size_t>(state)].push_back(st);
      if (fresh) frontier_.push_back(st);
    }
  }

  void finish_connectivity(const FaultSet& fs) {
    if (witnesses_.empty()) return;
    Finding f;
    f.cls = DiagClass::Blackhole;
    // Inside the program's declared tolerance a broken route is a broken
    // promise; beyond it the program never claimed to survive.
    f.severity = pat_->elements() <=
                         static_cast<std::size_t>(en_.model().fault_tolerance)
                     ? Severity::Error
                     : Severity::Note;
    f.rule_base = en_.model().route_base;
    std::ostringstream msg;
    msg << "static connectivity broken under " << describe_faults(fs) << ": "
        << witnesses_.size() + suppressed_
        << " dead-end or undelivered decision state(s)";
    f.message = msg.str();
    std::ostringstream wit;
    for (std::size_t i = 0; i < witnesses_.size(); ++i) {
      if (i > 0) wit << "; ";
      wit << witnesses_[i];
    }
    if (suppressed_ > 0) wit << " (+" << suppressed_ << " more)";
    f.witness = wit.str();
    res_.findings.push_back(std::move(f));
  }

  DecisionEnumerator& en_;
  const FaultCertOptions& opts_;
  const Topology& topo_;
  const FaultPattern* pat_ = nullptr;

  ChannelDepGraph graph_;
  /// State id by (channel id, dest), dense; -1 = not reached. Sized by the
  /// largest channel id seen and kept across members.
  std::vector<int> state_ix_;
  std::vector<std::pair<int, NodeId>> states_;  // (channel id, dest)
  std::vector<std::vector<int>> adj_;
  std::vector<int> frontier_;
  std::vector<Cand> usable_;  // expand() scratch
  std::vector<std::string> witnesses_;
  std::size_t suppressed_ = 0;
  FaultSetCertificate res_;
};

/// Does the representative's verdict transport to every orbit member?
/// Non-escape programs: always (equivariance covered the whole decision).
/// Escape programs additionally pin the escape tree's root component: the
/// root is the healthy node of maximal usable degree, so when all such
/// argmax nodes share one component — a property preserved by any
/// automorphism — every member's escape layer serves the image of the same
/// component, escape reachability is equivariant, and the tree-dependent
/// next hops are covered by the audited-token argument (up*/down* trees are
/// acyclic and destination-directed whatever the member's tree looks like).
bool transport_safe(const DecisionEnumerator& en, const FaultSet& fs) {
  if (en.model().escape_vc < 0) return true;
  if (!en.escape_port_audited()) return false;
  const Topology& topo = en.topo();
  const std::vector<int> comp = components(fs);
  int best = -1;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    if (!fs.node_faulty(n)) best = std::max(best, fs.usable_degree(n));
  int root_comp = -1;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (fs.node_faulty(n) || fs.usable_degree(n) != best) continue;
    const int c = comp[static_cast<std::size_t>(n)];
    if (root_comp < 0) root_comp = c;
    if (c != root_comp) return false;
  }
  return true;
}

void merge_member(OrbitOutcome& out, FaultSetCertificate&& mr,
                  const FaultPattern& pat, std::size_t max_findings) {
  out.deadlock_failed = out.deadlock_failed || !mr.cdg.acyclic;
  out.conn_failed = out.conn_failed || !mr.connected;
  out.progress_failed = out.progress_failed || !mr.progress;
  if (!mr.cdg.acyclic || !mr.connected || !mr.progress) out.clean = false;
  bool has_error = false;
  for (Finding& f : mr.findings) {
    if (f.severity == Severity::Error) has_error = true;
    if (out.findings.size() < max_findings)
      out.findings.push_back(std::move(f));
  }
  if (has_error) out.failing.push_back(pat);
  ++out.members_checked;
}

OrbitOutcome certify_orbit(MemberCertifier& cert, const Orbit& orbit,
                           const FaultCertOptions& opts) {
  OrbitOutcome out;
  DecisionEnumerator& en = cert.enumerator();
  const std::uint64_t ev0 = en.evaluated();
  const std::uint64_t ru0 = en.reused();
  const FaultSet rep_fs = orbit.rep.to_fault_set(en.topo());
  if (orbit.members.size() <= 1 || transport_safe(en, rep_fs)) {
    merge_member(out, cert.run(orbit.rep), orbit.rep, opts.max_findings);
  } else {
    // The escape tree is not automorphism-stable for this fault shape:
    // fall back to certifying every raw member of the orbit directly.
    out.expanded = true;
    for (const FaultPattern& m : orbit.members)
      merge_member(out, cert.run(m), m, opts.max_findings);
  }
  out.evaluated = en.evaluated() - ev0;
  out.reused = en.reused() - ru0;
  return out;
}

}  // namespace

// ---- public surface ------------------------------------------------------

std::string FaultPattern::to_string() const {
  return describe_faults(links, nodes);
}

FaultSet FaultPattern::to_fault_set(const Topology& topo) const {
  FaultSet fs(topo);
  for (const LinkRef& l : links) fs.fail_link(l.node, l.port);
  for (const NodeId n : nodes) fs.fail_node(n);
  return fs;
}

int FaultCertReport::count(Severity s) const {
  int n = 0;
  for (const Finding& f : findings)
    if (f.severity == s) ++n;
  return n;
}

bool FaultCertReport::clean(bool werror) const {
  if (!certified || count(Severity::Error) > 0) return false;
  if (werror && count(Severity::Warning) > 0) return false;
  return true;
}

std::string FaultCertReport::to_string() const {
  std::ostringstream os;
  os << "fault certificate: " << program << " on " << topology << " (claim <="
     << fault_tolerance << " fault" << (fault_tolerance == 1 ? "" : "s")
     << "): " << (certified ? "CERTIFIED" : "FAILED") << "\n";
  os << "  symmetry: group order " << group_order
     << (group_complete ? "" : " (truncated)") << ", " << generators
     << " generator(s) kept, " << generators_dropped << " dropped; "
     << raw_fault_sets << " fault sets -> " << orbit_count << " orbits (x"
     << reduction_factor << ")\n";
  os << "  reuse: " << stats.decisions_reused << " revalidated / "
     << stats.decisions_evaluated << " fresh decisions (baseline "
     << stats.baseline_decisions << "), " << stats.orbits_expanded
     << " orbit(s) expanded\n";
  for (const RegimeSummary& r : regimes) {
    os << "  regime " << r.name << ": " << r.raw_sets << " set(s), "
       << r.orbits << " orbit(s)";
    if (r.certified()) {
      os << " - certified\n";
    } else {
      os << " - failures: deadlock " << r.deadlock_failures
         << ", connectivity " << r.connectivity_failures << ", progress "
         << r.progress_failures << "\n";
    }
  }
  for (const Finding& f : findings) os << "  " << f.to_string() << "\n";
  for (const std::string& i : info) os << "  " << i << "\n";
  return os.str();
}

FaultSetCertificate certify_fault_set(const rules::Program& prog,
                                      const DeadlockModel& model,
                                      const Topology& topo,
                                      const FaultPattern& pattern) {
  DecisionEnumerator en(prog, model, topo);
  FaultSetCertificate cert;
  if (en.ok()) {
    const FaultCertOptions opts;
    cert = MemberCertifier(en, opts).run(pattern);
  }

  // Fold in what escaped the abstraction.
  if (!en.excluded_classes().empty()) {
    std::ostringstream msg;
    msg << "command classes {";
    bool first = true;
    for (const std::int64_t c : en.excluded_classes()) {
      if (!first) msg << ", ";
      msg << c;
      first = false;
    }
    msg << "} are outside the certificate (no VC mapping)";
    cert.findings.push_back(unmodeled_note(model.route_base, msg.str()));
  }
  for (const std::string& m : en.unmodeled())
    cert.findings.push_back(unmodeled_note(model.route_base, m));
  if (!en.ok()) {
    cert.unchecked = en.error();
    Finding f = unmodeled_note(model.route_base, en.error());
    f.severity = Severity::Warning;
    cert.findings.push_back(std::move(f));
  }
  cert.modeled = en.ok() && en.modeled();
  return cert;
}

FaultCertReport certify_faults(const rules::Program& prog,
                               const DeadlockModel& model,
                               const Topology& topo,
                               const FaultCertOptions& opts) {
  FaultCertReport rep;
  rep.program = prog.name;
  rep.topology = topo.name();
  rep.fault_tolerance = model.fault_tolerance;

  DecisionEnumerator main_en(prog, model, topo);
  if (!main_en.ok()) {
    // Nothing was checked, so nothing is certified.
    rep.certified = false;
    rep.findings.push_back(unmodeled_note(model.route_base, main_en.error()));
    return rep;
  }

  // Warm the healthy baseline and certify the fault-free regime on the main
  // enumerator; worker enumerators then share the baseline read-only.
  const std::vector<Regime> regimes = make_regimes(topo, opts);
  rep.regimes.reserve(regimes.size());
  for (const Regime& r : regimes) {
    RegimeSummary s;
    s.name = r.name;
    s.raw_sets = r.sets.size();
    rep.regimes.push_back(std::move(s));
  }
  MemberCertifier main_cert(main_en, opts);
  OrbitOutcome healthy = certify_orbit(
      main_cert, Orbit{FaultPattern{}, {FaultPattern{}}, 0}, opts);

  // Build the program's symmetry group: every verified topology
  // automorphism generator survives only if the program is provably
  // equivariant under it (for some VC relabeling).
  std::vector<Symmetry> kept;
  const std::vector<Automorphism> gens = automorphism_generators(topo);
  const std::vector<std::vector<VcId>> sigmas =
      sigma_candidates(model, main_en.included_vcs());
  const bool escape_transportable =
      model.escape_vc < 0 || main_en.escape_port_audited();
  for (const Automorphism& g : gens) {
    bool matched = false;
    if (escape_transportable) {
      for (const std::vector<VcId>& sig : sigmas) {
        if (check_equivariance(main_en, g, sig)) {
          kept.push_back({g, sig});
          matched = true;
          break;
        }
      }
    }
    if (!matched) ++rep.generators_dropped;
  }
  rep.generators = kept.size();
  const std::vector<Symmetry> group =
      close_symmetries(topo, model, kept, &rep.group_complete);
  rep.group_order = group.size();

  // Quotient every regime to canonical orbits.
  std::vector<Orbit> orbits;  // flattened; index 0 is the healthy regime
  orbits.push_back({FaultPattern{}, {FaultPattern{}}, 0});
  for (std::size_t r = 1; r < regimes.size(); ++r) {
    std::vector<Orbit> reduced =
        reduce_regime(topo, group, regimes[r].sets, r);
    for (Orbit& o : reduced) orbits.push_back(std::move(o));
  }

  // Fan the faulted orbits out on the sweep pool. Each worker owns an
  // enumerator sharing the warmed healthy baseline; outcome slots are
  // index-ordered, so aggregation is deterministic at any thread count.
  std::vector<OrbitOutcome> outcomes(orbits.size());
  outcomes[0] = std::move(healthy);
  if (orbits.size() > 1) {
    SweepOptions sopts;
    sopts.num_threads = opts.num_threads;
    SweepRunner runner(sopts);
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(runner.num_threads()), orbits.size() - 1);
    std::vector<std::unique_ptr<DecisionEnumerator>> wens;
    std::vector<std::unique_ptr<MemberCertifier>> certs;
    for (std::size_t w = 0; w < workers; ++w) {
      auto en = std::make_unique<DecisionEnumerator>(prog, model, topo);
      FR_REQUIRE(en->ok());
      en->share_baseline(&main_en);
      certs.push_back(std::make_unique<MemberCertifier>(*en, opts));
      wens.push_back(std::move(en));
    }
    std::vector<std::function<void()>> tasks;
    for (std::size_t w = 0; w < workers; ++w)
      tasks.push_back([&, w] {
        for (std::size_t i = 1 + w; i < orbits.size(); i += workers)
          outcomes[i] = certify_orbit(*certs[w], orbits[i], opts);
      });
    runner.run_tasks(tasks);
    for (const auto& en : wens) main_en.merge_notes(*en);
  }

  // Deterministic index-ordered aggregation.
  std::size_t kept_findings = 0;
  std::size_t elided_findings = 0;
  for (std::size_t i = 0; i < orbits.size(); ++i) {
    const Orbit& o = orbits[i];
    OrbitOutcome& out = outcomes[i];
    RegimeSummary& r = rep.regimes[o.regime];
    ++r.orbits;
    if (out.deadlock_failed) ++r.deadlock_failures;
    if (out.conn_failed) ++r.connectivity_failures;
    if (out.progress_failed) ++r.progress_failures;
    rep.stats.decisions_evaluated += out.evaluated;
    rep.stats.decisions_reused += out.reused;
    rep.stats.members_checked += out.members_checked;
    ++rep.stats.orbits_checked;
    if (out.expanded) ++rep.stats.orbits_expanded;
    for (Finding& f : out.findings) {
      if (f.severity == Severity::Error) rep.certified = false;
      if (kept_findings < opts.max_findings) {
        rep.findings.push_back(std::move(f));
        ++kept_findings;
      } else {
        ++elided_findings;
      }
    }
    for (const FaultPattern& p : out.failing)
      if (rep.failing_sets.size() < kMaxFailingSets)
        rep.failing_sets.push_back(p);
    if (out.clean && !o.rep.empty() && o.rep.nodes.empty() &&
        rep.certified_samples.size() < opts.max_certified_samples)
      rep.certified_samples.push_back(o.rep);
  }
  if (elided_findings > 0) {
    Finding f;
    f.cls = DiagClass::Blackhole;
    f.severity = Severity::Note;
    f.rule_base = model.route_base;
    f.message = "+" + std::to_string(elided_findings) +
                " more finding(s) elided (raise max_findings for the full "
                "list)";
    rep.findings.push_back(std::move(f));
  }

  // Fold in what escaped the abstraction. Unlike certify_fault_set, the
  // excluded-classes note is left out (EXPERIMENTS.md X10c).
  if (main_en.has_ft_base() && opts.max_faults > 0)
    rep.findings.push_back(unmodeled_note(
        model.route_base, "fault-mode base '" + model.ft_route_base +
                              "' joins the connectivity check only; its "
                              "candidates are not followed by the closure"));
  for (const std::string& m : main_en.unmodeled())
    rep.findings.push_back(unmodeled_note(model.route_base, m));

  rep.stats.baseline_decisions = main_en.baseline_size();
  for (const RegimeSummary& r : rep.regimes) {
    rep.raw_fault_sets += r.raw_sets;
    rep.orbit_count += r.orbits;
  }
  rep.reduction_factor =
      rep.orbit_count > 0 ? static_cast<double>(rep.raw_fault_sets) /
                                static_cast<double>(rep.orbit_count)
                          : 1.0;
  {
    std::ostringstream os;
    os << "fault certification of '" << prog.name << "': " << rep.raw_fault_sets
       << " fault sets in " << rep.regimes.size() << " regimes -> "
       << rep.orbit_count << " orbits under a group of order "
       << rep.group_order;
    rep.info.push_back(os.str());
  }
  return rep;
}

}  // namespace flexrouter::ruleanalysis
