#include "routing/cdg.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <set>
#include <sstream>

namespace flexrouter {

std::string CdgReport::to_string() const {
  std::ostringstream os;
  os << (acyclic ? "acyclic" : "CYCLIC") << ", " << num_channels
     << " channels, " << num_edges << " edges";
  if (!cycle.empty()) {
    os << "; cycle:";
    for (const Channel& c : cycle)
      os << " (" << c.node << "," << c.port << "," << c.vc << ")";
  }
  return os.str();
}

namespace {

/// Iterative DFS cycle detection with witness extraction.
bool find_cycle(const std::vector<std::vector<int>>& adj,
                std::vector<int>& witness) {
  const auto n = adj.size();
  // 0 = white, 1 = on stack, 2 = done
  std::vector<char> color(n, 0);
  std::vector<int> parent(n, -1);
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack;  // node, next-edge index
    stack.emplace_back(static_cast<int>(start), 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [v, ei] = stack.back();
      if (ei < adj[static_cast<std::size_t>(v)].size()) {
        const int w = adj[static_cast<std::size_t>(v)][ei++];
        if (color[static_cast<std::size_t>(w)] == 0) {
          color[static_cast<std::size_t>(w)] = 1;
          parent[static_cast<std::size_t>(w)] = v;
          stack.emplace_back(w, 0);
        } else if (color[static_cast<std::size_t>(w)] == 1) {
          // Found a back edge v -> w: extract the cycle w ... v.
          witness.clear();
          int x = v;
          witness.push_back(w);
          while (x != w && x != -1) {
            witness.push_back(x);
            x = parent[static_cast<std::size_t>(x)];
          }
          std::reverse(witness.begin() + 1, witness.end());
          return true;
        }
      } else {
        color[static_cast<std::size_t>(v)] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

std::uint64_t ChannelDepGraph::key(const Channel& c) {
  FR_REQUIRE(c.node >= 0 && c.port >= 0 && c.port <= 0xffff && c.vc >= 0 &&
             c.vc <= 0xffff);
  return static_cast<std::uint64_t>(c.node) << 32 |
         static_cast<std::uint64_t>(c.port) << 16 |
         static_cast<std::uint64_t>(c.vc);
}

int ChannelDepGraph::channel_id(const Channel& c) {
  const auto [id, inserted] =
      index_.insert(key(c), static_cast<int>(channels_.size()));
  if (inserted) {
    channels_.push_back(c);
    adj_.emplace_back();
  }
  return id;
}

void ChannelDepGraph::add_edge(int from, int to) {
  FR_REQUIRE(from >= 0 && from < num_channels());
  FR_REQUIRE(to >= 0 && to < num_channels());
  std::vector<int>& out = adj_[static_cast<std::size_t>(from)];
  const auto it = std::lower_bound(out.begin(), out.end(), to);
  if (it == out.end() || *it != to) out.insert(it, to);
}

std::int64_t ChannelDepGraph::num_edges() const {
  std::int64_t n = 0;
  for (const auto& s : adj_) n += static_cast<std::int64_t>(s.size());
  return n;
}

CdgReport ChannelDepGraph::check() const {
  CdgReport report;
  report.num_channels = num_channels();
  report.num_edges = num_edges();

  std::vector<int> witness;
  if (find_cycle(adj_, witness)) {
    report.acyclic = false;
    for (const int i : witness)
      report.cycle.push_back(channels_[static_cast<std::size_t>(i)]);
  }
  return report;
}

CdgReport check_cdg(const Topology& topo, const FaultSet& faults,
                    const RoutingAlgorithm& algo, bool escape_only) {
  auto included = [&](VcId vc) {
    return !escape_only || algo.is_escape_vc(vc);
  };

  // Enumerate channels of the checked layer up front so the report counts
  // them even when no dependency touches them.
  ChannelDepGraph graph;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (PortId p = 0; p < topo.degree(); ++p) {
      if (!faults.link_usable(n, p)) continue;
      for (VcId v = 0; v < algo.num_vcs(); ++v) {
        if (!included(v)) continue;
        graph.channel_id(Channel{n, p, v});
      }
    }
  }

  // Dependency edges must only be drawn for header states that can actually
  // occupy a channel — enumerating every destination at every channel
  // manufactures impossible dependencies (e.g. an east-bound DOR packet that
  // suddenly needs to go west) and false cycles. We therefore compute the
  // forward closure of (channel, dest, misrouted) states from all injection
  // points and record edges along it. The full (non-escape-restricted)
  // routing function drives the closure; for the escape-restricted graph,
  // edges are kept only between escape channels, but reachability still
  // flows through adaptive channels (a message may enter the escape layer
  // anywhere).
  struct State {
    int channel;
    NodeId dest;
    bool misrouted;
    /// algo.path_len_class(path_len) — the routing-relevant projection.
    int path_class;
    /// A representative real path_len for this class (not part of the key).
    int path_len_rep;

    bool operator<(const State& o) const {
      return std::tie(channel, dest, misrouted, path_class) <
             std::tie(o.channel, o.dest, o.misrouted, o.path_class);
    }
  };
  // Channel indices over ALL VCs (for reachability), separate from `graph`
  // which holds only the included ones.
  std::map<Channel, int> all_index;
  std::vector<Channel> all_channels;
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    for (PortId p = 0; p < topo.degree(); ++p) {
      if (!faults.link_usable(n, p)) continue;
      for (VcId v = 0; v < algo.num_vcs(); ++v) {
        all_index.emplace(Channel{n, p, v},
                          static_cast<int>(all_channels.size()));
        all_channels.push_back({n, p, v});
      }
    }

  std::set<State> seen;
  std::vector<State> frontier;
  auto expand = [&](const State* from_state, const RouteContext& ctx) {
    const RouteDecision d = algo.route(ctx);
    for (const RouteCandidate& cand : d.candidates) {
      if (cand.port == topo.degree()) continue;  // ejection consumes
      if (!faults.link_usable(ctx.node, cand.port)) continue;
      const auto all_it = all_index.find(Channel{ctx.node, cand.port, cand.vc});
      if (all_it == all_index.end()) continue;
      // Record the dependency edge when both ends are in the checked layer.
      if (from_state != nullptr && included(cand.vc)) {
        const Channel& from_ch =
            all_channels[static_cast<std::size_t>(from_state->channel)];
        if (included(from_ch.vc)) {
          graph.add_edge(graph.channel_id(from_ch),
                         graph.channel_id(Channel{ctx.node, cand.port,
                                                  cand.vc}));
        }
      }
      const State next{all_it->second, ctx.dest,
                       ctx.misrouted || d.mark_misrouted,
                       algo.path_len_class(ctx.path_len + 1),
                       ctx.path_len + 1};
      if (seen.insert(next).second) frontier.push_back(next);
    }
  };

  // Seed: injection at every healthy source toward every healthy dest.
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    if (faults.node_faulty(s)) continue;
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (faults.node_faulty(dest) || dest == s) continue;
      RouteContext ctx;
      ctx.node = s;
      ctx.in_port = topo.degree();  // injected locally
      ctx.in_vc = 0;
      ctx.src = s;
      ctx.dest = dest;
      ctx.misrouted = false;
      ctx.path_len = 0;
      expand(nullptr, ctx);
    }
  }
  // Closure.
  while (!frontier.empty()) {
    const State st = frontier.back();
    frontier.pop_back();
    const Channel& c = all_channels[static_cast<std::size_t>(st.channel)];
    const NodeId m = topo.neighbor(c.node, c.port);
    if (m == st.dest) continue;  // will eject
    RouteContext ctx;
    ctx.node = m;
    ctx.in_port = topo.reverse_port(c.node, c.port);
    ctx.in_vc = c.vc;
    ctx.src = c.node;
    ctx.dest = st.dest;
    ctx.misrouted = st.misrouted;
    ctx.path_len = st.path_len_rep;
    expand(&st, ctx);
  }

  return graph.check();
}

}  // namespace flexrouter
