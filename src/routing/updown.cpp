#include "routing/updown.hpp"

#include <algorithm>
#include <new>

namespace flexrouter {

int UpDownTable::rebuild(const FaultSet& faults) {
  const Topology& topo = faults.topology();
  const NodeId n_nodes = topo.num_nodes();
  FR_REQUIRE_MSG(2 * static_cast<std::int64_t>(n_nodes) < kFar,
                 "fabric too large for 16-bit up*/down* distances");
  const PortId deg = topo.degree();
  const NodeId root = choose_tree_root(faults);
  topo_ = &topo;
  epoch_ = faults.epoch();
  const auto n = static_cast<std::size_t>(n_nodes);
  const auto d = static_cast<std::size_t>(deg);

  // Every slab of the previous epoch goes stale. Storage sized for another
  // node count is replaced by zeroed pages, which cost nothing until read.
  ++generation_;
  filled_ = 0;
  if (n_nodes != num_nodes_) {
    std::unique_ptr<std::uint16_t[], FreeSlabs> slabs(
        static_cast<std::uint16_t*>(
            std::calloc(n * 2 * n, sizeof(std::uint16_t))));
    if (slabs == nullptr) throw std::bad_alloc();
    stamp_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    dist_ = std::move(slabs);
  }
  num_nodes_ = n_nodes;
  degree_ = deg;

  // One pass over the topology and the fault set: every later step, and
  // every slab fill, reads these flat arrays instead of the virtual
  // neighbor(), link_usable() and node_faulty().
  faulty_.resize(n);
  for (NodeId u = 0; u < n_nodes; ++u)
    faulty_[static_cast<std::size_t>(u)] = faults.node_faulty(u) ? 1 : 0;
  nbr_.resize(n * d);
  port_.resize(n * d);
  int usable_links = 0;
  for (NodeId u = 0; u < n_nodes; ++u)
    for (PortId p = 0; p < deg; ++p) {
      const std::size_t i = static_cast<std::size_t>(u) * d +
                            static_cast<std::size_t>(p);
      nbr_[i] = topo.neighbor(u, p);
      const bool usable = faults.link_usable(u, p);
      port_[i] = usable ? kPortUsable : 0;
      usable_links += usable ? 1 : 0;
    }

  // BFS spanning tree from the root, ranking nodes in visit order (the
  // order bfs_spanning_tree assigns) and counting its levels.
  order_.assign(n, -1);
  queue_.resize(2 * n);
  int rank = 0;
  int levels = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  order_[static_cast<std::size_t>(root)] = rank++;
  queue_[tail++] = static_cast<std::uint32_t>(root);
  while (head < tail) {
    const std::size_t level_end = tail;
    for (; head < level_end; ++head) {
      const std::size_t base = queue_[head] * d;
      for (std::size_t p = 0; p < d; ++p) {
        if ((port_[base + p] & kPortUsable) == 0) continue;
        const auto v = static_cast<std::size_t>(nbr_[base + p]);
        if (order_[v] >= 0) continue;
        order_[v] = rank++;
        queue_[tail++] = static_cast<std::uint32_t>(v);
      }
    }
    if (tail > level_end) ++levels;
  }

  // Orient every link (from -> to is up when order(to) < order(from)) and
  // list predecessors: u reaches v by the usable move u -> v, which is the
  // reverse of v's port toward u. Moves into v that are up come first.
  pred_off_.resize(n + 1);
  pred_split_.resize(n);
  pred_.resize(static_cast<std::size_t>(usable_links));
  std::uint32_t k = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t base = v * d;
    for (std::size_t p = 0; p < d; ++p) {
      const NodeId to = nbr_[base + p];
      if (to != kInvalidNode &&
          order_[static_cast<std::size_t>(to)] < order_[v])
        port_[base + p] |= kPortUp;
    }
    const auto list = [&](bool into_v_up) {
      for (std::size_t p = 0; p < d; ++p) {
        if ((port_[base + p] & kPortUsable) == 0) continue;
        const NodeId u = nbr_[base + p];
        if ((order_[v] < order_[static_cast<std::size_t>(u)]) == into_v_up)
          pred_[k++] = u;
      }
    };
    pred_off_[v] = k;
    list(true);
    pred_split_[v] = k;
    list(false);
  }
  pred_off_[n] = k;

  // Distributed construction cost: one BFS wave round per tree level, one
  // exchange per usable directed link per wave.
  return usable_links * std::max(1, levels);
}

void UpDownTable::fill(NodeId dest) const {
  const std::lock_guard<std::mutex> lock(fill_mutex_);
  const auto t = static_cast<std::uint32_t>(dest);
  // Another reader may have filled the slab while this one waited.
  if (stamp_[t].load() == generation_) return;

  // Backward BFS over the phase automaton, into the destination's slab. A
  // router in state (node, Up) may take an up move (stay Up) or a down
  // move (enter Down); in state (node, Down) only down moves remain. We
  // therefore walk predecessors: who can reach `dest` next? Unit weights
  // and a FIFO make the first write of a state final, so each state enters
  // the queue at most once.
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::uint16_t* dist = dist_.get() + static_cast<std::size_t>(t) * 2 * n;
  std::fill(dist, dist + 2 * n, kFar);
  if (faulty_[t] == 0) {
    dist[2 * t] = 0;
    dist[2 * t + 1] = 0;
    queue_[0] = 2 * t;
    queue_[1] = 2 * t + 1;
    std::size_t head = 0;
    std::size_t tail = 2;
    while (head < tail) {
      const std::uint32_t s = queue_[head++];
      const std::uint32_t v = s >> 1;
      const auto next = static_cast<std::uint16_t>(dist[s] + 1);
      if ((s & 1) == 0) {
        // (v, Up) is reached by up moves only, from (u, Up).
        for (std::uint32_t j = pred_off_[v]; j < pred_split_[v]; ++j) {
          const auto u = static_cast<std::uint32_t>(pred_[j]);
          if (dist[2 * u] != kFar) continue;
          dist[2 * u] = next;
          queue_[tail++] = 2 * u;
        }
      } else {
        // (v, Down) is reached by down moves, from (u, Down) or (u, Up).
        for (std::uint32_t j = pred_split_[v]; j < pred_off_[v + 1]; ++j) {
          const auto u = static_cast<std::uint32_t>(pred_[j]);
          if (dist[2 * u + 1] == kFar) {
            dist[2 * u + 1] = next;
            queue_[tail++] = 2 * u + 1;
          }
          if (dist[2 * u] == kFar) {
            dist[2 * u] = next;
            queue_[tail++] = 2 * u;
          }
        }
      }
    }
  }
  ++filled_;
  stamp_[t].store(generation_, std::memory_order_release);
}

StaticVector<PortId, 16> UpDownTable::next_hops(NodeId node, NodeId dest,
                                                Phase phase) const {
  FR_REQUIRE(ready());
  FR_REQUIRE(node >= 0 && node < num_nodes_ && dest >= 0 &&
             dest < num_nodes_);
  StaticVector<PortId, 16> out;
  if (node == dest) return out;
  const std::uint16_t* dist = slab(dest);
  const std::uint16_t here = dist[state(node, phase)];
  if (here == kFar) return out;
  const std::size_t base =
      static_cast<std::size_t>(node) * static_cast<std::size_t>(degree_);
  for (PortId p = 0; p < degree_; ++p) {
    const std::uint8_t flags = port_[base + static_cast<std::size_t>(p)];
    if ((flags & kPortUsable) == 0) continue;
    const bool up_move = (flags & kPortUp) != 0;
    if (phase == Phase::Down && up_move) continue;
    const NodeId m = nbr_[base + static_cast<std::size_t>(p)];
    if (dist[state(m, up_move ? Phase::Up : Phase::Down)] + 1 == here &&
        !out.full())
      out.push_back(p);
  }
  FR_ENSURE_MSG(!out.empty(), "up*/down* table inconsistent: no next hop");
  return out;
}

UpDownTable::Phase UpDownTable::phase_after(NodeId from, PortId port) const {
  return is_up_move(from, port) ? Phase::Up : Phase::Down;
}

UpDownTable::Phase UpDownTable::arrival_phase(NodeId node,
                                              PortId in_port) const {
  if (in_port < 0 || in_port >= degree_) return Phase::Up;
  return phase_after(topo_->neighbor(node, in_port),
                     topo_->reverse_port(node, in_port));
}

PortId UpDownTable::escape_hop(NodeId node, NodeId dest, PortId in_port,
                               bool on_escape) const {
  if (dest == node || !reachable(node, dest)) return degree_;
  const Phase phase = on_escape ? arrival_phase(node, in_port) : Phase::Up;
  return next_hops(node, dest, phase)[0];
}

bool UpDownTable::is_up_move(NodeId from, PortId port) const {
  FR_REQUIRE(ready());
  FR_REQUIRE(from >= 0 && from < num_nodes_ && port >= 0 && port < degree_);
  const std::size_t i =
      static_cast<std::size_t>(from) * static_cast<std::size_t>(degree_) +
      static_cast<std::size_t>(port);
  FR_REQUIRE(nbr_[i] != kInvalidNode);
  return (port_[i] & kPortUp) != 0;
}

bool UpDownTable::reachable(NodeId from, NodeId to) const {
  FR_REQUIRE(ready());
  FR_REQUIRE(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  if (from == to) return faulty_[static_cast<std::size_t>(from)] == 0;
  return slab(to)[state(from, Phase::Up)] != kFar;
}

int UpDownTable::distance(NodeId from, NodeId to, Phase phase) const {
  FR_REQUIRE(ready());
  FR_REQUIRE(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  const std::uint16_t d = slab(to)[state(from, phase)];
  return d == kFar ? -1 : d;
}

RouteDecision UpDownRouting::route(const RouteContext& ctx) const {
  FR_REQUIRE_MSG(table_.ready(), "route() before attach()");
  FR_REQUIRE_MSG(table_.built_for_epoch() == faults_->epoch(),
                 "stale up*/down* table: reconfigure() missed an epoch");
  RouteDecision d;
  if (ctx.dest == ctx.node) {
    d.candidates.push_back({topo_->degree(), 0, 0});
    return d;
  }
  // Phase tracking: a packet that arrived via a down move may only continue
  // down. Injected packets start in Up phase.
  const UpDownTable::Phase phase = table_.arrival_phase(ctx.node, ctx.in_port);
  for (const PortId p : table_.next_hops(ctx.node, ctx.dest, phase)) {
    for (VcId v = 0; v < vcs_; ++v) d.candidates.push_back({p, v, 0});
  }
  return d;
}

}  // namespace flexrouter
