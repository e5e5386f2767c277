// Up*/down* routing on a BFS spanning tree of the healthy subgraph.
//
// Links are oriented by BFS visit order: a move u -> v is "up" when
// order(v) < order(u). Legal paths are zero or more up moves followed by
// zero or more down moves; the down->up turn is forbidden, which makes the
// channel dependency graph acyclic (up chains strictly decrease the order,
// down chains strictly increase it, and no edge leads from a down channel
// to an up channel).
//
// This serves two roles: a standalone deadlock-free fault-tolerant
// algorithm (the spanning-tree flavoured baseline done right — it uses ALL
// healthy links, not just tree edges), and the escape layer of the
// NAFTA/ROUTE_C reconstructions (Duato methodology; see DESIGN.md). It is
// recomputed during the quiescent diagnosis phase that fault assumption iv
// grants.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "routing/routing.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

class UpDownTable {
 public:
  enum class Phase { Up, Down };

  UpDownTable() = default;
  UpDownTable(const UpDownTable&) = delete;
  UpDownTable& operator=(const UpDownTable&) = delete;

  /// Rebuild tree, orientation and predecessor lists for the current fault
  /// state, O(N x degree), and snapshot what the distance slabs are a
  /// function of (usable links, faulty nodes). No slab is filled here: each
  /// destination's slab is filled on its first read in the new epoch, from
  /// the snapshot only, so later mutations of `faults` cannot reach it.
  /// Returns the number of node-to-node information exchanges the
  /// distributed construction would need (tree building is a BFS wave:
  /// one exchange per usable directed link, plus one wave round per level).
  /// Contract: 2 * num_nodes < 0xffff (distances are 16-bit), checked
  /// before anything is touched; no read may run concurrently with it.
  int rebuild(const FaultSet& faults);

  bool ready() const { return !order_.empty(); }
  std::uint64_t built_for_epoch() const { return epoch_; }

  /// Destination slabs filled since the last rebuild() (a counter of the
  /// escape layer's traffic, at most the node count).
  std::int64_t slabs_filled() const { return filled_.load(); }

  /// All ports at `node` that advance toward `dest` along a shortest legal
  /// path from the given phase. Empty iff dest is unreachable.
  StaticVector<PortId, 16> next_hops(NodeId node, NodeId dest,
                                    Phase phase) const;

  /// Phase after traversing `port` from `from`.
  Phase phase_after(NodeId from, PortId port) const;

  /// Phase of a header that arrived at `node` through `in_port`: locked
  /// into Down iff that move was a down move; Up for an injected header
  /// (`in_port` off the router's link ports).
  Phase arrival_phase(NodeId node, PortId in_port) const;

  /// The deterministic escape hop at `node` toward `dest` — the first next
  /// hop from Up, or from the arrival phase of a header already `on_escape`
  /// — or the injection port (degree) at the destination and where the
  /// layer cannot reach it.
  PortId escape_hop(NodeId node, NodeId dest, PortId in_port,
                    bool on_escape) const;

  /// True if the move from `from` via `port` is an up move.
  bool is_up_move(NodeId from, PortId port) const;

  int order(NodeId n) const { return order_[static_cast<std::size_t>(n)]; }
  bool reachable(NodeId from, NodeId to) const;

  /// Legal-path distance (may exceed the topological distance). -1 when
  /// unreachable.
  int distance(NodeId from, NodeId to, Phase phase) const;

 private:
  /// 16-bit distance meaning "unreachable".
  static constexpr std::uint16_t kFar = 0xffff;
  /// port_ flag bits.
  static constexpr std::uint8_t kPortUsable = 1;
  static constexpr std::uint8_t kPortUp = 2;

  /// Destination `dest`'s slab of 2N distances, indexed by state(), filled
  /// first if this epoch has not filled it yet. Safe to call from several
  /// threads at once: the fast path is one acquire load of the slab's
  /// stamp, and fill() runs at most once per slab and epoch.
  const std::uint16_t* slab(NodeId dest) const {
    const auto t = static_cast<std::size_t>(dest);
    if (stamp_[t].load(std::memory_order_acquire) != generation_) fill(dest);
    return dist_.get() + t * 2 * static_cast<std::size_t>(num_nodes_);
  }
  /// The slow path of slab(): under fill_mutex_, re-check the stamp, run
  /// the backward BFS into the slab, then publish it with a release store
  /// of the current generation. Allocates nothing.
  void fill(NodeId dest) const;
  static std::size_t state(NodeId node, Phase phase) {
    return 2 * static_cast<std::size_t>(node) + (phase == Phase::Up ? 0 : 1);
  }

  const Topology* topo_ = nullptr;
  std::uint64_t epoch_ = 0;
  NodeId num_nodes_ = 0;
  PortId degree_ = 0;
  /// BFS visit rank per node (-1 when the tree does not reach it).
  std::vector<int> order_;
  /// Per node: 1 when it was faulty at the last rebuild.
  std::vector<std::uint8_t> faulty_;
  /// Per (node, port), node-major: the neighbour (kInvalidNode where the
  /// topology has no link) and kPortUsable | kPortUp flags.
  std::vector<NodeId> nbr_;
  std::vector<std::uint8_t> port_;
  /// Dest-major distance slabs: dest's slab holds 2N entries, the shortest
  /// legal path length from (node, Up) at 2 * node and from (node, Down)
  /// at 2 * node + 1; kFar when unreachable. The storage comes from calloc
  /// and is kept while the node count stays the same, so a slab that is
  /// never read is never touched.
  struct FreeSlabs {
    void operator()(std::uint16_t* p) const { std::free(p); }
  };
  std::unique_ptr<std::uint16_t[], FreeSlabs> dist_;
  /// Per destination: the generation its slab was filled for. A slab is
  /// current iff its stamp equals generation_, which every rebuild bumps.
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamp_;
  std::uint64_t generation_ = 0;
  mutable std::mutex fill_mutex_;
  mutable std::atomic<std::int64_t> filled_{0};
  /// Rebuild scratch, kept to reuse its storage across rebuilds: the
  /// predecessors of v in pred_[pred_off_[v], pred_off_[v + 1]), those
  /// whose move into v is up first (up to pred_split_[v]), and one FIFO
  /// of (node, phase) states shared by the tree BFS and fill() (which
  /// holds fill_mutex_ while it uses it).
  std::vector<std::uint32_t> pred_off_;
  std::vector<std::uint32_t> pred_split_;
  std::vector<NodeId> pred_;
  mutable std::vector<std::uint32_t> queue_;
};

/// Standalone up*/down* routing algorithm (single virtual channel).
class UpDownRouting final : public RoutingAlgorithm {
 public:
  explicit UpDownRouting(int num_vcs = 1) : vcs_(num_vcs) {}

  std::string name() const override { return "updown"; }
  int num_vcs() const override { return vcs_; }

  void attach(const Topology& topo, const FaultSet& faults) override {
    topo_ = &topo;
    faults_ = &faults;
    reconfigure();
  }

  int reconfigure() override { return table_.rebuild(*faults_); }

  RouteDecision route(const RouteContext& ctx) const override;

  const UpDownTable& table() const { return table_; }

 private:
  const Topology* topo_ = nullptr;
  const FaultSet* faults_ = nullptr;
  UpDownTable table_;
  int vcs_;
};

}  // namespace flexrouter
