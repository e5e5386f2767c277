// Tests for the routing algorithms: candidate correctness, the paper's
// conditions 1-3, propagated fault states, decision-step accounting, and
// mechanical deadlock-freedom checks via channel dependency graphs.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <latch>
#include <limits>
#include <set>
#include <thread>

#include "common/alloc_counter.hpp"
#include "routing/cdg.hpp"
#include "routing/dor.hpp"
#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "routing/route_c.hpp"
#include "routing/spanning_tree.hpp"
#include "routing/updown.hpp"
#include "sim/fault_injector.hpp"
#include "sim/scenario.hpp"
#include "topology/graph_algo.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

namespace flexrouter {
namespace {

RouteContext ctx_of(NodeId node, NodeId dest, PortId in_port = kInvalidPort,
                    VcId in_vc = 0) {
  RouteContext ctx;
  ctx.node = node;
  ctx.dest = dest;
  ctx.src = node;
  ctx.in_port = in_port;
  ctx.in_vc = in_vc;
  return ctx;
}

std::set<PortId> candidate_ports(const RouteDecision& d) {
  std::set<PortId> out;
  for (const RouteCandidate& c : d.candidates) out.insert(c.port);
  return out;
}

// ---------------------------------------------------------------------- DOR
TEST(Dor, XYOrderOnMesh) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  DimensionOrderMesh dor;
  dor.attach(m, f);
  // x first:
  auto d = dor.route(ctx_of(m.at(0, 0), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{port_of(Compass::East)});
  // then y:
  d = dor.route(ctx_of(m.at(2, 0), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{port_of(Compass::North)});
  // arrived:
  d = dor.route(ctx_of(m.at(2, 3), m.at(2, 3)));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{m.degree()});
}

TEST(Dor, FullCdgAcyclic) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  DimensionOrderMesh dor;
  dor.attach(m, f);
  const CdgReport rep = check_full_cdg(m, f, dor);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

TEST(ECube, AscendingDimensionOrder) {
  Hypercube h(4);
  FaultSet f(h);
  ECubeHypercube ecube;
  ecube.attach(h, f);
  const auto d = ecube.route(ctx_of(0b0000, 0b1010));
  EXPECT_EQ(candidate_ports(d), std::set<PortId>{1});  // lowest differing bit
  const CdgReport rep = check_full_cdg(h, f, ecube);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// --------------------------------------------------------------------- NARA
TEST(NaraTest, FullyAdaptiveMinimal) {
  // Condition 1: every minimal direction is offered when fault-free.
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto d = nara.route(ctx_of(s, t));
      std::set<PortId> expect;
      if (m.x_of(t) > m.x_of(s)) expect.insert(port_of(Compass::East));
      if (m.x_of(t) < m.x_of(s)) expect.insert(port_of(Compass::West));
      if (m.y_of(t) > m.y_of(s)) expect.insert(port_of(Compass::North));
      if (m.y_of(t) < m.y_of(s)) expect.insert(port_of(Compass::South));
      EXPECT_EQ(candidate_ports(d), expect);
      EXPECT_EQ(d.steps, 1);
    }
  }
}

TEST(NaraTest, VirtualNetworkDiscipline) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  // Going north: all candidates on VC 1.
  auto d = nara.route(ctx_of(m.at(2, 2), m.at(4, 5)));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, 1);
  // Going south: VC 0.
  d = nara.route(ctx_of(m.at(2, 2), m.at(0, 0)));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, 0);
  // Pure x: both VCs offered.
  d = nara.route(ctx_of(m.at(2, 2), m.at(5, 2)));
  std::set<VcId> vcs;
  for (const auto& c : d.candidates) vcs.insert(c.vc);
  EXPECT_EQ(vcs, (std::set<VcId>{0, 1}));
}

TEST(NaraTest, FullCdgAcyclic) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  const CdgReport rep = check_full_cdg(m, f, nara);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// ----------------------------------------------------------------- up*/down*
TEST(UpDown, DeliversEverywhereUnderFaults) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Mesh m = Mesh::two_d(6, 6);
    FaultSet f(m);
    inject_random_link_faults(f, 10, rng);
    UpDownTable table;
    table.rebuild(f);
    // Walk from every source to every dest following the table; phase must
    // stay legal and the walk must terminate within the legal distance.
    for (NodeId s = 0; s < m.num_nodes(); ++s) {
      for (NodeId t = 0; t < m.num_nodes(); ++t) {
        if (s == t) continue;
        ASSERT_TRUE(table.reachable(s, t));
        NodeId at = s;
        auto phase = UpDownTable::Phase::Up;
        int steps = 0;
        while (at != t) {
          const auto hops = table.next_hops(at, t, phase);
          ASSERT_FALSE(hops.empty());
          const PortId p = hops[0];
          phase = table.phase_after(at, p);
          at = m.neighbor(at, p);
          ASSERT_LE(++steps, 4 * m.num_nodes());
        }
        EXPECT_EQ(steps, table.distance(s, t, UpDownTable::Phase::Up));
      }
    }
  }
}

TEST(UpDown, DownPhaseNeverGoesUp) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  for (NodeId n = 0; n < m.num_nodes(); ++n) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (n == t || !table.reachable(n, t)) continue;
      if (table.distance(n, t, UpDownTable::Phase::Down) < 0) continue;
      for (const PortId p : table.next_hops(n, t, UpDownTable::Phase::Down))
        EXPECT_FALSE(table.is_up_move(n, p));
    }
  }
}

TEST(UpDown, LegalDistanceAtLeastTopological) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      EXPECT_GE(table.distance(s, t, UpDownTable::Phase::Up),
                m.distance(s, t));
    }
}

TEST(UpDown, CdgAcyclicUnderRandomFaults) {
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    Mesh m = Mesh::two_d(5, 5);
    FaultSet f(m);
    UpDownRouting algo;
    algo.attach(m, f);
    inject_random_link_faults(f, 2 * trial, rng);
    algo.reconfigure();
    const CdgReport rep = check_full_cdg(m, f, algo);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
  }
}

// Reference up*/down* tables: the straightforward per-destination deque BFS
// over (node, phase) states with node-major int tables, reading the
// topology and the fault set directly. UpDownTable must agree with it on
// every distance, reachability bit, next-hop list (order included), link
// orientation and exchange count.
struct UpDownOracle {
  static constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

  explicit UpDownOracle(const FaultSet& f) : faults(f), topo(f.topology()) {
    const NodeId n_nodes = topo.num_nodes();
    const auto n = static_cast<std::size_t>(n_nodes);
    const SpanningTree tree = bfs_spanning_tree(f, choose_tree_root(f));
    order = tree.order;
    dist_up.assign(n * n, kUnreachable);
    dist_down.assign(n * n, kUnreachable);
    for (NodeId dest = 0; dest < n_nodes; ++dest) {
      if (f.node_faulty(dest)) continue;
      auto up = [&](NodeId node) -> int& { return dist_up[idx(node, dest)]; };
      auto down = [&](NodeId node) -> int& {
        return dist_down[idx(node, dest)];
      };
      std::deque<std::pair<NodeId, int>> queue;  // phase 0 = Up, 1 = Down
      up(dest) = 0;
      down(dest) = 0;
      queue.emplace_back(dest, 0);
      queue.emplace_back(dest, 1);
      while (!queue.empty()) {
        const auto [v, phase] = queue.front();
        queue.pop_front();
        const int dv = phase == 0 ? up(v) : down(v);
        for (PortId pv = 0; pv < topo.degree(); ++pv) {
          if (!f.link_usable(v, pv)) continue;
          const NodeId u = topo.neighbor(v, pv);
          if (order[static_cast<std::size_t>(v)] <
              order[static_cast<std::size_t>(u)]) {
            if (phase == 0 && up(u) > dv + 1) {
              up(u) = dv + 1;
              queue.emplace_back(u, 0);
            }
          } else if (phase == 1) {
            if (down(u) > dv + 1) {
              down(u) = dv + 1;
              queue.emplace_back(u, 1);
            }
            if (up(u) > dv + 1) {
              up(u) = dv + 1;
              queue.emplace_back(u, 0);
            }
          }
        }
      }
    }
    int usable_links = 0;
    for (NodeId u = 0; u < n_nodes; ++u)
      for (PortId p = 0; p < topo.degree(); ++p)
        if (f.link_usable(u, p)) ++usable_links;
    int levels = 0;
    for (const int l : tree.level) levels = std::max(levels, l);
    exchanges = usable_links * std::max(1, levels);
  }

  std::size_t idx(NodeId node, NodeId dest) const {
    return static_cast<std::size_t>(node) *
               static_cast<std::size_t>(topo.num_nodes()) +
           static_cast<std::size_t>(dest);
  }
  bool up_move(NodeId from, PortId port) const {
    return order[static_cast<std::size_t>(topo.neighbor(from, port))] <
           order[static_cast<std::size_t>(from)];
  }
  int dist(NodeId node, NodeId dest, UpDownTable::Phase phase) const {
    return phase == UpDownTable::Phase::Up ? dist_up[idx(node, dest)]
                                           : dist_down[idx(node, dest)];
  }
  int distance(NodeId node, NodeId dest, UpDownTable::Phase phase) const {
    const int d = dist(node, dest, phase);
    return d >= kUnreachable ? -1 : d;
  }
  bool reachable(NodeId from, NodeId to) const {
    if (from == to) return faults.node_ok(from);
    return dist_up[idx(from, to)] < kUnreachable;
  }
  std::vector<PortId> next_hops(NodeId node, NodeId dest,
                                UpDownTable::Phase phase) const {
    std::vector<PortId> out;
    const int here = dist(node, dest, phase);
    if (node == dest || here >= kUnreachable) return out;
    for (PortId p = 0; p < topo.degree(); ++p) {
      if (!faults.link_usable(node, p)) continue;
      const bool up = up_move(node, p);
      if (phase == UpDownTable::Phase::Down && up) continue;
      const NodeId m = topo.neighbor(node, p);
      const int next = up ? dist_up[idx(m, dest)] : dist_down[idx(m, dest)];
      if (next == here - 1) out.push_back(p);
    }
    return out;
  }

  const FaultSet& faults;
  const Topology& topo;
  std::vector<int> order;
  std::vector<int> dist_up;
  std::vector<int> dist_down;
  int exchanges = 0;
};

/// The table's destination order, shuffled by `read_seed`: slabs fill on
/// their first read, so no test should depend on reading them in order.
std::vector<NodeId> shuffled_dests(NodeId n_nodes, std::uint64_t read_seed) {
  std::vector<NodeId> dests(static_cast<std::size_t>(n_nodes));
  for (NodeId t = 0; t < n_nodes; ++t) dests[static_cast<std::size_t>(t)] = t;
  Rng rng(read_seed);
  rng.shuffle(dests);
  return dests;
}

/// Every distance, reachability bit and next-hop list toward `t`.
void expect_dest_matches_oracle(const UpDownTable& table,
                                const UpDownOracle& oracle, NodeId t) {
  for (NodeId n = 0; n < oracle.topo.num_nodes(); ++n) {
    ASSERT_EQ(table.reachable(n, t), oracle.reachable(n, t))
        << n << " -> " << t;
    for (const auto phase :
         {UpDownTable::Phase::Up, UpDownTable::Phase::Down}) {
      ASSERT_EQ(table.distance(n, t, phase), oracle.distance(n, t, phase))
          << n << " -> " << t << " phase " << static_cast<int>(phase);
      const auto hops = table.next_hops(n, t, phase);
      ASSERT_EQ(std::vector<PortId>(hops.begin(), hops.end()),
                oracle.next_hops(n, t, phase))
          << n << " -> " << t << " phase " << static_cast<int>(phase);
    }
  }
}

void expect_matches_oracle(const FaultSet& f, const std::string& what,
                           std::uint64_t read_seed) {
  SCOPED_TRACE(what);
  const Topology& topo = f.topology();
  const UpDownOracle oracle(f);
  UpDownTable table;
  ASSERT_EQ(table.rebuild(f), oracle.exchanges);
  ASSERT_EQ(table.built_for_epoch(), f.epoch());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    ASSERT_EQ(table.order(n), oracle.order[static_cast<std::size_t>(n)]);
    for (PortId p = 0; p < topo.degree(); ++p) {
      if (topo.neighbor(n, p) == kInvalidNode) {
        EXPECT_THROW(table.is_up_move(n, p), ContractViolation);
        continue;
      }
      ASSERT_EQ(table.is_up_move(n, p), oracle.up_move(n, p))
          << "node " << n << " port " << p;
    }
  }
  EXPECT_EQ(table.slabs_filled(), 0);
  for (const NodeId t : shuffled_dests(topo.num_nodes(), read_seed)) {
    expect_dest_matches_oracle(table, oracle, t);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(table.slabs_filled(), topo.num_nodes());
}

// Fail every link between nodes below `split` and the rest.
void cut_below(FaultSet& f, NodeId split) {
  const Topology& topo = f.topology();
  for (NodeId u = 0; u < split; ++u)
    for (PortId p = 0; p < topo.degree(); ++p) {
      const NodeId v = topo.neighbor(u, p);
      if (v != kInvalidNode && v >= split) f.fail_link(u, p);
    }
}

void expect_matches_oracle_under_faults(const Topology& topo,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t read_seed = seed;
  {
    FaultSet f(topo);
    expect_matches_oracle(f, topo.name() + " fault-free", ++read_seed);
  }
  for (int trial = 0; trial < 4; ++trial) {
    FaultSet f(topo);
    inject_random_link_faults(f, 3 + 2 * trial, rng, trial % 2 == 0);
    expect_matches_oracle(f, topo.name() + " random link faults",
                          ++read_seed);
  }
  for (int trial = 0; trial < 3; ++trial) {
    FaultSet f(topo);
    inject_random_node_faults(f, 1 + trial, rng, false);
    inject_random_link_faults(f, 2, rng, false);
    expect_matches_oracle(f, topo.name() + " node faults", ++read_seed);
  }
  {
    FaultSet f(topo);
    cut_below(f, topo.num_nodes() / 2);
    ASSERT_FALSE(all_healthy_connected(f));
    expect_matches_oracle(f, topo.name() + " partitioning cut", ++read_seed);
    f.fail_node(topo.num_nodes() - 1);
    expect_matches_oracle(f, topo.name() + " cut plus a faulty node",
                          ++read_seed);
  }
}

TEST(UpDown, FlatTableMatchesOracleOnMesh) {
  Mesh m = Mesh::two_d(6, 6);
  expect_matches_oracle_under_faults(m, 0x6d657368);
}

TEST(UpDown, FlatTableMatchesOracleOnTorus) {
  Torus t = Torus::two_d(4, 4);
  expect_matches_oracle_under_faults(t, 0x746f7273);
}

TEST(UpDown, FlatTableMatchesOracleOnHypercube) {
  Hypercube h(5);
  expect_matches_oracle_under_faults(h, 0x63756265);
}

TEST(UpDown, ReusedTableMatchesOracleAcrossRebuilds) {
  // One table rebuilt through a fault sequence, as reconfigure() does at
  // every commit, and onto a fabric of another size: the reused arrays
  // must carry nothing over from the previous build.
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  UpDownTable table;
  Rng rng(7);
  for (int step = 0; step < 4; ++step) {
    inject_random_link_faults(f, 2, rng, false);
    const UpDownOracle oracle(f);
    ASSERT_EQ(table.rebuild(f), oracle.exchanges);
    for (NodeId n = 0; n < m.num_nodes(); ++n)
      for (NodeId t = 0; t < m.num_nodes(); ++t)
        ASSERT_EQ(table.distance(n, t, UpDownTable::Phase::Down),
                  oracle.distance(n, t, UpDownTable::Phase::Down));
  }
  Hypercube h(3);
  FaultSet fh(h);
  fh.fail_node(5);
  const UpDownOracle oracle(fh);
  ASSERT_EQ(table.rebuild(fh), oracle.exchanges);
  for (NodeId n = 0; n < h.num_nodes(); ++n)
    for (NodeId t = 0; t < h.num_nodes(); ++t) {
      ASSERT_EQ(table.distance(n, t, UpDownTable::Phase::Up),
                oracle.distance(n, t, UpDownTable::Phase::Up));
      const auto hops = table.next_hops(n, t, UpDownTable::Phase::Up);
      ASSERT_EQ(std::vector<PortId>(hops.begin(), hops.end()),
                oracle.next_hops(n, t, UpDownTable::Phase::Up));
    }
}

TEST(UpDown, RebuildOnTheSameFabricDoesNotAllocate) {
  // Every fault commit rebuilds the table. On a fabric of unchanged size
  // its arrays are reused, so only the first rebuild touches the heap
  // (checked in FLEXROUTER_COUNT_ALLOCS builds; elsewhere the counter
  // reads zero). The fault mutations allocate, so they stay outside.
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  f.fail_link(m.at(1, 1), port_of(Compass::East));
  std::int64_t before = heap_alloc_count();
  table.rebuild(f);
  EXPECT_EQ(heap_alloc_count() - before, 0);
  f.fail_node(m.at(2, 2));
  before = heap_alloc_count();
  table.rebuild(f);
  EXPECT_EQ(heap_alloc_count() - before, 0);
  // The first read of each slab fills it, in the storage and FIFO that the
  // rebuild sized.
  const NodeId corner = m.at(0, 0);
  before = heap_alloc_count();
  for (NodeId t = 0; t < m.num_nodes(); ++t)
    table.distance(corner, t, UpDownTable::Phase::Up);
  EXPECT_EQ(heap_alloc_count() - before, 0);
  EXPECT_EQ(table.slabs_filled(), m.num_nodes());
  EXPECT_FALSE(table.reachable(corner, m.at(2, 2)));
}

TEST(UpDown, SixteenBitDistanceGuardFiresBeforeTouchingTheTable) {
  // 2^15 nodes: 2N = 65536 does not fit below the 0xffff sentinel. The
  // guard must reject the fabric before allocating (the tables would be
  // 4 GiB) and leave a previously built table answering as before.
  Mesh small = Mesh::two_d(4, 4);
  FaultSet fs(small);
  UpDownTable table;
  table.rebuild(fs);
  const int before = table.distance(0, 15, UpDownTable::Phase::Up);
  Hypercube big(15);
  FaultSet fb(big);
  EXPECT_THROW(table.rebuild(fb), ContractViolation);
  EXPECT_EQ(table.built_for_epoch(), fs.epoch());
  EXPECT_EQ(table.distance(0, 15, UpDownTable::Phase::Up), before);
  EXPECT_EQ(table.next_hops(0, 15, UpDownTable::Phase::Up).size(), 2u);
  // Destination 0's slab was never read: its first fill must still come
  // from the surviving table's snapshot.
  const UpDownOracle oracle(fs);
  for (const auto phase : {UpDownTable::Phase::Up, UpDownTable::Phase::Down})
    EXPECT_EQ(table.distance(15, 0, phase), oracle.distance(15, 0, phase));
  const auto hops = table.next_hops(15, 0, UpDownTable::Phase::Up);
  EXPECT_EQ(std::vector<PortId>(hops.begin(), hops.end()),
            oracle.next_hops(15, 0, UpDownTable::Phase::Up));
  EXPECT_EQ(table.slabs_filled(), 2);
  UpDownTable fresh;
  EXPECT_THROW(fresh.rebuild(fb), ContractViolation);
  EXPECT_FALSE(fresh.ready());
}

TEST(UpDown, OutOfRangeReadsThrowAndFillNothing) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  UpDownTable table;
  table.rebuild(f);
  const NodeId n = m.num_nodes();
  const auto up = UpDownTable::Phase::Up;
  const auto down = UpDownTable::Phase::Down;
  EXPECT_THROW(table.reachable(0, n), ContractViolation);
  EXPECT_THROW(table.reachable(0, -1), ContractViolation);
  EXPECT_THROW(table.reachable(n, 0), ContractViolation);
  EXPECT_THROW(table.reachable(n, n), ContractViolation);
  EXPECT_THROW(table.distance(0, n, up), ContractViolation);
  EXPECT_THROW(table.distance(0, -1, down), ContractViolation);
  EXPECT_THROW(table.distance(n, 0, up), ContractViolation);
  EXPECT_THROW(table.distance(-1, 0, down), ContractViolation);
  EXPECT_THROW(table.next_hops(0, n, up), ContractViolation);
  EXPECT_EQ(table.slabs_filled(), 0);
}

TEST(UpDown, LazyFillNeverServesAStaleSlab) {
  // Fill half the slabs in one epoch, commit faults, rebuild, then read
  // every slab: the ones filled in the old epoch must be refilled, not
  // served, and the unread ones filled for the first time.
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Rng rng(0x57a1e);
  inject_random_link_faults(f, 4, rng, false);
  UpDownTable table;
  table.rebuild(f);
  const FaultSet old_faults = f;
  const UpDownOracle old_oracle(old_faults);
  const std::vector<NodeId> dests = shuffled_dests(m.num_nodes(), 0x57a1e);
  const std::size_t half = dests.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    expect_dest_matches_oracle(table, old_oracle, dests[i]);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(table.slabs_filled(), static_cast<std::int64_t>(half));

  f.fail_node(m.at(2, 3));
  f.fail_link(m.at(4, 1), port_of(Compass::North));
  table.rebuild(f);
  EXPECT_EQ(table.slabs_filled(), 0);
  const UpDownOracle oracle(f);
  // The faults must change what a filled slab holds, or a stale slab would
  // go unnoticed.
  bool changed = false;
  for (std::size_t i = 0; i < half; ++i)
    for (NodeId n = 0; n < m.num_nodes(); ++n)
      changed = changed ||
                old_oracle.distance(n, dests[i], UpDownTable::Phase::Up) !=
                    oracle.distance(n, dests[i], UpDownTable::Phase::Up);
  ASSERT_TRUE(changed);
  for (const NodeId t : dests) {
    expect_dest_matches_oracle(table, oracle, t);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(table.slabs_filled(), m.num_nodes());
}

TEST(UpDown, SlabsAreAFunctionOfTheFaultsAtRebuild) {
  // The fault set may change after a rebuild without another: tests mutate
  // it, and degrade_link never bumps the epoch. Every slab, filled before
  // or after such changes, must still answer for the rebuilt fault set.
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Rng rng(0x5ab);
  inject_random_link_faults(f, 4, rng, false);
  f.fail_node(m.at(4, 1));
  UpDownTable table;
  table.rebuild(f);
  const FaultSet at_rebuild = f;
  const UpDownOracle oracle(at_rebuild);
  const std::vector<NodeId> dests = shuffled_dests(m.num_nodes(), 0x5ab);
  const std::size_t third = dests.size() / 3;
  for (std::size_t i = 0; i < third; ++i)
    expect_dest_matches_oracle(table, oracle, dests[i]);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  f.fail_link(m.at(2, 2), port_of(Compass::East));
  f.fail_node(m.at(1, 4));
  f.repair_node(m.at(4, 1));
  f.degrade_link(m.at(3, 3), port_of(Compass::North), 4);
  ASSERT_NE(f.epoch(), table.built_for_epoch());
  EXPECT_NE(UpDownOracle(f).distance(0, m.at(1, 4), UpDownTable::Phase::Up),
            oracle.distance(0, m.at(1, 4), UpDownTable::Phase::Up));
  for (const NodeId t : dests) {
    expect_dest_matches_oracle(table, oracle, t);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(table.slabs_filled(), m.num_nodes());
}

TEST(UpDown, ConcurrentFirstReadsFillEachSlabOnce) {
  // Sharded route() calls read one destination's slab from several shards
  // at once. Four readers start together on a freshly rebuilt, faulted
  // table and read the same destinations in the same order: every answer
  // must match the oracle, and each slab must be filled exactly once.
  constexpr int kReaders = 4;
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Rng rng(0xc0c0);
  UpDownTable table;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    inject_random_link_faults(f, 3, rng, false);
    if (round == 1) f.fail_node(m.at(5, 2));
    table.rebuild(f);
    const UpDownOracle oracle(f);
    const std::vector<NodeId> dests =
        shuffled_dests(m.num_nodes(), 0xc0c0 + static_cast<unsigned>(round));
    std::latch start(kReaders);
    std::array<int, kReaders> mismatches{};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r)
      readers.emplace_back([&, r] {
        int& bad = mismatches[static_cast<std::size_t>(r)];
        start.arrive_and_wait();
        try {
          for (const NodeId t : dests)
            for (NodeId n = 0; n < m.num_nodes(); ++n) {
              bad += table.reachable(n, t) != oracle.reachable(n, t);
              for (const auto phase :
                   {UpDownTable::Phase::Up, UpDownTable::Phase::Down}) {
                bad += table.distance(n, t, phase) !=
                       oracle.distance(n, t, phase);
                const auto hops = table.next_hops(n, t, phase);
                bad += std::vector<PortId>(hops.begin(), hops.end()) !=
                       oracle.next_hops(n, t, phase);
              }
            }
        } catch (const std::exception&) {
          ++bad;
        }
      });
    for (std::thread& t : readers) t.join();
    for (int r = 0; r < kReaders; ++r)
      EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0) << "reader " << r;
    EXPECT_EQ(table.slabs_filled(), m.num_nodes());
  }
}

// ------------------------------------------------------------ spanning tree
TEST(SpanningTreeAlgo, UsesOnlyTreeLinks) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  // Collect tree edges.
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (NodeId v = 0; v < m.num_nodes(); ++v) {
    const NodeId parent = st.tree().parent[static_cast<std::size_t>(v)];
    if (parent == kInvalidNode) continue;
    tree_edges.emplace(v, parent);
    tree_edges.emplace(parent, v);
  }
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto d = st.route(ctx_of(s, t));
      ASSERT_EQ(d.candidates.size(), 1u);
      const NodeId next = m.neighbor(s, d.candidates[0].port);
      EXPECT_TRUE(tree_edges.count({s, next}))
          << "non-tree link used " << s << "->" << next;
    }
}

TEST(SpanningTreeAlgo, WastesMostLinks) {
  // The paper's Section 2 claim, quantified: a spanning tree uses N-1 of the
  // 2*W*H-W-H mesh links.
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  EXPECT_NEAR(st.link_usage_fraction(), 63.0 / 112.0, 1e-9);
}

TEST(SpanningTreeAlgo, SurvivesFaultsViaRecompute) {
  Rng rng(5);
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  SpanningTreeRouting st;
  st.attach(m, f);
  inject_random_link_faults(f, 6, rng);
  const int exchanges = st.reconfigure();
  EXPECT_GT(exchanges, 0);
  const CdgReport rep = check_full_cdg(m, f, st);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

// -------------------------------------------------------------------- NAFTA
TEST(NaftaTest, FaultFreeEqualsNara) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  Nara nara;
  nafta.attach(m, f);
  nara.attach(m, f);
  for (NodeId s = 0; s < m.num_nodes(); ++s)
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t) continue;
      const auto dn = nafta.route(ctx_of(s, t));
      const auto dr = nara.route(ctx_of(s, t));
      EXPECT_EQ(candidate_ports(dn), candidate_ports(dr));
      EXPECT_EQ(dn.steps, 1);  // one interpretation, fault-free
    }
}

TEST(NaftaTest, StepsClimbWithFaults) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // Fault far away: decisions still need the fault-state lookup (2 steps).
  f.fail_link(m.at(4, 4), port_of(Compass::East));
  nafta.reconfigure();
  const auto d = nafta.route(ctx_of(m.at(0, 0), m.at(2, 0)));
  EXPECT_EQ(d.steps, 2);
  // A message whose every minimal link is broken needs the third step
  // (dest due east, east link broken, north detour remains usable).
  f.fail_link(m.at(0, 0), port_of(Compass::East));
  nafta.reconfigure();
  const auto d2 = nafta.route(ctx_of(m.at(0, 0), m.at(2, 0)));
  EXPECT_EQ(d2.steps, 3);
  EXPECT_TRUE(d2.mark_misrouted);
  EXPECT_FALSE(d2.candidates.empty());
}

TEST(NaftaTest, DeadEndFlagsMatchDefinition) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // Faults in columns 5 and 7: columns east of x=4 are NOT all faulty
  // (column 6 is clean), east of x=6 they are not either... dead-end-east
  // requires EVERY column to the east to contain a fault.
  f.fail_node(m.at(5, 3));
  f.fail_node(m.at(7, 6));
  nafta.reconfigure();
  EXPECT_FALSE(nafta.dead_end(m.at(4, 0), Compass::East));  // col 6 clean
  EXPECT_FALSE(nafta.dead_end(m.at(5, 0), Compass::East));
  EXPECT_TRUE(nafta.dead_end(m.at(6, 0), Compass::East));   // only col 7 east
  // Now break column 6 too: everything east of 4 is dead.
  f.fail_link(m.at(6, 2), port_of(Compass::North));
  nafta.reconfigure();
  EXPECT_TRUE(nafta.dead_end(m.at(4, 0), Compass::East));
  EXPECT_FALSE(nafta.dead_end(m.at(4, 0), Compass::West));
}

TEST(NaftaTest, ConcaveRegionsAreCompleted) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  // An L-shaped fault: block minus its north-east quadrant. The pocket
  // nodes (healthy, inside the L) must be deactivated.
  inject_concave_faults(f, m, 2, 2, 5, 5);
  nafta.reconfigure();
  EXPECT_GT(nafta.num_deactivated(), 0);
  // The inner corner of the pocket is deactivated...
  EXPECT_TRUE(nafta.deactivated(m.at(4, 4)));
  // ...but healthy nodes far away are not.
  EXPECT_FALSE(nafta.deactivated(m.at(0, 0)));
  EXPECT_FALSE(nafta.deactivated(m.at(7, 7)));
}

TEST(NaftaTest, EscapeCdgAcyclicUnderRandomFaults) {
  Rng rng(321);
  for (int trial = 0; trial < 8; ++trial) {
    Mesh m = Mesh::two_d(5, 5);
    FaultSet f(m);
    Nafta nafta;
    nafta.attach(m, f);
    inject_random_link_faults(f, 1 + trial, rng);
    nafta.reconfigure();
    const CdgReport rep = check_escape_cdg(m, f, nafta);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
    EXPECT_GT(rep.num_channels, 0);
  }
}

TEST(NaftaTest, Condition3ViaEscape) {
  // Every connected pair still gets at least one candidate with faults.
  Rng rng(77);
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  inject_random_link_faults(f, 12, rng);
  inject_random_node_faults(f, 2, rng);
  nafta.reconfigure();
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    for (NodeId t = 0; t < m.num_nodes(); ++t) {
      if (s == t || f.node_faulty(s) || f.node_faulty(t)) continue;
      if (!connected(f, s, t)) continue;
      const auto d = nafta.route(ctx_of(s, t));
      EXPECT_FALSE(d.candidates.empty())
          << "no candidate from " << s << " to " << t;
    }
  }
}

// ------------------------------------------------------------------ ROUTE_C
TEST(RouteCTest, StrippedIsMinimalKon90) {
  Hypercube h(4);
  FaultSet f(h);
  StrippedRouteC nft;
  nft.attach(h, f);
  // 0 -> 0b0110: ascending flips bits 1 and 2 on VC 0.
  auto d = nft.route(ctx_of(0b0000, 0b0110));
  EXPECT_EQ(candidate_ports(d), (std::set<PortId>{1, 2}));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kAscVc);
  // 0b0110 -> 0: only descending corrections remain, VC 1.
  d = nft.route(ctx_of(0b0110, 0b0000));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kDescVc);
  // Mixed: ascending first.
  d = nft.route(ctx_of(0b0100, 0b0011));
  EXPECT_EQ(candidate_ports(d), (std::set<PortId>{0, 1}));
  for (const auto& c : d.candidates) EXPECT_EQ(c.vc, RouteC::kAscVc);
}

TEST(RouteCTest, StrippedCdgAcyclic) {
  Hypercube h(4);
  FaultSet f(h);
  StrippedRouteC nft;
  nft.attach(h, f);
  const CdgReport rep = check_full_cdg(h, f, nft);
  EXPECT_TRUE(rep.acyclic) << rep.to_string();
}

TEST(RouteCTest, FaultFreeMatchesStripped) {
  Hypercube h(5);
  FaultSet f(h);
  RouteC ft;
  StrippedRouteC nft;
  ft.attach(h, f);
  nft.attach(h, f);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(32));
    const auto t = static_cast<NodeId>(rng.next_below(32));
    if (s == t) continue;
    EXPECT_EQ(candidate_ports(ft.route(ctx_of(s, t))),
              candidate_ports(nft.route(ctx_of(s, t))));
  }
}

TEST(RouteCTest, AlwaysTwoInterpretations) {
  Hypercube h(4);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  EXPECT_EQ(ft.route(ctx_of(0, 5)).steps, 2);
  f.fail_node(3);
  ft.reconfigure();
  EXPECT_EQ(ft.route(ctx_of(0, 5)).steps, 2);
}

TEST(RouteCTest, UnsafeStatesFollowDefinition) {
  Hypercube h(3);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  // Node 3 (011) has neighbours 2 (010), 1 (001), 7 (111). Fail 2 and 1:
  // node 3 has two faulty neighbours -> strongly unsafe.
  f.fail_node(2);
  f.fail_node(1);
  ft.reconfigure();
  EXPECT_EQ(ft.state(3), NodeState::StronglyUnsafe);
  EXPECT_EQ(ft.state(2), NodeState::Faulty);
  // Node 0 (000) has neighbours 1 (faulty), 2 (faulty), 4 -> also >= 2 hard.
  EXPECT_EQ(ft.state(0), NodeState::StronglyUnsafe);
  // Node 7 (111): neighbours 3 (sunsafe), 5 (safe?), 6 -> check ordinarily
  // unsafe propagation settled monotonically.
  EXPECT_GE(ft.num_unsafe(), 2);
  EXPECT_FALSE(ft.totally_unsafe());
}

TEST(RouteCTest, TotallyUnsafeDetection) {
  Hypercube h(2);  // 4 nodes in a ring
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  f.fail_node(0);
  f.fail_node(3);  // opposite corners: both remaining nodes get 2 faulty nbrs
  ft.reconfigure();
  EXPECT_TRUE(ft.totally_unsafe());
}

TEST(RouteCTest, EscapeCdgAcyclicUnderRandomFaults) {
  Rng rng(444);
  for (int trial = 0; trial < 8; ++trial) {
    Hypercube h(4);
    FaultSet f(h);
    RouteC ft;
    ft.attach(h, f);
    inject_random_node_faults(f, trial % 4, rng);
    inject_random_link_faults(f, trial % 5, rng);
    ft.reconfigure();
    const CdgReport rep = check_escape_cdg(h, f, ft);
    EXPECT_TRUE(rep.acyclic) << "trial " << trial << ": " << rep.to_string();
  }
}

TEST(RouteCTest, Condition3WhileNotTotallyUnsafe) {
  Rng rng(888);
  Hypercube h(4);
  FaultSet f(h);
  RouteC ft;
  ft.attach(h, f);
  inject_random_node_faults(f, 2, rng);
  inject_random_link_faults(f, 3, rng);
  ft.reconfigure();
  ASSERT_FALSE(ft.totally_unsafe());
  for (NodeId s = 0; s < h.num_nodes(); ++s)
    for (NodeId t = 0; t < h.num_nodes(); ++t) {
      if (s == t || f.node_faulty(s) || f.node_faulty(t)) continue;
      if (!connected(f, s, t)) continue;
      EXPECT_FALSE(ft.route(ctx_of(s, t)).candidates.empty())
          << s << " -> " << t;
    }
}

// ------------------------------------------------------------------ factory
TEST(Factory, AllNamesConstruct) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_NE(make_algorithm(name), nullptr) << name;
  }
  EXPECT_THROW(make_algorithm("bogus"), ContractViolation);

  // Every name the algorithm key documents builds on a 16-node fabric of
  // its native kind and attaches.
  std::vector<std::string> documented = algorithm_names();
  for (const char* name :
       {"negative-hop", "nara-rules", "ft-mesh-rules", "ecube-rules"})
    documented.push_back(name);
  EXPECT_EQ(documented.size(), 15u);
  for (const std::string& name : documented) {
    SCOPED_TRACE(name);
    const TopologyKind kind = native_topology_kind(name);
    const auto topo = make_topology(
        kind, kind == TopologyKind::Hypercube ? std::vector<int>{4}
                                              : std::vector<int>{4, 4});
    const auto algo = build_algorithm(name, *topo);
    ASSERT_NE(algo, nullptr);
    const FaultSet faults(*topo);
    EXPECT_NO_THROW(algo->attach(*topo, faults));
  }
  const Mesh mesh = Mesh::two_d(4, 4);
  const Hypercube cube(4);
  EXPECT_THROW(build_algorithm("bogus", mesh), ContractViolation);
  EXPECT_THROW(build_algorithm("ecube-rules", mesh), std::invalid_argument);
  EXPECT_THROW(build_algorithm("ft-mesh-rules", cube), std::invalid_argument);
  EXPECT_THROW(build_algorithm("nara-rules", Torus(std::vector<int>{4, 4})),
               std::invalid_argument);
}

}  // namespace
}  // namespace flexrouter
