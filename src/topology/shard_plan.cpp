#include "topology/shard_plan.hpp"

#include <algorithm>
#include <bit>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace flexrouter {

namespace {

struct GridShape {
  std::vector<int> radix;
};

/// Recursive longest-axis bisection over a coordinate box. The shard count
/// splits proportionally with the cells, so uneven counts (3, 6, ...) still
/// come out balanced within one tile row.
void cut_box(const GridShape& grid, std::vector<int>& lo, std::vector<int>& hi,
             int first_shard, int count, std::vector<int>& out,
             std::vector<NodeId>& stride) {
  if (count == 1) {
    // Assign every node of the box (coordinates are mixed-radix digits over
    // the per-dimension strides).
    std::vector<int> cur = lo;
    for (;;) {
      NodeId n = 0;
      for (std::size_t d = 0; d < cur.size(); ++d)
        n += static_cast<NodeId>(cur[d]) * stride[d];
      out[static_cast<std::size_t>(n)] = first_shard;
      std::size_t d = 0;
      for (; d < cur.size(); ++d) {
        if (++cur[d] < hi[d]) break;
        cur[d] = lo[d];
      }
      if (d == cur.size()) break;
    }
    return;
  }
  // Split the longest axis; ties go to the lowest dimension so the plan is
  // a pure function of (shape, count).
  int axis = 0;
  for (std::size_t d = 1; d < lo.size(); ++d)
    if (hi[d] - lo[d] > hi[axis] - lo[axis]) axis = static_cast<int>(d);
  const int cells = hi[axis] - lo[axis];
  const int c1 = count / 2;
  const int c2 = count - c1;
  // Cells split proportionally to the shard counts, clamped so both halves
  // keep at least one cell per shard (cells >= count is guaranteed by the
  // num_shards <= num_nodes contract plus balanced recursion).
  int l1 = (cells * c1 + count / 2) / count;
  l1 = std::max(l1, c1 > 0 ? 1 : 0);
  l1 = std::min(l1, cells - 1);
  const int mid = lo[axis] + l1;
  const int save_hi = hi[axis];
  hi[axis] = mid;
  cut_box(grid, lo, hi, first_shard, c1, out, stride);
  hi[axis] = save_hi;
  const int save_lo = lo[axis];
  lo[axis] = mid;
  cut_box(grid, lo, hi, first_shard + c1, c2, out, stride);
  lo[axis] = save_lo;
}

std::vector<int> plan_grid(const std::vector<int>& radix, int num_shards) {
  GridShape grid{radix};
  std::vector<NodeId> stride(radix.size());
  NodeId acc = 1;
  for (std::size_t d = 0; d < radix.size(); ++d) {
    stride[d] = acc;
    acc *= static_cast<NodeId>(radix[d]);
  }
  std::vector<int> out(static_cast<std::size_t>(acc), -1);
  std::vector<int> lo(radix.size(), 0);
  std::vector<int> hi = radix;
  cut_box(grid, lo, hi, 0, num_shards, out, stride);
  return out;
}

}  // namespace

ShardPlan plan_shards(const Topology& topo, int num_shards) {
  FR_REQUIRE_MSG(num_shards >= 1 && num_shards <= topo.num_nodes(),
                 "shard count must be in [1, num_nodes]");
  ShardPlan plan;
  plan.num_shards = num_shards;
  const auto n = static_cast<std::size_t>(topo.num_nodes());

  if (const auto* mesh = dynamic_cast<const Mesh*>(&topo)) {
    std::vector<int> radix(static_cast<std::size_t>(mesh->dims()));
    for (int d = 0; d < mesh->dims(); ++d)
      radix[static_cast<std::size_t>(d)] = mesh->radix(d);
    plan.shard_of = plan_grid(radix, num_shards);
    plan.scheme = "mesh-tiles";
  } else if (const auto* torus = dynamic_cast<const Torus*>(&topo)) {
    std::vector<int> radix(static_cast<std::size_t>(torus->dims()));
    for (int d = 0; d < torus->dims(); ++d)
      radix[static_cast<std::size_t>(d)] = torus->radix(d);
    plan.shard_of = plan_grid(radix, num_shards);
    plan.scheme = "mesh-tiles";
  } else if (dynamic_cast<const Hypercube*>(&topo) != nullptr &&
             std::has_single_bit(static_cast<unsigned>(num_shards))) {
    // Top address bits select the shard: each shard is a subcube, so every
    // node keeps all but log2(num_shards) of its neighbours in-shard.
    const int shard_bits = std::countr_zero(static_cast<unsigned>(num_shards));
    const int node_bits =
        std::countr_zero(static_cast<unsigned>(topo.num_nodes()));
    plan.shard_of.resize(n);
    for (NodeId u = 0; u < topo.num_nodes(); ++u)
      plan.shard_of[static_cast<std::size_t>(u)] =
          static_cast<int>(u >> (node_bits - shard_bits));
    plan.scheme = "subcubes";
  } else {
    // Balanced contiguous node-id ranges; always a valid partition.
    plan.shard_of.resize(n);
    for (NodeId u = 0; u < topo.num_nodes(); ++u)
      plan.shard_of[static_cast<std::size_t>(u)] = static_cast<int>(
          (static_cast<std::int64_t>(u) * num_shards) / topo.num_nodes());
    plan.scheme = "ranges";
  }

  plan.nodes.resize(static_cast<std::size_t>(num_shards));
  for (auto& shard_nodes : plan.nodes)
    shard_nodes.reserve(n / static_cast<std::size_t>(num_shards) + 1);
  for (NodeId u = 0; u < topo.num_nodes(); ++u)
    plan.nodes[static_cast<std::size_t>(plan.shard_of[static_cast<std::size_t>(
                   u)])]
        .push_back(u);
  for (const auto& shard_nodes : plan.nodes)
    FR_ASSERT_MSG(!shard_nodes.empty(), "shard plan produced an empty shard");
  return plan;
}

}  // namespace flexrouter
