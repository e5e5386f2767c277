// The worker pool's item contract (every item once per run, the caller as
// worker 0, a fixed item per worker when items == workers) and the
// SweepRunner determinism contract: results are a pure function of the
// grid (point keys + base seed), never of the thread count or of scheduling
// order; a deadlocking replica must not stall the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "routing/dynamic_escape.hpp"
#include "routing/nafta.hpp"
#include "sim/fault_injector.hpp"
#include "sim/sweep.hpp"
#include "sim/worker_pool.hpp"

namespace flexrouter {
namespace {

// A 16-point (faults x load) grid on an 8x8 mesh; each point builds its own
// replica and uses the runner-derived seed.
std::vector<SweepPoint> faulty_mesh_grid() {
  const int fault_counts[] = {0, 2, 4, 6};
  const double rates[] = {0.03, 0.06, 0.09, 0.12};
  std::vector<SweepPoint> points;
  for (const int k : fault_counts) {
    for (const double rate : rates) {
      points.push_back({[k, rate](std::uint64_t seed) {
        Mesh m = Mesh::two_d(8, 8);
        Nafta algo;
        Network net(m, algo);
        if (k > 0) {
          Rng frng(static_cast<std::uint64_t>(k) * 31 + 5);
          net.apply_faults([&](FaultSet& f) {
            inject_random_link_faults(f, k, frng);
          });
        }
        UniformTraffic tr(m);
        SimConfig cfg;
        cfg.injection_rate = rate;
        cfg.packet_length = 4;
        cfg.warmup_cycles = 150;
        cfg.measure_cycles = 450;
        cfg.seed = seed;
        Simulator sim(net, tr, cfg);
        return sim.run();
      }});
    }
  }
  return points;
}

std::vector<SimResult> run_grid(int threads) {
  SweepOptions opts;
  opts.num_threads = threads;
  opts.base_seed = 11;
  SweepRunner runner(opts);
  return runner.run(faulty_mesh_grid());
}

// ---------------------------------------------------------------- WorkerPool
TEST(WorkerPool, EveryItemRunsExactlyOncePerRun) {
  // The per-cycle use: one pool, many consecutive runs, item counts below,
  // at and above the worker count.
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    for (const int items : {0, 1, threads - 1, threads, 3 * threads + 1}) {
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(items));
      for (int batch = 1; batch <= 1000; ++batch) {
        pool.run(
            items,
            [](void* ctx, int i) {
              auto* r = static_cast<std::vector<std::atomic<int>>*>(ctx);
              (*r)[static_cast<std::size_t>(i)].fetch_add(1);
            },
            &runs);
        for (int i = 0; i < items; ++i)
          ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), batch)
              << "item " << i << " of " << items << " at " << threads
              << " threads";
      }
    }
  }
}

using ThreadIds = std::vector<std::thread::id>;

void record_thread(void* ctx, int i) {
  (*static_cast<ThreadIds*>(ctx))[static_cast<std::size_t>(i)] =
      std::this_thread::get_id();
}

#ifdef __linux__
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}
#endif

TEST(WorkerPool, OneWorkerRunsEverythingOnTheCaller) {
#ifdef __linux__
  const int before = process_threads();
  {
    WorkerPool pool(1);
    EXPECT_EQ(process_threads(), before);
  }
  {
    WorkerPool pool(4);
    EXPECT_EQ(process_threads(), before + 3);  // the caller is worker 0
  }
#endif
  WorkerPool pool(1);
  ThreadIds ids(9);
  pool.run(9, record_thread, &ids);
  for (const std::thread::id id : ids)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(WorkerPool, ItemsEqualWorkersKeepTheirThread) {
  // With one item per worker, worker w runs item w in every batch (the
  // shard step's default), and the caller runs item 0.
  for (const int threads : {2, 4}) {
    WorkerPool pool(threads);
    ThreadIds first(static_cast<std::size_t>(threads));
    pool.run(threads, record_thread, &first);
    EXPECT_EQ(first[0], std::this_thread::get_id());
    for (int i = 1; i < threads; ++i)
      for (int j = 0; j < i; ++j)
        EXPECT_NE(first[static_cast<std::size_t>(i)],
                  first[static_cast<std::size_t>(j)]);
    for (int batch = 0; batch < 200; ++batch) {
      ThreadIds ids(static_cast<std::size_t>(threads));
      pool.run(threads, record_thread, &ids);
      ASSERT_EQ(ids, first) << "batch " << batch << " at " << threads
                            << " threads";
    }
  }
}

TEST(SweepRunner, RethrowsTheLowestIndexException) {
  // Items 3, 7 and 12 throw. Item 3 sleeps first, so on several threads
  // it throws last in time; its exception is the one reported at every
  // thread count.
  for (const int threads : {1, 2, 8}) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
      tasks.push_back([i] {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i == 3 || i == 7 || i == 12)
          throw std::runtime_error("task " + std::to_string(i));
      });
    SweepOptions opts;
    opts.num_threads = threads;
    SweepRunner runner(opts);
    try {
      runner.run_tasks(tasks);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << threads << " threads";
    }
    std::vector<SweepPoint> points(5);
    for (std::size_t i = 0; i < points.size(); ++i)
      points[i].run = [i](std::uint64_t) -> SimResult {
        if (i == 1 || i == 4)
          throw std::runtime_error("point " + std::to_string(i));
        return {};
      };
    try {
      runner.run(points);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 1") << threads << " threads";
    }
  }
}

TEST(SweepRunner, NestedRunThrows) {
  // A task that calls back into its own runner gets a contract violation,
  // rethrown from the outer call, and the runner stays usable.
  for (const int threads : {1, 2}) {
    SweepOptions opts;
    opts.num_threads = threads;
    SweepRunner runner(opts);
    const std::vector<std::function<void()>> inner(2, [] {});
    const std::vector<std::function<void()>> outer(
        2, [&runner, &inner] { runner.run_tasks(inner); });
    EXPECT_THROW(runner.run_tasks(outer), ContractViolation) << threads;
    EXPECT_NO_THROW(runner.run_tasks(inner)) << threads;
  }
}

// -------------------------------------------------------------- SweepRunner
TEST(SweepSeed, StableAndSpread) {
  // The derivation is part of the determinism contract: same inputs, same
  // seed, forever.
  EXPECT_EQ(sweep_point_seed(1, 0), sweep_point_seed(1, 0));
  EXPECT_NE(sweep_point_seed(1, 0), sweep_point_seed(1, 1));
  EXPECT_NE(sweep_point_seed(1, 0), sweep_point_seed(2, 0));
  // Never zero (xoshiro's all-zero state is degenerate).
  for (std::uint64_t k = 0; k < 64; ++k)
    EXPECT_NE(sweep_point_seed(0, k), 0u);
}

TEST(SweepRunner, BitIdenticalAcrossThreadCounts) {
  const std::vector<SimResult> serial = run_grid(1);
  ASSERT_EQ(serial.size(), 16u);
  for (const SimResult& r : serial) {
    EXPECT_FALSE(r.deadlock_suspected);
    EXPECT_GT(r.delivered_packets, 0);
  }
  const std::vector<SimResult> two = run_grid(2);
  const std::vector<SimResult> eight = run_grid(8);
  ASSERT_EQ(two.size(), serial.size());
  ASSERT_EQ(eight.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == two[i]) << "point " << i;
    EXPECT_TRUE(serial[i] == eight[i]) << "point " << i;
  }
}

TEST(SweepRunner, ShardedReplicasBitIdenticalUnderSweep) {
  // Replica threads (sweep pool) composing with per-replica shard pools:
  // a grid of sharded networks run under a multi-thread sweep must equal
  // the serial single-shard grid bit for bit.
  const auto grid = [](int shards, int shard_threads) {
    const double rates[] = {0.04, 0.08};
    std::vector<SweepPoint> points;
    for (const double rate : rates) {
      points.push_back({[rate, shards, shard_threads](std::uint64_t seed) {
        Mesh m = Mesh::two_d(8, 8);
        Nafta algo;
        NetworkConfig ncfg;
        ncfg.shards = shards;
        ncfg.shard_threads = shard_threads;
        Network net(m, algo, ncfg);
        UniformTraffic tr(m);
        SimConfig cfg;
        cfg.injection_rate = rate;
        cfg.packet_length = 4;
        cfg.warmup_cycles = 150;
        cfg.measure_cycles = 450;
        cfg.seed = seed;
        Simulator sim(net, tr, cfg);
        return sim.run();
      }});
    }
    return points;
  };
  SweepOptions opts;
  opts.num_threads = 2;
  opts.base_seed = 11;
  SweepRunner runner(opts);
  const std::vector<SimResult> base = runner.run(grid(1, 1));
  const std::vector<SimResult> sharded = runner.run(grid(4, 2));
  ASSERT_EQ(base.size(), sharded.size());
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_TRUE(base[i] == sharded[i]) << "point " << i;
}

TEST(SweepRunner, SeedsFollowExplicitKeysUnderReordering) {
  // A point's seed comes from its key, not its position: shuffling the grid
  // must shuffle the results, not change them.
  auto make_point = [](std::uint64_t key) {
    SweepPoint p;
    p.key = key;
    p.run = [](std::uint64_t seed) {
      Mesh m = Mesh::two_d(4, 4);
      Nafta algo;
      Network net(m, algo);
      UniformTraffic tr(m);
      SimConfig cfg;
      cfg.injection_rate = 0.08;
      cfg.warmup_cycles = 100;
      cfg.measure_cycles = 300;
      cfg.seed = seed;
      Simulator sim(net, tr, cfg);
      return sim.run();
    };
    return p;
  };

  std::vector<SweepPoint> forward, backward;
  for (std::uint64_t k = 0; k < 6; ++k) forward.push_back(make_point(k));
  for (std::uint64_t k = 6; k-- > 0;) backward.push_back(make_point(k));

  SweepOptions opts;
  opts.num_threads = 2;
  opts.base_seed = 99;
  SweepRunner runner(opts);
  const std::vector<SimResult> f = runner.run(forward);
  const std::vector<SimResult> b = runner.run(backward);
  ASSERT_EQ(f.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(f[i] == b[5 - i]) << "key " << i;
}

TEST(SweepRunner, DeadlockingReplicaDoesNotStallPool) {
  // One replica spends its whole drain_limit suspecting deadlock (fixed-XY
  // dynamic escape with a broken escape link). The pool must finish every
  // other point and return normally, flagging only the bad one.
  Mesh m = Mesh::two_d(8, 8);
  std::vector<SweepPoint> points;
  points.push_back({[&m](std::uint64_t) {
    DynamicEscape algo(false);  // no reconfiguration: vulnerable
    Network net(m, algo);
    net.apply_faults([&](FaultSet& f) {
      f.fail_link(m.at(3, 4), port_of(Compass::East));
    });
    UniformTraffic tr(m);
    SimConfig cfg;
    cfg.injection_rate = 0.05;
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 600;
    cfg.drain_limit = 1500;  // bounded: it will give up, not hang
    cfg.watchdog_window = 400;
    cfg.seed = 4;
    Simulator sim(net, tr, cfg);
    return sim.run();
  }});
  for (int i = 0; i < 3; ++i) {
    points.push_back({[&m](std::uint64_t seed) {
      Nafta algo;
      Network net(m, algo);
      UniformTraffic tr(m);
      SimConfig cfg;
      cfg.injection_rate = 0.05;
      cfg.warmup_cycles = 200;
      cfg.measure_cycles = 600;
      cfg.seed = seed;
      Simulator sim(net, tr, cfg);
      return sim.run();
    }});
  }

  SweepOptions opts;
  opts.num_threads = 2;
  SweepRunner runner(opts);
  const std::vector<SimResult> results = runner.run(points);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].deadlock_suspected);
  EXPECT_LT(results[0].delivered_packets, results[0].injected_packets);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(results[i].deadlock_suspected) << "point " << i;
    EXPECT_EQ(results[i].delivered_packets, results[i].injected_packets);
  }
}

TEST(SweepRunner, RunTasksGenericFanOut) {
  std::vector<int> out(64, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.push_back([&out, i] { out[static_cast<std::size_t>(i)] = i * i; });
  SweepOptions opts;
  opts.num_threads = 4;
  SweepRunner runner(opts);
  runner.run_tasks(tasks);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, TaskExceptionPropagates) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&ran, i] {
      if (i == 3) throw std::runtime_error("replica failed");
      ran.fetch_add(1);
    });
  SweepOptions opts;
  opts.num_threads = 2;
  SweepRunner runner(opts);
  EXPECT_THROW(runner.run_tasks(tasks), std::runtime_error);
  // The pool must stay usable after an exceptional batch.
  std::vector<std::function<void()>> ok = {[&ran] { ran.fetch_add(1); }};
  EXPECT_NO_THROW(runner.run_tasks(ok));
}

TEST(SweepReport, SummarizeAggregates) {
  SimResult a, b;
  a.injected_packets = 10;
  a.delivered_packets = 10;
  a.avg_latency = 20.0;
  a.throughput = 0.05;
  b.injected_packets = 20;
  b.delivered_packets = 19;
  b.avg_latency = 40.0;
  b.throughput = 0.15;
  b.deadlock_suspected = true;
  const SweepReport rep = summarize({a, b});
  EXPECT_EQ(rep.points, 2);
  EXPECT_EQ(rep.deadlocks, 1);
  EXPECT_EQ(rep.injected_packets, 30);
  EXPECT_EQ(rep.delivered_packets, 29);
  EXPECT_DOUBLE_EQ(rep.avg_latency.mean, 30.0);
  EXPECT_DOUBLE_EQ(rep.avg_latency.min, 20.0);
  EXPECT_DOUBLE_EQ(rep.avg_latency.max, 40.0);
  EXPECT_DOUBLE_EQ(rep.throughput.mean, 0.10);
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"points\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"deadlocks\": 1"), std::string::npos);
}

}  // namespace
}  // namespace flexrouter
