// Deterministic high-contention stress drills for every shared concurrent
// structure: nested ThreadPool fork-join, the dependency-counting guide-
// tree scheduler on degenerate and wide trees, and Daemon::stop() racing
// run(). The assertions are exact (every unit of
// work exactly once, children strictly before parents), so the suite is
// meaningful in every preset; under the tsan preset these tests are the
// designated race detectors for the runtime (ISSUE 10). Iteration counts
// are sized for TSan's ~10x slowdown on a small CI box.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "msa/guide_tree.hpp"
#include "msa/tree_schedule.hpp"
#include "serve/daemon.hpp"
#include "util/stable_hash.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace salign {
namespace {

namespace fs = std::filesystem;

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolStress, ForkJoinCountsEveryUnitExactlyOnce) {
  // Classic work-stealing loop over a shared ticket counter, repeated under
  // contention: each ticket must be claimed exactly once regardless of how
  // many of the handed-out worker copies actually start.
  util::ThreadPool pool(4);
  constexpr int kRounds = 50;
  constexpr int kTickets = 512;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    pool.run(3, [&] {
      for (;;) {
        const int t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= kTickets) return;
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(done.load(), kTickets);
  }
}

TEST(ThreadPoolStress, NestedForkJoinDoesNotDeadlockOrDropWork) {
  // A worker that itself runs a parallel pass draws from the same shared
  // pool. The caller-participates contract guarantees progress even when
  // every pool thread is busy with the outer level; nested runs degrade to
  // inline execution at worst — never deadlock, never lost work.
  constexpr int kOuter = 8;
  constexpr int kInnerTickets = 64;
  std::atomic<int> outer_next{0};
  std::atomic<int> inner_done{0};
  util::ThreadPool::shared().run(3, [&] {
    for (;;) {
      const int t = outer_next.fetch_add(1, std::memory_order_relaxed);
      if (t >= kOuter) return;
      std::atomic<int> next{0};
      util::ThreadPool::shared().run(2, [&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= kInnerTickets) return;
          inner_done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  EXPECT_EQ(inner_done.load(), kOuter * kInnerTickets);
}

TEST(ThreadPoolStress, ConcurrentThrowingWorkersRethrowAfterJoin) {
  // Every copy throws; run() must join all started copies first and then
  // rethrow exactly one exception — repeatedly, with no leaked state that
  // poisons the next run.
  util::ThreadPool pool(3);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> started{0};
    EXPECT_THROW(
        pool.run(3,
                 [&] {
                   started.fetch_add(1, std::memory_order_relaxed);
                   throw std::runtime_error("stress");
                 }),
        std::runtime_error);
    EXPECT_GE(started.load(), 1);
    // The pool must still be fully usable after an exceptional round.
    std::atomic<int> ok{0};
    pool.run(2, [&] { ok.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_GE(ok.load(), 1);
  }
}

// ---- guide-tree scheduler ---------------------------------------------------

/// Chain ("caterpillar") tree: internal node k joins the previous internal
/// node with one new leaf — the worst case for the ready queue (parallelism
/// 1 at the spine, every completion wakes the peers for nothing).
msa::GuideTree make_caterpillar(int leaves) {
  std::vector<msa::TreeNode> nodes(
      static_cast<std::size_t>(2 * leaves - 1));
  for (int i = 0; i < leaves; ++i) nodes[static_cast<std::size_t>(i)].leaf_index = i;
  int prev = 0;  // spine so far: starts at leaf 0
  for (int k = 0; k < leaves - 1; ++k) {
    const int id = leaves + k;
    auto& n = nodes[static_cast<std::size_t>(id)];
    n.left = prev;
    n.right = k + 1;
    n.height = static_cast<double>(k + 1);
    nodes[static_cast<std::size_t>(prev)].parent = id;
    nodes[static_cast<std::size_t>(k + 1)].parent = id;
    prev = id;
  }
  return msa::GuideTree::from_nodes(std::move(nodes),
                                    static_cast<std::size_t>(leaves), prev);
}

/// Perfect binary tree over `leaves` (a power of two): maximal width, the
/// high-contention case — at the leaf level every worker is dequeuing from
/// the same ready deque.
msa::GuideTree make_balanced(int leaves) {
  std::vector<msa::TreeNode> nodes(
      static_cast<std::size_t>(2 * leaves - 1));
  for (int i = 0; i < leaves; ++i) nodes[static_cast<std::size_t>(i)].leaf_index = i;
  std::vector<int> level(static_cast<std::size_t>(leaves));
  for (int i = 0; i < leaves; ++i) level[static_cast<std::size_t>(i)] = i;
  int next_id = leaves;
  double height = 1.0;
  while (level.size() > 1) {
    std::vector<int> up;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      auto& n = nodes[static_cast<std::size_t>(next_id)];
      n.left = level[i];
      n.right = level[i + 1];
      n.height = height;
      nodes[static_cast<std::size_t>(level[i])].parent = next_id;
      nodes[static_cast<std::size_t>(level[i + 1])].parent = next_id;
      up.push_back(next_id++);
    }
    level = std::move(up);
    height += 1.0;
  }
  return msa::GuideTree::from_nodes(std::move(nodes),
                                    static_cast<std::size_t>(leaves),
                                    level[0]);
}

/// Runs schedule_tree and checks the two scheduler invariants exactly:
/// every node exactly once, and every internal node strictly after both of
/// its children. Per-node stamps are written once by whichever thread runs
/// the node and read only after the schedule joins.
void drill_schedule(const msa::GuideTree& tree, unsigned threads) {
  const std::size_t n = tree.num_nodes();
  std::vector<int> stamp(n, -1);
  std::vector<std::atomic<int>> runs(n);
  for (auto& r : runs) r.store(0);
  std::atomic<int> clock{0};
  msa::schedule_tree(tree, threads, [&](int id) {
    const auto i = static_cast<std::size_t>(id);
    runs[i].fetch_add(1, std::memory_order_relaxed);
    stamp[i] = clock.fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "node " << i;
    if (!tree.is_leaf(i)) {
      const auto& node = tree.node(i);
      EXPECT_GT(stamp[i], stamp[static_cast<std::size_t>(node.left)])
          << "node " << i << " ran before its left child";
      EXPECT_GT(stamp[i], stamp[static_cast<std::size_t>(node.right)])
          << "node " << i << " ran before its right child";
    }
  }
}

TEST(TreeScheduleStress, CaterpillarTreeAtManyThreadCounts) {
  const msa::GuideTree tree = make_caterpillar(64);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    drill_schedule(tree, threads);
  }
}

TEST(TreeScheduleStress, WideBalancedTreeAtManyThreadCounts) {
  const msa::GuideTree tree = make_balanced(128);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    drill_schedule(tree, threads);
  }
}

TEST(TreeScheduleStress, ThrowingNodeAbortsWithoutHangOrRerun) {
  // A node that throws must abort the schedule: the exception is rethrown
  // on the caller, no node runs twice, and no worker is left waiting.
  const msa::GuideTree tree = make_balanced(64);
  const int poison = 70;  // an internal node: leaves have already fanned out
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> runs(tree.num_nodes());
    for (auto& r : runs) r.store(0);
    EXPECT_THROW(
        msa::schedule_tree(tree, 4,
                           [&](int id) {
                             runs[static_cast<std::size_t>(id)].fetch_add(
                                 1, std::memory_order_relaxed);
                             if (id == poison)
                               throw std::runtime_error("poisoned node");
                           }),
        std::runtime_error);
    for (std::size_t i = 0; i < tree.num_nodes(); ++i)
      EXPECT_LE(runs[i].load(), 1) << "node " << i << " ran twice";
  }
}

// ---- serve daemon stop()/run() race ----------------------------------------

TEST(DaemonStress, StopRacesStartupAndDrain) {
  // request_stop() at every phase relative to run(): before the socket is
  // bound, exactly at readiness, and from two threads at once. Every
  // combination must terminate run() promptly with no crash, hang, or
  // double-free — this is the control-plane shutdown race the tsan preset
  // exists to keep honest.
  const fs::path dir =
      fs::temp_directory_path() /
      ("salign_stress_daemon_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::create_directories(dir);
  for (int round = 0; round < 6; ++round) {
    serve::DaemonOptions opt;
    const auto i = static_cast<std::size_t>(round);
    opt.socket_path = (dir / util::indexed_name("s", i)).string();
    opt.journal_dir = (dir / util::indexed_name("j", i)).string();
    serve::Daemon daemon(opt);
    std::thread server([&] { daemon.run(); });
    switch (round % 3) {
      case 0:
        // Stop without waiting: races the bind/replay phase.
        daemon.request_stop();
        break;
      case 1:
        ASSERT_TRUE(daemon.wait_until_ready(10.0));
        daemon.request_stop();
        break;
      default: {
        // Two stops at once, one racing readiness.
        std::thread other([&] { daemon.request_stop(); });
        (void)daemon.wait_until_ready(10.0);
        daemon.request_stop();
        other.join();
        break;
      }
    }
    server.join();
    // The daemon must have come down cleanly enough to restart on the same
    // journal (replay of an empty/terminal journal).
    serve::Daemon again(opt);
    std::thread server2([&] { again.run(); });
    ASSERT_TRUE(again.wait_until_ready(10.0));
    again.request_stop();
    server2.join();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace salign
