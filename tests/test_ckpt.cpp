// Tests for the checkpoint substrate: stable storage, quiesce protocols,
// and the coordinated checkpoint controller.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "ckpt/hierarchy.hpp"
#include "ckpt/quiesce.hpp"
#include "ckpt/storage.hpp"
#include "net/network.hpp"
#include "sim/task.hpp"
#include "simmpi/world.hpp"

namespace redcr::ckpt {
namespace {

using simmpi::Endpoint;
using simmpi::Payload;
using simmpi::Rank;

struct Harness {
  sim::Engine engine;
  net::Network network;
  simmpi::World world;

  explicit Harness(int size)
      : network(engine, static_cast<std::size_t>(size), {}),
        world(engine, network, size) {}
};

// --- StableStorage -----------------------------------------------------------

TEST(StableStorage, SingleWriteCost) {
  sim::Engine engine;
  StorageParams params;
  params.bandwidth = 1e9;
  params.base_latency = 0.5;
  StableStorage storage(engine, params);
  EXPECT_DOUBLE_EQ(storage.write_completion(2e9), 0.5 + 2.0);
  EXPECT_EQ(storage.writes(), 1u);
  EXPECT_DOUBLE_EQ(storage.bytes_written(), 2e9);
}

TEST(StableStorage, ConcurrentWritersSerialize) {
  sim::Engine engine;
  StorageParams params;
  params.bandwidth = 1e9;
  params.base_latency = 0.0;
  StableStorage storage(engine, params);
  // Two 1 GB images at t=0: second completes at 2 s — aggregate-bandwidth
  // sharing, which is what makes c grow with process count.
  EXPECT_DOUBLE_EQ(storage.write_completion(1e9), 1.0);
  EXPECT_DOUBLE_EQ(storage.write_completion(1e9), 2.0);
}

TEST(StableStorage, DeviceIdleGapsDoNotAccumulate) {
  sim::Engine engine;
  StorageParams params;
  params.bandwidth = 1e9;
  params.base_latency = 0.0;
  StableStorage storage(engine, params);
  storage.write_completion(1e9);
  engine.schedule_at(10.0, [] {});
  engine.run();
  // After idling to t=10, a new write starts from now, not from device_free.
  EXPECT_DOUBLE_EQ(storage.write_completion(1e9), 11.0);
}

// --- Quiesce protocols --------------------------------------------------------

/// Each rank sends `burst` app messages to the next rank, then quiesces.
/// The partner only posts its receives *after* quiesce: the messages are
/// drained into the unexpected queues, which is exactly what the protocols
/// must certify.
sim::Task quiesce_rank(Harness& h, Rank me, int burst, bool counting,
                       std::vector<QuiesceStats>& stats) {
  auto& ep = h.world.endpoint(me);
  const Rank next = (me + 1) % h.world.size();
  for (int i = 0; i < burst; ++i)
    ep.isend(next, 42, Payload::sized(1024.0 * (1 + me)));
  stats[static_cast<std::size_t>(me)] =
      counting ? co_await counting_quiesce(ep)
               : co_await bookmark_exchange_quiesce(ep);
  // Post-quiesce: every in-flight message must have been delivered.
}

class QuiesceBoth : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(Protocols, QuiesceBoth, ::testing::Bool());

TEST_P(QuiesceBoth, DrainsInFlightTraffic) {
  const bool counting = GetParam();
  for (const int n : {2, 3, 8, 13}) {
    Harness h(n);
    std::vector<QuiesceStats> stats(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r)
      h.engine.spawn(quiesce_rank(h, r, 5, counting, stats));
    h.engine.run();
    for (Rank r = 0; r < n; ++r) {
      auto& ep = h.world.endpoint(r);
      EXPECT_EQ(ep.total_received(), 5u) << "rank " << r << " n " << n;
      EXPECT_GE(stats[static_cast<std::size_t>(r)].rounds, 1);
    }
  }
}

TEST_P(QuiesceBoth, SingleRankIsTrivial) {
  const bool counting = GetParam();
  Harness h(1);
  std::vector<QuiesceStats> stats(1);
  h.engine.spawn(quiesce_rank(h, 0, 0, counting, stats));
  h.engine.run();
  SUCCEED();
}

sim::Task barrier_rank(Harness& h, Rank me, double work,
                       std::vector<double>& exits) {
  co_await sim::delay(h.engine, work);
  co_await quiesce_barrier(h.world.endpoint(me));
  exits[static_cast<std::size_t>(me)] = h.engine.now();
}

TEST(QuiesceBarrier, HoldsUntilSlowest) {
  constexpr int n = 6;
  Harness h(n);
  std::vector<double> exits(n, -1.0);
  for (Rank r = 0; r < n; ++r)
    h.engine.spawn(barrier_rank(h, r, 10.0 * r, exits));
  h.engine.run();
  for (Rank r = 0; r < n; ++r) EXPECT_GE(exits[static_cast<std::size_t>(r)], 50.0);
}

// --- CheckpointController ------------------------------------------------------

/// A controller configuration on the flat store: the hierarchy's implicit
/// single level, written through `storage`.
CkptConfig flat_config(StorageHierarchy& hierarchy, StableStorage& storage) {
  CkptConfig cfg;
  cfg.hierarchy = &hierarchy;
  cfg.level_devices = {&storage};
  return cfg;
}

/// A minimal iterative app: compute, exchange with the ring neighbour, and
/// consult the controller at every boundary.
sim::Task loop_rank(Harness& h, Rank me, CheckpointController& controller,
                    long iterations, double compute,
                    std::vector<long>& checkpoint_iters) {
  auto& ep = h.world.endpoint(me);
  const Rank next = (me + 1) % h.world.size();
  const Rank prev = (me - 1 + h.world.size()) % h.world.size();
  for (long iter = 0; iter < iterations; ++iter) {
    if (co_await controller.maybe_checkpoint(ep, iter))
      checkpoint_iters.push_back(iter);
    co_await sim::delay(h.engine, compute);
    simmpi::Request rx = ep.irecv(prev, 9);
    co_await ep.send(next, 9, Payload::sized(4096.0));
    co_await wait(std::move(rx));
  }
}

TEST(Controller, TakesCheckpointsAtCommonBoundaries) {
  constexpr int n = 5;
  Harness h(n);
  StorageParams sp;
  sp.bandwidth = 1e12;
  sp.base_latency = 0.01;
  StableStorage storage(h.engine, sp);
  StorageHierarchy hier({}, n);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.interval = 10.0;  // with 1 s/iter: a checkpoint every ~10 iterations
  cfg.image_bytes = 1e9;
  CheckpointController controller(h.engine, cfg, n);

  std::vector<std::vector<long>> ckpt_iters(n);
  for (Rank r = 0; r < n; ++r)
    h.engine.spawn(loop_rank(h, r, controller, 50, 1.0,
                             ckpt_iters[static_cast<std::size_t>(r)]));
  controller.arm();
  h.engine.run();

  EXPECT_GE(controller.checkpoints_completed(), 3);
  EXPECT_TRUE(controller.snapshot().valid);
  // Agreement property: every rank checkpointed at exactly the same
  // iteration boundaries.
  for (Rank r = 1; r < n; ++r)
    EXPECT_EQ(ckpt_iters[static_cast<std::size_t>(r)], ckpt_iters[0]);
  EXPECT_EQ(static_cast<int>(ckpt_iters[0].size()),
            controller.checkpoints_completed());
  // Snapshot records the agreed boundary.
  EXPECT_EQ(controller.snapshot().iteration, ckpt_iters[0].back());
  EXPECT_GT(controller.total_checkpoint_time(), 0.0);
  EXPECT_GT(controller.snapshot().work_elapsed, 0.0);
  EXPECT_LT(controller.snapshot().work_elapsed,
            controller.snapshot().completed_at);
}

TEST(Controller, DisabledNeverCheckpoints) {
  constexpr int n = 3;
  Harness h(n);
  StableStorage storage(h.engine, {});
  StorageHierarchy hier({}, n);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.enabled = false;
  CheckpointController controller(h.engine, cfg, n);
  std::vector<std::vector<long>> ckpt_iters(n);
  for (Rank r = 0; r < n; ++r)
    h.engine.spawn(loop_rank(h, r, controller, 20, 1.0,
                             ckpt_iters[static_cast<std::size_t>(r)]));
  controller.arm();
  h.engine.run();
  EXPECT_EQ(controller.checkpoints_completed(), 0);
  EXPECT_FALSE(controller.snapshot().valid);
  EXPECT_EQ(storage.writes(), 0u);
}

TEST(Controller, CheckpointCostReflectsStorageModel) {
  // P ranks writing S-byte images over aggregate bandwidth B must make the
  // checkpoint span at least P*S/B.
  constexpr int n = 4;
  Harness h(n);
  StorageParams sp;
  sp.bandwidth = 1e9;
  sp.base_latency = 0.0;
  StableStorage storage(h.engine, sp);
  StorageHierarchy hier({}, n);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.interval = 5.0;
  cfg.image_bytes = 0.5e9;  // 4 * 0.5 GB / 1 GB/s = 2 s per checkpoint
  CheckpointController controller(h.engine, cfg, n);
  std::vector<std::vector<long>> ckpt_iters(n);
  for (Rank r = 0; r < n; ++r)
    h.engine.spawn(loop_rank(h, r, controller, 30, 1.0,
                             ckpt_iters[static_cast<std::size_t>(r)]));
  controller.arm();
  h.engine.run();
  ASSERT_GE(controller.checkpoints_completed(), 1);
  const double per_checkpoint = controller.total_checkpoint_time() /
                                controller.checkpoints_completed();
  EXPECT_GE(per_checkpoint, 2.0);
  EXPECT_LT(per_checkpoint, 3.0);  // quiesce+barrier overhead is small
}

TEST(Controller, QuiesceProtocolSelectionIsHonored) {
  // Regression: a GCC-12 miscompile of `cond ? co_await a : co_await b`
  // silently ignored use_counting_quiesce. The all-to-all bookmark exchange
  // must cost visibly more messages than the counting quiesce.
  auto run_with = [](bool counting) {
    Harness h(16);
    StorageParams sp;
    sp.bandwidth = 1e12;
    StableStorage storage(h.engine, sp);
    StorageHierarchy hier({}, 16);
    CkptConfig cfg = flat_config(hier, storage);
    cfg.interval = 5.0;
    cfg.use_counting_quiesce = counting;
    CheckpointController controller(h.engine, cfg, 16);
    std::vector<std::vector<long>> iters(16);
    for (Rank r = 0; r < 16; ++r)
      h.engine.spawn(loop_rank(h, r, controller, 20, 1.0,
                               iters[static_cast<std::size_t>(r)]));
    controller.arm();
    h.engine.run();
    EXPECT_GE(controller.checkpoints_completed(), 2);
    return h.world.stats().messages_sent;
  };
  const std::uint64_t counting_msgs = run_with(true);
  const std::uint64_t bookmark_msgs = run_with(false);
  EXPECT_GT(bookmark_msgs, counting_msgs);
}

TEST(Controller, IncrementalCheckpointsShrinkAfterTheFirst) {
  constexpr int n = 4;
  Harness h(n);
  StorageParams sp;
  sp.bandwidth = 1e9;
  sp.base_latency = 0.0;
  StableStorage storage(h.engine, sp);
  StorageHierarchy hier({}, n);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.interval = 8.0;
  cfg.image_bytes = 1e9;
  cfg.incremental_fraction = 0.25;
  CheckpointController controller(h.engine, cfg, n);
  std::vector<std::vector<long>> iters(n);
  for (Rank r = 0; r < n; ++r)
    h.engine.spawn(loop_rank(h, r, controller, 40, 1.0,
                             iters[static_cast<std::size_t>(r)]));
  controller.arm();
  h.engine.run();
  ASSERT_GE(controller.checkpoints_completed(), 3);
  // First checkpoint: 4 full GB images; each later one: 4 quarter images.
  const double expected =
      4.0 * 1e9 +
      (controller.checkpoints_completed() - 1) * 4.0 * 0.25e9;
  EXPECT_DOUBLE_EQ(storage.bytes_written(), expected);
}

TEST(Controller, ForkedCheckpointsBlockBriefly) {
  // Blocking mode stalls the app for the full image write; forked mode
  // stalls only for the fork pause while the write drains in background.
  auto measure = [](bool forked) {
    Harness h(4);
    StorageParams sp;
    sp.bandwidth = 1e9;
    sp.base_latency = 0.0;
    StableStorage storage(h.engine, sp);
    StorageHierarchy hier({}, 4);
    CkptConfig cfg = flat_config(hier, storage);
    cfg.interval = 10.0;
    cfg.image_bytes = 2e9;  // 4 ranks x 2 GB / 1 GB/s = 8 s blocking cost
    cfg.forked = forked;
    cfg.fork_cost = 0.25;
    CheckpointController controller(h.engine, cfg, 4);
    std::vector<std::vector<long>> iters(4);
    for (Rank r = 0; r < 4; ++r)
      h.engine.spawn(loop_rank(h, r, controller, 40, 1.0,
                               iters[static_cast<std::size_t>(r)]));
    controller.arm();
    h.engine.run();
    EXPECT_GE(controller.checkpoints_completed(), 2);
    EXPECT_TRUE(controller.snapshot().valid);
    return controller.total_checkpoint_time() /
           controller.checkpoints_completed();
  };
  const double blocking = measure(false);
  const double forked = measure(true);
  EXPECT_GT(blocking, 7.0);
  EXPECT_LT(forked, 2.0);
}

TEST(Controller, ForkedSnapshotPublishesOnlyWhenDurable) {
  // Immediately after the fork barrier the snapshot must still be the
  // previous one; it appears once the background write drains.
  Harness h(2);
  StorageParams sp;
  sp.bandwidth = 1e8;  // slow device: 2 x 1 GB -> 20 s drain
  sp.base_latency = 0.0;
  StableStorage storage(h.engine, sp);
  StorageHierarchy hier({}, 2);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.interval = 5.0;
  cfg.image_bytes = 1e9;
  cfg.forked = true;
  cfg.fork_cost = 0.1;
  CheckpointController controller(h.engine, cfg, 2);
  std::vector<std::vector<long>> iters(2);
  for (Rank r = 0; r < 2; ++r)
    h.engine.spawn(loop_rank(h, r, controller, 12, 1.0,
                             iters[static_cast<std::size_t>(r)]));
  controller.arm();
  // Run until shortly after the first fork completes (~6 s): no snapshot.
  h.engine.run_until(8.0);
  EXPECT_EQ(controller.checkpoints_completed(), 1);
  EXPECT_FALSE(controller.snapshot().valid);
  // After the drain (fork at ~6 s + 20 s write), the snapshot appears.
  h.engine.run_until(40.0);
  EXPECT_TRUE(controller.snapshot().valid);
}

TEST(Controller, InvalidConfigThrows) {
  sim::Engine engine;
  StableStorage storage(engine, {});
  StorageHierarchy hier({}, 4);
  CkptConfig cfg = flat_config(hier, storage);
  cfg.interval = 0.0;
  EXPECT_THROW(CheckpointController(engine, cfg, 4), std::invalid_argument);
  cfg.interval = 10.0;
  EXPECT_THROW(CheckpointController(engine, cfg, 0), std::invalid_argument);
  // Storage is required, one device per level.
  CkptConfig no_storage = cfg;
  no_storage.hierarchy = nullptr;
  EXPECT_THROW(CheckpointController(engine, no_storage, 4),
               std::invalid_argument);
  CkptConfig no_devices = cfg;
  no_devices.level_devices.clear();
  EXPECT_THROW(CheckpointController(engine, no_devices, 4),
               std::invalid_argument);
  // Forked writes are a mode of the flat store's implicit level only.
  StorageHierarchy explicit_pfs(parse_hierarchy("pfs"), 4);
  CkptConfig forked = flat_config(explicit_pfs, storage);
  forked.forked = true;
  EXPECT_THROW(CheckpointController(engine, forked, 4), std::invalid_argument);
  forked.hierarchy = &hier;
  EXPECT_NO_THROW(CheckpointController(engine, forked, 4));
}

}  // namespace
}  // namespace redcr::ckpt
