// EpisodeRig: one episode's complete simulation world, extracted from the
// body of JobExecutor::run_episode so it can be driven two ways:
//
//  - the event engine runs it start() -> run() -> collect(), exactly as the
//    executor always has;
//  - the fast-forward driver builds failure-free *prototype* rigs (inject =
//    false, start_iteration = 0) and advances them incrementally with
//    Engine::run_until, reading the controller's FfProbe tables and the
//    engine/world/network/device stream logs to answer "state as of instant
//    t" queries for episodes that are time-shifted prefixes of the
//    prototype.
//
// Construction order and the spawn order in start() are the determinism
// contract: they reproduce the original run_episode body statement for
// statement, so an event-engine episode built through the rig is
// bit-identical to one built before the extraction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/executor.hpp"

namespace redcr::runtime {

/// Episode-wide completion bookkeeping shared by the rank processes.
/// Under live failure semantics a dead replica never finishes (it starves
/// on its receives), so the episode completes when every rank has either
/// finished or died.
struct EpisodeShared {
  std::vector<bool> finished;
  sim::Time finish_time = 0.0;
  bool completed = false;
  const failure::SphereMonitor* monitor = nullptr;  // live mode only

  explicit EpisodeShared(std::size_t total) : finished(total, false) {}

  void check_completion(sim::Engine& engine);
};

class EpisodeRig {
 public:
  struct Options {
    long start_iteration = 0;
    std::uint64_t episode_index = 0;
    int epoch_base = 0;
    double useful_work_base = 0.0;
    /// Spawn the failure injector. Prototype rigs never do, regardless of
    /// JobConfig::inject_failures.
    bool inject = true;
    obs::Recorder* recorder = nullptr;
    obs::Journal* journal = nullptr;
  };

  /// Builds the whole episode world (engine, network, world, one device
  /// per storage level, controller, monitor, injector, comms) without
  /// scheduling anything. `hierarchy` is the job-scope generation store the
  /// controller publishes into; `workloads` is borrowed (one per physical
  /// rank) and must outlive the rig.
  EpisodeRig(const JobConfig& config, const red::ReplicaMap& map,
             std::vector<std::unique_ptr<apps::Workload>>& workloads,
             ckpt::StorageHierarchy& hierarchy,
             const failure::FaultProcess* faults,
             const std::vector<failure::InfectionRecord>& seed_infections,
             Options opts);

  /// Spawns the rank processes, arms the checkpoint timer and (optionally)
  /// the SDC monitor and failure injector — in the exact order run_episode
  /// always used. Call exactly once, before run() or any run_until drive.
  void start();

  /// Runs the episode to its natural end (completion, kill or detection).
  void run() { engine_.run(); }

  /// Assembles the EpisodeResult from the finished world. Call once, after
  /// run(); settles async flushes (commit raced ones, drain or drop the
  /// rest) as a side effect.
  EpisodeResult collect();

  // --- Fast-forward prototype plumbing ------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] simmpi::World& world() noexcept { return world_; }
  [[nodiscard]] ckpt::CheckpointController& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] int num_level_devices() const noexcept {
    return static_cast<int>(level_devices_.size());
  }
  [[nodiscard]] ckpt::StableStorage& level_device(int l) noexcept {
    return *level_devices_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] bool episode_completed() const noexcept {
    return shared_.completed;
  }
  [[nodiscard]] sim::Time finish_time() const noexcept {
    return shared_.finish_time;
  }
  /// Attaches `log` to every push-replication comm's voted-delivery counter
  /// (no-op under pull replication).
  void set_compared_log(std::vector<sim::Time>* log);

 private:
  const JobConfig& config_;
  const red::ReplicaMap& map_;
  std::vector<std::unique_ptr<apps::Workload>>* workloads_;
  Options opts_;
  sim::Engine engine_;
  net::Network network_;
  simmpi::World world_;
  std::vector<std::unique_ptr<ckpt::StableStorage>> level_devices_;
  std::optional<failure::SdcMonitor> sdc_monitor_;
  std::optional<ckpt::CheckpointController> controller_;
  failure::SphereMonitor monitor_;
  failure::FailureInjector injector_;
  std::vector<std::unique_ptr<simmpi::Comm>> comms_;
  EpisodeShared shared_;
  std::optional<failure::JobFailure> job_failure_;
  bool started_ = false;
};

}  // namespace redcr::runtime
