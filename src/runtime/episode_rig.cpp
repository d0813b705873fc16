#include "runtime/episode_rig.hpp"

#include <cassert>
#include <stdexcept>

#include "red/pull_comm.hpp"
#include "simmpi/world.hpp"

namespace redcr::runtime {

void EpisodeShared::check_completion(sim::Engine& engine) {
  if (completed) return;
  for (std::size_t p = 0; p < finished.size(); ++p) {
    const bool dead =
        monitor != nullptr && monitor->is_dead(static_cast<red::Rank>(p));
    if (!finished[p] && !dead) return;
  }
  completed = true;
  finish_time = engine.now();
  engine.request_stop();
}

namespace {

/// Top-level simulated process for one physical rank: runs the workload
/// behind its RedComm, hooking the checkpoint controller at every boundary.
sim::Task rank_main(sim::Engine& engine, apps::Workload& workload,
                    simmpi::Comm& comm, simmpi::Endpoint& endpoint,
                    ckpt::CheckpointController& controller,
                    long start_iteration, EpisodeShared& shared) {
  apps::BoundaryHook hook = [&controller, &endpoint](long iteration) {
    return controller.maybe_checkpoint(endpoint, iteration);
  };
  co_await workload.run(comm, start_iteration, std::move(hook));
  shared.finished[static_cast<std::size_t>(endpoint.rank())] = true;
  shared.check_completion(engine);
}

}  // namespace

EpisodeRig::EpisodeRig(const JobConfig& config, const red::ReplicaMap& map,
                       std::vector<std::unique_ptr<apps::Workload>>& workloads,
                       ckpt::StorageHierarchy& hierarchy,
                       const failure::FaultProcess* faults,
                       const std::vector<failure::InfectionRecord>&
                           seed_infections,
                       Options opts)
    : config_(config),
      map_(map),
      workloads_(&workloads),
      opts_(opts),
      engine_(),
      network_(engine_, map_.num_physical(), config_.network),
      world_(engine_, network_, static_cast<int>(map_.num_physical())),
      monitor_(map_),
      injector_(map_, config_.fail),
      shared_(map_.num_physical()) {
  engine_.set_recorder(opts_.recorder);
  network_.set_recorder(opts_.recorder);

  // One episode-scope device per storage level (the flat store's implicit
  // level included). Which writes fail is the hierarchy's decision, drawn
  // by the controller.
  std::vector<ckpt::StableStorage*> devices;
  level_devices_.reserve(static_cast<std::size_t>(hierarchy.num_levels()));
  for (int l = 0; l < hierarchy.num_levels(); ++l) {
    level_devices_.push_back(std::make_unique<ckpt::StableStorage>(
        engine_, hierarchy.level(l).params.device));
    devices.push_back(level_devices_.back().get());
  }

  // SDC fault model: one monitor per episode tracks rank infections and
  // classifies every voted delivery; an uncorrectable divergence stops the
  // episode (the executor then rolls back to the last verified checkpoint).
  if (config_.sdc.enabled()) {
    assert(faults != nullptr);
    sdc_monitor_.emplace(map_, *faults, opts_.episode_index);
    sdc_monitor_->set_recorder(opts_.recorder);
    sdc_monitor_->set_journal(opts_.journal);
    sdc_monitor_->seed(seed_infections);
  }

  ckpt::CkptConfig ckpt_config;
  ckpt_config.interval =
      config_.checkpoint_enabled ? config_.checkpoint_interval : 1.0;
  ckpt_config.image_bytes = config_.image_bytes;
  ckpt_config.use_counting_quiesce = config_.use_counting_quiesce;
  ckpt_config.enabled = config_.checkpoint_enabled;
  ckpt_config.incremental_fraction = config_.ckpt_incremental_fraction;
  ckpt_config.forked = config_.ckpt_forked;
  ckpt_config.faults = faults;
  ckpt_config.write_retry = config_.ckpt_write_retry;
  ckpt_config.episode = opts_.episode_index;
  ckpt_config.useful_work_base = opts_.useful_work_base;
  ckpt_config.hierarchy = &hierarchy;
  ckpt_config.level_devices = std::move(devices);
  ckpt_config.epoch_base = opts_.epoch_base;
  ckpt_config.sdc = sdc_monitor_ ? &*sdc_monitor_ : nullptr;
  controller_.emplace(engine_, std::move(ckpt_config),
                      static_cast<int>(map_.num_physical()));
  controller_->set_recorder(opts_.recorder);
  controller_->set_journal(opts_.journal);

  injector_.set_recorder(opts_.recorder);
  injector_.set_journal(opts_.journal);

  comms_.reserve(map_.num_physical());
  for (std::size_t p = 0; p < map_.num_physical(); ++p) {
    if (config_.replication == Replication::kPush) {
      auto comm = std::make_unique<red::RedComm>(
          world_, map_, static_cast<red::Rank>(p), config_.red);
      if (config_.live_failure_semantics) comm->set_liveness(&monitor_);
      if (sdc_monitor_) comm->set_sdc(&*sdc_monitor_);
      comm->set_recorder(opts_.recorder);
      comms_.push_back(std::move(comm));
    } else {
      auto comm = std::make_unique<red::PullComm>(
          world_, map_, static_cast<red::Rank>(p));
      if (config_.live_failure_semantics) comm->set_liveness(&monitor_);
      comm->set_recorder(opts_.recorder);
      comms_.push_back(std::move(comm));
    }
  }

  if (config_.live_failure_semantics) shared_.monitor = &monitor_;
}

void EpisodeRig::set_compared_log(std::vector<sim::Time>* log) {
  for (auto& comm : comms_) {
    if (auto* push = dynamic_cast<red::RedComm*>(comm.get()))
      push->set_compared_log(log);
  }
}

void EpisodeRig::start() {
  if (started_)
    throw std::logic_error("EpisodeRig::start called twice");
  started_ = true;

  for (std::size_t p = 0; p < map_.num_physical(); ++p) {
    engine_.spawn(rank_main(engine_, *(*workloads_)[p], *comms_[p],
                            world_.endpoint(static_cast<red::Rank>(p)),
                            *controller_, opts_.start_iteration, shared_));
  }
  controller_->arm();

  if (sdc_monitor_) {
    // The first uncorrectable divergence ends the episode: there is no
    // point running on — the infected state must be rolled back.
    sdc_monitor_->set_alarm(
        [this](const failure::SdcDetection&) { engine_.request_stop(); });
    if (config_.sdc.atrest_rate > 0.0)
      engine_.spawn(sdc_monitor_->run(engine_));
  }

  if (opts_.inject) {
    std::function<void(red::Rank)> on_replica_death;
    if (config_.live_failure_semantics) {
      // Abort every pending receive from the corpse so survivors degrade
      // instead of hanging, then re-check completion (the corpse may have
      // been the last unfinished rank).
      on_replica_death = [this](red::Rank dead) {
        for (int p = 0; p < world_.size(); ++p)
          world_.endpoint(p).abort_posted_from(dead);
        shared_.check_completion(engine_);
      };
    }
    engine_.spawn(injector_.run(
        engine_, monitor_, opts_.episode_index,
        [this] { return controller_->in_checkpoint(); },
        [this](failure::JobFailure jf) {
          job_failure_ = jf;
          engine_.request_stop();
        },
        std::move(on_replica_death)));
  }
}

EpisodeResult EpisodeRig::collect() {
  EpisodeResult result;
  if (sdc_monitor_) {
    result.sdc = sdc_monitor_->detection();
    result.sdc_stats = sdc_monitor_->stats();
    result.sdc_infected_end = sdc_monitor_->snapshot_infections().size();
  }
  result.finished = shared_.completed && !job_failure_ && !result.sdc;
  result.failure = job_failure_;
  if (!result.finished && !job_failure_ && !result.sdc)
    throw std::logic_error(
        "JobExecutor: episode stalled — simulation deadlock");
  result.elapsed = job_failure_  ? job_failure_->time
                   : result.sdc ? result.sdc->time
                                : shared_.finish_time;
  result.checkpoint_time = controller_->total_checkpoint_time() +
                           controller_->in_progress_elapsed(result.elapsed);
  // A kill mid-checkpoint is charged to checkpoint_time; record the
  // truncated span too so the "checkpoint" spans tile the counter exactly.
  if (opts_.recorder != nullptr) {
    const double partial = controller_->in_progress_elapsed(result.elapsed);
    if (partial > 0.0)
      opts_.recorder->span("checkpoint", "ckpt", obs::kJobPid,
                           result.elapsed - partial, result.elapsed);
  }
  // Settle the async flushes: commits the engine stop may have raced,
  // then either drain the rest (finished episode — the terminal wait is
  // the job's `flush` wallclock component) or drop them (a kill destroys
  // in-flight drains).
  controller_->commit_ready_flushes(result.elapsed);
  if (result.finished) {
    result.flush_drain = controller_->drain_remaining_flushes(result.elapsed);
    if (result.flush_drain > 0.0 && opts_.recorder != nullptr)
      opts_.recorder->span("flush-drain", "ckpt", obs::kJobPid, result.elapsed,
                           result.elapsed + result.flush_drain);
    result.elapsed += result.flush_drain;
  } else {
    // Bill every destroyed in-flight drain to the killing failure (or to
    // the injection whose detection forced the rollback: the relaunch
    // abandons the drain, and the flushed images were suspect anyway).
    controller_->drop_remaining_flushes(
        job_failure_  ? job_failure_->cause
        : result.sdc ? result.sdc->injection_event
                     : 0);
  }
  result.flushes_completed = controller_->flushes_completed();
  result.flushes_lost = controller_->flushes_lost();
  result.dead_ranks.assign(map_.num_physical(), 0);
  for (std::size_t p = 0; p < map_.num_physical(); ++p) {
    if (monitor_.is_dead(static_cast<red::Rank>(p)))
      result.dead_ranks[p] = 1;
  }
  result.level_writes.reserve(level_devices_.size());
  result.level_write_failures.reserve(level_devices_.size());
  for (const auto& dev : level_devices_) {
    result.level_writes.push_back(dev->writes());
    result.level_write_failures.push_back(dev->failed_writes());
    result.wasted_write_time += dev->wasted_write_seconds();
  }
  result.snapshot = controller_->snapshot();
  result.checkpoints = controller_->checkpoints_completed();
  result.failed_checkpoints = controller_->failed_epochs();
  result.write_failures = controller_->write_failures();
  result.physical_failures = monitor_.dead_processes();
  result.messages = world_.stats().messages_sent;
  result.events = engine_.events_processed();
  result.contention_wait = network_.stats().contention_wait;
  for (const auto& comm : comms_) {
    if (const auto* push = dynamic_cast<const red::RedComm*>(comm.get())) {
      result.mismatches_detected += push->stats().mismatches_detected;
      result.mismatches_corrected += push->stats().mismatches_corrected;
      result.messages_compared += push->stats().messages_compared;
      result.mismatches_undetected += push->stats().mismatches_undetected;
    }
  }
  return result;
}

}  // namespace redcr::runtime
