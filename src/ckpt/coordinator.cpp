#include "ckpt/coordinator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "ckpt/hierarchy.hpp"
#include "ckpt/store.hpp"
#include "failure/sdc.hpp"
#include "sim/task.hpp"
#include "util/log.hpp"

namespace redcr::ckpt {

CheckpointController::CheckpointController(sim::Engine& engine,
                                           CkptConfig config, int num_physical)
    : engine_(engine),
      config_(std::move(config)),
      num_physical_(num_physical),
      done_epoch_(static_cast<std::size_t>(num_physical), 0) {
  if (num_physical <= 0)
    throw std::invalid_argument("CheckpointController: empty world");
  if (config_.interval <= 0.0)
    throw std::invalid_argument("CheckpointController: interval must be > 0");
  config_.write_retry.validate("CkptConfig.write_retry");
  if (config_.hierarchy == nullptr)
    throw std::invalid_argument(
        "CheckpointController: no storage hierarchy (an empty "
        "HierarchyParams builds the flat store's implicit level)");
  if (config_.forked && !config_.hierarchy->implicit()) {
    throw std::invalid_argument(
        "CheckpointController: forked checkpointing is not supported with "
        "a storage hierarchy (the hierarchy's async flush is the "
        "overlapped-drain mechanism)");
  }
  if (static_cast<int>(config_.level_devices.size()) !=
      config_.hierarchy->num_levels()) {
    throw std::invalid_argument(
        "CheckpointController: level_devices must hold one device per "
        "hierarchy level");
  }
  for (const auto* dev : config_.level_devices) {
    if (dev == nullptr)
      throw std::invalid_argument(
          "CheckpointController: null device in level_devices");
  }
}

CheckpointController::~CheckpointController() = default;

void CheckpointController::note_write_failure(int rank, int level, int epoch,
                                              int attempt, double device_time,
                                              bool instant) {
  ++write_failures_;
  const StorageHierarchy& hier = *config_.hierarchy;
  if (recorder_ != nullptr) {
    if (instant)
      recorder_->instant("ckpt-write-failed", "ckpt", obs::rank_pid(rank),
                         engine_.now());
    recorder_->add("ckpt.write_failures");
    recorder_->add("time.ckpt_wasted_write", device_time);
    if (!hier.implicit())
      recorder_->add("ckpt.level" + std::to_string(level) + ".write_failures");
  }
  if (journal_ != nullptr) {
    obs::Journal::Event ev;
    ev.t = engine_.now();
    ev.type = "ckpt-write-failed";
    ev.episode = static_cast<int>(config_.episode);
    ev.rank = rank;
    ev.level = hier.journal_level(level);
    ev.epoch = epoch;
    ev.attempt = attempt;
    ev.dur = device_time;
    journal_->append(std::move(ev));
  }
}

void CheckpointController::arm() {
  if (!config_.enabled) return;
  engine_.schedule_after(config_.interval, [this] { ++requested_epochs_; });
}

sim::CoTask<int> CheckpointController::agree_epoch(simmpi::Endpoint& endpoint,
                                                   long iteration) {
  const double agreed = co_await quiesce_reduce_max(
      endpoint, static_cast<double>(requested_epochs_),
      static_cast<int>(iteration));
  co_return static_cast<int>(agreed);
}

sim::CoTask<bool> CheckpointController::maybe_checkpoint(
    simmpi::Endpoint& endpoint, long iteration) {
  if (ff_probe_ != nullptr) ff_probe_->record_hook(iteration, engine_.now());
  if (!config_.enabled) co_return false;
  const int epoch = co_await agree_epoch(endpoint, iteration);
  auto& my_done = done_epoch_[static_cast<std::size_t>(endpoint.rank())];
  if (epoch <= my_done) co_return false;
  my_done = epoch;
  co_await run_checkpoint(endpoint, iteration, epoch);
  co_return true;
}

sim::CoTask<void> CheckpointController::run_checkpoint(
    simmpi::Endpoint& endpoint, long iteration, int epoch) {
  StorageHierarchy& hier = *config_.hierarchy;
  const int global_epoch = config_.epoch_base + epoch;
  // First rank in marks the epoch's entry time and resets the epoch's
  // write state.
  if (entered_count_ == 0) {
    epoch_.entry_time = engine_.now();
    if (ff_probe_ != nullptr) ff_probe_->epoch_entry.push_back(engine_.now());
    const auto levels = static_cast<std::size_t>(hier.num_levels());
    epoch_.level_ok.assign(
        levels, std::vector<char>(static_cast<std::size_t>(num_physical_), 1));
    epoch_.level_exhausted.assign(levels, 0);
    if (journal_ != nullptr) {
      epoch_.level_busy.resize(levels);
      for (std::size_t l = 0; l < levels; ++l)
        epoch_.level_busy[l] = config_.level_devices[l]->busy_until();
    }
  }
  ++entered_count_;
  const int pid = obs::rank_pid(endpoint.rank());
  const sim::Time t_enter = engine_.now();

  // 1. Drain the channels (paper: bookmark exchange before BLCR images).
  // (if/else rather than ?: — GCC 12 miscompiles a conditional expression
  // whose arms are both co_awaits, always taking one branch.)
  if (config_.use_counting_quiesce) {
    last_quiesce_ = co_await counting_quiesce(endpoint);
  } else {
    last_quiesce_ = co_await bookmark_exchange_quiesce(endpoint);
  }
  const sim::Time t_quiesced = engine_.now();
  if (recorder_ != nullptr)
    recorder_->span("quiesce", "ckpt", pid, t_enter, t_quiesced);

  // 2. Write this process's image to the epoch's levels; writers serialize
  //    on each device, which is what makes `c` grow with the process count.
  //    Incremental mode shrinks every image after the run's first one.
  //    Unreliable mode: a visibly failed write consumes its device slot but
  //    writes nothing; blocking writes retry it with capped exponential
  //    backoff (the backoff runs inside the checkpoint span, so the wasted
  //    time lands in checkpoint_time, where it belongs).
  const util::Bytes image =
      epoch == 1 ? config_.image_bytes
                 : config_.image_bytes * config_.incremental_fraction;
  if (config_.forked) {
    // Forked mode (implicit level only): pay only the fork pause; the write
    // drains in background. A failed write cannot be retried synchronously
    // (the application has already resumed), so it degrades to a latently
    // invalid image that restore-time validation will reject.
    StableStorage& dev = *config_.level_devices.front();
    if (hier.write_fails(config_.faults, 0, config_.episode, epoch,
                         endpoint.rank(), /*attempt=*/0)) {
      const auto res = dev.charge_failed_write(image);
      epoch_.level_ok.front()[static_cast<std::size_t>(endpoint.rank())] = 0;
      note_write_failure(endpoint.rank(), 0, epoch, 0, res.device_time,
                         /*instant=*/true);
    } else {
      dev.write_completion(image);
    }
    co_await sim::delay(engine_, config_.fork_cost);
  } else {
    // Interval routing: blocking write to the due cache level, plus a
    // blocking PFS drain when one is due and async flush is off (the async
    // launch happens at rank-0 publish, after the barrier).
    const int cache = hier.cache_level_for(global_epoch);
    if (cache >= 0) {
      co_await write_level_blocking(endpoint, cache, epoch, image);
    }
    if (hier.pfs_due(global_epoch) && !hier.params().async_flush) {
      co_await write_level_blocking(endpoint, hier.pfs_level(), epoch, image);
    }
  }
  const sim::Time t_written = engine_.now();
  if (recorder_ != nullptr)
    recorder_->span(config_.forked ? "fork" : "image-write", "ckpt", pid,
                    t_quiesced, t_written);

  // 3. Close the checkpoint: in blocking mode nobody may resume before
  //    every image is durable; in forked mode the barrier only synchronizes
  //    the forks (durability is tracked separately below).
  co_await quiesce_barrier(endpoint);
  if (recorder_ != nullptr)
    recorder_->span("ckpt-barrier", "ckpt", pid, t_written, engine_.now());

  // 4. Rank 0 publishes the snapshot and re-arms the timer so the next
  //    request fires δ after *completion* (work/checkpoint segments of
  //    length δ + c, as in Eq. 12).
  if (endpoint.rank() == 0) {
    ++completed_epochs_;
    assert(completed_epochs_ == epoch);
    // The epoch is abandoned only when *no* due level can publish: every
    // due blocking level exhausted its retries and no async flush will
    // launch (the flush drains the in-memory image, so it launches even
    // when the cache write failed).
    const int cache = hier.cache_level_for(global_epoch);
    const bool pfs_due = hier.pfs_due(global_epoch);
    const bool async = hier.params().async_flush;
    const bool cache_ok =
        cache >= 0 &&
        !epoch_.level_exhausted[static_cast<std::size_t>(cache)];
    const bool pfs_ok =
        pfs_due && !async &&
        !epoch_.level_exhausted[static_cast<std::size_t>(hier.pfs_level())];
    const bool abandoned = !cache_ok && !pfs_ok && !(pfs_due && async);
    if (abandoned) ++failed_epochs_;
    total_checkpoint_time_ += engine_.now() - epoch_.entry_time;
    const double work_elapsed = engine_.now() - total_checkpoint_time_;
    if (ff_probe_ != nullptr)
      ff_probe_->closes.push_back({epoch, iteration, work_elapsed,
                                   total_checkpoint_time_, engine_.now()});
    if (journal_ != nullptr) {
      // Per-epoch closure event: dur is the checkpoint's wallclock span
      // (the paper's c), which the analyzer averages for the model's
      // predicted-waste columns.
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = abandoned ? "ckpt-epoch-abandoned" : "ckpt-end";
      ev.episode = static_cast<int>(config_.episode);
      ev.epoch = epoch;
      ev.iteration = iteration;
      ev.dur = engine_.now() - epoch_.entry_time;
      journal_->append(std::move(ev));
    }
    if (recorder_ != nullptr) {
      // Job-track accounting: rank 0's phase boundaries stand in for the
      // whole collective (every rank leaves each phase within the barrier).
      recorder_->span("checkpoint", "ckpt", obs::kJobPid, epoch_.entry_time,
                      engine_.now());
      obs::Registry& metrics = recorder_->metrics();
      if (abandoned) {
        metrics.add("ckpt.failed_epochs");
        recorder_->instant("ckpt-epoch-abandoned", "ckpt", obs::kJobPid,
                           engine_.now());
      } else {
        metrics.add("ckpt.completed");
      }
      metrics.add("time.ckpt_quiesce", t_quiesced - t_enter);
      metrics.add("time.ckpt_write", t_written - t_quiesced);
      metrics.add("time.ckpt_barrier", engine_.now() - t_written);
      metrics
          .histogram("quiesce.rounds",
                     {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
          .observe(last_quiesce_.rounds);
    }
    entered_count_ = 0;
    engine_.schedule_after(config_.interval, [this] { ++requested_epochs_; });
    if (!abandoned) {
      // Verification state is captured *now*, at the barrier — a forked
      // publish deferred to drain completion still records the infections
      // live when the images were taken.
      std::vector<failure::InfectionRecord> infections =
          config_.sdc != nullptr ? config_.sdc->snapshot_infections()
                                 : std::vector<failure::InfectionRecord>{};
      if (config_.forked) {
        // The snapshot is restorable only once the slowest background write
        // has drained; a failure before that falls back to the previous one.
        const sim::Time all_durable =
            config_.level_devices.front()->busy_until();
        engine_.schedule_at(
            std::max(all_durable, engine_.now()),
            [this, iteration, epoch, work_elapsed, writes = epoch_,
             infections = std::move(infections)] {
              publish(iteration, epoch, work_elapsed, writes, infections);
            });
      } else {
        publish(iteration, epoch, work_elapsed, epoch_, infections);
      }
    }
  }
}

sim::CoTask<void> CheckpointController::write_level_blocking(
    simmpi::Endpoint& endpoint, int level, int epoch, util::Bytes image) {
  const StorageHierarchy& hier = *config_.hierarchy;
  const LevelParams& lp = hier.level(level).params;
  StableStorage& dev = *config_.level_devices[static_cast<std::size_t>(level)];
  const util::Bytes size = image * lp.write_factor(num_physical_);
  bool written = false;
  for (int attempt = 0; attempt < config_.write_retry.max_attempts;
       ++attempt) {
    const double backoff = config_.write_retry.delay_before(attempt);
    if (backoff > 0.0) co_await sim::delay(engine_, backoff);
    StableStorage::WriteResult res;
    if (hier.write_fails(config_.faults, level, config_.episode, epoch,
                         endpoint.rank(), attempt)) {
      res = dev.charge_failed_write(size);
    } else {
      res.completion = dev.write_completion(size);
    }
    co_await sim::delay(engine_, res.completion - engine_.now());
    if (res.ok) {
      written = true;
      break;
    }
    note_write_failure(endpoint.rank(), level, epoch, attempt,
                       res.device_time, /*instant=*/true);
  }
  if (!written) {
    // Retries exhausted: this rank has no durable image at the level, so
    // the level cannot commit the epoch. Still proceed to the barrier
    // (abandoning it here would deadlock the collective).
    epoch_.level_ok[static_cast<std::size_t>(level)]
                   [static_cast<std::size_t>(endpoint.rank())] = 0;
    epoch_.level_exhausted[static_cast<std::size_t>(level)] = 1;
    if (hier.implicit()) {
      REDCR_LOG_WARN << "ckpt: rank " << endpoint.rank() << " exhausted "
                     << config_.write_retry.max_attempts
                     << " write attempts for epoch " << epoch
                     << "; abandoning the epoch";
    } else {
      REDCR_LOG_WARN << "ckpt: rank " << endpoint.rank() << " exhausted "
                     << config_.write_retry.max_attempts
                     << " write attempts at level " << level << " ("
                     << level_kind_name(lp.kind) << ") for epoch " << epoch
                     << "; the level skips this epoch";
    }
  }
}

void CheckpointController::publish(
    long iteration, int epoch, double work_elapsed, const EpochWrites& writes,
    const std::vector<failure::InfectionRecord>& infections) {
  StorageHierarchy& hier = *config_.hierarchy;
  const int global_epoch = config_.epoch_base + epoch;
  const int cache = hier.cache_level_for(global_epoch);
  const bool pfs_due = hier.pfs_due(global_epoch);
  const int pfs = hier.pfs_level();

  Snapshot snap;
  snap.valid = true;
  snap.iteration = iteration;
  snap.completed_at = engine_.now();
  snap.epoch = epoch;
  snap.work_elapsed = work_elapsed;
  snapshot_ = snap;

  const std::uint64_t checksum =
      generation_checksum(config_.episode, epoch, iteration);
  const double cumulative = config_.useful_work_base + work_elapsed;
  auto make_generation = [&](std::vector<char> image_ok) {
    Generation gen;
    gen.snapshot = snap;
    gen.episode = config_.episode;
    gen.cumulative_useful = cumulative;
    gen.image_ok = std::move(image_ok);
    gen.checksum = checksum;
    gen.infections = infections;
    return gen;
  };

  unsigned committed = 0;
  auto commit_blocking = [&](int level) {
    const auto l = static_cast<std::size_t>(level);
    if (writes.level_exhausted[l]) return;
    // Latent corruption is decided now (pure function of the coordinates)
    // but only consulted at restore-time validation — per level, each from
    // its own stream.
    auto image_ok = writes.level_ok[l];
    if (config_.faults != nullptr) {
      for (std::size_t r = 0; r < image_ok.size(); ++r) {
        if (hier.image_corrupts(config_.faults, level, config_.episode, epoch,
                                static_cast<int>(r)))
          image_ok[r] = 0;
      }
    }
    hier.commit(level, make_generation(std::move(image_ok)));
    committed |= 1u << level;
    if (recorder_ != nullptr && !hier.implicit()) {
      recorder_->metrics().add("ckpt.level" + std::to_string(level) +
                               ".commits");
    }
    if (journal_ != nullptr) {
      // dur: device seconds this epoch consumed at the level — writes
      // serialize, so the busy-horizon advance beyond max(horizon at entry,
      // entry) is exact. The implicit level carries no kind.
      const StableStorage& dev = *config_.level_devices[l];
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = "ckpt-commit";
      ev.episode = static_cast<int>(config_.episode);
      ev.level = hier.journal_level(level);
      ev.epoch = epoch;
      ev.iteration = iteration;
      ev.dur = std::max(0.0, dev.busy_until() - std::max(writes.level_busy[l],
                                                         writes.entry_time));
      if (!hier.implicit())
        ev.detail = level_kind_name(hier.level(level).params.kind);
      journal_->append(std::move(ev));
    }
  };

  if (cache >= 0) commit_blocking(cache);
  if (pfs_due && !hier.params().async_flush) commit_blocking(pfs);
  if (ff_probe_ != nullptr)
    ff_probe_->publishes.push_back(
        {epoch, iteration, work_elapsed, engine_.now(), committed});

  if (pfs_due && hier.params().async_flush) {
    // Launch the background drain: reserve one serialized device write per
    // rank on the PFS now, overlap it with post-checkpoint useful work, and
    // commit the generation only when the last image lands. Background
    // writes cannot be retried synchronously, so a visible write failure
    // degrades to an invalid image (same semantics as a forked-mode write
    // failure); validity is pre-drawn here — it is a pure function of the
    // image coordinates.
    const LevelParams& lp = hier.level(pfs).params;
    StableStorage& dev = *config_.level_devices[static_cast<std::size_t>(pfs)];
    const util::Bytes image =
        (epoch == 1 ? config_.image_bytes
                    : config_.image_bytes * config_.incremental_fraction) *
        lp.write_factor(num_physical_);
    std::vector<char> ok(static_cast<std::size_t>(num_physical_), 1);
    sim::Time ready = engine_.now();
    for (int r = 0; r < num_physical_; ++r) {
      if (hier.write_fails(config_.faults, pfs, config_.episode, epoch, r,
                           /*attempt=*/0)) {
        const auto res = dev.charge_failed_write(image);
        ready = res.completion;
        ok[static_cast<std::size_t>(r)] = 0;
        note_write_failure(r, pfs, epoch, 0, res.device_time,
                           /*instant=*/false);
      } else {
        ready = dev.write_completion(image);
        if (hier.image_corrupts(config_.faults, pfs, config_.episode, epoch,
                                r)) {
          ok[static_cast<std::size_t>(r)] = 0;
        }
      }
    }
    PendingFlush pf;
    pf.start = engine_.now();
    pf.ready_at = ready;
    pf.level = pfs;
    pf.gen = make_generation(std::move(ok));
    if (ff_probe_ != nullptr)
      ff_probe_->flushes.push_back(
          {epoch, iteration, work_elapsed, pf.start, pf.ready_at});
    pending_flushes_.push_back(std::move(pf));
    const std::size_t idx = pending_flushes_.size() - 1;
    if (recorder_ != nullptr) {
      recorder_->instant("flush-launch", "ckpt", obs::kJobPid, engine_.now());
      recorder_->metrics().add("ckpt.flush.launched");
    }
    if (journal_ != nullptr) {
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = "flush-launch";
      ev.episode = static_cast<int>(config_.episode);
      ev.level = pfs;
      ev.epoch = epoch;
      ev.dur = ready - engine_.now();
      journal_->append(std::move(ev));
    }
    engine_.schedule_at(ready, [this, idx] { commit_flush(idx); });
  }
}

void CheckpointController::commit_flush(std::size_t idx) {
  PendingFlush& pf = pending_flushes_[idx];
  if (pf.committed) return;
  pf.committed = true;
  config_.hierarchy->commit(pf.level, pf.gen);
  ++flushes_completed_;
  if (recorder_ != nullptr) {
    recorder_->span("flush", "ckpt", obs::kJobPid, pf.start, pf.ready_at);
    recorder_->metrics().add("ckpt.flush.completed");
    recorder_->metrics().add("ckpt.level" + std::to_string(pf.level) +
                             ".commits");
  }
  if (journal_ != nullptr) {
    // Timestamped at the drain's completion (ready_at), not engine_.now():
    // terminal drains commit after the engine stopped.
    obs::Journal::Event ev;
    ev.t = pf.ready_at;
    ev.type = "flush-commit";
    ev.episode = static_cast<int>(config_.episode);
    ev.level = pf.level;
    ev.epoch = pf.gen.snapshot.epoch;
    ev.dur = pf.ready_at - pf.start;
    journal_->append(std::move(ev));
  }
}

void CheckpointController::commit_ready_flushes(sim::Time now) {
  for (std::size_t i = 0; i < pending_flushes_.size(); ++i) {
    if (!pending_flushes_[i].committed && pending_flushes_[i].ready_at <= now)
      commit_flush(i);
  }
}

double CheckpointController::drain_remaining_flushes(sim::Time now) {
  double last = now;
  for (std::size_t i = 0; i < pending_flushes_.size(); ++i) {
    PendingFlush& pf = pending_flushes_[i];
    if (pf.committed) continue;
    last = std::max(last, pf.ready_at);
    commit_flush(i);
  }
  return last - now;
}

int CheckpointController::drop_remaining_flushes(std::uint64_t cause) {
  int lost = 0;
  for (auto& pf : pending_flushes_) {
    if (pf.committed) continue;
    pf.committed = true;  // dropped: the kill destroyed the in-flight images
    ++lost;
    if (journal_ != nullptr) {
      // Billed to the killing failure: the drain seconds this flush had
      // reserved are destroyed along with its images.
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = "flush-lost";
      ev.cause = cause;
      ev.episode = static_cast<int>(config_.episode);
      ev.level = pf.level;
      ev.epoch = pf.gen.snapshot.epoch;
      ev.dur = pf.ready_at - pf.start;
      journal_->append(std::move(ev));
    }
  }
  flushes_lost_ += lost;
  if (recorder_ != nullptr && lost > 0) {
    recorder_->metrics().add("ckpt.flush.lost", static_cast<double>(lost));
    recorder_->instant("flush-lost", "ckpt", obs::kJobPid, engine_.now());
  }
  return lost;
}

}  // namespace redcr::ckpt
