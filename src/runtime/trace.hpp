// Episode-level execution trace: what happened in each run attempt —
// requested by operators who want to see *why* a job took as long as it
// did, not just the final breakdown.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace redcr::runtime {

struct EpisodeTrace {
  int index = 0;
  /// Wallclock offset of the episode's start within the job (includes all
  /// previous episodes and restart costs).
  util::Seconds start_wallclock = 0.0;
  /// Simulated time this episode ran before completing or dying.
  util::Seconds elapsed = 0.0;
  enum class End {
    kCompleted,
    kSphereDeath,
    kAbandoned,
    kAborted,  ///< structured JobAbort (exhausted restarts / no valid ckpt)
    kSdcRollback,  ///< redundancy voting detected silent corruption
  } end = End::kCompleted;
  /// Virtual rank whose sphere died (End::kSphereDeath / kAborted).
  int dead_sphere = -1;
  /// Application iteration the episode started from.
  long start_iteration = 0;
  /// Iteration durably checkpointed by the episode's end (= restart point).
  long snapshot_iteration = 0;
  int checkpoints = 0;
  int replica_deaths = 0;
  /// Restart attempts paid after this episode (1 = first try succeeded;
  /// 0 for completed/abandoned episodes).
  int restart_attempts = 0;
  /// Checkpoint generations discarded by restore-time validation before one
  /// passed (0 = restored the newest generation).
  int fallback_depth = 0;
  /// Hierarchy mode: storage level that served the restore after this
  /// episode (-1 = flat store / no restore / nothing found).
  int restore_level = -1;
  /// Hierarchy mode: async flushes destroyed in flight by this episode's
  /// kill.
  int flushes_lost = 0;
  /// Unverified checkpoint generations invalidated when this episode's SDC
  /// detection fired (End::kSdcRollback only).
  int sdc_invalidated = 0;
};

/// Renders a compact per-episode timeline, e.g.
///   #0      0.0s +312.4s  it 0->18    2 ckpt  3 deaths  sphere 5 died
///   #1    812.4s +448.1s  it 18->done 4 ckpt  1 death   completed
[[nodiscard]] std::string render_trace(const std::vector<EpisodeTrace>& trace);

}  // namespace redcr::runtime
