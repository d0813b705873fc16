// Multi-generation checkpoint retention (SCR-style): the generation store
// of one storage level. Every StorageHierarchy level — the flat store's
// implicit level included — owns one.
//
// The reliable pipeline keeps exactly one snapshot: the newest. Once images
// can be latently corrupt (failure::FaultClass::kImageCorruption), the
// newest checkpoint may fail restart-time validation, and the only recovery
// is an *older* generation — so the store retains up to `retention_depth`
// generations and restore() walks newest-first, discarding every generation
// whose image set fails validation until one passes (generation N-1, N-2,
// ...). With retention depth 1 and no faults this degenerates to the
// original single-snapshot behavior.
//
// Validation is deliberately lazy: corruption is recorded at publish time
// (it is a deterministic function of the fault seed and the image's
// coordinates) but only *consulted* here, at restore — matching real
// systems, where a bad image is discovered when the restart tries to read
// it back and the checksum mismatches.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "failure/sdc.hpp"

namespace redcr::ckpt {

/// One retained checkpoint generation: the published snapshot plus the
/// validity state of its per-rank image set.
struct Generation {
  Snapshot snapshot;
  std::uint64_t episode = 0;  ///< episode that took this checkpoint
  /// Job-lifetime useful work captured by this generation (the executor's
  /// restore target: falling back here discards everything credited since).
  double cumulative_useful = 0.0;
  /// Per-physical-rank image validity; a latent corruption or an
  /// unretryable forked-write failure clears the rank's bit.
  std::vector<char> image_ok;
  /// Content tag derived from the image coordinates; surfaced in logs so a
  /// fallback names which generation it landed on.
  std::uint64_t checksum = 0;
  /// Live rank infections at publish time (empty = *verified*). A
  /// generation committed while an undetected SDC infection was active is
  /// unverified: its images contain corrupt state, so it is invalidated
  /// when voting finally detects the infection (Aupy et al.'s two-level
  /// recovery), and restoring it before detection resurrects the
  /// infections (failure::SdcMonitor::seed).
  std::vector<failure::InfectionRecord> infections;

  /// The generation restores iff every rank's image validates.
  [[nodiscard]] bool valid() const noexcept;
  /// Committed with no undetected infection active.
  [[nodiscard]] bool verified() const noexcept { return infections.empty(); }
};

/// Deterministic content tag for a generation (SplitMix64 over coordinates).
[[nodiscard]] std::uint64_t generation_checksum(std::uint64_t episode,
                                                int epoch,
                                                long iteration) noexcept;

/// Outcome of CheckpointStore::restore().
struct RestoreResult {
  bool found = false;            ///< a generation passed validation
  bool had_generations = false;  ///< store was non-empty before validation
  Generation generation;         ///< meaningful only when found
  /// Generations discarded before one validated: 0 = newest restored
  /// clean, k = fell back to generation N-k.
  int fallback_depth = 0;
};

class CheckpointStore {
 public:
  /// Throws std::invalid_argument unless retention_depth >= 1.
  explicit CheckpointStore(int retention_depth);

  /// Retains `gen` as the newest generation, evicting the oldest beyond
  /// the retention depth.
  void commit(Generation gen);

  /// Validates newest-first; erases every corrupt generation encountered
  /// (it is unreadable — keeping it would just re-fail the next restore)
  /// and returns the newest valid one. Non-destructive for the generation
  /// it returns: repeated restores land on the same one.
  RestoreResult restore();

  /// Erases every unverified generation (committed while an infection was
  /// active) — called at SDC detection time: those image sets hold corrupt
  /// state and must not serve restores. Returns the removed generations,
  /// newest first, so the executor can journal each invalidation.
  std::vector<Generation> invalidate_unverified();

  /// Drops every retained generation — models a volatile level whose
  /// contents do not survive a relaunch (or were destroyed by a failure).
  void clear() noexcept { generations_.clear(); }

  [[nodiscard]] int retention_depth() const noexcept { return retention_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return generations_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return generations_.empty(); }
  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  int retention_;
  std::deque<Generation> generations_;  // oldest at front, newest at back
  std::uint64_t commits_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace redcr::ckpt
