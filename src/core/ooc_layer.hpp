#pragma once

// Out-of-core layer bookkeeping (paper §II.D/§II.E): tracks which objects
// are resident and how large they are, enforces the node's memory budget
// through the hard and soft swapping thresholds, and picks eviction victims
// by combining the configured swapping scheme with application-assigned
// priorities (lower-priority objects are always preferred as victims).
//
// Thresholds, per the paper:
//   hard — `hard_multiplier` times the size of the largest object currently
//          stored on disk (default 2); checked on allocation, forces
//          synchronous eviction when free memory after the allocation would
//          drop below it.
//   soft — `soft_fraction` of the total budget (default 1/2); when free
//          memory drops below it the layer advises background eviction.
//
// Called only from the owning runtime's control thread; not thread-safe.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "storage/eviction.hpp"

namespace mrts::core {

struct OocOptions {
  /// Total memory available to mobile objects on this node.
  std::size_t memory_budget_bytes = 256ull << 20;
  double hard_multiplier = 2.0;
  double soft_fraction = 0.5;
  storage::EvictionScheme scheme = storage::EvictionScheme::kLru;
};

class OocLayer {
 public:
  explicit OocLayer(OocOptions options)
      : options_(options), policy_(options.scheme) {}

  // --- residency bookkeeping -------------------------------------------
  void on_install(std::uint64_t key, std::size_t bytes);
  void on_access(std::uint64_t key) { policy_.on_access(key); }
  void on_footprint_change(std::uint64_t key, std::size_t new_bytes);
  /// Object left memory (evicted or destroyed).
  void on_remove(std::uint64_t key);
  /// Object's serialized blob landed on disk (or was re-sealed at a new
  /// size). The layer tracks per-key blob sizes so the hard threshold —
  /// derived from the largest blob *currently* on the backend — deflates
  /// again once that blob is erased.
  void on_spilled(std::uint64_t key, std::size_t blob_bytes);
  /// Object's spill blob was erased from the backend (migration out,
  /// destroy, or a store that never landed).
  void on_spill_erased(std::uint64_t key);

  // --- thresholds --------------------------------------------------------
  /// Re-partitions the layer's memory budget at runtime (the service layer's
  /// fair-share mechanism). Takes effect immediately: free_bytes(),
  /// soft_pressure(), and hard_pressure() all answer against the new budget
  /// from the next call on, and the hard threshold's budget/2 cap deflates
  /// with it. Shrinking below the current in-core total is legal — the
  /// runtime must follow up with evictions (Runtime::set_memory_budget
  /// does). The largest-spilled watermark is independent of the budget and
  /// is untouched.
  void set_memory_budget(std::size_t bytes) {
    options_.memory_budget_bytes = bytes;
  }
  [[nodiscard]] std::size_t memory_budget_bytes() const {
    return options_.memory_budget_bytes;
  }

  /// Free memory remaining under the budget (0 when over).
  [[nodiscard]] std::size_t free_bytes() const;
  /// True when an allocation of `extra` bytes would leave free memory below
  /// the hard threshold: eviction must run before the allocation.
  [[nodiscard]] bool hard_pressure(std::size_t extra) const;
  /// True when free memory is below the soft threshold: background eviction
  /// is advised.
  [[nodiscard]] bool soft_pressure() const;

  /// Best eviction victim among resident objects passing `evictable`,
  /// preferring the lowest `priority_of` class, then the swapping scheme's
  /// choice within that class. nullopt when nothing can be evicted.
  [[nodiscard]] std::optional<std::uint64_t> pick_victim(
      const std::function<bool(std::uint64_t)>& evictable,
      const std::function<int(std::uint64_t)>& priority_of) const;

  [[nodiscard]] std::size_t in_core_bytes() const { return in_core_bytes_; }
  /// High-watermark of in_core_bytes over the layer's lifetime; the chaos
  /// harness checks it never exceeds the budget by more than the allowed
  /// reload overshoot.
  [[nodiscard]] std::size_t peak_in_core_bytes() const {
    return peak_in_core_bytes_;
  }
  [[nodiscard]] std::size_t resident_count() const { return resident_.size(); }
  [[nodiscard]] std::size_t largest_spilled_bytes() const {
    return largest_spilled_;
  }
  [[nodiscard]] const OocOptions& options() const { return options_; }

 private:
  OocOptions options_;
  storage::EvictionPolicy policy_;
  std::unordered_map<std::uint64_t, std::size_t> resident_;  // key -> bytes
  std::unordered_map<std::uint64_t, std::size_t> spilled_;   // key -> blob
  std::size_t in_core_bytes_ = 0;
  std::size_t peak_in_core_bytes_ = 0;
  std::size_t largest_spilled_ = 0;  // cached max over spilled_
};

}  // namespace mrts::core
