#pragma once

// Gray-failure plan: a device that still works but is *slow*. DeviceStore
// (storage/device_store.hpp) charges the plan's per-op virtual cost into
// BackendStats (virtual_*_latency_us), inflated by a plan-chosen factor
// inside op-index windows — the storage half of a degraded node. The plan
// never fails an op and never consumes randomness: the charge is a pure
// function of the op index, so a degraded run replays byte-identically and
// its schedule is unchanged (no sleeping, no RNG draws).

#include <cstdint>
#include <limits>
#include <vector>

namespace mrts::storage {

/// One latency-inflation window, in op indices (stores + loads combined,
/// counted per node like FaultWindow): ops with index in [begin_op, end_op)
/// cost `inflation x base_op_us` instead of `base_op_us`.
struct DegradedWindow {
  std::uint64_t begin_op = 0;
  std::uint64_t end_op = std::numeric_limits<std::uint64_t>::max();
  std::uint32_t inflation = 16;
};

/// Per-node degradation plan. `base_op_us` is charged on every op even
/// outside windows so healthy nodes accrue a comparable baseline — health
/// scoring is relative, not absolute. A zero `base_op_us` charges nothing.
struct DegradedPlan {
  std::uint64_t base_op_us = 50;
  std::vector<DegradedWindow> windows{};

  [[nodiscard]] bool degraded() const { return !windows.empty(); }
};

}  // namespace mrts::storage
