#pragma once

// Per-node performance counters. The three TimeAccumulators implement the
// paper's computation / communication / disk-I/O breakdown: overlap
// (Tables IV-VI) is computed by the harness as
//   Overlap = (Comp + Comm + Disk - Total) / Total,
// i.e. how much busy time exceeded wall time thanks to the I/O and
// communication threads working under the computation.

#include <atomic>
#include <cstdint>
#include <span>

#include "util/timer.hpp"

namespace mrts::core {

struct NodeCounters {
  util::TimeAccumulator comp_time;  // message-handler execution
  util::TimeAccumulator comm_time;  // endpoint send + AM delivery
  util::TimeAccumulator disk_time;  // storage-layer I/O thread busy time

  std::atomic<std::uint64_t> messages_executed{0};
  std::atomic<std::uint64_t> messages_sent_local{0};
  std::atomic<std::uint64_t> messages_sent_remote{0};
  std::atomic<std::uint64_t> messages_forwarded{0};
  std::atomic<std::uint64_t> inline_deliveries{0};
  std::atomic<std::uint64_t> objects_created{0};
  std::atomic<std::uint64_t> objects_loaded{0};
  std::atomic<std::uint64_t> objects_spilled{0};
  std::atomic<std::uint64_t> bytes_spilled{0};
  std::atomic<std::uint64_t> bytes_loaded{0};
  // Clean-spill elision: evictions that skipped serialize+store because the
  // object's dirty generation still matched the blob on the backend.
  std::atomic<std::uint64_t> spills_elided{0};
  std::atomic<std::uint64_t> bytes_spill_elided{0};
  std::atomic<std::uint64_t> migrations_in{0};
  std::atomic<std::uint64_t> migrations_out{0};
  std::atomic<std::uint64_t> location_updates{0};

  // Self-healing storage path (recovery ladder outcomes).
  std::atomic<std::uint64_t> loads_recovered{0};       // re-issued load won
  std::atomic<std::uint64_t> checkpoint_recoveries{0}; // checkpoint copy won
  std::atomic<std::uint64_t> spills_reinstalled{0};    // failed store undone
  std::atomic<std::uint64_t> objects_poisoned{0};      // ladder exhausted
  std::atomic<std::uint64_t> poisoned_messages_dropped{0};

  // Elastic membership: refused placements and crash rebuild.
  std::atomic<std::uint64_t> migrations_refused{0};  // non-accepting target
  std::atomic<std::uint64_t> objects_rebuilt{0};   // crash frames installed

  void reset_times() {
    comp_time.reset();
    comm_time.reset();
    disk_time.reset();
  }
};

/// Aggregated view over all nodes of a cluster run.
struct RunBreakdown {
  double total_seconds = 0.0;  // wall time of the parallel phase
  double comp_seconds = 0.0;   // summed over nodes, divided by node count
  double comm_seconds = 0.0;
  double disk_seconds = 0.0;

  [[nodiscard]] double comp_pct() const {
    return total_seconds > 0 ? 100.0 * comp_seconds / total_seconds : 0.0;
  }
  [[nodiscard]] double comm_pct() const {
    return total_seconds > 0 ? 100.0 * comm_seconds / total_seconds : 0.0;
  }
  [[nodiscard]] double disk_pct() const {
    return total_seconds > 0 ? 100.0 * disk_seconds / total_seconds : 0.0;
  }
  /// Paper's overlap metric, clamped at zero for fully serialized runs.
  [[nodiscard]] double overlap_pct() const {
    if (total_seconds <= 0) return 0.0;
    const double sum = comp_seconds + comm_seconds + disk_seconds;
    const double ov = 100.0 * (sum - total_seconds) / total_seconds;
    return ov > 0.0 ? ov : 0.0;
  }
};

/// Fraction (0..1) of eviction traffic that skipped the store entirely —
/// bytes_spill_elided over the total bytes evictions would have written
/// without clean-spill elision. The elision bench's headline number.
[[nodiscard]] inline double elision_ratio(std::uint64_t bytes_spilled,
                                          std::uint64_t bytes_elided) {
  const double total =
      static_cast<double>(bytes_spilled) + static_cast<double>(bytes_elided);
  return total > 0.0 ? static_cast<double>(bytes_elided) / total : 0.0;
}

/// One node's busy-time contribution to a run.
struct BusyTimes {
  double comp_seconds = 0.0;
  double comm_seconds = 0.0;
  double disk_seconds = 0.0;
};

/// Builds the paper's breakdown from a phase's wall time and the per-node
/// busy times of that phase: each component is the per-node average, so
/// overlap_pct reproduces the Tables IV-VI formula
///   Overlap = (Comp + Comm + Disk - Total) / Total.
[[nodiscard]] inline RunBreakdown make_breakdown(
    double total_seconds, std::span<const BusyTimes> nodes) {
  RunBreakdown b;
  b.total_seconds = total_seconds;
  if (nodes.empty()) return b;
  const auto n = static_cast<double>(nodes.size());
  for (const BusyTimes& t : nodes) {
    b.comp_seconds += t.comp_seconds / n;
    b.comm_seconds += t.comm_seconds / n;
    b.disk_seconds += t.disk_seconds / n;
  }
  return b;
}

}  // namespace mrts::core
