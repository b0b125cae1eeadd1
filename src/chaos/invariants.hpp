#pragma once

// Cross-layer invariant checkers for chaos runs. Three layers are covered:
//
//   transport — TraceChecker folds the fabric's per-(src,dst) sequence
//     numbers into FIFO-order, exactly-once, and no-loss verdicts. Faults
//     the plan injected on purpose (drops, duplicates, delays, reorders)
//     are discounted: only *unexplained* anomalies count as violations.
//
//   directory — after quiescence every mobile object must be hosted by
//     exactly one node, and every cached remote location must reach that
//     host by chasing last_known pointers without cycling (lazy updates
//     may leave stale entries, but stale means "longer chain", never
//     "wrong answer").
//
//   out-of-core — no node's in-core high-watermark may exceed its memory
//     budget by more than the allowed reload overshoot.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cluster.hpp"
#include "simnet/fabric.hpp"

namespace mrts::core {
class HealthMonitor;
class MembershipManager;
}  // namespace mrts::core

namespace mrts::chaos {

struct InvariantReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  void add(std::string v) { violations.push_back(std::move(v)); }
  [[nodiscard]] std::string to_string() const;
};

/// Feeds on fabric MessageEvents; call finish() once the run is quiescent.
class TraceChecker {
 public:
  void on_message(const net::MessageEvent& event);

  /// Appends transport-level violations to `out`.
  void finish(InvariantReport& out) const;

  [[nodiscard]] std::uint64_t fifo_violations() const {
    return fifo_violations_;
  }
  /// Deliveries beyond the expected count (1, or 2 for an injected dup).
  [[nodiscard]] std::uint64_t duplicate_deliveries() const;
  /// Sent messages that were neither delivered nor injected-dropped.
  [[nodiscard]] std::uint64_t lost_messages() const;

 private:
  struct PairState {
    std::uint64_t max_sent = 0;
    std::uint64_t max_delivered = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> delivered;
    std::unordered_set<std::uint64_t> dropped;
    std::unordered_set<std::uint64_t> duplicated;
    std::unordered_set<std::uint64_t> disordered;  // delayed or reordered
  };

  std::unordered_map<std::uint64_t, PairState> pairs_;
  std::uint64_t fifo_violations_ = 0;
};

/// Directory convergence after migration storms (see file comment).
void check_directory_convergence(core::Cluster& cluster, InvariantReport& out);

/// Every node's peak in-core bytes must stay within budget plus
/// `allowed_overshoot_bytes` (reloads may legally exceed the budget while
/// queues drain; see Runtime::schedule_loads).
void check_budget(core::Cluster& cluster, std::size_t allowed_overshoot_bytes,
                  InvariantReport& out);

/// No-silent-data-loss: under a survivable fault plan (replication and/or
/// object checkpoints enabled) the recovery ladder must resolve every
/// storage failure without poisoning — zero poisoned objects, zero dropped
/// messages, no kPoisoned ledger records on any node.
void check_recovery(core::Cluster& cluster, InvariantReport& out);

/// Message-queue accounting: at quiescence every object queue is empty, so
/// the queued_messages() gauge must read zero on every node. A nonzero
/// value means a drop path (poison, migration, destroy) leaked counter
/// updates — the balancer would then chase phantom load forever.
void check_queue_accounting(core::Cluster& cluster, InvariantReport& out);

/// Reliable-net: at quiescence every (src,dst) flow must balance end to
/// end — no unacked frames at any sender, no frames parked in any reorder
/// buffer, and each receiver dispatched exactly as many frames as its peer
/// sent it. Requires reliable_net.enabled; a cluster without the link is a
/// violation (the caller asked for a guarantee nothing provides).
void check_exactly_once(core::Cluster& cluster, InvariantReport& out);

/// Elastic membership: at quiescence every scheduled transition fired, no
/// node is stuck Draining, drained/down nodes host nothing, and — the
/// no-silent-loss headline — the manager recorded zero lost objects.
void check_membership(core::Cluster& cluster,
                      const core::MembershipManager& manager,
                      InvariantReport& out);

/// Gray failures: a degraded-but-Up node slows the run down, it never hangs
/// or corrupts it. At quiescence nothing may still be waiting on such a node
/// — every reliable tx flow fully acked and flushed, every reorder buffer
/// empty — and latency must never have escalated into loss: zero poisoned
/// objects, zero messages dropped against poisoned objects, no kPoisoned
/// ledger records. When a HealthMonitor drove the run, it must actually
/// have sampled, and each node's recovery count can't exceed its suspect
/// count (a stuck or double-counting state machine fails here). Pass
/// monitor == nullptr for mitigation-off twins.
void check_gray(core::Cluster& cluster, const core::HealthMonitor* monitor,
                InvariantReport& out);

/// Reliable-net: handlers observed strictly gap-free, in-order sequences on
/// every flow (ReliableLink::dispatch_order_violations is zero everywhere),
/// i.e. the reorder buffer restored FIFO before dispatch.
void check_fifo_restored(core::Cluster& cluster, InvariantReport& out);

// --- multi-tenant service layer -------------------------------------------
// Plain-data per-tenant window the service layer exports at the end of a
// run; kept here (not in src/service) so chaos never depends on the service
// while both sweeps and benches share one checker vocabulary.

struct TenantWindow {
  std::uint32_t tenant = 0;
  double weight = 1.0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;   // first admissions (resumes not re-counted)
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t preempted = 0;
  /// Message-handler executions attributed to this tenant's jobs.
  std::uint64_t phases_executed = 0;
  /// Committed working-set bytes at export time (0 once drained).
  std::size_t admitted_bytes = 0;
  std::size_t peak_admitted_bytes = 0;
  /// The tenant's weighted max-min share at the last recompute.
  std::size_t share_bytes = 0;
  /// Admissions that left the tenant's committed bytes above its share at
  /// decision time. The fair-share admission gate makes this impossible;
  /// nonzero means the enforcement path regressed.
  std::uint64_t over_share_admissions = 0;
};

/// Cross-tenant starvation: every tenant that offered work the service did
/// not shed must have completed at least one job and executed at least one
/// phase by the time the run drains.
void check_no_starvation(const std::vector<TenantWindow>& tenants,
                         InvariantReport& out);

/// Fair-share budget enforcement: no tenant was ever admitted past its
/// share (over_share_admissions == 0 everywhere), and when `expect_drained`
/// the committed-byte ledgers must have returned to zero (leaks mean
/// completion/preemption accounting lost bytes).
void check_tenant_budgets(const std::vector<TenantWindow>& tenants,
                          bool expect_drained, InvariantReport& out);

}  // namespace mrts::chaos
