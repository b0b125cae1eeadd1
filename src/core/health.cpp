#include "core/health.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "simnet/reliable.hpp"

namespace mrts::core {

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(options),
      m_suspects_(&obs::MetricsRegistry::global().counter("health.suspects")),
      m_recoveries_(
          &obs::MetricsRegistry::global().counter("health.recoveries")) {
  assert(options_.sample_interval >= 1);
}

void HealthMonitor::instrument(ClusterOptions& options) {
  inner_ = options.step_observer;
  options.step_observer = this;
  // Sampling windows are defined on virtual sweeps; free-running threads
  // would make the signal (and every decision derived from it) racy.
  options.deterministic = true;
}

void HealthMonitor::attach(Cluster& cluster) {
  cluster_ = &cluster;
  nodes_.assign(cluster.size(), PerNode{});
  pair_retx_.assign(cluster.size() * cluster.size(), 0);
  membership_ = nullptr;
  cluster.set_membership_view(this);
  for (std::size_t id = 0; id < cluster.size(); ++id) {
    cluster.node(static_cast<NodeId>(id)).set_membership_view(this);
  }
}

void HealthMonitor::attach(Cluster& cluster, MembershipManager& membership) {
  cluster_ = &cluster;
  nodes_.assign(cluster.size(), PerNode{});
  pair_retx_.assign(cluster.size() * cluster.size(), 0);
  membership_ = &membership;
  // The manager stays the installed MembershipView (it owns liveness); the
  // overlay folds "healthy" into its accepting/steering answers.
  membership.set_health_view(this);
}

bool HealthMonitor::node_runnable(NodeId node, std::uint64_t step) {
  // Health never pauses anyone — a Suspect node keeps serving.
  return inner_ == nullptr || inner_->node_runnable(node, step);
}

void HealthMonitor::on_step(std::uint64_t step) {
  // Inner first (harness trace / membership transitions), then sample: the
  // sample sees the world the application saw this sweep.
  if (inner_ != nullptr) inner_->on_step(step);
  if (cluster_ != nullptr && step % options_.sample_interval == 0) {
    sample(step);
  }
}

bool HealthMonitor::quiescent() const {
  // Health states are advisory; they never veto termination.
  return inner_ == nullptr || inner_->quiescent();
}

bool HealthMonitor::node_healthy(NodeId node) const {
  // Probation is choosable again: capacity returns while the last clean
  // streak completes, and a relapse re-suspects immediately.
  return node >= nodes_.size() ||
         nodes_[node].health.state != HealthState::kSuspect;
}

NodeId HealthMonitor::fallback_node(NodeId exclude) const {
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (id != exclude && node_healthy(id)) return id;
  }
  return exclude;
}

std::uint64_t HealthMonitor::median_nonzero(std::vector<std::uint64_t> values) {
  values.erase(std::remove(values.begin(), values.end(), 0u), values.end());
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void HealthMonitor::sample(std::uint64_t step) {
  const auto n = static_cast<NodeId>(cluster_->size());
  ++stats_.samples;

  // --- storage: per-op modeled latency EWMA, differenced per sample -------
  std::vector<std::uint64_t> per_op(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    const storage::BackendStats st = cluster_->node(i).spill_backend().stats();
    const std::uint64_t v =
        st.virtual_store_latency_us + st.virtual_load_latency_us;
    const std::uint64_t ops = st.store_ops + st.load_ops;
    PerNode& pn = nodes_[i];
    if (v >= pn.prev_virtual_us && ops >= pn.prev_ops) {
      const std::uint64_t d_ops = ops - pn.prev_ops;
      auto& e = pn.health.storage_ewma_us_per_op;
      if (d_ops > 0) {
        // Half-weight on the fresh sample: heavy smoothing is unnecessary
        // (the streak thresholds debounce) and would keep a recovered
        // node's score above the flag line for many samples after its
        // degradation window closes.
        const std::uint64_t per = (v - pn.prev_virtual_us) / d_ops;
        e = e == 0 ? per : (e + per) / 2;
      } else {
        // No ops this sample: the evidence goes stale. Pull the score
        // toward the cluster's reference per-op cost (NOT toward zero —
        // idle healthy nodes anchor the median, and shrinking everyone
        // together would leave the sick node's ratio unchanged). Without
        // aging, one early burst of slow ops pins a now-idle device
        // Suspect for the rest of the run.
        e = (e + last_stor_ref_) / 2;
      }
    }
    // A snapshot that moved backward means a crash wiped the backend:
    // re-baseline rather than underflow.
    pn.prev_virtual_us = v;
    pn.prev_ops = ops;
    per_op[i] = pn.health.storage_ewma_us_per_op;
  }

  // --- network: per-peer retransmits and smoothed RTT, attributed to the
  // TARGET of each flow (retransmits at my peers mean I am slow to ack).
  // Both ends of a flow involving a sick node see it inflated, so raw
  // per-target max would smear the flag across its peers; aggregating the
  // MEDIAN over reporters (and counting distinct retransmitting reporters)
  // flags only the node a majority of its peers see as slow.
  std::vector<std::vector<std::uint64_t>> srtt_reports(n);
  std::vector<std::uint64_t> retx_delta(n, 0);
  std::vector<std::uint32_t> retx_reporters(n, 0);
  for (NodeId p = 0; p < n; ++p) {
    const net::ReliableLink* link = cluster_->node(p).reliable_link();
    if (link == nullptr) continue;
    for (const net::ReliableTxFlow& f : link->tx_flows()) {
      if (f.peer >= n || f.peer == p) continue;
      std::uint64_t& prev = pair_retx_[static_cast<std::size_t>(p) * n + f.peer];
      const std::uint64_t d = f.retransmits >= prev ? f.retransmits - prev : 0;
      prev = f.retransmits;
      if (d > 0) {
        retx_delta[f.peer] += d;
        ++retx_reporters[f.peer];
      }
      if (f.rtt_samples > 0) srtt_reports[f.peer].push_back(f.srtt_ticks);
    }
  }
  std::vector<std::uint64_t> srtt_med(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    srtt_med[i] = median_nonzero(srtt_reports[i]);
  }

  const std::uint64_t stor_ref = median_nonzero(per_op);
  const std::uint64_t rtt_ref = median_nonzero(srtt_med);
  if (stor_ref > 0) last_stor_ref_ = stor_ref;

  // Storage flag: per-op latency EWMA above kLatencyFactor x the cluster
  // median of the same EWMA. Network flag: at least kRetxPerSample new
  // retransmits toward the node in one sample window, or a peer's smoothed
  // RTT toward it above kRttFactor x the cluster median (medians below the
  // floor are noise and never flag).
  constexpr std::uint64_t kLatencyFactor = 4;
  constexpr std::uint64_t kRetxPerSample = 3;
  constexpr std::uint64_t kRttFactor = 4;
  constexpr std::uint64_t kMinRttFloorTicks = 8;
  for (NodeId i = 0; i < n; ++i) {
    PerNode& pn = nodes_[i];
    pn.health.retx_toward_last = retx_delta[i];
    pn.health.srtt_max_ticks = srtt_med[i];
    const bool bad_storage =
        stor_ref > 0 && per_op[i] > kLatencyFactor * stor_ref;
    const bool bad_rtt = rtt_ref >= kMinRttFloorTicks &&
                         srtt_med[i] > kRttFactor * rtt_ref;
    const bool bad_retx = retx_delta[i] >= kRetxPerSample &&
                          retx_reporters[i] >= (n > 2 ? 2u : 1u);
    bool bad = bad_storage || bad_rtt || bad_retx;
    // Down/Draining nodes are the fail-stop layer's business, not gray.
    if (membership_ != nullptr &&
        membership_->state(i) != MembershipState::kUp) {
      bad = false;
    }
    decide(pn, bad, i, step);
  }
}

void HealthMonitor::decide(PerNode& node, bool bad, NodeId id,
                           std::uint64_t step) {
  (void)id;
  (void)step;
  // Streak thresholds of the state machine (see health.hpp).
  constexpr int kSuspectStreak = 2;
  constexpr int kProbationStreak = 3;
  constexpr int kRecoverStreak = 3;
  NodeHealth& h = node.health;
  if (bad) {
    ++h.bad_streak;
    h.clean_streak = 0;
  } else {
    ++h.clean_streak;
    h.bad_streak = 0;
  }
  switch (h.state) {
    case HealthState::kHealthy:
      if (h.bad_streak >= kSuspectStreak) {
        h.state = HealthState::kSuspect;
        h.bad_streak = 0;
        h.clean_streak = 0;
        ++h.suspect_events;
        ++stats_.suspects;
        m_suspects_->inc();
      }
      break;
    case HealthState::kSuspect:
      if (h.clean_streak >= kProbationStreak) {
        h.state = HealthState::kProbation;
        h.bad_streak = 0;
        h.clean_streak = 0;
      }
      break;
    case HealthState::kProbation:
      if (bad) {
        // Relapse: one bad sample sends Probation straight back.
        h.state = HealthState::kSuspect;
        h.bad_streak = 0;
        h.clean_streak = 0;
        ++h.suspect_events;
        ++stats_.suspects;
        m_suspects_->inc();
      } else if (h.clean_streak >= kRecoverStreak) {
        h.state = HealthState::kHealthy;
        h.bad_streak = 0;
        h.clean_streak = 0;
        ++h.recoveries;
        ++stats_.recoveries;
        m_recoveries_->inc();
      }
      break;
  }
}

}  // namespace mrts::core
