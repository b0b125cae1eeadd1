#include "chaos/invariants.hpp"

#include <algorithm>

#include "core/health.hpp"
#include "core/membership.hpp"
#include "simnet/reliable.hpp"
#include "util/format.hpp"

namespace mrts::chaos {

std::string InvariantReport::to_string() const {
  if (violations.empty()) return "all invariants hold";
  std::string out =
      util::format("{} invariant violation(s):\n", violations.size());
  for (const auto& v : violations) {
    out += "  - ";
    out += v;
    out += '\n';
  }
  return out;
}

// --------------------------------------------------------------------------
// Transport layer

void TraceChecker::on_message(const net::MessageEvent& e) {
  PairState& p =
      pairs_[(static_cast<std::uint64_t>(e.src) << 32) | e.dst];
  switch (e.kind) {
    case net::MsgEventKind::kSend:
      p.max_sent = std::max(p.max_sent, e.pair_seq);
      break;
    case net::MsgEventKind::kDrop:
      p.dropped.insert(e.pair_seq);
      break;
    case net::MsgEventKind::kDuplicate:
      p.duplicated.insert(e.pair_seq);
      break;
    case net::MsgEventKind::kDelay:
    case net::MsgEventKind::kReorder:
      p.disordered.insert(e.pair_seq);
      break;
    case net::MsgEventKind::kDeliver: {
      ++p.delivered[e.pair_seq];
      if (e.pair_seq < p.max_delivered) {
        // Out of order. Explained when this message was itself delayed or
        // reordered, when it is the second copy of an injected duplicate,
        // or when some later message jumped ahead of it (a reorder fault
        // on seq t > s makes s look late through no fault of its own).
        bool explained = p.disordered.contains(e.pair_seq) ||
                         p.duplicated.contains(e.pair_seq);
        if (!explained) {
          explained = std::any_of(
              p.disordered.begin(), p.disordered.end(),
              [&](std::uint64_t t) { return t > e.pair_seq; });
        }
        if (!explained) ++fifo_violations_;
      }
      p.max_delivered = std::max(p.max_delivered, e.pair_seq);
      break;
    }
  }
}

std::uint64_t TraceChecker::duplicate_deliveries() const {
  std::uint64_t total = 0;
  for (const auto& [key, p] : pairs_) {
    for (std::uint64_t seq = 1; seq <= p.max_sent; ++seq) {
      const std::uint32_t expected =
          p.dropped.contains(seq) ? 0u : (p.duplicated.contains(seq) ? 2u : 1u);
      const auto it = p.delivered.find(seq);
      const std::uint32_t actual = it == p.delivered.end() ? 0u : it->second;
      if (actual > expected) total += actual - expected;
    }
  }
  return total;
}

std::uint64_t TraceChecker::lost_messages() const {
  std::uint64_t total = 0;
  for (const auto& [key, p] : pairs_) {
    for (std::uint64_t seq = 1; seq <= p.max_sent; ++seq) {
      const std::uint32_t expected =
          p.dropped.contains(seq) ? 0u : (p.duplicated.contains(seq) ? 2u : 1u);
      const auto it = p.delivered.find(seq);
      const std::uint32_t actual = it == p.delivered.end() ? 0u : it->second;
      if (actual < expected) total += expected - actual;
    }
  }
  return total;
}

void TraceChecker::finish(InvariantReport& out) const {
  if (fifo_violations_ > 0) {
    out.add(util::format("{} unexplained out-of-order deliveries",
                         fifo_violations_));
  }
  if (const auto dups = duplicate_deliveries(); dups > 0) {
    out.add(util::format(
        "{} deliveries beyond the expected per-message count", dups));
  }
  if (const auto lost = lost_messages(); lost > 0) {
    out.add(util::format(
        "{} messages sent but never delivered (and not injected-dropped)",
        lost));
  }
}

// --------------------------------------------------------------------------
// Directory layer

namespace {

// Mirror of Runtime::reroute_if_departed: a hop aimed at a departed node is
// re-aimed at the home node (the drain handoff seeded it), or at the first
// accepting survivor when home itself is the departed node or the sender.
net::NodeId model_reroute(const core::MembershipView* view, net::NodeId cur,
                          net::NodeId next, core::MobilePtr ptr) {
  if (view == nullptr || !view->node_departed(next)) return next;
  const net::NodeId home = ptr.home_node();
  if (home != next && home != cur && view->node_up(home)) return home;
  const net::NodeId fb = view->fallback_node(cur);
  return fb != cur ? fb : next;
}

}  // namespace

void check_directory_convergence(core::Cluster& cluster,
                                 InvariantReport& out) {
  const std::size_t n = cluster.size();
  const core::MembershipView* view = cluster.membership_view();
  // ptr.id -> hosting nodes / cached remote locations per node.
  std::unordered_map<std::uint64_t, std::vector<net::NodeId>> hosts;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<net::NodeId, net::NodeId>>
      remotes;
  std::unordered_map<std::uint64_t, std::string> entry_dump;
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<net::NodeId>(i);
    cluster.node(node).for_each_directory_entry(
        [&](core::MobilePtr ptr, bool is_local, net::NodeId last_known,
            std::uint64_t epoch) {
          if (is_local) {
            hosts[ptr.id].push_back(node);
            entry_dump[ptr.id] +=
                util::format(" {}:local e{}", node, epoch);
          } else {
            remotes[ptr.id][node] = last_known;
            entry_dump[ptr.id] +=
                util::format(" {}:at{} e{}", node, last_known, epoch);
          }
        });
  }

  for (const auto& [id, where] : hosts) {
    if (where.size() > 1) {
      out.add(util::format("{} hosted on {} nodes simultaneously",
                           to_string(core::MobilePtr{id}), where.size()));
    }
  }

  for (const auto& [id, cached] : remotes) {
    const core::MobilePtr ptr{id};
    const auto hit = hosts.find(id);
    if (hit == hosts.end()) {
      // Nobody hosts it. Distinguish "destroyed, stale caches linger"
      // (home also forgot it or only caches it) from "lost": the home node
      // is the routing fallback of last resort, so a home that still
      // points somewhere while no host exists is a broken directory.
      if (cached.contains(ptr.home_node()) &&
          (view == nullptr || view->node_up(ptr.home_node()))) {
        out.add(util::format("{} has no host but its home still routes to "
                             "node {}",
                             to_string(ptr), cached.at(ptr.home_node())));
      }
      continue;
    }
    const net::NodeId host = hit->second.front();
    for (const auto& [node, last_known] : cached) {
      // A down node's retained directory is dead state: it never polls
      // again (drained) or was wiped and re-seeded (crashed), so no route
      // can start from its cache.
      if (view != nullptr && !view->node_up(node)) continue;
      net::NodeId cur = node;
      net::NodeId cur_hint = last_known;
      std::string walk = util::format("{}", node);
      std::size_t hops = 0;
      bool converged = false;
      // Reroutes can bounce a chase through the fallback survivor before it
      // converges, so allow a couple of laps over the cluster.
      while (hops <= 2 * n + 2) {
        const net::NodeId next = model_reroute(view, cur, cur_hint, ptr);
        if (next == cur) break;  // self-loop, cannot converge
        walk += util::format("->{}", next);
        if (std::find(hit->second.begin(), hit->second.end(), next) !=
            hit->second.end()) {
          converged = true;
          break;
        }
        const auto& chain = remotes.at(id);
        const auto next_it = chain.find(next);
        cur_hint =
            next_it != chain.end() ? next_it->second : ptr.home_node();
        cur = next;
        ++hops;
      }
      if (!converged) {
        out.add(util::format(
            "{} cached at node {} does not reach host {} (chain {}; "
            "entries:{})",
            to_string(ptr), node, host, walk, entry_dump[id]));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Out-of-core layer

void check_budget(core::Cluster& cluster, std::size_t allowed_overshoot_bytes,
                  InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& rt = cluster.node(static_cast<net::NodeId>(i));
    const std::size_t budget = rt.options().ooc.memory_budget_bytes;
    const std::size_t peak = rt.peak_in_core_bytes();
    if (peak > budget + allowed_overshoot_bytes) {
      out.add(util::format(
          "node {} peak in-core {} exceeds budget {} by more than {}", i,
          peak, budget, allowed_overshoot_bytes));
    }
  }
}

void check_queue_accounting(core::Cluster& cluster, InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& rt = cluster.node(static_cast<net::NodeId>(i));
    const std::uint64_t queued = rt.queued_messages();
    if (queued != 0) {
      out.add(util::format(
          "node {} reports {} queued message(s) at quiescence: a drop path "
          "leaked queued_messages_ accounting",
          i, queued));
    }
  }
}

// --------------------------------------------------------------------------
// Elastic membership

void check_membership(core::Cluster& cluster,
                      const core::MembershipManager& manager,
                      InvariantReport& out) {
  if (!manager.all_events_fired()) {
    out.add("membership: scheduled transition events did not all fire "
            "(run quiesced early?)");
  }
  if (manager.stats().objects_lost != 0) {
    out.add(util::format(
        "membership: {} object(s) lost across kill/rebuild — crash export "
        "found no intact replica or checkpoint copy",
        manager.stats().objects_lost));
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    auto& rt = cluster.node(node);
    const core::MembershipState state = manager.state(node);
    if (state == core::MembershipState::kDraining) {
      out.add(util::format("node {} is still Draining at quiescence", i));
    }
    if (state == core::MembershipState::kDown) {
      std::size_t hosted = 0;
      rt.for_each_local_object([&](core::MobilePtr) { ++hosted; });
      if (hosted != 0) {
        out.add(util::format("down node {} still hosts {} object(s)", i,
                             hosted));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Reliable-net layer

void check_exactly_once(core::Cluster& cluster, InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    const net::ReliableLink* link = cluster.node(node).reliable_link();
    if (link == nullptr) {
      out.add(util::format(
          "node {} has no reliable link: check_exactly_once requires "
          "reliable_net.enabled",
          i));
      continue;
    }
    for (const auto& tx : link->tx_flows()) {
      if (tx.unacked != 0) {
        out.add(util::format(
            "node {} still has {} unacked frame(s) to node {} at quiescence",
            i, tx.unacked, tx.peer));
      }
      if (tx.open_records != 0) {
        out.add(util::format(
            "node {} still holds {} AM(s) in an open (unflushed) batch to "
            "node {} at quiescence",
            i, tx.open_records, tx.peer));
      }
      // The receiver of this flow must have dispatched exactly what we
      // sent, at both granularities: whole frames (batches) and the inner
      // AMs they carry. A partially-dispatched batch would balance at frame
      // level and break at AM level.
      const net::ReliableLink* peer = cluster.node(tx.peer).reliable_link();
      std::uint64_t dispatched = 0;
      std::uint64_t ams_dispatched = 0;
      if (peer != nullptr) {
        for (const auto& rx : peer->rx_flows()) {
          if (rx.peer == node) {
            dispatched = rx.dispatched;
            ams_dispatched = rx.ams_dispatched;
          }
        }
      }
      if (dispatched != tx.sent) {
        out.add(util::format(
            "flow {}->{}: {} frame(s) sent but {} dispatched (exactly-once "
            "broken)",
            i, tx.peer, tx.sent, dispatched));
      }
      if (ams_dispatched != tx.ams_sent) {
        out.add(util::format(
            "flow {}->{}: {} inner AM(s) sent but {} dispatched "
            "(batch exactly-once broken)",
            i, tx.peer, tx.ams_sent, ams_dispatched));
      }
    }
    for (const auto& rx : link->rx_flows()) {
      if (rx.buffered != 0) {
        out.add(util::format(
            "node {} still holds {} frame(s) from node {} in its reorder "
            "buffer at quiescence",
            i, rx.buffered, rx.peer));
      }
    }
  }
}

void check_fifo_restored(core::Cluster& cluster, InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const net::ReliableLink* link =
        cluster.node(static_cast<net::NodeId>(i)).reliable_link();
    if (link == nullptr) {
      out.add(util::format(
          "node {} has no reliable link: check_fifo_restored requires "
          "reliable_net.enabled",
          i));
      continue;
    }
    if (const auto v = link->dispatch_order_violations(); v != 0) {
      out.add(util::format(
          "node {} dispatched {} frame(s) out of sequence (FIFO not "
          "restored before dispatch)",
          i, v));
    }
  }
}

// --------------------------------------------------------------------------
// Storage recovery layer

void check_recovery(core::Cluster& cluster, InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& rt = cluster.node(static_cast<net::NodeId>(i));
    const auto& c = rt.counters();
    const std::uint64_t poisoned =
        c.objects_poisoned.load(std::memory_order_relaxed);
    const std::uint64_t dropped =
        c.poisoned_messages_dropped.load(std::memory_order_relaxed);
    if (poisoned != 0) {
      out.add(util::format("node {} poisoned {} object(s): data was lost", i,
                           poisoned));
    }
    if (dropped != 0) {
      out.add(util::format(
          "node {} dropped {} message(s) to poisoned objects", i, dropped));
    }
    for (const auto& rec : rt.failure_ledger().snapshot()) {
      if (rec.resolution == core::FailureResolution::kPoisoned) {
        out.add(util::format(
            "node {} ledger records unrecoverable {} failure of {} ({})", i,
            core::to_string(rec.op), core::to_string(rec.object),
            rec.detail));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Gray failures

void check_gray(core::Cluster& cluster, const core::HealthMonitor* monitor,
                InvariantReport& out) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    auto& rt = cluster.node(node);
    // Nothing waits unboundedly on a degraded-but-Up node: at quiescence
    // every frame it was sent is acked and everything it parked has flowed.
    if (const net::ReliableLink* link = rt.reliable_link()) {
      for (const auto& tx : link->tx_flows()) {
        if (tx.unacked != 0) {
          out.add(util::format(
              "gray: node {} still waits on {} unacked frame(s) to node {}",
              i, tx.unacked, tx.peer));
        }
        if (tx.open_records != 0) {
          out.add(util::format(
              "gray: node {} holds {} AM(s) in an unflushed batch to node {}",
              i, tx.open_records, tx.peer));
        }
      }
      for (const auto& rx : link->rx_flows()) {
        if (rx.buffered != 0) {
          out.add(util::format(
              "gray: node {} parks {} frame(s) from node {} in its reorder "
              "buffer",
              i, rx.buffered, rx.peer));
        }
      }
    }
    // Latency must never escalate to loss: degradation plans inject no
    // corruption, so any poisoning means a mitigation path gave up on a
    // slow-but-correct device.
    const auto& c = rt.counters();
    const std::uint64_t poisoned =
        c.objects_poisoned.load(std::memory_order_relaxed);
    const std::uint64_t dropped =
        c.poisoned_messages_dropped.load(std::memory_order_relaxed);
    if (poisoned != 0) {
      out.add(util::format(
          "gray: node {} poisoned {} object(s) under latency-only faults", i,
          poisoned));
    }
    if (dropped != 0) {
      out.add(util::format(
          "gray: node {} dropped {} message(s) under latency-only faults", i,
          dropped));
    }
    for (const auto& rec : rt.failure_ledger().snapshot()) {
      if (rec.resolution == core::FailureResolution::kPoisoned) {
        out.add(util::format(
            "gray: node {} ledger records unrecoverable {} failure of {} ({})",
            i, core::to_string(rec.op), core::to_string(rec.object),
            rec.detail));
      }
    }
  }
  if (monitor != nullptr) {
    if (monitor->stats().samples == 0) {
      out.add("gray: health monitor attached but never sampled");
    }
    for (std::size_t i = 0; i < monitor->size(); ++i) {
      const core::NodeHealth& h =
          monitor->node_health(static_cast<net::NodeId>(i));
      if (h.recoveries > h.suspect_events) {
        out.add(util::format(
            "gray: node {} health machine recovered {} time(s) but was only "
            "suspected {} time(s)",
            i, h.recoveries, h.suspect_events));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Multi-tenant service layer

void check_no_starvation(const std::vector<TenantWindow>& tenants,
                         InvariantReport& out) {
  for (const TenantWindow& t : tenants) {
    const std::uint64_t offered = t.submitted - std::min(t.shed, t.submitted);
    if (offered == 0) continue;
    if (t.completed == 0) {
      out.add(util::format(
          "tenant {} starved: {} job(s) offered (weight {}) but none "
          "completed",
          t.tenant, offered, t.weight));
    }
    if (t.phases_executed == 0) {
      out.add(util::format(
          "tenant {} made no phase progress despite {} offered job(s)",
          t.tenant, offered));
    }
  }
}

void check_tenant_budgets(const std::vector<TenantWindow>& tenants,
                          bool expect_drained, InvariantReport& out) {
  for (const TenantWindow& t : tenants) {
    if (t.over_share_admissions != 0) {
      out.add(util::format(
          "tenant {} admitted past its fair share {} time(s) (share {} "
          "bytes, peak committed {})",
          t.tenant, t.over_share_admissions, t.share_bytes,
          t.peak_admitted_bytes));
    }
    if (expect_drained && t.admitted_bytes != 0) {
      out.add(util::format(
          "tenant {} still shows {} committed byte(s) after the run "
          "drained: completion/preemption accounting leaked",
          t.tenant, t.admitted_bytes));
    }
  }
}

}  // namespace mrts::chaos
