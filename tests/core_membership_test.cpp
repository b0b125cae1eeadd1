// MembershipManager unit tests (ctest label "membership"): planned drain
// empties a node exactly once and is idempotent under double-drain, a
// migrate() naming a Down target is refused with a ledger record instead of
// hanging, a killed node's objects are rebuilt on survivors and the node
// rejoins empty, the cluster balancer sheds work onto a rejoined node with
// application state equal to a static twin, and the service layer repairs
// jobs whose home node died instead of stalling.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <vector>

#include "chaos/workload.hpp"
#include "core/cluster.hpp"
#include "core/membership.hpp"
#include "service/meshing_service.hpp"

namespace mrts::core {
namespace {

using Kind = MembershipEventSpec::Kind;

ClusterOptions det_options(std::size_t nodes = 3) {
  ClusterOptions o;
  o.nodes = nodes;
  o.deterministic = true;  // twins without a manager must match its clock
  o.spill = SpillMedium::kMemory;
  o.max_run_time = std::chrono::seconds(60);
  return o;
}

chaos::HopWorkloadOptions small_workload(std::uint64_t seed) {
  chaos::HopWorkloadOptions wl;
  wl.objects_per_node = 2;
  wl.payload_words = 64;
  wl.routes = 8;
  wl.route_length = 4;
  wl.seed = seed;
  return wl;
}

std::size_t hosted_count(Cluster& cluster, NodeId node) {
  std::size_t n = 0;
  cluster.node(node).for_each_local_object([&](MobilePtr) { ++n; });
  return n;
}

/// Digest of the same seeded workload on a static-membership cluster.
std::uint64_t static_twin_digest(std::uint64_t seed) {
  Cluster cluster(det_options());
  chaos::HopWorkload workload(cluster, small_workload(seed));
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  return workload.state_digest();
}

// --------------------------------------------------------------------------
// planned drain

TEST(MembershipDrain, EmptiesTheNodeExactlyOnceAndStateMatchesTwin) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(11));
  workload.create_objects();
  ASSERT_EQ(hosted_count(cluster, 1), 2u);  // round-robin creation
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.state(1), MembershipState::kDown);
  EXPECT_TRUE(mgr.node_departed(1));
  EXPECT_FALSE(mgr.node_up(1));
  EXPECT_FALSE(mgr.node_accepting(1));
  EXPECT_EQ(mgr.live_nodes(), 2u);
  // Exactly once: both hosted objects migrated out, neither counted twice.
  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  EXPECT_EQ(hosted_count(cluster, 1), 0u);
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  EXPECT_EQ(workload.state_digest(), static_twin_digest(11));

  // A second quiescent run must not drain (or count) anything again.
  (void)cluster.run();
  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
}

TEST(MembershipDrain, DoubleDrainIsIdempotent) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1},
               {.step = 2, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(12));
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.stats().drains, 1u);
  EXPECT_EQ(mgr.stats().objects_drained, 2u);
  EXPECT_TRUE(mgr.all_events_fired());
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
}

// Satellite regression: a migrate() naming a departed node must be refused
// up front — counter + ledger record — never parked against a node that
// will not return.
TEST(MembershipDrain, MigrateToDownNodeIsRefusedWithLedgerRecord) {
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kDrain, .node = 1}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(13));
  workload.create_objects();
  workload.inject();
  ASSERT_FALSE(cluster.run().timed_out);
  ASSERT_EQ(mgr.state(1), MembershipState::kDown);

  const MobilePtr victim = workload.objects()[0];  // created on node 0
  ASSERT_TRUE(cluster.node(0).hosts(victim));
  cluster.node(0).migrate(victim, 1);
  const auto report = cluster.run();  // must quiesce, not hang
  ASSERT_FALSE(report.timed_out);

  EXPECT_TRUE(cluster.node(0).hosts(victim));
  EXPECT_GE(cluster.node(0).counters().migrations_refused.load(), 1u);
  bool recorded = false;
  for (const auto& rec : cluster.node(0).failure_ledger().snapshot()) {
    recorded |= rec.object == victim && rec.op == FailureOp::kMigrate &&
                rec.resolution == FailureResolution::kRefused;
  }
  EXPECT_TRUE(recorded) << "no kMigrate/kRefused ledger record";
}

// --------------------------------------------------------------------------
// crash + rejoin

TEST(MembershipCrash, ObjectsAreRebuiltOnSurvivorsAndRejoinStartsEmpty) {
  MembershipOptions mo;
  mo.events = {{.step = 2, .kind = Kind::kKill, .node = 2},
               {.step = 30, .kind = Kind::kRejoin, .node = 2}};
  MembershipManager mgr(mo);
  ClusterOptions o = det_options();
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  chaos::HopWorkload workload(cluster, small_workload(14));
  workload.create_objects();
  ASSERT_EQ(hosted_count(cluster, 2), 2u);
  workload.inject();
  const auto report = cluster.run();
  ASSERT_FALSE(report.timed_out);

  EXPECT_EQ(mgr.stats().kills, 1u);
  EXPECT_EQ(mgr.stats().rejoins, 1u);
  EXPECT_EQ(mgr.stats().objects_rebuilt, 2u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  // Back as a fresh, empty, fully accepting member.
  EXPECT_EQ(mgr.state(2), MembershipState::kUp);
  EXPECT_FALSE(mgr.node_departed(2));
  EXPECT_TRUE(mgr.node_accepting(2));
  EXPECT_EQ(hosted_count(cluster, 2), 0u);
  EXPECT_EQ(mgr.live_nodes(), 3u);
  // Exactly-once survived the crash: no hop lost, none duplicated, and the
  // digest matches a run where the node never died.
  EXPECT_EQ(workload.executed_hops(), workload.expected_hops());
  EXPECT_EQ(workload.state_digest(), static_twin_digest(14));
}

// --------------------------------------------------------------------------
// rebalancing onto a joiner (cluster balancer)

class BalanceWork : public MobileObject {
 public:
  void serialize(util::ByteWriter& out) const override {
    out.write(done);
    out.write_vector(ballast);
  }
  void deserialize(util::ByteReader& in) override {
    done = in.read<std::uint64_t>();
    ballast = in.read_vector<std::uint64_t>();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return sizeof(BalanceWork) + ballast.size() * 8;
  }

  std::uint64_t done = 0;
  std::vector<std::uint64_t> ballast = std::vector<std::uint64_t>(256, 7);
};

/// 8 objects with 8 messages each, all on node 0 of a 3-node cluster: a
/// steady imbalance the balancer must act on. With `mgr`, the balancer is
/// on and the manager drives membership; without, it is the static,
/// balance-off twin.
struct BalanceWorld {
  std::unique_ptr<Cluster> cluster;
  std::vector<MobilePtr> ptrs;

  explicit BalanceWorld(MembershipManager* mgr) {
    ClusterOptions o = det_options(3);
    o.runtime.max_messages_per_turn = 4;  // keep the queue standing
    if (mgr != nullptr) {
      o.balance.enabled = true;
      o.balance.slack_messages = 4;
      mgr->instrument(o);
    }
    cluster = std::make_unique<Cluster>(o);
    if (mgr != nullptr) mgr->attach(*cluster);
    const TypeId type =
        cluster->registry().register_type<BalanceWork>("balance_work");
    const HandlerId handler = cluster->registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader&) { ++static_cast<BalanceWork&>(obj).done; });
    for (int i = 0; i < 8; ++i) {
      ptrs.push_back(cluster->node(0).create<BalanceWork>(type).first);
    }
    for (int round = 0; round < 8; ++round) {
      for (MobilePtr p : ptrs) {
        cluster->node(0).send(p, handler, std::vector<std::byte>{});
      }
    }
  }

  /// Per-object `done` counts in object order, wherever each object lives.
  [[nodiscard]] std::vector<std::uint64_t> done_per_object() {
    std::vector<std::uint64_t> out;
    for (MobilePtr p : ptrs) {
      for (std::size_t n = 0; n < cluster->size(); ++n) {
        if (auto* obj = cluster->node(static_cast<NodeId>(n)).peek(p)) {
          out.push_back(static_cast<BalanceWork*>(obj)->done);
        }
      }
    }
    return out;
  }
};

TEST(MembershipBalance, RejoinerReceivesObjectsAndStateMatchesTwin) {
  // Node 2 is absent from the start and rejoins empty at sweep 6, while
  // node 0 still holds most of the queue.
  MembershipOptions mo;
  mo.events = {{.step = 1, .kind = Kind::kKill, .node = 2},
               {.step = 6, .kind = Kind::kRejoin, .node = 2}};
  MembershipManager mgr(mo);
  BalanceWorld world(&mgr);
  ASSERT_FALSE(world.cluster->run().timed_out);

  EXPECT_EQ(mgr.stats().rejoins, 1u);
  EXPECT_GT(world.cluster->node(2).counters().migrations_in.load(), 0u)
      << "the rejoined node received no objects";
  const std::vector<std::uint64_t> done = world.done_per_object();
  ASSERT_EQ(done.size(), world.ptrs.size());  // every object exactly once
  EXPECT_EQ(std::accumulate(done.begin(), done.end(), std::uint64_t{0}),
            64u);  // every message exactly once

  BalanceWorld twin(nullptr);
  ASSERT_FALSE(twin.cluster->run().timed_out);
  EXPECT_EQ(twin.cluster->node(0).local_objects(), twin.ptrs.size());
  EXPECT_EQ(done, twin.done_per_object());
}

// --------------------------------------------------------------------------
// service layer over elastic membership

TEST(MembershipService, JobsWithADeadHomeAreRepairedNotHung) {
  MembershipManager mgr(MembershipOptions{});
  ClusterOptions o = det_options(3);
  o.runtime.ooc.memory_budget_bytes = 256u << 10;
  mgr.instrument(o);
  Cluster cluster(o);
  mgr.attach(cluster);

  service::ServiceOptions so;
  so.tenants = 1;
  so.preempt_enabled = false;
  service::MeshingService svc(cluster, so);
  svc.set_membership(&mgr);

  jobsim::ServiceJob job;
  job.id = 1;
  job.tenant = 0;
  job.width = 3;  // one subdomain per node, node 1 included
  job.working_set_bytes = 24u << 10;
  job.phases = 4;
  job.seed = 0xC0FFEE;
  svc.submit(job);
  ASSERT_TRUE(svc.tick());  // admit + run one phase on static membership

  // Node 1 dies and never returns; the next tick's run fires the event and
  // the tick-boundary reclaim must rebind the job to the rebuilt copies.
  mgr.schedule({.step = 1, .kind = Kind::kKill, .node = 1});
  std::uint64_t guard = 0;
  while (svc.tick() && ++guard < 64) {
  }
  ASSERT_LT(guard, 64u) << "service did not drain after the kill";

  EXPECT_FALSE(svc.stalled());
  EXPECT_TRUE(svc.drained());
  EXPECT_EQ(mgr.stats().kills, 1u);
  EXPECT_EQ(mgr.stats().objects_lost, 0u);
  EXPECT_EQ(svc.completed_count(), 1u);
  EXPECT_GE(svc.rebound_jobs() + svc.requeued_dead_jobs(), 1u);
  EXPECT_EQ(svc.expected_phase_hits(), svc.executed_phase_hits());
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    EXPECT_EQ(svc.node_committed_bytes(static_cast<NodeId>(n)), 0u);
  }
}

}  // namespace
}  // namespace mrts::core
