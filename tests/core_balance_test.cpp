// Tests for the control layer's dynamic load balancing: a badly imbalanced
// workload (every object and every message on node 0) must shed objects to
// other nodes when balancing is on, must stay put when it is off, and the
// results must be identical either way. Under the deterministic driver a
// balanced run must also replay byte-identically.

#include <gtest/gtest.h>

#include <thread>

#include "chaos/chaos.hpp"
#include "chaos/workload.hpp"
#include "core/cluster.hpp"

namespace mrts::core {
namespace {

class Work : public MobileObject {
 public:
  std::uint64_t done = 0;
  std::vector<std::uint64_t> data = std::vector<std::uint64_t>(2000, 1);

  void serialize(util::ByteWriter& out) const override {
    out.write(done);
    out.write_vector(data);
  }
  void deserialize(util::ByteReader& in) override {
    done = in.read<std::uint64_t>();
    data = in.read_vector<std::uint64_t>();
  }
  std::size_t footprint_bytes() const override {
    return sizeof(Work) + data.size() * 8;
  }
};

struct Imbalanced {
  std::unique_ptr<Cluster> cluster;
  TypeId type = 0;
  HandlerId h_crunch = 0;
  std::vector<MobilePtr> ptrs;

  explicit Imbalanced(bool balanced) {
    ClusterOptions options;
    options.nodes = 4;
    options.spill = SpillMedium::kMemory;
    options.balance.enabled = balanced;
    options.balance.interval = std::chrono::milliseconds(2);
    options.balance.slack_messages = 2;
    cluster = std::make_unique<Cluster>(options);
    type = cluster->registry().register_type<Work>("work");
    h_crunch = cluster->registry().register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader&) {
          auto& w = static_cast<Work&>(obj);
          // A handler heavy enough that shedding pays off.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ++w.done;
        });
    // EVERYTHING on node 0.
    for (int i = 0; i < 16; ++i) {
      ptrs.push_back(cluster->node(0).create<Work>(type).first);
    }
    for (int round = 0; round < 4; ++round) {
      for (MobilePtr p : ptrs) {
        cluster->node(0).send(p, h_crunch, std::vector<std::byte>{});
      }
    }
  }

  std::uint64_t total_done() {
    std::uint64_t total = 0;
    for (MobilePtr p : ptrs) {
      for (std::size_t n = 0; n < cluster->size(); ++n) {
        if (auto* obj = cluster->node(static_cast<NodeId>(n)).peek(p)) {
          total += static_cast<Work*>(obj)->done;
        }
      }
    }
    return total;
  }

  std::size_t nodes_hosting_objects() {
    std::size_t nodes = 0;
    for (std::size_t n = 0; n < cluster->size(); ++n) {
      if (cluster->node(static_cast<NodeId>(n)).local_objects() > 0) ++nodes;
    }
    return nodes;
  }
};

TEST(LoadBalance, ShedsQueuedObjectsToIdleNodes) {
  Imbalanced world(/*balanced=*/true);
  const auto report = world.cluster->run();
  ASSERT_FALSE(report.timed_out);
  EXPECT_EQ(world.total_done(), 64u);  // every message ran exactly once
  const auto migrations = world.cluster->sum_counters(
      [](const NodeCounters& c) { return c.migrations_in.load(); });
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(world.nodes_hosting_objects(), 1u);
}

TEST(LoadBalance, DisabledKeepsEverythingHome) {
  Imbalanced world(/*balanced=*/false);
  const auto report = world.cluster->run();
  ASSERT_FALSE(report.timed_out);
  EXPECT_EQ(world.total_done(), 64u);
  const auto migrations = world.cluster->sum_counters(
      [](const NodeCounters& c) { return c.migrations_in.load(); });
  EXPECT_EQ(migrations, 0u);
  EXPECT_EQ(world.nodes_hosting_objects(), 1u);
}

TEST(LoadBalance, AdviceIsBoundedPerRound) {
  // advise_shed is one-shot: a node sheds at most objects_per_advice per
  // advice, so the monitor cannot empty a node in one shot.
  ClusterOptions options;
  options.nodes = 2;
  options.spill = SpillMedium::kMemory;
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Work>("work");
  cluster.registry().register_handler(
      type,
      [](Runtime&, MobileObject&, MobilePtr, NodeId, util::ByteReader&) {});
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) {
    ptrs.push_back(cluster.node(0).create<Work>(type).first);
  }
  // Queue a message on each so they are shed candidates, then advise once.
  const HandlerId h = 0;
  for (MobilePtr p : ptrs) {
    cluster.node(0).send(p, h, std::vector<std::byte>{});
  }
  cluster.node(0).advise_shed(3, 1);
  (void)cluster.run();
  EXPECT_EQ(cluster.node(1).counters().migrations_in.load(), 3u);
  EXPECT_EQ(cluster.node(0).local_objects(), 5u);
}

TEST(LoadBalance, QueueTiesBreakTowardTheNodeHostingFewestObjects) {
  // Node 1 and node 2 are both idle; node 1 hosts objects, node 2 none.
  // Node 0's one busy object must be shed to node 2, not to node 1 by
  // index. Sizes: 16 messages at 4 per turn leave 8 at the first advice
  // (8 > 2*0 + 6 sheds) and at most 4 at the next (no second shed).
  ClusterOptions options;
  options.nodes = 3;
  options.spill = SpillMedium::kMemory;
  options.deterministic = true;
  options.runtime.max_messages_per_turn = 4;
  options.balance.enabled = true;
  options.balance.slack_messages = 6;
  options.balance.objects_per_advice = 1;
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Work>("work");
  const HandlerId h = cluster.registry().register_handler(
      type,
      [](Runtime&, MobileObject& obj, MobilePtr, NodeId, util::ByteReader&) {
        ++static_cast<Work&>(obj).done;
      });
  const MobilePtr busy = cluster.node(0).create<Work>(type).first;
  for (int i = 0; i < 3; ++i) (void)cluster.node(1).create<Work>(type);
  for (int i = 0; i < 16; ++i) {
    cluster.node(0).send(busy, h, std::vector<std::byte>{});
  }
  ASSERT_FALSE(cluster.run().timed_out);
  EXPECT_EQ(cluster.node(1).counters().migrations_in.load(), 0u);
  EXPECT_EQ(cluster.node(2).counters().migrations_in.load(), 1u);
  ASSERT_TRUE(cluster.node(2).is_local(busy));
  EXPECT_EQ(static_cast<Work*>(cluster.node(2).peek(busy))->done, 16u);
}

struct DetHopRun {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t expected = 0;
  std::uint64_t migrations = 0;
  std::string trace_text;
};

/// The chaos hop workload (no faults, no workload-driven migration) under
/// the deterministic driver, with the balancer on or off.
DetHopRun run_det_hops(bool balanced) {
  chaos::ChaosPlan plan;
  plan.seed = 5;
  chaos::Harness harness(plan);
  ClusterOptions options;
  options.nodes = 4;
  options.spill = SpillMedium::kMemory;
  options.max_run_time = std::chrono::seconds(60);
  options.runtime.max_messages_per_turn = 2;
  options.balance.enabled = balanced;
  options.balance.slack_messages = 0;
  harness.instrument(options);
  Cluster cluster(options);
  chaos::HopWorkload workload(cluster, {.objects_per_node = 4,
                                        .payload_words = 64,
                                        .routes = 64,
                                        .route_length = 8,
                                        .migrate_every = 0,
                                        .seed = 5});
  workload.create_objects();
  workload.inject();
  EXPECT_FALSE(cluster.run().timed_out);
  EXPECT_TRUE(harness.check(cluster).ok());
  DetHopRun out;
  out.executed = workload.executed_hops();
  out.expected = workload.expected_hops();
  out.digest = workload.state_digest();
  out.migrations = cluster.sum_counters(
      [](const NodeCounters& c) { return c.migrations_in.load(); });
  out.trace_text = harness.trace().text();
  return out;
}

TEST(LoadBalance, DeterministicRunMatchesTwinAndReplays) {
  const DetHopRun twin = run_det_hops(/*balanced=*/false);
  const DetHopRun a = run_det_hops(/*balanced=*/true);
  const DetHopRun b = run_det_hops(/*balanced=*/true);
  EXPECT_EQ(twin.migrations, 0u);
  EXPECT_GT(a.migrations, 0u) << "the balancer never shed an object";
  EXPECT_EQ(a.executed, a.expected);
  EXPECT_EQ(a.digest, twin.digest);
  ASSERT_GT(a.trace_text.size(), 0u);
  EXPECT_EQ(a.trace_text, b.trace_text);  // byte-identical replay
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.digest, b.digest);
}

}  // namespace
}  // namespace mrts::core
