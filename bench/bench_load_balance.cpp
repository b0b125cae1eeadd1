// Ablation (paper §II.D/[25]): dynamic load balancing by the control
// layer. A pathologically imbalanced workload — every mobile object and
// every message created on node 0 of a 4-node cluster — run with and
// without the balancer. Overdecomposition is what gives the balancer units
// small enough to shed.

#include <thread>

#include "bench_common.hpp"
#include "core/cluster.hpp"
#include "core/membership.hpp"

using namespace mrts;
using namespace mrts::bench;
using namespace mrts::core;

namespace {

class Work : public MobileObject {
 public:
  std::uint64_t done = 0;
  std::vector<std::uint64_t> data = std::vector<std::uint64_t>(4000, 1);

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

struct Outcome {
  double seconds;
  std::uint64_t migrations;
  std::size_t hosting_nodes;
};

Outcome run_imbalanced(bool balanced, int objects, int rounds) {
  ClusterOptions options;
  options.nodes = 4;
  options.spill = SpillMedium::kMemory;
  options.balance.enabled = balanced;
  options.balance.interval = std::chrono::milliseconds(2);
  options.balance.objects_per_advice = 2;
  Cluster cluster(options);
  const TypeId type = cluster.registry().register_type<Work>("work");
  const HandlerId h = cluster.registry().register_handler(
      type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++static_cast<Work&>(obj).done;
      });
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < objects; ++i) {
    ptrs.push_back(cluster.node(0).create<Work>(type).first);
  }
  for (int r = 0; r < rounds; ++r) {
    for (MobilePtr p : ptrs) {
      cluster.node(0).send(p, h, std::vector<std::byte>{});
    }
  }
  const auto report = cluster.run();
  Outcome out;
  out.seconds = report.total_seconds;
  out.migrations = cluster.sum_counters(
      [](const NodeCounters& c) { return c.migrations_in.load(); });
  out.hosting_nodes = 0;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    if (cluster.node(static_cast<NodeId>(n)).local_objects() > 0) {
      ++out.hosting_nodes;
    }
  }
  return out;
}

// --- node-join-mid-run (elastic membership + cluster balancer) ------------
// The same pathological imbalance under the deterministic driver, but the
// fourth node is absent at t=0 and joins at sweep `join_step`. The cluster
// balancer is the only spreading mechanism: it sheds queued objects from
// the busiest node to the idlest accepting one, which after the join is
// often the joiner. Makespan is det_steps — wall-clock-free and reproducible in CI — and a
// small per-sweep message budget keeps the queue standing long enough for
// the balancer to act.

struct JoinOutcome {
  std::uint64_t det_steps;
  std::uint64_t migrations;         // all nodes' migrations_in
  std::uint64_t joiner_migrations;  // objects migrated into node 3
  std::size_t joiner_objects;
  std::uint64_t total_done;
};

JoinOutcome run_join(bool join, std::uint64_t join_step, int objects,
                     int rounds) {
  ClusterOptions options;
  options.nodes = 4;
  options.spill = SpillMedium::kMemory;
  options.deterministic = true;
  options.runtime.max_messages_per_turn = 4;
  options.balance.enabled = true;
  options.balance.slack_messages = 4;
  MembershipOptions mo;
  // Node 3 is "not there yet": killed (empty) before any work exists. The
  // join is its rejoin; the static run never brings it back.
  mo.events = {{.step = 1,
                .kind = MembershipEventSpec::Kind::kKill,
                .node = 3}};
  if (join) {
    mo.events.push_back({.step = join_step,
                         .kind = MembershipEventSpec::Kind::kRejoin,
                         .node = 3});
  }
  MembershipManager mgr(std::move(mo));
  mgr.instrument(options);
  Cluster cluster(options);
  mgr.attach(cluster);
  const TypeId type = cluster.registry().register_type<Work>("work");
  const HandlerId h = cluster.registry().register_handler(
      type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) { ++static_cast<Work&>(obj).done; });
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < objects; ++i) {
    ptrs.push_back(cluster.node(0).create<Work>(type).first);
  }
  for (int r = 0; r < rounds; ++r) {
    for (MobilePtr p : ptrs) {
      cluster.node(0).send(p, h, std::vector<std::byte>{});
    }
  }
  const auto report = cluster.run();
  JoinOutcome out;
  out.det_steps = report.det_steps;
  out.migrations = cluster.sum_counters(
      [](const NodeCounters& c) { return c.migrations_in.load(); });
  out.joiner_migrations = cluster.node(3).counters().migrations_in.load();
  out.joiner_objects = cluster.node(3).local_objects();
  out.total_done = 0;
  for (MobilePtr p : ptrs) {
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      if (auto* obj = cluster.node(static_cast<NodeId>(n)).peek(p)) {
        out.total_done += static_cast<Work*>(obj)->done;
      }
    }
  }
  return out;
}

}  // namespace

int main() {
  BenchReport report(
      "load_balance",
      "Load-balancing ablation — all work created on node 0 of 4 nodes "
      "(1 ms sleep-based handlers, so shed work proceeds concurrently "
      "whatever the core count)",
      "the control layer sheds queued mobile objects to idle nodes; "
      "without balancing one node processes everything");

  Table t({"balancing", "objects", "rounds", "time (s)", "migrations",
           "nodes hosting objects"});
  for (bool balanced : {false, true}) {
    const auto r = run_imbalanced(balanced, 32, 8);
    t.row(balanced ? "on" : "off", 32, 8, r.seconds, r.migrations,
          r.hosting_nodes);
  }
  report.add("balancing", std::move(t));

  // Elastic membership: a node joins mid-run and the balancer sheds work
  // onto it. The static row never brings node 3 up; the join rows rejoin it
  // at escalating sweep numbers. Joining earlier must shorten the makespan
  // more.
  constexpr int kObjects = 24;
  constexpr int kRounds = 32;
  const std::uint64_t join_step = 8;
  Table j({"scenario", "objects", "rounds", "makespan (det steps)",
           "post-join steps", "migrations", "into joiner",
           "joiner objects", "done"});
  const JoinOutcome stat = run_join(false, 0, kObjects, kRounds);
  j.row("static (3 nodes)", kObjects, kRounds, stat.det_steps, 0,
        stat.migrations, stat.joiner_migrations, stat.joiner_objects,
        stat.total_done);
  JoinOutcome at_t{};
  for (std::uint64_t js : {join_step, join_step * 4}) {
    const JoinOutcome r = run_join(true, js, kObjects, kRounds);
    if (js == join_step) at_t = r;
    j.row("join at sweep " + std::to_string(js), kObjects, kRounds,
          r.det_steps, r.det_steps > js ? r.det_steps - js : 0,
          r.migrations, r.joiner_migrations, r.joiner_objects,
          r.total_done);
  }
  report.add("node_join_mid_run", std::move(j));
  report.set_meta("join_step", std::to_string(join_step));
  report.set_meta("join_migrations_into_joiner",
                  std::to_string(at_t.joiner_migrations));
  report.set_meta("join_makespan_steps", std::to_string(at_t.det_steps));
  report.set_meta("static_makespan_steps", std::to_string(stat.det_steps));
  report.set_meta("join_work_executed", std::to_string(at_t.total_done));
  report.set_meta("expected_work",
                  std::to_string(std::uint64_t(kObjects) * kRounds));
  return 0;
}
