// Elastic-membership seed sweep (ctest label "membership"): twenty seeds
// where a planned drain, a fail-stop kill, and its paired rejoin race
// storage blackouts, payload corruption, and a lossy fabric — with the
// reliable-delivery layer, replicated spills, per-object checkpoints, and
// the cluster balancer all engaged. Every seed must finish with zero
// lost objects, every scheduled transition fired, application state
// byte-identical to a static-membership twin of the same seed, and a
// byte-identical seed replay. Run selectively with `ctest -L membership`.

#include <gtest/gtest.h>

#include <iostream>
#include <optional>
#include <string>

#include "chaos/chaos.hpp"
#include "chaos/workload.hpp"
#include "core/membership.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace mrts::chaos {
namespace {

std::size_t count_substr(const std::string& haystack,
                         const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

core::ClusterOptions membership_options() {
  core::ClusterOptions options;
  options.nodes = 4;
  // Tiny budget against the ballast: heavy spilling guaranteed, so crash
  // exports must walk the replicated-store scan, not just in-core state.
  options.runtime.ooc.memory_budget_bytes = 64u << 10;
  options.runtime.storage_retry.max_retries = 8;
  options.runtime.storage_retry.base_delay = std::chrono::microseconds(100);
  options.runtime.reliable_net.enabled = true;
  options.spill = core::SpillMedium::kMemory;
  options.replicate_spills = true;
  options.replication.breaker_failure_threshold = 3;
  options.replication.breaker_cooldown_ops = 16;
  options.object_checkpoints = true;
  options.max_run_time = std::chrono::seconds(120);
  return options;
}

/// Storage and network faults that race the membership transitions: a
/// blackout window the crash export may land inside, background corruption
/// the replica scrub must absorb, and wire loss the reliable layer hides.
ChaosPlan membership_fault_plan(std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.storage_blackouts = 1;
  plan.blackout_ops = 16;
  plan.blackout_horizon_ops = 256;
  plan.storage.corruption_rate = 0.05;
  plan.storage.torn_write_rate = 0.02;
  plan.storage.load_failure_rate = 0.02;
  plan.net.drop_rate = 0.02;
  plan.net.dup_rate = 0.02;
  plan.net.delay_rate = 0.05;
  plan.net.max_delay_steps = 4;
  return plan;
}

MembershipFaultPlan membership_schedule_plan() {
  MembershipFaultPlan plan;
  plan.random_kills = 1;
  plan.random_drains = 1;
  plan.event_horizon_steps = 192;
  plan.rebalance = true;
  return plan;
}

HopWorkloadOptions sweep_workload(std::uint64_t seed) {
  HopWorkloadOptions wl;
  wl.objects_per_node = 4;
  wl.payload_words = 2048;  // 4 x 16 KiB per node against a 64 KiB budget
  wl.routes = 16;
  wl.route_length = 6;
  wl.migrate_every = 3;  // migration storm races the drain/kill handoffs
  wl.seed = seed;
  return wl;
}

struct SweepOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t expected = 0;
  std::uint64_t injected_faults = 0;
  std::uint64_t migrations = 0;  // all nodes' migrations_in
  core::MembershipStats stats;
  std::string trace_text;
  std::uint32_t trace_crc = 0;
  InvariantReport invariants;
  bool timed_out = false;
};

/// One full run of seed `seed`. `elastic` chains a MembershipManager (one
/// derived drain + one kill/rejoin pair) over the chaos harness and turns
/// the cluster balancer on; false is the static-membership, balance-off
/// twin of the same faulted seed.
SweepOutcome run_sweep_config(std::uint64_t seed, bool elastic) {
  Harness harness(membership_fault_plan(seed));
  core::ClusterOptions options = membership_options();
  harness.instrument(options);

  std::optional<core::MembershipManager> manager;
  if (elastic) {
    const MembershipFaultPlan mplan = membership_schedule_plan();
    core::MembershipOptions mopts;
    mopts.events = derive_membership_schedule(mplan, seed, options.nodes);
    options.balance.enabled = mplan.rebalance;
    manager.emplace(std::move(mopts));
    manager->instrument(options);
  }

  core::Cluster cluster(options);
  if (manager) manager->attach(cluster);
  HopWorkload workload(cluster, sweep_workload(seed));
  workload.create_objects();
  workload.inject();
  const auto report = cluster.run();

  SweepOutcome out;
  out.timed_out = report.timed_out;
  out.executed = workload.executed_hops();
  out.expected = workload.expected_hops();
  out.digest = workload.state_digest();
  out.migrations = cluster.sum_counters(
      [](const core::NodeCounters& c) { return c.migrations_in.load(); });
  out.invariants = harness.check(cluster);
  check_recovery(cluster, out.invariants);
  if (manager) {
    check_membership(cluster, *manager, out.invariants);
    out.stats = manager->stats();
  }
  out.trace_text = harness.trace().text();
  out.trace_crc = harness.trace().crc();
  out.injected_faults = count_substr(out.trace_text, "] disk ") +
                        count_substr(out.trace_text, "] net drop ") +
                        count_substr(out.trace_text, "] net dup ") +
                        count_substr(out.trace_text, "] net delay ");
  return out;
}

class MembershipSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    auto& tr = obs::TraceRecorder::global();
    tr.disable();
    tr.reset();
    tr.enable({.ring_capacity = 1u << 16, .clock = obs::TraceClock::kVirtual});
  }
  void TearDown() override {
    auto& tr = obs::TraceRecorder::global();
    tr.disable();
    if (HasFailure() && obs::TraceRecorder::compiled_in()) {
      const std::string path =
          "membership_fail_seed" + std::to_string(GetParam()) + ".json";
      const auto st = obs::write_chrome_trace(path, tr);
      std::cerr << (st.is_ok() ? "wrote trace artifact " + path
                               : "trace artifact export failed: " +
                                     st.to_string())
                << "\n";
    }
    tr.reset();
  }
};

TEST_P(MembershipSeedSweep, ElasticRunMatchesStaticTwinWithoutLoss) {
  const std::uint64_t seed = GetParam();
  const SweepOutcome twin = run_sweep_config(seed, /*elastic=*/false);
  ASSERT_FALSE(twin.timed_out);
  ASSERT_EQ(twin.executed, twin.expected);
  ASSERT_TRUE(twin.invariants.ok()) << twin.invariants.to_string();

  const SweepOutcome elastic = run_sweep_config(seed, /*elastic=*/true);
  ASSERT_FALSE(elastic.timed_out);
  // The derived schedule must actually exercise the machinery: one drain
  // and one kill/rejoin pair per seed, racing real injected faults.
  EXPECT_EQ(elastic.stats.drains, 1u) << "seed " << seed;
  EXPECT_EQ(elastic.stats.kills, 1u) << "seed " << seed;
  EXPECT_EQ(elastic.stats.rejoins, 1u) << "seed " << seed;
  EXPECT_GT(elastic.injected_faults, 0u)
      << "seed " << seed << " injected no faults; the sweep proves nothing";
  // No-silent-loss headline: every hop executed exactly once and no object
  // fell through the drain handoff or the crash rebuild.
  EXPECT_EQ(elastic.executed, elastic.expected) << "seed " << seed;
  EXPECT_EQ(elastic.stats.objects_lost, 0u) << "seed " << seed;
  EXPECT_TRUE(elastic.invariants.ok())
      << "seed " << seed << ":\n"
      << elastic.invariants.to_string() << "\ntrace tail:\n"
      << elastic.trace_text.substr(elastic.trace_text.size() > 2000
                                       ? elastic.trace_text.size() - 2000
                                       : 0);
  // Drain/kill/rejoin and the balancer moved objects and work, but
  // application state is byte-identical to the static-membership twin.
  EXPECT_EQ(elastic.digest, twin.digest) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, MembershipSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// Seed replay must stay byte-identical with the full elastic stack engaged:
// drain pacing, crash export order, shed advice, and the epoch handoffs
// are all pure functions of the schedule.
TEST(MembershipReplay, ElasticRunReplaysByteIdentical) {
  const SweepOutcome a = run_sweep_config(7, /*elastic=*/true);
  const SweepOutcome b = run_sweep_config(7, /*elastic=*/true);
  ASSERT_GT(a.trace_text.size(), 0u);
  EXPECT_EQ(a.stats.kills, 1u);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.trace_text, b.trace_text);  // byte-identical, not just CRC
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace mrts::chaos
