// MRTS benchmark program. Runs one named workload through the runtime's
// public entry points (pumg::run_oupdr_ooc, pumg::run_opcdm_ooc, and
// core::Cluster with chaos::HopWorkload), checks every result, and prints
// its metrics as JSON. perfbench/run.py builds and invokes it; see
// BENCHMARK.json at the repository root for the metric list.
//
// Workloads (4 simulated nodes in one process):
//   oupdr_spill  OUPDR on the unit square at a seeded offset (~703k
//                elements), an 8x8 grid, 4 MB/node, FileStore spill with no
//                device model. Bulk-synchronous: serialize, seal, CRC, file
//                write and reload all sit on the barrier's critical path.
//   opcdm_disk   OPCDM on the same kind of domain, 64 strips, 4 MB/node,
//                FileStore under the Table VI device model (5 ms access,
//                50 MB/s). Fully asynchronous and bound by device latency,
//                so CPU-side storage cost is a small share of its time.
//   hop_storm    chaos::HopWorkload: 64 objects/node with 8 KB ballast,
//                routes of 8 hops, a migration every 4th hop, reliable
//                delivery on with every other ReliableOptions default, all
//                in core. Tiny AMs, directory forwarding and migration
//                only; mesh and storage do no work (the bypass case).
//
// Modes:
//   --trace 0  untraced reps for --seconds; prints the end-to-end metrics
//              (medians over the reps after one warm-up rep; peak RSS from
//              reps run in forked child processes).
//   --trace 1  untraced reps (counter and histogram deltas), traced reps
//              (span self times from obs::TraceRecorder), then timed calls
//              into single layers on the workload's own final data.
//
// Every rep checks its output. A wrong result, a timeout, or an exception
// counts as a failed operation instead of aborting the run. --perturb
// corrupts each result before its check, so the smoke test can prove that
// the checks catch a wrong answer.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/workload.hpp"
#include "core/cluster.hpp"
#include "mesh/pslg.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pumg/method.hpp"
#include "pumg/ooc.hpp"
#include "storage/file_store.hpp"
#include "storage/sealed_blob.hpp"
#include "util/archive.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mrts;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kMeshBudgetBytes = std::size_t{4} << 20;
/// --quick meshes are ~16x smaller, so their budget is too: they must still
/// spill, or the storage spans the traced pass checks for never run.
constexpr std::size_t kQuickMeshBudgetBytes = std::size_t{256} << 10;
constexpr std::size_t kHopBudgetBytes = std::size_t{64} << 20;
constexpr std::size_t kHopBallastWords = 1024;  // 8 KB per hop object
/// Allowed deviation of a mesh's element count from the pinned count.
constexpr double kElementTolerance = 0.03;
/// Share of a --trace 0 run spent on child processes that each run one
/// untraced rep for peak_rss_mb (at least three children).
constexpr double kRssShare = 0.2;
/// Largest trace ring tried before a traced rep counts as failed: rings are
/// allocated whole per recording thread (40 bytes an event).
constexpr std::size_t kMaxRing = std::size_t{1} << 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(std::string_view s) {
  return "\"" + obs::json_escape(std::string(s)) + "\"";
}

// ---------------------------------------------------------------------------
// Metric names, in output order. BENCHMARK.json lists the same names and
// units; the smoke test checks that every one is printed.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"mesh.handler_self_s", "s"},
    {"mesh.seq_elements_per_s", "1/s"},
    {"pumg.serialize_mb_per_s", "MB/s"},
    {"pumg.deserialize_mb_per_s", "MB/s"},
    {"util.crc32_mb_per_s", "MB/s"},
    {"storage.seal_mb_per_s", "MB/s"},
    {"storage.unseal_mb_per_s", "MB/s"},
    {"storage.filestore_store_mb_per_s", "MB/s"},
    {"storage.filestore_load_mb_per_s", "MB/s"},
    {"storage.store_self_s", "s"},
    {"storage.load_self_s", "s"},
    {"storage.store_p50_us", "us"},
    {"storage.store_p99_us", "us"},
    {"storage.load_p50_us", "us"},
    {"storage.load_p99_us", "us"},
    {"storage.spilled_bytes_per_element", "B"},
    {"storage.loaded_bytes_per_element", "B"},
    {"core.queue_wait_s", "s"},
    {"core.queue_wait_p99_us", "us"},
    {"core.spill_serialize_self_s", "s"},
    {"core.load_deserialize_self_s", "s"},
    {"core.ooc_miss_ratio", "ratio"},
    {"core.evictions", "count"},
    {"core.spills_elided", "count"},
    {"core.comp_pct", "%"},
    {"core.comm_pct", "%"},
    {"core.disk_pct", "%"},
    {"core.overlap_pct", "%"},
    {"core.migrations", "1/hop"},
    {"core.forwarded", "1/hop"},
    {"core.location_updates", "1/hop"},
    {"simnet.wire_msgs_per_hop", "1/hop"},
    {"simnet.ams_per_frame", "ratio"},
    {"simnet.bytes_sent", "B"},
    {"simnet.send_self_s", "s"},
    {"simnet.deliver_self_s", "s"},
    {"simnet.retransmits", "count"},
    {"simnet.ack_rtt_p99_us", "us"},
    {"obs.trace_events", "count"},
    {"obs.trace_dropped", "count"},
    {"obs.trace_overhead_pct", "%"},
};

using Values = std::map<std::string, double>;

enum class Kind { kOupdr, kOpcdm, kHop };

/// Whether a workload produces a per-layer metric. The others print 0: the
/// layer does no such work in that workload.
bool applicable(Kind kind, std::string_view name) {
  if (kind == Kind::kHop) {
    // Everything stays in core: no meshing, serialization or storage work,
    // and no misses, evictions, spills or reloads.
    for (std::string_view prefix : {"mesh.", "pumg.", "util.", "storage."}) {
      if (name.starts_with(prefix)) return false;
    }
    for (std::string_view n :
         {"core.spill_serialize_self_s", "core.load_deserialize_self_s",
          "core.ooc_miss_ratio", "core.evictions", "core.spills_elided",
          "core.disk_pct"}) {
      if (name == n) return false;
    }
    return true;
  }
  // The mesh ports never migrate an object and run without reliable
  // delivery: no forwards, location updates, batches, acks or retransmits.
  for (std::string_view n :
       {"core.migrations", "core.forwarded", "core.location_updates",
        "simnet.ams_per_frame", "simnet.retransmits",
        "simnet.ack_rtt_p99_us"}) {
    if (name == n) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  Kind kind = Kind::kOupdr;
  std::string name;
  /// Mesh workloads: element target of the uniform size field and the
  /// element count measured at that target (the check's pinned value).
  std::size_t target_elements = 0;
  std::size_t pinned_elements = 0;
  /// Memory budget per node.
  std::size_t budget_bytes = 0;
  int grid = 0;    // OUPDR cells per side
  int strips = 0;  // OPCDM strips
  /// hop_storm: routes per rep, and per rep of a --trace 1 run (smaller, so
  /// a full trace fits the ring without drops).
  std::size_t routes = 0;
  std::size_t traced_routes = 0;
  /// Initial trace ring capacity per thread; grown on drops up to kMaxRing.
  std::size_t ring = std::size_t{1} << 16;
};

bool make_spec(const std::string& name, bool quick, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "oupdr_spill") {
    s.kind = Kind::kOupdr;
    s.target_elements = quick ? 20000 : 320000;
    s.pinned_elements = quick ? 45300 : 703000;
    s.budget_bytes = quick ? kQuickMeshBudgetBytes : kMeshBudgetBytes;
    s.grid = 8;
  } else if (name == "opcdm_disk") {
    s.kind = Kind::kOpcdm;
    s.target_elements = quick ? 20000 : 320000;
    s.pinned_elements = quick ? 46500 : 751000;
    s.budget_bytes = quick ? kQuickMeshBudgetBytes : kMeshBudgetBytes;
    s.strips = quick ? 16 : 64;
  } else if (name == "hop_storm") {
    s.kind = Kind::kHop;
    s.budget_bytes = kHopBudgetBytes;
    s.routes = quick ? 1024 : 32768;
    s.traced_routes = quick ? 1024 : 4096;
    s.ring = std::size_t{1} << 18;
  } else {
    return false;
  }
  *out = std::move(s);
  return true;
}

/// The mesh input: the unit square at a seeded offset in [0, 4)^2, meshed
/// with a uniform size field. The offset changes every coordinate's
/// rounding, hence the mesh, but not the amount of work, so throughput
/// stays comparable across seeds.
struct Domain {
  pumg::MeshProblem problem;
  double area = 0.0;
};

Domain make_domain(const Spec& s, std::uint64_t seed) {
  util::Rng rng(seed);
  const double x0 = rng.uniform(0.0, 4.0);
  const double y0 = rng.uniform(0.0, 4.0);
  const mesh::Rect r{x0, y0, x0 + 1.0, y0 + 1.0};
  // elements ~ area / (0.433 size^2), the repo's uniform-problem calibration.
  const double size =
      std::sqrt(1.0 / (0.433 * static_cast<double>(s.target_elements)));
  return Domain{
      pumg::MeshProblem{mesh::make_rectangle(r),
                        {.min_angle_deg = 20.0,
                         .size_field = mesh::uniform_size(size)}},
      r.width() * r.height()};
}

core::ClusterOptions mesh_cluster(const Spec& s) {
  core::ClusterOptions o;
  o.nodes = kNodes;
  o.runtime.ooc.memory_budget_bytes = s.budget_bytes;
  o.spill = core::SpillMedium::kFile;
  o.spill_tag = "perfbench";
  o.max_run_time = std::chrono::seconds(120);
  if (s.kind == Kind::kOpcdm) {
    o.disk_model = storage::DeviceModel{
        .access_latency = std::chrono::microseconds(5000),
        .bandwidth_bytes_per_sec = 50e6};
  }
  return o;
}

core::ClusterOptions hop_cluster(const Spec& s) {
  core::ClusterOptions o;
  o.nodes = kNodes;
  o.runtime.ooc.memory_budget_bytes = s.budget_bytes;
  o.spill = core::SpillMedium::kMemory;
  o.runtime.reliable_net.enabled = true;
  o.max_run_time = std::chrono::seconds(120);
  return o;
}

// ---------------------------------------------------------------------------
// One rep: a full run of the workload plus its output check.

struct Rep {
  bool ok = false;
  std::string error;
  double work = 0.0;        // refined elements or executed hops
  double parallel_s = 0.0;  // wall seconds of the parallel phase
  double setup_s = 0.0;     // wall seconds outside it
  double working_set_bytes = 0.0;
  double spilled_bytes = 0.0;
  Values layer;  // counter/histogram-derived per-layer metrics
};

double counter(const obs::MetricsSnapshot& m, const char* name) {
  const auto* e = m.find(name);
  return e != nullptr ? e->value : 0.0;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

void breakdown_metrics(const core::RunBreakdown& b, Values& out) {
  out["core.comp_pct"] = b.comp_pct();
  out["core.comm_pct"] = b.comm_pct();
  out["core.disk_pct"] = b.disk_pct();
  out["core.overlap_pct"] = b.overlap_pct();
}

void registry_metrics(const obs::MetricsSnapshot& m, Values& out) {
  const double hits = counter(m, "ooc.hits");
  const double misses = counter(m, "ooc.misses");
  out["core.ooc_miss_ratio"] = ratio(misses, hits + misses);
  out["core.evictions"] = counter(m, "ooc.evictions");
  out["simnet.retransmits"] = counter(m, "net.retransmits");
  if (const auto* e = m.find("net.ack_rtt_us"); e && e->value > 0) {
    out["simnet.ack_rtt_p99_us"] = e->p99;
  }
  if (const auto* e = m.find("storage.op_latency_us.store");
      e && e->value > 0) {
    out["storage.store_p50_us"] = e->p50;
    out["storage.store_p99_us"] = e->p99;
  }
  if (const auto* e = m.find("storage.op_latency_us.load");
      e && e->value > 0) {
    out["storage.load_p50_us"] = e->p50;
    out["storage.load_p99_us"] = e->p99;
  }
}

std::size_t serialized_size(const pumg::Subdomain& sub) {
  util::ByteWriter w(sub.footprint_bytes() + 64);
  sub.serialize(w);
  return w.size();
}

std::string check_mesh(const Spec& s, const Domain& d,
                       const pumg::OocRunResult& r,
                       const pumg::Decomposition& decomp,
                       const std::vector<pumg::Subdomain>& subs) {
  if (r.report.timed_out) return "parallel phase timed out";
  if (r.objects_poisoned != 0 || r.storage_retries != 0 ||
      r.spills_reinstalled != 0 || r.loads_recovered != 0 ||
      r.checkpoint_recoveries != 0) {
    return "recovery path used: poisoned=" +
           std::to_string(r.objects_poisoned) +
           " retries=" + std::to_string(r.storage_retries) +
           " reinstalled=" + std::to_string(r.spills_reinstalled) +
           " loads_recovered=" + std::to_string(r.loads_recovered) +
           " checkpoint_recoveries=" + std::to_string(r.checkpoint_recoveries);
  }
  if (r.dirty_left != 0 || r.pending_left != 0) {
    return "refinement left undone: dirty=" + std::to_string(r.dirty_left) +
           " pending=" + std::to_string(r.pending_left);
  }
  if (subs.size() != decomp.size() || subs.empty()) {
    return "subdomain count " + std::to_string(subs.size()) + " != cells " +
           std::to_string(decomp.size());
  }
  if (auto why = pumg::check_conformity(decomp, subs); !why.empty()) {
    return "mesh not conforming: " + why;
  }
  double area = 0.0;
  std::size_t elements = 0;
  for (const auto& sub : subs) {
    area += sub.inside_area();
    elements += sub.inside_elements();
  }
  if (std::abs(area - d.area) > 1e-9 * d.area) {
    return "meshed area " + num(area) + " != domain area " + num(d.area);
  }
  if (elements != r.mesh.elements) return "element count mismatch";
  const double pinned = static_cast<double>(s.pinned_elements);
  if (std::abs(static_cast<double>(elements) - pinned) >
      kElementTolerance * pinned) {
    return "element count " + std::to_string(elements) + " outside " +
           num(100 * kElementTolerance) + "% of pinned " +
           std::to_string(s.pinned_elements);
  }
  return {};
}

Rep mesh_rep(const Spec& s, const Domain& d, bool perturb,
             std::vector<pumg::Subdomain>* keep) {
  Rep rep;
  std::vector<pumg::Subdomain> subs;
  pumg::Decomposition decomp;
  obs::MetricsRegistry::global().reset_values();
  const auto t0 = Clock::now();
  const pumg::OocRunResult r =
      s.kind == Kind::kOupdr
          ? pumg::run_oupdr_ooc(d.problem,
                                {.cluster = mesh_cluster(s),
                                 .nx = s.grid,
                                 .ny = s.grid},
                                &subs, &decomp)
          : pumg::run_opcdm_ooc(
                d.problem, {.cluster = mesh_cluster(s), .strips = s.strips},
                &subs, &decomp);
  const double wall = seconds_since(t0);
  const auto m = obs::MetricsRegistry::global().snapshot();

  rep.parallel_s = r.report.total_seconds;
  rep.setup_s = wall - rep.parallel_s;
  rep.work = static_cast<double>(r.mesh.elements);
  if (perturb && subs.size() > 1) std::swap(subs.front(), subs.back());
  rep.error = check_mesh(s, d, r, decomp, subs);
  rep.ok = rep.error.empty();

  for (const auto& sub : subs) rep.working_set_bytes += serialized_size(sub);
  rep.spilled_bytes = static_cast<double>(r.bytes_spilled);
  Values& L = rep.layer;
  registry_metrics(m, L);
  breakdown_metrics(r.report, L);
  const double hops = static_cast<double>(r.messages_executed);
  L["storage.spilled_bytes_per_element"] = ratio(r.bytes_spilled, rep.work);
  L["storage.loaded_bytes_per_element"] = ratio(r.bytes_loaded, rep.work);
  L["core.spills_elided"] = static_cast<double>(r.spills_elided);
  L["core.migrations"] = ratio(r.migrations, hops);
  L["simnet.wire_msgs_per_hop"] = ratio(r.report.fabric.messages_sent, hops);
  L["simnet.bytes_sent"] = static_cast<double>(r.report.fabric.bytes_sent);
  if (keep != nullptr) *keep = std::move(subs);
  return rep;
}

Rep hop_rep(const Spec& s, std::uint64_t seed, std::size_t routes,
            bool perturb) {
  Rep rep;
  obs::MetricsRegistry::global().reset_values();
  const auto t0 = Clock::now();
  core::Cluster cluster(hop_cluster(s));
  chaos::HopWorkload wl(cluster, {.objects_per_node = 64,
                                  .payload_words = kHopBallastWords,
                                  .routes = routes,
                                  .route_length = 8,
                                  .migrate_every = 4,
                                  .seed = seed});
  wl.create_objects();
  wl.inject();
  rep.setup_s = seconds_since(t0);
  const core::RunReport report = cluster.run();
  const auto m = obs::MetricsRegistry::global().snapshot();
  rep.parallel_s = report.total_seconds;

  rep.work = static_cast<double>(wl.executed_hops());
  rep.working_set_bytes =
      static_cast<double>(wl.objects().size() * kHopBallastWords * 8);
  Values& L = rep.layer;
  registry_metrics(m, L);
  breakdown_metrics(report, L);
  const auto per_hop = [&](auto field) {
    return ratio(static_cast<double>(cluster.sum_counters(
                     [&](const core::NodeCounters& c) {
                       return (c.*field).load();
                     })),
                 rep.work);
  };
  L["core.migrations"] = per_hop(&core::NodeCounters::migrations_in);
  L["core.forwarded"] = per_hop(&core::NodeCounters::messages_forwarded);
  L["core.location_updates"] = per_hop(&core::NodeCounters::location_updates);
  double ams = 0.0, frames = 0.0;
  for (std::size_t n = 0; n < cluster.size(); ++n) {
    if (const auto* link =
            cluster.node(static_cast<core::NodeId>(n)).reliable_link()) {
      ams += static_cast<double>(link->ams_sent());
      frames += static_cast<double>(link->batches());
    }
  }
  L["simnet.ams_per_frame"] = ratio(ams, frames);
  L["simnet.wire_msgs_per_hop"] = ratio(report.fabric.messages_sent, rep.work);
  L["simnet.bytes_sent"] = static_cast<double>(report.fabric.bytes_sent);

  std::uint64_t executed = wl.executed_hops();
  if (perturb) ++executed;
  if (report.timed_out) {
    rep.error = "parallel phase timed out";
  } else if (executed != wl.expected_hops()) {
    rep.error = "executed hops " + std::to_string(executed) + " != expected " +
                std::to_string(wl.expected_hops());
  } else if (const auto summed = wl.sum_object_hops();
             summed != wl.expected_hops()) {
    rep.error = "object hop counters sum to " + std::to_string(summed) +
                " != expected " + std::to_string(wl.expected_hops());
  }
  rep.ok = rep.error.empty();
  return rep;
}

/// Runs one rep; an exception is a failed operation, not a crash.
Rep guarded(const std::function<Rep()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    Rep rep;
    rep.error = std::string("exception: ") + e.what();
    return rep;
  }
}

// ---------------------------------------------------------------------------
// Traced pass: folds the recorder's spans by name into count, total and
// self time (duration minus the part covered by nested child spans on the
// same thread), and collects queue.wait complete-events as a distribution.
// Only spans that begin inside the parallel window count; the window runs
// from the first handler span's begin to the last one's end, which leaves
// out set-up spills and the final locked reload.

struct SpanFold {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct TraceSummary {
  std::map<std::string, SpanFold> spans;
  std::vector<double> queue_wait_us;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t max_thread_events = 0;
  std::size_t threads = 0;
  double window_s = 0.0;
};

bool is_handler(const char* name) {
  return std::string_view(name).starts_with("handler");
}

TraceSummary fold_trace(
    const std::vector<obs::TraceRecorder::ThreadDump>& dumps) {
  TraceSummary out;
  std::uint64_t w0 = UINT64_MAX, w1 = 0;
  for (const auto& d : dumps) {
    for (const auto& ev : d.events) {
      if (!is_handler(ev.name)) continue;
      if (ev.kind == obs::EventKind::kBegin) w0 = std::min(w0, ev.ts);
      if (ev.kind == obs::EventKind::kEnd) w1 = std::max(w1, ev.ts);
    }
  }
  if (w0 > w1) w0 = w1 = 0;
  out.window_s = 1e-9 * static_cast<double>(w1 - w0);

  struct Open {
    const char* name;
    std::uint64_t ts;
    std::uint64_t child_ns;
  };
  for (const auto& d : dumps) {
    ++out.threads;
    out.events += d.recorded;
    out.dropped += d.dropped;
    out.max_thread_events = std::max(out.max_thread_events, d.recorded);
    std::vector<Open> stack;
    for (const auto& ev : d.events) {
      if (ev.kind == obs::EventKind::kBegin) {
        stack.push_back({ev.name, ev.ts, 0});
      } else if (ev.kind == obs::EventKind::kEnd && !stack.empty()) {
        const Open o = stack.back();
        stack.pop_back();
        const std::uint64_t dur = ev.ts >= o.ts ? ev.ts - o.ts : 0;
        if (!stack.empty()) stack.back().child_ns += dur;
        if (o.ts < w0 || o.ts > w1) continue;
        SpanFold& f = out.spans[o.name];
        ++f.count;
        f.total_s += 1e-9 * static_cast<double>(dur);
        f.self_s += 1e-9 * static_cast<double>(dur - std::min(dur, o.child_ns));
      } else if (ev.kind == obs::EventKind::kComplete &&
                 std::string_view(ev.name) == "queue.wait") {
        const std::uint64_t end = ev.ts + ev.dur;
        if (end < w0 || end > w1) continue;
        const std::uint64_t start = std::max(ev.ts, w0);
        out.queue_wait_us.push_back(1e-3 * static_cast<double>(end - start));
      }
    }
  }
  return out;
}

/// A zero-drop traced rep must have recorded every span the workload's
/// per-layer metrics are read from; a span renamed or dropped in the runtime
/// would otherwise print as a silent 0.
std::string check_spans(const Spec& s, const TraceSummary& t) {
  std::vector<const char*> want = {"handler", "send", "deliver"};
  if (s.kind != Kind::kHop) {
    want.insert(want.end(),
                {"store", "load", "spill.serialize", "load.deserialize"});
  }
  for (const char* name : want) {
    const auto it = t.spans.find(name);
    if (it == t.spans.end() || it->second.count == 0) {
      return std::string("no '") + name + "' span in the trace window";
    }
  }
  if (t.queue_wait_us.empty()) return "no queue.wait event in the trace window";
  return {};
}

Values trace_metrics(const Spec& s, const TraceSummary& t) {
  Values out;
  const auto self = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it != t.spans.end() ? it->second.self_s : 0.0;
  };
  if (s.kind != Kind::kHop) {
    double handler = 0.0;
    for (const auto& [name, f] : t.spans) {
      if (is_handler(name.c_str())) handler += f.self_s;
    }
    out["mesh.handler_self_s"] = handler;
  }
  out["storage.store_self_s"] = self("store");
  out["storage.load_self_s"] = self("load");
  out["core.spill_serialize_self_s"] = self("spill.serialize");
  out["core.load_deserialize_self_s"] = self("load.deserialize");
  out["simnet.send_self_s"] = self("send");
  out["simnet.deliver_self_s"] = self("deliver");
  double wait_us = 0.0;
  for (double w : t.queue_wait_us) wait_us += w;
  out["core.queue_wait_s"] = 1e-6 * wait_us;
  out["core.queue_wait_p99_us"] = quantile(t.queue_wait_us, 0.99);
  out["obs.trace_events"] = static_cast<double>(t.events);
  out["obs.trace_dropped"] = static_cast<double>(t.dropped);
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes: direct calls into each layer's public functions on the
// workload's final subdomains, serialized once. Each probe makes passes
// over all buffers until it has run kProbeSeconds and at least kProbePasses
// passes, and reports the median pass rate.

constexpr double kProbeSeconds = 0.3;
constexpr int kProbePasses = 3;

template <typename Fn>
double probe_rate(double bytes, Fn&& pass) {
  std::vector<double> rates;
  const auto t0 = Clock::now();
  while (static_cast<int>(rates.size()) < kProbePasses ||
         seconds_since(t0) < kProbeSeconds) {
    const auto p0 = Clock::now();
    pass();
    rates.push_back(bytes / 1e6 / seconds_since(p0));
  }
  return median(rates);
}

struct ProbeInfo {
  double buffer_bytes = 0.0;       // all serialized cells together
  double max_buffer_bytes = 0.0;   // the largest single cell
  std::size_t buffers = 0;
  bool round_trip_ok = true;
};

ProbeInfo run_probes(const Domain& d, const std::vector<pumg::Subdomain>& subs,
                     Values& out) {
  ProbeInfo info;
  std::vector<std::vector<std::byte>> bufs(subs.size());
  std::vector<std::size_t> elements(subs.size());
  std::vector<std::uint32_t> crcs(subs.size());
  double bytes = 0.0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    util::ByteWriter w(subs[i].footprint_bytes() + 64);
    subs[i].serialize(w);
    bufs[i] = w.take();
    elements[i] = subs[i].inside_elements();
    crcs[i] = util::crc32(bufs[i]);
    bytes += static_cast<double>(bufs[i].size());
    info.max_buffer_bytes =
        std::max(info.max_buffer_bytes, static_cast<double>(bufs[i].size()));
  }
  info.buffer_bytes = bytes;
  info.buffers = bufs.size();

  {
    const auto t0 = Clock::now();
    const auto stats = pumg::run_sequential(d.problem);
    out["mesh.seq_elements_per_s"] =
        static_cast<double>(stats.elements) / seconds_since(t0);
  }
  out["pumg.serialize_mb_per_s"] = probe_rate(bytes, [&] {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      util::ByteWriter w(subs[i].footprint_bytes() + 64);
      subs[i].serialize(w);
      if (w.size() != bufs[i].size()) info.round_trip_ok = false;
    }
  });
  out["pumg.deserialize_mb_per_s"] = probe_rate(bytes, [&] {
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      pumg::Subdomain sub;
      util::ByteReader r(bufs[i]);
      sub.deserialize(r);
      if (sub.inside_elements() != elements[i]) info.round_trip_ok = false;
    }
  });
  out["util.crc32_mb_per_s"] = probe_rate(bytes, [&] {
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      if (util::crc32(bufs[i]) != crcs[i]) info.round_trip_ok = false;
    }
  });
  std::vector<std::vector<std::byte>> blobs(bufs.size());
  out["storage.seal_mb_per_s"] = probe_rate(bytes, [&] {
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      util::ByteWriter w(bufs[i].size() + sizeof(std::uint32_t));
      w.write_bytes(bufs[i]);
      blobs[i] = storage::seal_blob(std::move(w));
    }
  });
  out["storage.unseal_mb_per_s"] = probe_rate(bytes, [&] {
    for (const auto& b : blobs) {
      if (!storage::unseal_blob(b).is_ok()) info.round_trip_ok = false;
    }
  });
  {
    // Sandbox page-cache figure: the files live under TMPDIR and are
    // rarely flushed to a device before they are read back.
    const auto dir = storage::make_temp_spill_dir("perfbench-probe");
    {
      storage::FileStore fs(dir);
      out["storage.filestore_store_mb_per_s"] = probe_rate(bytes, [&] {
        for (std::size_t i = 0; i < blobs.size(); ++i) {
          if (!fs.store(i, blobs[i]).is_ok()) info.round_trip_ok = false;
        }
      });
      out["storage.filestore_load_mb_per_s"] = probe_rate(bytes, [&] {
        for (std::size_t i = 0; i < blobs.size(); ++i) {
          auto r = fs.load(i);
          if (!r.is_ok() || r.value() != blobs[i]) info.round_trip_ok = false;
        }
      });
      fs.clear();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return info;
}

// ---------------------------------------------------------------------------
// Build and host metadata

std::string sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#endif
#endif
  return "";
}

bool ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs one rep in a child forked from this still single-threaded process
/// and returns the child's peak RSS in MB, or a negative value when the rep
/// failed its check. A fresh process per sample keeps memory that earlier
/// reps left in the allocator out of the figure.
double rss_rep(const std::function<Rep()>& fn) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return -1.0;
  if (pid == 0) std::_Exit(fn().ok ? 0 : 1);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return -1.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool perturb = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "mrts_perfbench: %s\nusage: mrts_perfbench --workload "
               "{oupdr_spill|opcdm_disk|hop_storm} --seed N --seconds S "
               "--trace {0|1} [--quick] [--perturb]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k == "--quick") {
      a->quick = true;
      continue;
    }
    if (k == "--perturb") {
      a->perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        return false;
      }
      a->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Rep& rep, const char* what) {
    ++attempted;
    if (!rep.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s rep FAILED: %s\n", what,
                   rep.error.c_str());
    }
  }
};

void log_rep(const char* what, const Rep& rep) {
  std::fprintf(stderr,
               "perfbench: %s rep work=%.0f parallel_s=%.4f setup_s=%.4f "
               "ops_per_s=%.1f peak_rss_mb=%.1f ok=%d\n",
               what, rep.work, rep.parallel_s, rep.setup_s,
               ratio(rep.work, rep.parallel_s), peak_rss_mb(), rep.ok ? 1 : 0);
}

/// Median of each per-layer value over the reps that passed their check.
Values median_layers(const std::vector<Rep>& reps) {
  std::map<std::string, std::vector<double>> all;
  for (const auto& r : reps) {
    if (!r.ok) continue;
    for (const auto& [k, v] : r.layer) all[k].push_back(v);
  }
  Values out;
  for (auto& [k, v] : all) out[k] = median(std::move(v));
  return out;
}

std::vector<double> field(const std::vector<Rep>& reps,
                          double (*get)(const Rep&)) {
  std::vector<double> out;
  for (const auto& r : reps) {
    if (r.ok) out.push_back(get(r));
  }
  return out;
}

double ops_of(const Rep& r) { return ratio(r.work, r.parallel_s); }
double setup_of(const Rep& r) { return r.setup_s; }

void print_result(const Tally& t, const MetricDef* defs, std::size_t n,
                  const Values& values) {
  std::string s = "{\"correct\": ";
  s += t.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    s += (i == 0 ? "" : ", ") + json_str(defs[i].name) + ": {\"value\": " +
         num(it != values.end() ? it->second : 0.0) +
         ", \"unit\": " + json_str(defs[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return usage("bad arguments");
  Spec spec;
  if (!make_spec(args.workload, args.quick, &spec)) {
    return usage("unknown workload");
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizer = sanitizer_name();
  if (build_type != "Release" || !sanitizer.empty() || !ndebug()) {
    std::fprintf(stderr,
                 "mrts_perfbench: refusing to record numbers from a '%s' "
                 "build (sanitizer '%s', NDEBUG %d); configure with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 build_type.c_str(), sanitizer.c_str(), ndebug() ? 1 : 0);
    return 3;
  }

  const auto start = Clock::now();
  const bool mesh = spec.kind != Kind::kHop;
  const Domain domain = mesh ? make_domain(spec, args.seed) : Domain{};
  const std::size_t routes = args.trace ? spec.traced_routes : spec.routes;
  std::vector<pumg::Subdomain> final_subs;
  const auto run_rep = [&](bool keep) {
    return guarded([&] {
      return mesh ? mesh_rep(spec, domain, args.perturb,
                             keep ? &final_subs : nullptr)
                  : hop_rep(spec, args.seed, routes, args.perturb);
    });
  };

  Tally tally;
  std::vector<Rep> reps;  // measured untraced reps (warm-up excluded)
  Values values;
  std::size_t ring = spec.ring;
  TraceSummary trace;
  ProbeInfo probes;

  // Peak RSS comes from child processes forked before this process starts
  // its first thread.
  std::vector<double> rss;
  for (std::size_t children = 0; !args.trace; ++children) {
    if (children >= 3 && seconds_since(start) * (children + 1) / children >
                             kRssShare * args.seconds) {
      break;
    }
    const double mb = rss_rep([&] { return run_rep(false); });
    ++tally.attempted;
    if (mb < 0) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: peak-RSS rep FAILED\n");
    } else {
      rss.push_back(mb);
      std::fprintf(stderr, "perfbench: peak-RSS rep %.1f MB\n", mb);
    }
  }

  // Untraced reps. With --trace 0 they fill the whole run; with --trace 1
  // they fill 30% of it, traced reps the next 30%, and the probes the
  // rest. At least one warm-up rep and two measured reps always run.
  const double untraced_share = args.trace ? 0.3 : 1.0;
  {
    const auto w0 = Clock::now();
    const Rep warm = run_rep(false);
    double last = seconds_since(w0);
    tally.add(warm, "warm-up");
    log_rep("warm-up", warm);
    while (true) {
      const double elapsed = seconds_since(start);
      if (reps.size() >= 2 &&
          elapsed + last > untraced_share * args.seconds) {
        break;
      }
      const auto t0 = Clock::now();
      reps.push_back(run_rep(mesh && args.trace));
      last = seconds_since(t0);
      tally.add(reps.back(), "untraced");
      log_rep("untraced", reps.back());
    }
  }
  const double untraced_ops = median(field(reps, ops_of));

  if (!args.trace) {
    values["ops_per_s"] = untraced_ops;
    values["setup_s"] = median(field(reps, setup_of));
    values["peak_rss_mb"] = median(rss);
  } else {
    values = median_layers(reps);
    // Traced reps: grow the ring until a rep records with zero drops, then
    // keep repeating until 60% of the run is spent (at least two reps).
    std::vector<double> traced_ops;
    std::vector<Values> traced_layers;
    std::size_t traced_reps = 0;
    auto& tr = obs::TraceRecorder::global();
    while (true) {
      ++traced_reps;
      tr.enable({.ring_capacity = ring});
      Rep rep = run_rep(false);
      tr.disable();
      TraceSummary t = fold_trace(tr.dump());
      tr.reset();
      if (rep.ok && t.dropped == 0) {
        rep.error = check_spans(spec, t);
        rep.ok = rep.error.empty();
      }
      tally.add(rep, "traced");
      log_rep("traced", rep);
      std::fprintf(stderr,
                   "perfbench: traced rep ring=%zu events=%llu dropped=%llu "
                   "max_thread_events=%llu\n",
                   ring, static_cast<unsigned long long>(t.events),
                   static_cast<unsigned long long>(t.dropped),
                   static_cast<unsigned long long>(t.max_thread_events));
      if (t.dropped > 0) {
        if (ring >= kMaxRing) {
          ++tally.attempted;
          ++tally.failed;
          std::fprintf(stderr, "perfbench: trace drops at the largest ring\n");
          break;
        }
        ring = std::min(kMaxRing, std::bit_ceil(t.max_thread_events * 5 / 4));
        continue;
      }
      if (rep.ok) {
        traced_ops.push_back(ops_of(rep));
        traced_layers.push_back(trace_metrics(spec, t));
        trace = std::move(t);
      }
      if (traced_reps >= 2 && seconds_since(start) > 0.6 * args.seconds) {
        break;
      }
    }
    std::map<std::string, std::vector<double>> all;
    for (const auto& v : traced_layers) {
      for (const auto& [k, x] : v) all[k].push_back(x);
    }
    for (auto& [k, x] : all) values[k] = median(std::move(x));
    // The last zero-drop traced rep's fold, for reading where time went.
    for (const auto& [name, f] : trace.spans) {
      std::fprintf(stderr,
                   "perfbench: span %-18s count=%llu total_s=%.4f "
                   "self_s=%.4f\n",
                   name.c_str(), static_cast<unsigned long long>(f.count),
                   f.total_s, f.self_s);
    }
    if (!traced_ops.empty()) {
      values["obs.trace_overhead_pct"] =
          100.0 * (1.0 - ratio(median(traced_ops), untraced_ops));
    }

    if (mesh && !final_subs.empty()) {
      probes = run_probes(domain, final_subs, values);
      ++tally.attempted;
      if (!probes.round_trip_ok) {
        ++tally.failed;
        std::fprintf(stderr, "perfbench: probe round trip FAILED\n");
      }
    }
  }

  // Metadata line: build, host, and workload facts the numbers depend on.
  const Rep* last_ok = nullptr;
  for (const auto& r : reps) {
    if (r.ok) last_ok = &r;
  }
  const double budget = static_cast<double>(kNodes * spec.budget_bytes);
  std::string meta = "{";
  meta += "\"workload\": " + json_str(spec.name);
  meta += ", \"seed\": " + std::to_string(args.seed);
  meta += ", \"seconds\": " + num(args.seconds);
  meta += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  meta += ", \"quick\": " + std::string(args.quick ? "true" : "false");
  meta += ", \"nodes\": " + std::to_string(kNodes);
  meta += ", \"nproc\": " + std::to_string(nproc());
  meta += ", \"build_type\": " + json_str(build_type);
  meta += ", \"sanitizer\": " +
          json_str(sanitizer.empty() ? "none" : sanitizer);
  meta += ", \"trace_compiled_in\": " +
          std::string(obs::TraceRecorder::compiled_in() ? "true" : "false");
  meta += ", \"measured_reps\": " + std::to_string(reps.size());
  if (mesh) {
    meta += ", \"pinned_elements\": " + std::to_string(spec.pinned_elements);
    meta += ", \"element_tolerance\": " + num(kElementTolerance);
  } else {
    meta += ", \"routes\": " + std::to_string(routes);
  }
  meta += ", \"aggregate_budget_bytes\": " + num(budget);
  if (last_ok != nullptr) {
    meta += ", \"working_set_to_budget\": " +
            num(last_ok->working_set_bytes / budget);
    meta += ", \"spilled_bytes_to_budget\": " +
            num(last_ok->spilled_bytes / budget);
  }
  if (args.trace) {
    meta += ", \"trace_ring_events_per_thread\": " + std::to_string(ring);
    meta += ", \"trace_threads\": " + std::to_string(trace.threads);
    meta += ", \"trace_window_s\": " + num(trace.window_s);
    meta += ", \"trace_window\": \"first handler begin to last handler end\"";
    if (mesh) {
      meta += ", \"probe_buffers\": " + std::to_string(probes.buffers);
      meta += ", \"probe_total_mib\": " + num(probes.buffer_bytes / 1048576.0);
      meta += ", \"probe_max_buffer_mib\": " +
              num(probes.max_buffer_bytes / 1048576.0);
      meta += ", \"llc_mib\": " +
              num(static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) /
                  1048576.0);
      meta += ", \"filestore_probe\": \"sandbox page cache, not a device\"";
    }
    std::string na;
    for (const MetricDef& d : kPerLayer) {
      if (applicable(spec.kind, d.name)) continue;
      na += (na.empty() ? "" : ", ") + json_str(d.name);
    }
    meta += ", \"not_applicable\": [" + na + "]";
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());

  if (args.trace) {
    print_result(tally, kPerLayer, std::size(kPerLayer), values);
  } else {
    print_result(tally, kEndToEnd, std::size(kEndToEnd), values);
  }
  return 0;
}
