// Spill pipeline, runtime layer: clean-spill elision (an eviction of an
// object whose dirty generation matches its on-disk blob skips
// serialize+store entirely), the bounded write-behind budget for
// soft-pressure evictions, and write-behind reclaim (an object wanted back
// while its spill store still waits in the I/O queue is reinstalled from
// the queued bytes, with no device round trip). Also the accounting
// bugfixes that ride along: queued_messages_ stays exact across poison
// drops, a failed write-behind store can never leave an Entry claiming a
// blob identity for bytes that never landed, and destroying a spilling
// object leaves no blob behind. Last, the OOC drivers' end-of-run report
// pass: exact statistics, and no node pinning all of its cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "pumg/ooc.hpp"
#include "simnet/fabric.hpp"
#include "storage/mem_store.hpp"

namespace mrts::core {
namespace {

// Deterministic failure switchboard (same shape as core_recovery_test):
// each failure is scripted by the test, never drawn from seeded rates.
class FlakyStore final : public storage::StorageBackend {
 public:
  explicit FlakyStore(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  std::atomic<int> fail_next_loads{0};
  std::atomic<bool> fail_all_loads{false};
  std::atomic<bool> fail_all_stores{false};

  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    if (fail_all_stores.load()) {
      return util::Status(util::StatusCode::kIoError,
                          "injected hard store failure");
    }
    return inner_->store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    if (fail_all_loads.load()) {
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    if (fail_next_loads.load() > 0) {
      fail_next_loads.fetch_sub(1);
      return util::Status(util::StatusCode::kUnavailable,
                          "injected load failure");
    }
    return inner_->load(key);
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_->erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_->contains(key);
  }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override {
    return inner_->stored_bytes();
  }
  storage::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<storage::StorageBackend> inner_;
};

// Stores park on a gate until the test opens it; loads pass through. Lets a
// test hold a write-behind spill in flight for as long as it likes. Every
// store that reaches the backend and every load is logged by key.
class GatedStore final : public storage::StorageBackend {
 public:
  explicit GatedStore(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  void close_gate() {
    std::lock_guard lock(mu_);
    open_ = false;
  }
  void open_gate() {
    {
      std::lock_guard lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Stores waiting at the closed gate right now.
  int parked() const {
    std::lock_guard lock(mu_);
    return parked_;
  }
  std::size_t stores_of(MobilePtr p) const { return logged(stored_, p); }
  std::size_t loads_of(MobilePtr p) const { return logged(loaded_, p); }

  util::Status store(storage::ObjectKey key,
                     std::span<const std::byte> bytes) override {
    std::unique_lock lock(mu_);
    ++parked_;
    cv_.wait(lock, [&] { return open_; });
    --parked_;
    stored_.push_back(key);
    return inner_->store(key, bytes);
  }
  util::Result<std::vector<std::byte>> load(storage::ObjectKey key) override {
    {
      std::lock_guard lock(mu_);
      loaded_.push_back(key);
    }
    return inner_->load(key);
  }
  util::Status erase(storage::ObjectKey key) override {
    return inner_->erase(key);
  }
  bool contains(storage::ObjectKey key) const override {
    return inner_->contains(key);
  }
  std::size_t count() const override { return inner_->count(); }
  std::uint64_t stored_bytes() const override {
    return inner_->stored_bytes();
  }
  storage::BackendStats stats() const override { return inner_->stats(); }

 private:
  std::size_t logged(const std::vector<storage::ObjectKey>& log,
                     MobilePtr p) const {
    std::lock_guard lock(mu_);
    return static_cast<std::size_t>(std::count(log.begin(), log.end(), p.id));
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
  std::vector<storage::ObjectKey> stored_;
  std::vector<storage::ObjectKey> loaded_;
  std::unique_ptr<storage::StorageBackend> inner_;
};

class Box : public MobileObject {
 public:
  std::uint64_t value = 0;
  std::vector<std::uint64_t> data;

  void serialize(util::ByteWriter& out) const override {
    out.write(value);
    out.write_vector(data);
  }
  void deserialize(util::ByteReader& in) override {
    value = in.read<std::uint64_t>();
    data = in.read_vector<std::uint64_t>();
  }
  std::size_t footprint_bytes() const override {
    return sizeof(Box) + data.size() * 8;
  }
};

struct Harness {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  FlakyStore* flaky = nullptr;  // owned by the runtime
  std::shared_ptr<storage::MemStore> checkpoint_store;
  std::unique_ptr<Runtime> rt;
  TypeId type = 0;
  HandlerId h_add = 0;
  HandlerId h_get = 0;  // read-only: must not dirty the object
  std::atomic<std::uint64_t> last_get{0};

  explicit Harness(std::size_t budget_kb, RuntimeOptions options = {},
                   bool with_checkpoint_store = false) {
    options.ooc.memory_budget_bytes = budget_kb << 10;
    options.storage_retry.max_retries = 0;  // one attempt: faults are scripted
    if (with_checkpoint_store) {
      checkpoint_store = std::make_shared<storage::MemStore>();
      options.recovery.checkpoint_store = checkpoint_store;
    }
    auto backend =
        std::make_unique<FlakyStore>(std::make_unique<storage::MemStore>());
    flaky = backend.get();
    rt = std::make_unique<Runtime>(0, fabric.endpoint(0), registry,
                                   std::move(backend), options);
    type = registry.register_type<Box>("box");
    h_add = registry.register_handler(
        type, [](Runtime&, MobileObject& obj, MobilePtr, NodeId,
                 util::ByteReader& in) {
          static_cast<Box&>(obj).value += in.read<std::uint64_t>();
        });
    h_get = registry.register_handler(
        type,
        [this](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) {
          last_get.store(static_cast<Box&>(obj).value);
        },
        /*read_only=*/true);
  }

  MobilePtr make_box(std::size_t words) {
    auto [ptr, box] = rt->create<Box>(type);
    box->data.assign(words, 3);
    rt->refresh_footprint(ptr);
    return ptr;
  }

  void pump(int max_iters = 100000) {
    int quiet = 0;
    for (int i = 0; i < max_iters && quiet < 3; ++i) {
      if (!rt->progress_once()) {
        if (rt->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
  }

  /// Touch every object in order (lock → pump → unlock → pump), cycling the
  /// whole set through core so each one reloads and is evicted again.
  void cycle_all(const std::vector<MobilePtr>& ptrs) {
    for (MobilePtr p : ptrs) {
      rt->lock_in_core(p);
      pump();
      rt->unlock(p);
      pump();
    }
    rt->flush_stores();
    pump();
  }

  MobilePtr find_cold(const std::vector<MobilePtr>& ptrs) {
    rt->flush_stores();
    for (MobilePtr p : ptrs) {
      if (!rt->is_in_core(p)) return p;
    }
    return kNullPtr;
  }

  static std::vector<std::byte> arg_u64(std::uint64_t v) {
    util::ByteWriter w;
    w.write(v);
    return w.take();
  }
};

// ---------------------------------------------------------------------------
// Clean-spill elision

TEST(SpillPipeline, CleanReloadEvictReloadElides) {
  Harness h(/*budget_kb=*/256);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();

  // Two warm passes: after them every box has a sealed blob on the backend
  // and nothing has been modified since its last (real) spill.
  h.cycle_all(ptrs);
  h.cycle_all(ptrs);

  const std::uint64_t bytes_before = h.rt->counters().bytes_spilled.load();
  const std::uint64_t elided_before = h.rt->counters().spills_elided.load();

  // Read-mostly pass: every reload→evict cycle must elide the store.
  for (MobilePtr p : ptrs) {
    h.rt->lock_in_core(p);
    h.pump();
    auto* obj = h.rt->peek(p);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(static_cast<Box&>(*obj).value, 0u);
    ASSERT_EQ(static_cast<Box&>(*obj).data.size(), 8000u);
    EXPECT_EQ(static_cast<Box&>(*obj).data[0], 3u);
    h.rt->unlock(p);
    h.pump();
  }
  h.rt->flush_stores();
  h.pump();

  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), bytes_before)
      << "a clean eviction serialized and stored bytes again";
  EXPECT_GT(h.rt->counters().spills_elided.load(), elided_before);
  EXPECT_GT(h.rt->counters().bytes_spill_elided.load(), 0u);
}

TEST(SpillPipeline, GoldenElisionCounters) {
  // Synchronous storage + a single object: the counter stream is exact.
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);  // ~12 KB: soft pressure at 16 KB
  h.pump();

  ASSERT_FALSE(h.rt->is_in_core(p)) << "soft pressure did not evict";
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);
  EXPECT_EQ(h.rt->counters().objects_spilled.load(), 1u);
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);

  h.rt->lock_in_core(p);
  h.pump();
  EXPECT_EQ(h.rt->counters().objects_loaded.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_loaded.load(), blob);

  h.rt->unlock(p);
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_spill_elided.load(), blob);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), blob)
      << "the elided eviction must not store bytes";
  EXPECT_EQ(h.rt->counters().objects_spilled.load(), 1u);

  // And the blob it elided against is still loadable with identical content.
  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 0u);
  EXPECT_EQ(static_cast<Box&>(*obj).data.size(), 1500u);
}

TEST(SpillPipeline, DirtyEvictionStoresAgain) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // Mutating handler bumps the dirty generation: the next eviction must
  // serialize and store a fresh blob.
  h.rt->send(p, h.h_add, Harness::arg_u64(5));
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), 2 * blob);

  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 5u);
}

TEST(SpillPipeline, ReadOnlyHandlerKeepsObjectClean) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // A handler registered read-only reloads the object but leaves its dirty
  // generation alone: the eviction after it elides.
  h.rt->send(p, h.h_get, Harness::arg_u64(0));
  h.pump();
  h.rt->flush_stores();
  h.pump();
  EXPECT_EQ(h.last_get.load(), 0u);
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 1u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), blob);
}

TEST(SpillPipeline, ForcedSpillModeDisablesElision) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  options.spill_elision = false;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  const std::uint64_t blob = h.rt->counters().bytes_spilled.load();
  ASSERT_GT(blob, 0u);

  // Forced-spill mode keeps the old contract: the blob is erased on reload
  // and every eviction stores again.
  h.rt->lock_in_core(p);
  h.pump();
  EXPECT_EQ(h.rt->spill_backend().count(), 0u)
      << "forced-spill mode must erase the blob when the object reloads";
  h.rt->unlock(p);
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spill_elided.load(), 0u);
  EXPECT_EQ(h.rt->counters().bytes_spilled.load(), 2 * blob);
}

TEST(SpillPipeline, ElidedEvictionStaysCheckpointRecoverable) {
  // The recovery ladder compares a checkpoint copy against the last-spill
  // CRC. An elided eviction reuses that blob identity untouched, so rung 2
  // must still accept the copy after any number of elided cycles.
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options, /*with_checkpoint_store=*/true);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  h.rt->lock_in_core(p);
  h.pump();
  h.rt->unlock(p);
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  ASSERT_EQ(h.rt->counters().spills_elided.load(), 1u);

  util::ByteWriter image;
  ASSERT_TRUE(h.rt->checkpoint_to(image).is_ok());
  ASSERT_TRUE(h.checkpoint_store->contains(p.id));

  h.flaky->fail_all_loads = true;
  h.rt->send(p, h.h_add, Harness::arg_u64(7));
  h.pump();
  EXPECT_EQ(h.rt->counters().checkpoint_recoveries.load(), 1u);
  EXPECT_EQ(h.rt->object_health(p), ObjectHealth::kHealthy);
  // Pressure may already have evicted the recovered object again (its
  // post-handler spill goes to the healthy store path); heal the device and
  // pull it back in to inspect the state.
  h.flaky->fail_all_loads = false;
  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 7u);
}

// ---------------------------------------------------------------------------
// Satellite 3: a failed write-behind store leaves no phantom blob identity

TEST(SpillPipeline, FailedStoreNeverLeavesElidableIdentity) {
  RuntimeOptions options;
  options.synchronous_storage = true;
  Harness h(/*budget_kb=*/16, options);
  const MobilePtr p = h.make_box(1500);
  h.pump();
  ASSERT_GT(h.rt->counters().bytes_spilled.load(), 0u);

  // Dirty the object, then fail every store: the eviction must reinstall
  // the object and wipe its blob identity — a later eviction must not elide
  // against the stale blob (that would silently roll `value` back to 0).
  // The pin keeps the object in core until the fault is armed, so the dirty
  // eviction cannot slip through on a healthy device.
  h.rt->lock_in_core(p);
  h.rt->send(p, h.h_add, Harness::arg_u64(5));
  h.pump();
  h.flaky->fail_all_stores = true;
  h.rt->unlock(p);
  h.pump(2000);
  EXPECT_GT(h.rt->counters().spills_reinstalled.load(), 0u);
  EXPECT_EQ(h.rt->object_health(p), ObjectHealth::kHealthy);

  h.flaky->fail_all_stores = false;
  const std::uint64_t bytes_before = h.rt->counters().bytes_spilled.load();
  h.pump();
  h.rt->flush_stores();
  h.pump();
  ASSERT_FALSE(h.rt->is_in_core(p));
  EXPECT_EQ(h.rt->counters().spills_elided.load(), 0u)
      << "an eviction elided against a blob that never landed";
  EXPECT_GT(h.rt->counters().bytes_spilled.load(), bytes_before);

  h.rt->lock_in_core(p);
  h.pump();
  auto* obj = h.rt->peek(p);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(static_cast<Box&>(*obj).value, 5u)
      << "reload served stale pre-mutation bytes";
}

// ---------------------------------------------------------------------------
// Write-behind budget

TEST(SpillPipeline, WriteBehindBudgetBoundsInFlightSpills) {
  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  RuntimeOptions options;
  options.ooc.memory_budget_bytes = 64u << 10;
  options.write_behind_max_bytes = 1;  // one soft-pressure spill at a time
  auto backend =
      std::make_unique<GatedStore>(std::make_unique<storage::MemStore>());
  GatedStore* gate = backend.get();
  Runtime rt(0, fabric.endpoint(0), registry, std::move(backend), options);
  const TypeId type = registry.register_type<Box>("box");

  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 6; ++i) {
    auto [ptr, box] = rt.create<Box>(type);
    box->data.assign(1000, 3);  // ~8 KB each: soft pressure, no hard pressure
    rt.refresh_footprint(ptr);
    ptrs.push_back(ptr);
  }

  gate->close_gate();
  // Re-open the gate no matter how the test exits: the runtime destructor
  // drains the store and would deadlock against a closed gate.
  struct GateGuard {
    GatedStore* g;
    ~GateGuard() { g->open_gate(); }
  } guard{gate};

  // Soft pressure wants several evictions, but with one store parked on the
  // gate the write-behind budget is exhausted: no further spill may issue.
  for (int i = 0; i < 400; ++i) {
    rt.progress_once();
    if (i % 32 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(rt.counters().objects_spilled.load(), 1u)
      << "soft pressure issued spills beyond the write-behind budget";
  EXPECT_EQ(rt.resident_objects(), 5u);
  EXPECT_GT(rt.write_behind_inflight_bytes(), 0u);

  gate->open_gate();
  int quiet = 0;
  for (int i = 0; i < 100000 && quiet < 3; ++i) {
    if (!rt.progress_once()) {
      if (rt.is_idle()) ++quiet;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      quiet = 0;
    }
  }
  rt.flush_stores();
  while (rt.progress_once()) {
  }
  EXPECT_EQ(rt.write_behind_inflight_bytes(), 0u);
  EXPECT_GE(rt.counters().objects_spilled.load(), 2u)
      << "draining the in-flight store should unblock the next eviction";
}

// ---------------------------------------------------------------------------
// Write-behind reclaim

// Threaded runtime over a GatedStore with two ~8 KB boxes, A and B. With
// the gate closed, hold_a_queue_b() spills both: A's store is popped by the
// I/O thread and held executing at the gate, B's waits in the I/O queue
// behind it.
struct GatedHarness {
  static constexpr std::uint64_t kUnseen = ~std::uint64_t{0};
  static constexpr std::size_t kRoomy = 1u << 20;
  static constexpr std::size_t kTight = 4096;  // smaller than one box

  net::Fabric fabric{1};
  ObjectTypeRegistry registry;
  GatedStore* gate = nullptr;  // owned by the runtime
  std::unique_ptr<Runtime> rt;
  TypeId type = 0;
  HandlerId h_see = 0;  // read-only: records the state it sees
  std::uint64_t seen_value = kUnseen;
  std::vector<std::uint64_t> seen_data;
  MobilePtr a, b;

  GatedHarness() {
    RuntimeOptions options;
    options.ooc.memory_budget_bytes = kRoomy;
    options.storage_retry.max_retries = 0;
    auto backend =
        std::make_unique<GatedStore>(std::make_unique<storage::MemStore>());
    gate = backend.get();
    rt = std::make_unique<Runtime>(0, fabric.endpoint(0), registry,
                                   std::move(backend), options);
    type = registry.register_type<Box>("box");
    // Handlers run on the thread driving progress_once: this one.
    h_see = registry.register_handler(
        type,
        [this](Runtime&, MobileObject& obj, MobilePtr, NodeId,
               util::ByteReader&) {
          seen_value = static_cast<Box&>(obj).value;
          seen_data = static_cast<Box&>(obj).data;
        },
        /*read_only=*/true);
    a = make_box(1);
    b = make_box(2);
    // A is always the first victim, so its store is the one that executes.
    rt->set_priority(a, kDefaultPriority - 1);
  }
  // The runtime's destructor drains the store: never leave the gate shut.
  ~GatedHarness() { gate->open_gate(); }

  MobilePtr make_box(std::uint64_t fill) {
    auto [ptr, box] = rt->create<Box>(type);
    box->data.assign(1000, fill);
    rt->refresh_footprint(ptr);
    return ptr;
  }

  void set_value(MobilePtr p, std::uint64_t value) {
    static_cast<Box&>(*rt->peek(p)).value = value;
    rt->refresh_footprint(p);  // marks it dirty
  }

  /// Spills every idle in-core box (A before B), then restores the roomy
  /// budget so whatever is reinstalled or reloaded afterwards stays in.
  void evict_all() {
    rt->set_memory_budget(kTight);
    rt->set_memory_budget(kRoomy);
  }

  template <typename Pred>
  bool pump_until(Pred done, int max_iters = 40000) {
    for (int i = 0; i < max_iters && !done(); ++i) {
      if (!rt->progress_once()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return done();
  }

  /// Opens the gate and runs until every store has landed and been drained.
  void settle() {
    gate->open_gate();
    rt->flush_stores();
    int quiet = 0;
    pump_until([&] {
      quiet = rt->is_idle() ? quiet + 1 : 0;
      return quiet >= 3;
    });
  }

  void hold_a_queue_b() {
    gate->close_gate();
    evict_all();
    ASSERT_FALSE(rt->is_in_core(a));
    ASSERT_FALSE(rt->is_in_core(b));
    for (int i = 0; i < 20000 && gate->parked() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_EQ(gate->parked(), 1) << "A's store never reached the gate";
  }

  /// Gives A and B a landed blob each (value 0), reloads them (spill
  /// elision keeps those blobs on the backend) and dirties them, so their
  /// next spills supersede an older blob.
  void land_reload_and_dirty(std::uint64_t a_value, std::uint64_t b_value) {
    evict_all();
    settle();
    rt->lock_in_core(a);
    rt->lock_in_core(b);
    ASSERT_TRUE(pump_until([&] { return rt->is_in_core(a) && rt->is_in_core(b); }));
    rt->unlock(a);
    rt->unlock(b);
    set_value(a, a_value);
    set_value(b, b_value);
  }

  /// Sends the read-only probe to `p` and runs until its handler ran.
  bool see(MobilePtr p) {
    seen_value = kUnseen;
    rt->send(p, h_see, std::vector<std::byte>{});
    return pump_until([&] { return seen_value != kUnseen; });
  }

  static std::uint64_t reclaims() {
    return obs::MetricsRegistry::global().counter("ooc.reclaims").value();
  }
};

TEST(SpillPipeline, MessageToAQueuedSpillIsServedByReclaim) {
  GatedHarness h;
  h.set_value(h.b, 42);
  const std::uint64_t reclaims = GatedHarness::reclaims();
  h.hold_a_queue_b();

  ASSERT_TRUE(h.see(h.b));
  EXPECT_EQ(h.seen_value, 42u);
  EXPECT_EQ(h.seen_data, std::vector<std::uint64_t>(1000, 2));
  EXPECT_EQ(GatedHarness::reclaims() - reclaims, 1u);
  EXPECT_TRUE(h.rt->is_in_core(h.b));
  EXPECT_FALSE(h.rt->is_in_core(h.a)) << "A's store is still at the gate";
  EXPECT_EQ(h.gate->loads_of(h.b), 0u)
      << "the reclaim read the blob back from the device";

  h.settle();
  EXPECT_EQ(h.gate->stores_of(h.b), 0u) << "the reclaimed store ran anyway";
  EXPECT_EQ(h.gate->stores_of(h.a), 1u);
  EXPECT_EQ(h.rt->spill_backend().count(), 1u);
  // The OOC layer's blob sizes describe the backend: only A's blob is there.
  EXPECT_EQ(h.rt->largest_spilled_bytes(), h.rt->spill_backend().stored_bytes());
  EXPECT_EQ(h.rt->write_behind_inflight_bytes(), 0u);
}

TEST(SpillPipeline, ReclaimNeedsNoFreeLoadSlot) {
  // C and D have landed blobs; A's store holds the single I/O thread at the
  // gate and B's store waits behind it. Messages to C and D start two
  // loads that cannot finish, filling both load slots. A reclaim reads
  // nothing from the device, so B must still be served from its queued
  // bytes while the gate stays shut.
  GatedHarness h;
  const MobilePtr c = h.make_box(3);
  const MobilePtr d = h.make_box(4);
  h.land_reload_and_dirty(10, 20);
  ASSERT_FALSE(h.rt->is_in_core(c));
  ASSERT_FALSE(h.rt->is_in_core(d));
  const std::size_t b_loads = h.gate->loads_of(h.b);
  const std::uint64_t reclaims = GatedHarness::reclaims();
  h.hold_a_queue_b();

  h.rt->send(c, h.h_see, std::vector<std::byte>{});
  h.rt->send(d, h.h_see, std::vector<std::byte>{});
  for (int i = 0; i < 50; ++i) h.rt->progress_once();
  ASSERT_EQ(h.seen_value, GatedHarness::kUnseen)
      << "C or D loaded past the shut gate";

  ASSERT_TRUE(h.see(h.b)) << "B waited for a load slot";
  EXPECT_EQ(h.seen_value, 20u);
  EXPECT_EQ(GatedHarness::reclaims() - reclaims, 1u);
  EXPECT_EQ(h.gate->loads_of(h.b), b_loads);
  EXPECT_FALSE(h.rt->is_in_core(c));
  EXPECT_FALSE(h.rt->is_in_core(d));

  h.settle();
  EXPECT_TRUE(h.rt->is_in_core(c));
  EXPECT_TRUE(h.rt->is_in_core(d));
  EXPECT_EQ(h.gate->stores_of(h.b), 1u) << "only B's first spill landed";
  EXPECT_EQ(h.rt->write_behind_inflight_bytes(), 0u);
}

TEST(SpillPipeline, MessageToAnExecutingSpillWaitsForItsStore) {
  GatedHarness h;
  h.set_value(h.a, 7);
  const std::uint64_t reclaims = GatedHarness::reclaims();
  h.hold_a_queue_b();

  h.rt->send(h.a, h.h_see, std::vector<std::byte>{});
  for (int i = 0; i < 200; ++i) {
    h.rt->progress_once();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_FALSE(h.rt->is_in_core(h.a));
  EXPECT_EQ(h.seen_value, GatedHarness::kUnseen);

  h.gate->open_gate();
  ASSERT_TRUE(h.pump_until([&] { return h.seen_value != GatedHarness::kUnseen; }));
  EXPECT_EQ(h.seen_value, 7u);
  EXPECT_EQ(h.seen_data, std::vector<std::uint64_t>(1000, 1));
  EXPECT_EQ(GatedHarness::reclaims() - reclaims, 0u);
  EXPECT_EQ(h.gate->stores_of(h.a), 1u);
  EXPECT_EQ(h.gate->loads_of(h.a), 1u);
}

TEST(SpillPipeline, ReclaimedObjectStoresFreshBytesAndElidesOnlyWhatLanded) {
  GatedHarness h;
  h.land_reload_and_dirty(10, 20);
  h.hold_a_queue_b();
  ASSERT_TRUE(h.see(h.b));
  ASSERT_EQ(h.seen_value, 20u);
  h.settle();
  ASSERT_TRUE(h.rt->is_in_core(h.b));
  ASSERT_EQ(h.gate->stores_of(h.b), 1u);  // the first blob only

  // B is unmodified since the reclaim, but the blob on the backend is the
  // older one (value 0): this eviction must store, not elide.
  const std::uint64_t spilled = h.rt->counters().objects_spilled.load();
  const std::uint64_t elided = h.rt->counters().spills_elided.load();
  h.evict_all();
  h.settle();
  EXPECT_EQ(h.rt->counters().objects_spilled.load(), spilled + 1);
  EXPECT_EQ(h.rt->counters().spills_elided.load(), elided)
      << "an eviction elided against a blob older than the object";
  EXPECT_EQ(h.gate->stores_of(h.b), 2u);

  // The fresh blob reloads byte-equal...
  ASSERT_TRUE(h.see(h.b));
  EXPECT_EQ(h.seen_value, 20u);
  EXPECT_EQ(h.seen_data, std::vector<std::uint64_t>(1000, 2));
  // ...and, now that it has landed, the next clean eviction elides against
  // it and the reload after that still serves it.
  h.evict_all();
  h.settle();
  EXPECT_EQ(h.rt->counters().spills_elided.load(), elided + 1);
  EXPECT_EQ(h.gate->stores_of(h.b), 2u);
  ASSERT_TRUE(h.see(h.b));
  EXPECT_EQ(h.seen_value, 20u);
  EXPECT_EQ(h.seen_data, std::vector<std::uint64_t>(1000, 2));
  EXPECT_EQ(h.rt->largest_spilled_bytes(), h.rt->spill_backend().stored_bytes() / 2);
}

TEST(SpillPipeline, DestroyingASpillingObjectLeavesNoBlobBehind) {
  GatedHarness h;
  h.land_reload_and_dirty(10, 20);  // both have an older blob on the backend
  h.hold_a_queue_b();
  h.rt->destroy(h.b);  // queued store: taken back and dropped
  h.rt->destroy(h.a);  // executing store: lands after destroy's erase
  h.settle();
  EXPECT_EQ(h.gate->stores_of(h.b), 1u)
      << "B's queued store ran after its object was destroyed";
  EXPECT_EQ(h.rt->spill_backend().count(), 0u);
  EXPECT_EQ(h.rt->spill_backend().stored_bytes(), 0u);
  EXPECT_EQ(h.rt->largest_spilled_bytes(), 0u);
  EXPECT_EQ(h.rt->write_behind_inflight_bytes(), 0u);
  EXPECT_EQ(h.rt->local_objects(), 0u);
}

TEST(SpillPipeline, OpcdmUnderTheDeviceModelConformsOnTheThreadedDriver) {
  // The Table VI device model makes spill stores queue behind one another,
  // which is when reclaims happen; the mesh must not notice.
  const pumg::MeshProblem problem{
      mesh::make_unit_square(),
      {.min_angle_deg = 20.0, .size_field = mesh::uniform_size(0.02)}};
  ClusterOptions cluster;
  cluster.nodes = 2;
  cluster.runtime.ooc.memory_budget_bytes = 128u << 10;
  cluster.spill = SpillMedium::kMemory;
  cluster.disk_model = storage::DeviceModel{
      .access_latency = std::chrono::microseconds(5000),
      .bandwidth_bytes_per_sec = 50e6};
  cluster.max_run_time = std::chrono::seconds(120);
  std::vector<pumg::Subdomain> subs;
  pumg::Decomposition decomp;
  const auto ooc = pumg::run_opcdm_ooc(
      problem, pumg::OpcdmOocConfig{.cluster = cluster, .strips = 16}, &subs,
      &decomp);
  ASSERT_FALSE(ooc.report.timed_out);
  EXPECT_GT(ooc.objects_spilled, 0u);
  EXPECT_EQ(ooc.objects_poisoned, 0u);
  EXPECT_TRUE(pumg::check_conformity(decomp, subs).empty())
      << pumg::check_conformity(decomp, subs);
  EXPECT_NEAR(ooc.mesh.total_area, 1.0, 1e-9);
  std::printf("%s\n", ooc.summary().c_str());
}

// ---------------------------------------------------------------------------
// Satellite 2: queued_messages_ accounting across poison drops

TEST(SpillPipeline, PoisonedObjectLeavesQueueAccountingClean) {
  Harness h(/*budget_kb=*/256);
  std::vector<MobilePtr> ptrs;
  for (int i = 0; i < 8; ++i) ptrs.push_back(h.make_box(8000));
  h.pump();
  const MobilePtr cold = h.find_cold(ptrs);
  ASSERT_FALSE(cold.is_null()) << "budget did not force any spills";

  // Dead device, no checkpoint store: the ladder bottoms out at poison with
  // three messages sitting in the object's queue. All three must be dropped
  // AND accounted — the queued_messages gauge returns to zero.
  h.flaky->fail_all_loads = true;
  for (int i = 0; i < 3; ++i) h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();

  EXPECT_EQ(h.rt->object_health(cold), ObjectHealth::kPoisoned);
  EXPECT_EQ(h.rt->counters().poisoned_messages_dropped.load(), 3u);
  EXPECT_EQ(h.rt->queued_messages(), 0u)
      << "poison drop leaked queued_messages_ accounting";
  EXPECT_TRUE(h.rt->is_idle());

  // Sends to an already-poisoned object drop on arrival and must not move
  // the gauge either.
  h.rt->send(cold, h.h_add, Harness::arg_u64(1));
  h.pump();
  EXPECT_EQ(h.rt->counters().poisoned_messages_dropped.load(), 4u);
  EXPECT_EQ(h.rt->queued_messages(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite 1: the hard threshold deflates when the largest blob leaves

TEST(SpillPipeline, MigrationAwayRestoresSpillThreshold) {
  net::Fabric fabric{2};
  ObjectTypeRegistry registry;
  RuntimeOptions options;
  options.ooc.memory_budget_bytes = 64u << 10;
  auto mk = [&](NodeId node) {
    return std::make_unique<Runtime>(node, fabric.endpoint(node), registry,
                                     std::make_unique<storage::MemStore>(),
                                     options);
  };
  auto rt0 = mk(0);
  auto rt1 = mk(1);
  const TypeId type = registry.register_type<Box>("box");

  auto pump_both = [&] {
    int quiet = 0;
    for (int i = 0; i < 100000 && quiet < 3; ++i) {
      const bool did = rt0->progress_once() | rt1->progress_once();
      if (!did) {
        if (rt0->is_idle() && rt1->is_idle()) ++quiet;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        quiet = 0;
      }
    }
    rt0->flush_stores();
    rt1->flush_stores();
  };

  // Four small boxes pinned in core plus one huge one-off: pressure can
  // only evict the huge box, which then dominates the hard threshold.
  std::vector<MobilePtr> small;
  for (int i = 0; i < 4; ++i) {
    auto [ptr, box] = rt0->create<Box>(type);
    box->data.assign(1200, 3);
    rt0->refresh_footprint(ptr);
    rt0->lock_in_core(ptr);
    small.push_back(ptr);
  }
  auto [huge, hbox] = rt0->create<Box>(type);
  hbox->data.assign(6000, 3);  // ~48 KB blob
  rt0->refresh_footprint(huge);
  pump_both();
  ASSERT_FALSE(rt0->is_in_core(huge)) << "pressure did not evict the huge box";
  const std::size_t huge_blob = rt0->largest_spilled_bytes();
  ASSERT_GT(huge_blob, 40000u);

  // Migrating the one-off away must shrink the threshold back: the huge
  // blob leaves node 0's backend with the object.
  rt0->migrate(huge, 1);
  pump_both();
  ASSERT_TRUE(rt1->is_local(huge));
  EXPECT_EQ(rt0->largest_spilled_bytes(), 0u)
      << "the one-off blob left but the threshold stayed inflated";

  // A later small spill re-establishes a threshold sized to what actually
  // lives on the backend now.
  rt0->unlock(small[0]);
  pump_both();
  ASSERT_FALSE(rt0->is_in_core(small[0]))
      << "soft pressure should evict the unlocked small box";
  EXPECT_GT(rt0->largest_spilled_bytes(), 0u);
  EXPECT_LT(rt0->largest_spilled_bytes(), 20000u);
}

// ---------------------------------------------------------------------------
// End-of-run report pass: every OOC driver reduces its mesh statistics
// through one read-only report message per cell, merged in index order.

enum class Method { kOupdr, kOpcdm, kOnupdr, kOnupdrMulticast };

constexpr double kGoalDeg = 20.0;

pumg::MeshProblem report_problem() {
  return {mesh::make_pipe_section(1.0, 0.45, 48),
          {.min_angle_deg = kGoalDeg, .size_field = mesh::uniform_size(0.05)}};
}

pumg::OocRunResult run_method(Method method, bool deterministic,
                              std::vector<pumg::Subdomain>* subs) {
  ClusterOptions cluster;
  cluster.nodes = 2;
  // Small enough that every method swaps. The multicast variant needs room
  // to collect a leaf and its neighbours on one node.
  cluster.runtime.ooc.memory_budget_bytes = 192u << 10;
  cluster.spill = SpillMedium::kMemory;
  cluster.deterministic = deterministic;
  cluster.max_run_time = std::chrono::seconds(120);
  const auto problem = report_problem();
  switch (method) {
    case Method::kOupdr:
      return pumg::run_oupdr_ooc(
          problem, {.cluster = cluster, .nx = 4, .ny = 4}, subs);
    case Method::kOpcdm:
      return pumg::run_opcdm_ooc(problem,
                                 {.cluster = cluster, .strips = 12}, subs);
    case Method::kOnupdr:
    case Method::kOnupdrMulticast:
      return pumg::run_onupdr_ooc(
          problem,
          {.cluster = cluster,
           .leaf_element_budget = 200,
           .use_multicast = method == Method::kOnupdrMulticast},
          subs);
  }
  return {};
}

pumg::MeshRunStats serial_fold(const std::vector<pumg::Subdomain>& subs) {
  pumg::MeshRunStats stats;
  stats.quality_goal_deg = kGoalDeg;
  for (const auto& sub : subs) pumg::accumulate_stats(stats, sub);
  return stats;
}

void expect_same_stats(const pumg::MeshRunStats& got,
                       const pumg::MeshRunStats& want) {
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.vertices, want.vertices);
  EXPECT_EQ(got.cells, want.cells);
  EXPECT_EQ(got.below_goal, want.below_goal);
  EXPECT_EQ(got.total_area, want.total_area);
  EXPECT_EQ(got.min_angle_deg, want.min_angle_deg);
  EXPECT_EQ(got.quality_goal_deg, want.quality_goal_deg);
}

class ReportPass
    : public ::testing::TestWithParam<std::tuple<Method, bool>> {};

TEST_P(ReportPass, StatsEqualTheIndexOrderedFoldOverTheCopiedSubdomains) {
  const auto [method, deterministic] = GetParam();
  std::vector<pumg::Subdomain> subs;
  const auto run = run_method(method, deterministic, &subs);
  ASSERT_FALSE(run.report.timed_out);
  EXPECT_GT(run.objects_spilled, 0u) << "the budget must force swapping";
  ASSERT_EQ(subs.size(), run.mesh.cells);
  expect_same_stats(run.mesh, serial_fold(subs));

  // Without out_subs the pass reports the same numbers. Only the
  // deterministic driver repeats a run exactly; a threaded run may apply
  // concurrent splits in another order and mesh differently.
  const auto bare = run_method(method, deterministic, nullptr);
  ASSERT_FALSE(bare.report.timed_out);
  if (deterministic) {
    expect_same_stats(bare.mesh, run.mesh);
  } else {
    EXPECT_EQ(bare.mesh.cells, run.mesh.cells);
    EXPECT_NEAR(bare.mesh.total_area, run.mesh.total_area, 1e-9);
  }
}

std::string report_pass_name(
    const ::testing::TestParamInfo<ReportPass::ParamType>& info) {
  static constexpr const char* kNames[] = {"Oupdr", "Opcdm", "Onupdr",
                                           "OnupdrMulticast"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Deterministic" : "Threaded");
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, ReportPass,
    ::testing::Combine(::testing::Values(Method::kOupdr, Method::kOpcdm,
                                         Method::kOnupdr,
                                         Method::kOnupdrMulticast),
                       ::testing::Bool()),
    report_pass_name);

TEST(ReportPassBudget, SwappingOupdrKeepsEveryNodeBelowTheCellsItHosts) {
  // The report pass locks nothing, so no node ever holds all of its cells
  // at once: a pass that pinned them would peak at their sum.
  constexpr std::size_t kNodes = 2;
  constexpr std::size_t kBudget = 64u << 10;
  ClusterOptions cluster;
  cluster.nodes = kNodes;
  cluster.runtime.ooc.memory_budget_bytes = kBudget;
  cluster.spill = SpillMedium::kMemory;
  cluster.max_run_time = std::chrono::seconds(120);
  const pumg::MeshProblem problem{
      mesh::make_unit_square(),
      {.min_angle_deg = kGoalDeg, .size_field = mesh::uniform_size(0.02)}};
  std::vector<pumg::Subdomain> subs;
  const auto run = pumg::run_oupdr_ooc(
      problem, {.cluster = cluster, .nx = 4, .ny = 4}, &subs);
  ASSERT_FALSE(run.report.timed_out);
  ASSERT_EQ(run.migrations, 0u) << "cells must stay where they were created";

  // Cells are created round-robin. The copies' footprints are a lower
  // bound on the cells' in-core bytes (a copy has no spare capacity).
  std::vector<std::size_t> hosted(kNodes, 0);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    hosted[i % kNodes] += subs[i].footprint_bytes();
  }
  const std::size_t working_set = hosted[0] + hosted[1];
  ASSERT_GE(working_set, 2 * kNodes * kBudget)
      << "the working set must be at least twice the aggregate budget";
  EXPECT_LT(run.peak_in_core_bytes, std::min(hosted[0], hosted[1]))
      << "a node held every cell it hosts at once";
}

TEST(ReportPassStats, OnePassMatchesTheTwoPassDefinition) {
  // The pipe's arcs meet the grid borders at sharp angles, and a goal
  // above the refinement bound puts many triangles below it.
  const auto problem = report_problem();
  const auto decomp = pumg::make_grid(problem.domain, 3, 3);
  for (const double goal : {0.0, kGoalDeg, 30.0}) {
    pumg::MeshRunStats one_pass;
    one_pass.quality_goal_deg = goal;
    double min_ref = 180.0;
    std::size_t below_ref = 0;
    for (const auto& cell : decomp.cells) {
      pumg::Subdomain sub(problem.domain, cell.rect, cell.extra_border_points);
      (void)sub.refine(problem.refine);
      pumg::accumulate_stats(one_pass, sub);
      if (sub.inside_elements() > 0) {
        min_ref = std::min(min_ref, sub.min_inside_angle_deg());
      }
      if (goal > 0.0) {
        const auto& t = sub.tri();
        t.for_each_inside([&](mesh::TriId, const mesh::TriRec& rec) {
          if (mesh::min_angle_deg(t.point(rec.v[0]), t.point(rec.v[1]),
                                  t.point(rec.v[2])) < goal - 1e-9) {
            ++below_ref;
          }
        });
      }
    }
    EXPECT_EQ(one_pass.min_angle_deg, min_ref) << "goal " << goal;
    EXPECT_EQ(one_pass.below_goal, below_ref) << "goal " << goal;
    if (goal == 30.0) {
      EXPECT_GT(below_ref, 0u);
    } else if (goal == 0.0) {
      EXPECT_EQ(below_ref, 0u);
    }
  }
}

}  // namespace
}  // namespace mrts::core
