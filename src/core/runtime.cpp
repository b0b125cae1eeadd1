#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/sealed_blob.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace mrts::core {

// Spill and migration blobs carry their own CRC (storage::seal_blob) so
// corruption introduced anywhere between serialization and deserialization
// is detected at reload. The seal is the only envelope: backends store it
// as opaque bytes and a reload verifies it once (verified_payload). Storage
// seal failures are Status-handled by the recovery ladder; only the wire
// paths (migration install), where a bad seal means a broken transport
// rather than a sick disk, still treat it as fatal.
using storage::seal_blob;
using storage::sealed_blob_valid;
using storage::sealed_crc;
using storage::unseal_blob;
using storage::write_sealed;

Runtime::Runtime(NodeId node, net::Endpoint& endpoint,
                 const ObjectTypeRegistry& registry,
                 std::unique_ptr<storage::StorageBackend> spill_backend,
                 RuntimeOptions options)
    : node_(node),
      endpoint_(endpoint),
      registry_(registry),
      options_(options),
      ooc_hits_(&obs::MetricsRegistry::global().counter("ooc.hits")),
      ooc_misses_(&obs::MetricsRegistry::global().counter("ooc.misses")),
      ooc_evictions_(&obs::MetricsRegistry::global().counter("ooc.evictions")),
      ooc_elisions_(&obs::MetricsRegistry::global().counter("ooc.elisions")),
      ooc_reclaims_(&obs::MetricsRegistry::global().counter("ooc.reclaims")),
      ooc_reclaimed_bytes_(
          &obs::MetricsRegistry::global().counter("ooc.reclaimed_bytes")),
      ooc_(options.ooc),
      store_(std::move(spill_backend), &counters_.disk_time,
             storage::ObjectStoreOptions{
                 .retry = options.storage_retry,
                 .synchronous = options.synchronous_storage,
                 .trace_track = node}) {
  endpoint_.set_comm_accumulator(&counters_.comm_time);
  obs::MetricsRegistry::global()
      .gauge(util::format("ooc.budget_bytes.node{}", node))
      .set(static_cast<double>(options.ooc.memory_budget_bytes));
  register_am_handlers();
}

Runtime::~Runtime() { store_.drain(); }

void Runtime::register_am_handlers() {
  // Fault plans address channels by the named constants; the registration
  // order below is part of the wire contract.
  [[maybe_unused]] net::AmHandlerId id = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_deliver(src, in); });
  assert(id == kAmDeliver);
  id = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_location_update(src, in); });
  assert(id == kAmLocationUpdate);
  id = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_install(src, in); });
  assert(id == kAmInstall);
  id = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_migrate_request(src, in); });
  assert(id == kAmMigrateRequest);
  id = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { am_multicast(src, in); });
  assert(id == kAmMulticast);
  if (options_.reliable_net.enabled) {
    reliable_ = std::make_unique<net::ReliableLink>(
        endpoint_, options_.reliable_net,
        [this](NodeId src, net::AmHandlerId channel, util::ByteReader& in) {
          dispatch_reliable(src, channel, in);
        });
    assert(reliable_->data_handler_id() == kAmReliableData);
    assert(reliable_->ack_handler_id() == kAmReliableAck);
    // Transport escalation feeds the ledger (and through it HealthMonitor):
    // a peer that ate suspect_after retransmits of one frame is recorded as
    // a network failure, resolution kRetried — the link never gives up, it
    // just stops being silent about the spin.
    reliable_->set_suspect_callback(
        [this](NodeId peer, std::uint64_t seq, int retransmits) {
          ledger_.add(FailureRecord{
              .object = MobilePtr{},
              .node = node_,
              .op = FailureOp::kNetwork,
              .resolution = FailureResolution::kRetried,
              .cause = util::StatusCode::kUnavailable,
              .detail = util::format(
                  "peer {} unresponsive: seq {} retransmitted {} times", peer,
                  seq, retransmits),
          });
        });
  }
}

void Runtime::dispatch_reliable(NodeId src, net::AmHandlerId channel,
                                util::ByteReader& in) {
  switch (channel) {
    case kAmDeliver: am_deliver(src, in); return;
    case kAmLocationUpdate: am_location_update(src, in); return;
    case kAmInstall: am_install(src, in); return;
    case kAmMigrateRequest: am_migrate_request(src, in); return;
    case kAmMulticast: am_multicast(src, in); return;
    default:
      assert(false && "unknown inner channel in reliable frame");
  }
}

// --------------------------------------------------------------------------
// Directory access

Runtime::Entry& Runtime::entry_of(MobilePtr ptr) {
  auto it = directory_.find(ptr);
  if (it == directory_.end()) {
    throw std::logic_error("mrts: " + to_string(ptr) + " unknown on node " +
                           std::to_string(node_));
  }
  return it->second;
}

const Runtime::Entry* Runtime::find_entry(MobilePtr ptr) const {
  auto it = directory_.find(ptr);
  return it == directory_.end() ? nullptr : &it->second;
}

Runtime::Entry* Runtime::find_entry(MobilePtr ptr) {
  auto it = directory_.find(ptr);
  return it == directory_.end() ? nullptr : &it->second;
}

// --------------------------------------------------------------------------
// Object lifetime

MobilePtr Runtime::adopt(TypeId type, std::unique_ptr<MobileObject> obj) {
  assert(obj != nullptr);
  const MobilePtr ptr = MobilePtr::make(node_, next_seq_++);
  const std::size_t fp = obj->footprint_bytes();
  while (ooc_.hard_pressure(fp) && spill_one_victim()) {
  }
  Entry e;
  e.state = Residency::kInCore;
  e.type = type;
  e.obj = std::move(obj);
  e.footprint = fp;
  e.epoch = 1;
  auto [it, inserted] = directory_.emplace(ptr, std::move(e));
  assert(inserted);
  hosted_objects_.fetch_add(1, std::memory_order_acq_rel);
  ooc_.on_install(ptr.id, fp);
  it->second.obj->on_register(*this, ptr);
  counters_.objects_created.fetch_add(1, std::memory_order_relaxed);
  bump_activity();
  return ptr;
}

void Runtime::destroy(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: destroy() on a remote object");
  }
  if (e.running) {
    throw std::logic_error("mrts: destroy() on an object running a handler");
  }
  if (e.state == Residency::kInCore) {
    e.obj->on_unregister(*this);
    ooc_.on_remove(ptr.id);
  }
  // A spill still queued is taken back and its bytes dropped. One that
  // already ran (or is running) lands its blob; the erase below removes it,
  // and the completion, finding no entry, erases again after a late landing.
  bool on_backend = e.blob_bytes > 0;
  if (e.state == Residency::kStoring) {
    on_backend |= !take_back_spill(ptr).has_value();
  }
  if (on_backend) store_.erase(ptr.id);  // ignore kNotFound
  ooc_.on_spill_erased(ptr.id);
  if (options_.recovery.checkpoint_store) {
    options_.recovery.checkpoint_store->erase(ptr.id);  // drop stale copy
  }
  sub_queued(e.queue.size());
  directory_.erase(ptr);
  hosted_objects_.fetch_sub(1, std::memory_order_acq_rel);
  bump_activity();
}

// --------------------------------------------------------------------------
// Messaging

void Runtime::send(MobilePtr dst, HandlerId handler,
                   std::vector<std::byte> payload) {
  Entry* e = find_entry(dst);
  if (e == nullptr) {
    if (dst.home_node() == node_) {
      MRTS_LOG_WARN("node {}: dropping message to destroyed {}", node_,
                    to_string(dst));
      return;
    }
    auto [it, ignored] = directory_.emplace(dst, Entry{});
    it->second.state = Residency::kRemote;
    it->second.last_known = dst.home_node();
    e = &it->second;
  }
  if (e->state == Residency::kRemote) {
    counters_.messages_sent_remote.fetch_add(1, std::memory_order_relaxed);
    route_remote(dst, handler, node_, {node_}, std::move(payload));
    return;
  }
  counters_.messages_sent_local.fetch_add(1, std::memory_order_relaxed);
  enqueue_local(*e, dst,
                QueuedMessage{handler, node_, std::move(payload)});
}

void Runtime::route_remote(MobilePtr dst, HandlerId handler, NodeId origin,
                           std::vector<NodeId> route,
                           std::vector<std::byte> payload) {
  Entry* e = find_entry(dst);
  const NodeId next = reroute_if_departed(
      (e != nullptr && e->state == Residency::kRemote) ? e->last_known
                                                       : dst.home_node(),
      dst);
  net_send_with(next, kAmDeliver, payload.size() + 64,
                [&](util::ByteWriter& w) {
                  w.write(dst.id);
                  w.write(handler);
                  w.write(origin);
                  w.write_vector(route);
                  w.write_vector(payload);
                });
}

void Runtime::am_deliver(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr dst{in.read<std::uint64_t>()};
  const auto handler = in.read<HandlerId>();
  const auto origin = in.read<NodeId>();
  auto route = in.read_vector<NodeId>();
  auto payload = in.read_vector<std::byte>();

  Entry* e = find_entry(dst);
  if (e == nullptr || e->state == Residency::kRemote) {
    if (e == nullptr && dst.home_node() == node_) {
      MRTS_LOG_WARN("node {}: dropping routed message to destroyed {}", node_,
                    to_string(dst));
      return;
    }
    counters_.messages_forwarded.fetch_add(1, std::memory_order_relaxed);
    route.push_back(node_);
    route_remote(dst, handler, origin, std::move(route), std::move(payload));
    return;
  }
  // Delivered. Lazy directory maintenance: everyone who relayed (or sent)
  // this message using a stale location learns the current one.
  if (options_.lazy_location_updates && route.size() > 1) {
    for (NodeId n : route) {
      // Down peers never poll: an update frame would park in their inbox
      // (crash) or rot forever (departed). The membership handoff seeds
      // them with fresher knowledge when they matter again.
      if (n == node_ || !peer_up(n)) continue;
      net_send_with(n, kAmLocationUpdate, 24, [&](util::ByteWriter& w) {
        w.write(dst.id);
        w.write(node_);
        w.write<std::uint64_t>(e->epoch);
      });
      counters_.location_updates.fetch_add(1, std::memory_order_relaxed);
    }
  }
  QueuedMessage msg{handler, origin, std::move(payload)};
  msg.hops = static_cast<std::uint32_t>(route.size() - 1);
  enqueue_local(*e, dst, std::move(msg));
}

void Runtime::am_location_update(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr ptr{in.read<std::uint64_t>()};
  const auto where = in.read<NodeId>();
  const auto epoch = in.read<std::uint64_t>();
  Entry* e = find_entry(ptr);
  if (e == nullptr) {
    auto [it, ignored] = directory_.emplace(ptr, Entry{});
    it->second.state = Residency::kRemote;
    it->second.last_known = where;
    it->second.epoch = epoch;
    return;
  }
  // Only strictly fresher knowledge may move the pointer. A delayed update
  // from an older installation must not regress the directory: applying it
  // can form a forwarding cycle between two non-hosts (observed as a message
  // ping-ponging forever under the chaos harness's delay fault).
  if (e->state == Residency::kRemote && epoch > e->epoch) {
    e->last_known = where;
    e->epoch = epoch;
  }
}

void Runtime::enqueue_local(Entry& e, MobilePtr ptr, QueuedMessage msg) {
  if (e.poisoned) {
    // Quarantined object: its state is lost, messages to it are dropped and
    // counted (the application sees kPoisoned via object_health()).
    counters_.poisoned_messages_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (e.state == Residency::kInCore) {
    ooc_hits_->inc();
  } else {
    ooc_misses_->inc();
  }
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (tr.enabled()) msg.enq_ts = tr.now();
  e.queue.push_back(std::move(msg));
  queued_messages_.fetch_add(1, std::memory_order_acq_rel);
  bump_activity();
  if (e.state == Residency::kInCore) {
    ooc_.on_access(ptr.id);
    push_ready(e, ptr);
  } else {
    want_load(e, ptr);  // kLoading: finish_load re-examines the queue
  }
}

bool Runtime::want_load(Entry& e, MobilePtr ptr) {
  if (e.state != Residency::kOnDisk && e.state != Residency::kStoring) {
    return false;
  }
  e.load_wanted = true;
  // Under synchronous storage a kStoring object's store has already run
  // (only its completion is pending), so there is nothing to reclaim: the
  // completion queues the load, exactly as for a store that is executing.
  if (e.load_queued ||
      (e.state == Residency::kStoring && options_.synchronous_storage)) {
    return false;
  }
  e.load_queued = true;
  load_queue_.push_back(ptr);
  return true;
}

void Runtime::push_ready(Entry& e, MobilePtr ptr) {
  if (!e.in_ready_list) {
    e.in_ready_list = true;
    ready_.push_back(ptr);
  }
}

bool Runtime::try_deliver_inline(MobilePtr dst, HandlerId handler,
                                 std::span<const std::byte> payload) {
  Entry* e = find_entry(dst);
  if (e == nullptr || e->state != Residency::kInCore || e->running) {
    return false;
  }
  counters_.inline_deliveries.fetch_add(1, std::memory_order_relaxed);
  run_handler(dst, *e, handler, node_, payload, "handler.inline");
  after_handler_accounting(dst, *e);
  return true;
}

// --------------------------------------------------------------------------
// Out-of-core control

void Runtime::lock_in_core(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: lock_in_core() on a remote object");
  }
  ++e.lock_count;
  if (e.poisoned) return;  // nothing loadable; health says kPoisoned
  if (want_load(e, ptr)) bump_activity();
}

void Runtime::unlock(MobilePtr ptr) {
  Entry& e = entry_of(ptr);
  assert(e.lock_count > 0);
  --e.lock_count;
}

void Runtime::set_priority(MobilePtr ptr, int priority) {
  Entry& e = entry_of(ptr);
  e.priority = std::clamp(priority, kMinPriority, kMaxPriority);
}

void Runtime::refresh_footprint(MobilePtr ptr) {
  Entry* e = find_entry(ptr);
  if (e == nullptr || e->state != Residency::kInCore) return;
  // Callers invoke this after mutating the object outside a handler (e.g.
  // through peek()): treat it as an explicit dirty signal even when the
  // footprint happens to be unchanged.
  e->obj->mark_dirty();
  after_handler_accounting(ptr, *e);
}

void Runtime::set_memory_budget(std::size_t bytes) {
  ooc_.set_memory_budget(bytes);
  // A shrink must act now, not at the next allocation: relieve hard
  // pressure synchronously, then let background (soft) eviction run ahead
  // within the write-behind budget. Anything still above the soft threshold
  // afterwards drains through the normal progress_once() path.
  while (ooc_.hard_pressure(0) && spill_one_victim()) {
  }
  while (ooc_.soft_pressure() && write_behind_has_budget() &&
         spill_one_victim(/*allow_relaxed=*/false)) {
  }
}

bool Runtime::is_local(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state != Residency::kRemote;
}

bool Runtime::is_in_core(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state == Residency::kInCore;
}

MobileObject* Runtime::peek(MobilePtr ptr) {
  Entry* e = find_entry(ptr);
  return (e != nullptr && e->state == Residency::kInCore) ? e->obj.get()
                                                          : nullptr;
}

// --------------------------------------------------------------------------
// Migration

void Runtime::migrate(MobilePtr ptr, NodeId dst) {
  Entry& e = entry_of(ptr);
  if (e.state == Residency::kRemote) {
    throw std::logic_error("mrts: migrate() on a remote object");
  }
  if (dst == node_) return;
  if (!peer_accepting(dst)) {
    // Draining/Down targets refuse new placements. Refused, recorded, done —
    // never a hang: the object simply stays put.
    refuse_migration(ptr, dst);
    return;
  }
  if (e.state == Residency::kInCore && !e.running && e.lock_count == 0 &&
      e.collect_for == 0) {
    do_migrate(ptr, e, dst);
    return;
  }
  want_load(e, ptr);
  // Coalesce: a repeated migrate() while one is pending just retargets it
  // (two pins for one object could never both see lock_count == 1 and
  // would deadlock).
  for (auto& [pending_ptr, pending_dst] : pending_migrations_) {
    if (pending_ptr == ptr) {
      pending_dst = dst;
      return;
    }
  }
  // Pin the object while the migration is pending: without this, memory
  // pressure can evict it the instant it reloads (priority-based victim
  // selection does not know about the migration) and the load/evict cycle
  // livelocks.
  ++e.lock_count;
  pending_migrations_.emplace_back(ptr, dst);
  bump_activity();
}

void Runtime::write_install_frame(util::ByteWriter& w, MobilePtr ptr,
                                  Entry& e) {
  assert(e.state == Residency::kInCore && e.obj != nullptr);
  obs::ChargedSpan span(obs::Cat::kComp, "migrate.serialize",
                        static_cast<std::uint16_t>(node_),
                        &counters_.comp_time);
  e.obj->on_unregister(*this);
  write_object_record(w, ptr, e, e.epoch + 1);
}

std::span<const std::byte> Runtime::write_object_record(
    util::ByteWriter& w, MobilePtr ptr, const Entry& e, std::uint64_t epoch,
    std::span<const std::byte> spilled) {
  w.write(ptr.id);
  w.write(e.type);
  w.write(epoch);
  w.write(static_cast<std::int32_t>(e.priority));
  w.write<std::uint64_t>(e.queue.size());
  for (const auto& msg : e.queue) {
    w.write(msg.handler);
    w.write(msg.src);
    w.write_vector(msg.payload);
  }
  const std::size_t state_at = w.size() + sizeof(std::uint64_t);
  if (spilled.empty()) {
    assert(e.state == Residency::kInCore && e.obj != nullptr);
    // Seal-in-place: the object serializes at its final offset in the
    // record and the CRC trailer is computed over the written span — the
    // blob is never staged in a separate vector.
    write_sealed(w, [&](util::ByteWriter& body) { e.obj->serialize(body); });
  } else {
    w.write<std::uint64_t>(spilled.size());
    w.write_bytes(spilled);
  }
  return w.bytes().subspan(state_at);
}

util::Result<Runtime::ObjectRecord> Runtime::read_object_record(
    util::ByteReader& in, const char* span_name) {
  ObjectRecord rec;
  rec.ptr = MobilePtr{in.read<std::uint64_t>()};
  rec.type = in.read<TypeId>();
  rec.epoch = in.read<std::uint64_t>();
  rec.priority = in.read<std::int32_t>();
  const auto queue_len = in.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < queue_len; ++i) {
    QueuedMessage msg;
    msg.handler = in.read<HandlerId>();
    msg.src = in.read<NodeId>();
    msg.payload = in.read_vector<std::byte>();
    rec.queue.push_back(std::move(msg));
  }
  auto state = unseal_blob(in.read_byte_span());
  if (!state.is_ok() || rec.type >= registry_.type_count()) {
    return util::Status(
        util::StatusCode::kCorruption,
        "object record for " + to_string(rec.ptr) + " rejected: " +
            (state.is_ok() ? "unregistered type" : state.status().message()));
  }
  rec.obj = instantiate(rec.type, state.value(), span_name);
  return rec;
}

std::unique_ptr<MobileObject> Runtime::instantiate(
    TypeId type, std::span<const std::byte> state, const char* span_name) {
  obs::ChargedSpan span(obs::Cat::kComp, span_name,
                        static_cast<std::uint16_t>(node_),
                        &counters_.comp_time);
  auto obj = registry_.create(type);
  util::ByteReader in(state);
  obj->deserialize(in);
  return obj;
}

void Runtime::install_object(ObjectRecord rec) {
  const std::size_t fp = rec.obj->footprint_bytes();
  while (ooc_.hard_pressure(fp) && spill_one_victim()) {
  }
  auto [it, inserted] = directory_.try_emplace(rec.ptr, Entry{});
  Entry& e = it->second;
  assert(e.state == Residency::kRemote || inserted);
  hosted_objects_.fetch_add(1, std::memory_order_acq_rel);
  e.state = Residency::kInCore;
  e.type = rec.type;
  e.obj = std::move(rec.obj);
  e.priority = rec.priority;
  e.footprint = fp;
  e.epoch = rec.epoch;
  e.queue = std::move(rec.queue);
  e.load_wanted = false;
  e.load_queued = false;
  // Blob identity never survives a move: the sender erased its copy, and a
  // restored object has no blob on the spill backend yet.
  e.blob_bytes = 0;
  e.blob_crc = 0;
  e.stored_gen = 0;
  ooc_.on_install(rec.ptr.id, fp);
  e.obj->on_register(*this, rec.ptr);
  queued_messages_.fetch_add(e.queue.size(), std::memory_order_acq_rel);
  bump_activity();
  if (!e.queue.empty()) push_ready(e, rec.ptr);
}

void Runtime::do_migrate(MobilePtr ptr, Entry& e, NodeId dst) {
  assert(e.state == Residency::kInCore && !e.running && e.lock_count == 0);
  // Serializes synchronously into the outgoing frame (the reliable link's
  // open batch, or the raw wire vector) before the entry mutations below.
  net_send_with(dst, kAmInstall, e.footprint + 256,
                [&](util::ByteWriter& w) { write_install_frame(w, ptr, e); });
  e.obj.reset();
  ooc_.on_remove(ptr.id);
  if (e.blob_bytes > 0) {
    store_.erase(ptr.id);  // stale spill copy must not outlive the move
    ooc_.on_spill_erased(ptr.id);
    e.blob_bytes = 0;
    e.blob_crc = 0;
    e.stored_gen = 0;
  }
  e.state = Residency::kRemote;
  hosted_objects_.fetch_sub(1, std::memory_order_acq_rel);
  e.last_known = dst;
  e.epoch += 1;  // matches the epoch written into the install message
  sub_queued(e.queue.size());
  e.queue.clear();
  e.in_ready_list = false;  // stale ready entries are skipped by state check
  counters_.migrations_out.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.out",
                                       static_cast<std::uint16_t>(node_), dst);
}

void Runtime::am_install(NodeId src, util::ByteReader& in) {
  auto rec = read_object_record(in, "migrate.deserialize");
  if (!rec.is_ok()) {
    // A bad seal on the wire path is a broken transport, not a recoverable
    // storage fault: fail fast.
    throw std::runtime_error("mrts: migration " + rec.status().to_string());
  }
  install_object(std::move(rec).value());
  counters_.migrations_in.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.in",
                                       static_cast<std::uint16_t>(node_), src);
}

void Runtime::am_migrate_request(NodeId /*src*/, util::ByteReader& in) {
  const MobilePtr ptr{in.read<std::uint64_t>()};
  const auto requester = in.read<NodeId>();
  Entry* e = find_entry(ptr);
  if (e == nullptr) {
    if (ptr.home_node() == node_) {
      MRTS_LOG_WARN("node {}: migrate request for destroyed {}", node_,
                    to_string(ptr));
      return;
    }
    // Chase via the home node.
    send_migrate_request(reroute_if_departed(ptr.home_node(), ptr), ptr,
                         requester);
    return;
  }
  if (e->state == Residency::kRemote) {
    send_migrate_request(reroute_if_departed(e->last_known, ptr), ptr,
                         requester);
    return;
  }
  if (requester == node_) return;  // it came home in the meantime
  migrate(ptr, requester);
}

void Runtime::send_migrate_request(NodeId next, MobilePtr ptr,
                                   NodeId requester) {
  net_send_with(next, kAmMigrateRequest, 16, [&](util::ByteWriter& w) {
    w.write(ptr.id);
    w.write(requester);
  });
}

bool Runtime::advance_pending_migrations() {
  if (pending_migrations_.empty()) return false;
  bool did = false;
  auto pending = std::move(pending_migrations_);
  pending_migrations_.clear();
  for (auto& [ptr, dst] : pending) {
    Entry* e = find_entry(ptr);
    if (e == nullptr) continue;  // destroyed while pending
    if (!peer_accepting(dst)) {
      // The target left (or started draining) while the migration was
      // pending: refuse now instead of retrying forever.
      if (e->lock_count > 0) --e->lock_count;  // release the pending pin
      refuse_migration(ptr, dst);
      did = true;
      continue;
    }
    if (e->state == Residency::kRemote) {
      // Should not normally happen (the pending pin prevents a concurrent
      // move), but chase it for robustness.
      if (e->last_known != dst) send_migrate_request(e->last_known, ptr, dst);
      did = true;
      continue;
    }
    if (e->state == Residency::kInCore && !e->running && e->lock_count == 1 &&
        e->collect_for == 0) {
      --e->lock_count;  // release the pending pin; do_migrate needs 0
      do_migrate(ptr, *e, dst);
      did = true;
    } else {
      pending_migrations_.emplace_back(ptr, dst);
    }
  }
  return did;
}

// --------------------------------------------------------------------------
// Multicast mobile messages

void Runtime::send_multicast(std::vector<MobilePtr> targets,
                             std::uint32_t deliver_count, HandlerId handler,
                             std::vector<std::byte> payload) {
  deliver_count = std::min<std::uint32_t>(
      deliver_count, static_cast<std::uint32_t>(targets.size()));
  route_multicast(std::move(targets), deliver_count, handler, node_,
                  std::move(payload));
}

void Runtime::am_multicast(NodeId /*src*/, util::ByteReader& in) {
  auto targets = in.read_vector_with<MobilePtr>(
      [](util::ByteReader& r) { return MobilePtr{r.read<std::uint64_t>()}; });
  const auto deliver_count = in.read<std::uint32_t>();
  const auto handler = in.read<HandlerId>();
  const auto origin = in.read<NodeId>();
  route_multicast(std::move(targets), deliver_count, handler, origin,
                  in.read_vector<std::byte>());
}

void Runtime::route_multicast(std::vector<MobilePtr> targets,
                              std::uint32_t deliver_count, HandlerId handler,
                              NodeId origin, std::vector<std::byte> payload) {
  if (targets.empty()) return;
  Entry* head = find_entry(targets[0]);
  if (head != nullptr && head->state != Residency::kRemote) {
    multicasts_.push_back(MulticastOp{
        .id = next_multicast_id_++,
        .targets = std::move(targets),
        .deliver_count = deliver_count,
        .handler = handler,
        .payload = std::move(payload),
        .origin_src = origin,
        .requested = {},
        .start_ts = obs::TraceRecorder::global().now(),
    });
    bump_activity();
    return;
  }
  // Chase the owner of the first target with the request unchanged.
  const NodeId next = reroute_if_departed(
      head != nullptr ? head->last_known : targets[0].home_node(), targets[0]);
  net_send_with(next, kAmMulticast, payload.size() + 32 * targets.size(),
                [&](util::ByteWriter& w) {
                  w.write<std::uint64_t>(targets.size());
                  for (MobilePtr t : targets) w.write(t.id);
                  w.write(deliver_count);
                  w.write(handler);
                  w.write(origin);
                  w.write_vector(payload);
                });
}

bool Runtime::advance_multicasts() {
  if (multicasts_.empty()) return false;
  bool did = false;
  for (std::size_t i = 0; i < multicasts_.size();) {
    MulticastOp& op = multicasts_[i];
    if (op.requested.size() != op.targets.size()) {
      op.requested.assign(op.targets.size(), false);
    }
    bool all_ready = true;
    bool dropped = false;
    for (std::size_t t = 0; t < op.targets.size(); ++t) {
      const MobilePtr ptr = op.targets[t];
      Entry* e = find_entry(ptr);
      if (e != nullptr && e->poisoned) {
        // A quarantined target can never be collected: the multicast would
        // stall termination forever. Drop the whole op, counting its
        // deliveries as dropped messages.
        counters_.poisoned_messages_dropped.fetch_add(
            op.deliver_count, std::memory_order_relaxed);
        dropped = true;
        break;
      }
      if (e == nullptr || e->state == Residency::kRemote) {
        all_ready = false;
        if (!op.requested[t]) {
          op.requested[t] = true;
          send_migrate_request(
              reroute_if_departed(
                  (e != nullptr) ? e->last_known : ptr.home_node(), ptr),
              ptr, node_);
          did = true;
        }
        continue;
      }
      if (e->state != Residency::kInCore || e->running) {
        all_ready = false;
        did |= want_load(*e, ptr);  // on disk or spilling: bring it in
        continue;
      }
      if (e->collect_for == 0) {
        e->collect_for = op.id;
        did = true;
      } else if (e->collect_for != op.id) {
        all_ready = false;  // reserved by an earlier op; wait for release
      }
    }
    if (!all_ready && !dropped) {
      ++i;
      continue;
    }
    // Taken out of multicasts_ first: a handler may issue a multicast of
    // its own, which can reallocate the vector under `op`.
    const MulticastOp done = std::move(op);
    multicasts_.erase(multicasts_.begin() + static_cast<std::ptrdiff_t>(i));
    if (!dropped) {
      // Every target is local, in-core, and reserved for this op. Collect
      // latency: local collection start to all-targets-ready, as observed
      // by the delivering (coordinator) node.
      obs::TraceRecorder& tr = obs::TraceRecorder::global();
      if (tr.enabled()) {
        const std::uint64_t now = tr.now();
        tr.complete(obs::Cat::kComm, "multicast.collect",
                    static_cast<std::uint16_t>(node_), done.start_ts,
                    now - std::min(done.start_ts, now), done.targets.size());
      }
      for (std::uint32_t t = 0; t < done.deliver_count; ++t) {
        Entry& e = entry_of(done.targets[t]);
        run_handler(done.targets[t], e, done.handler, done.origin_src,
                    done.payload, "handler.multicast");
        after_handler_accounting(done.targets[t], e);
      }
    }
    for (MobilePtr ptr : done.targets) {
      if (Entry* e = find_entry(ptr);
          e != nullptr && e->collect_for == done.id) {
        e->collect_for = 0;
      }
    }
    did = true;
  }
  return did;
}

// --------------------------------------------------------------------------
// Out-of-core mechanics

bool Runtime::evictable(const Entry& e) const {
  return e.state == Residency::kInCore && !e.running && e.lock_count == 0 &&
         e.collect_for == 0 && e.queue.empty() && !e.load_wanted;
}

bool Runtime::evictable_relaxed(const Entry& e) const {
  return e.state == Residency::kInCore && !e.running && e.lock_count == 0 &&
         e.collect_for == 0;
}

bool Runtime::spill_one_victim(bool allow_relaxed) {
  auto priority_of = [this](std::uint64_t key) {
    const Entry* e = find_entry(MobilePtr{key});
    return e != nullptr ? e->priority : kMaxPriority;
  };
  auto victim = ooc_.pick_victim(
      [this](std::uint64_t key) {
        const Entry* e = find_entry(MobilePtr{key});
        return e != nullptr && evictable(*e);
      },
      priority_of);
  if (!victim && allow_relaxed) {
    victim = ooc_.pick_victim(
        [this](std::uint64_t key) {
          const Entry* e = find_entry(MobilePtr{key});
          return e != nullptr && evictable_relaxed(*e);
        },
        priority_of);
  }
  if (!victim) return false;
  const MobilePtr ptr{*victim};
  spill(ptr, entry_of(ptr));
  return true;
}

void Runtime::spill(MobilePtr ptr, Entry& e) {
  assert(evictable_relaxed(e));
  // Clean-spill elision: the blob left on the backend by the last
  // successful spill still serializes exactly this dirty generation, so
  // the eviction needs no serialize and no store — just drop the in-core
  // copy and flip straight to kOnDisk. blob_bytes/blob_crc are left
  // untouched: the recovery ladder's checkpoint rung keeps comparing
  // against the last-spill CRC exactly as before.
  if (options_.spill_elision && e.blob_bytes > 0 &&
      e.stored_gen == e.obj->dirty_generation()) {
    e.obj->on_unregister(*this);
    e.obj.reset();
    ooc_.on_remove(ptr.id);
    e.state = Residency::kOnDisk;
    e.in_ready_list = false;  // stale ready entries skip on state check
    counters_.spills_elided.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_spill_elided.fetch_add(e.blob_bytes,
                                           std::memory_order_relaxed);
    ooc_elisions_->inc();
    obs::TraceRecorder::global().instant(obs::Cat::kDisk, "spill.elide",
                                         static_cast<std::uint16_t>(node_),
                                         e.blob_bytes);
    // No store completion will arrive, so requeue any pending work here
    // (the relaxed-eviction escape hatch can evict queued objects).
    if ((!e.queue.empty() || e.load_wanted) && !e.load_queued) {
      e.load_queued = true;
      load_queue_.push_back(ptr);
    }
    return;
  }
  // The generation this spill captures; it becomes stored_gen only when the
  // store completes OK (a failed write-behind store must not leave the
  // entry claiming a CRC for bytes that never landed).
  e.spill_gen = e.obj->dirty_generation();
  util::ByteWriter body(e.footprint + 64);
  {
    obs::ChargedSpan span(obs::Cat::kComp, "spill.serialize",
                          static_cast<std::uint16_t>(node_),
                          &counters_.comp_time);
    e.obj->on_unregister(*this);
    e.obj->serialize(body);
  }
  std::vector<std::byte> blob;
  {
    obs::ChargedSpan span(obs::Cat::kComp, "spill.seal",
                          static_cast<std::uint16_t>(node_),
                          &counters_.comp_time);
    blob = seal_blob(std::move(body));
  }
  e.obj.reset();
  ooc_.on_remove(ptr.id);
  e.state = Residency::kStoring;
  e.in_ready_list = false;  // stale ready entries skip on state check
  // Content identity of this spill: a reload must produce exactly these
  // bytes. Catches a stale replica serving an older (seal-valid) version.
  e.spill_crc = sealed_crc(blob);
  // The hard threshold counts the blob from the moment it is on its way.
  ooc_.on_spilled(ptr.id, blob.size());
  counters_.objects_spilled.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_spilled.fetch_add(blob.size(), std::memory_order_relaxed);
  ooc_evictions_->inc();
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "evict",
                                       static_cast<std::uint16_t>(node_),
                                       blob.size());
  ++outstanding_stores_;
  const std::size_t spill_bytes = blob.size();
  write_behind_inflight_bytes_ += spill_bytes;
  store_.store_async(
      ptr.id, std::move(blob),
      [this, ptr, spill_bytes](util::Status s,
                               std::vector<std::byte> payload) {
        // On failure `payload` is the sealed blob handed back by the storage
        // layer — the object's only remaining copy; the control thread
        // reinstalls it in core.
        std::lock_guard lock(completions_mutex_);
        completions_.push_back(Completion{ptr.id, /*is_load=*/false,
                                          std::move(s), std::move(payload),
                                          spill_bytes});
        completions_available_.fetch_add(1, std::memory_order_release);
      });
}

bool Runtime::schedule_loads() {
  // Loads in flight at once (prefetch depth).
  constexpr int kMaxConcurrentLoads = 2;
  const auto slots_busy = [this] {
    return outstanding_loads_ >= kMaxConcurrentLoads;
  };
  // With both load slots busy only a write-behind reclaim can make
  // progress, and it needs a store still in flight.
  if (slots_busy() && outstanding_stores_ == 0) return false;
  bool did = false;
  std::size_t attempts = load_queue_.size();
  while (attempts-- > 0 && !load_queue_.empty()) {
    const MobilePtr ptr = load_queue_.front();
    load_queue_.pop_front();
    Entry* e = find_entry(ptr);
    if (e == nullptr) continue;
    if (slots_busy() && e->state != Residency::kStoring) {
      // A device load waits for a free slot; a reclaim reads nothing from
      // the device, so it goes ahead below.
      load_queue_.push_back(ptr);
      continue;
    }
    e->load_queued = false;
    if (e->poisoned || (e->queue.empty() && !e->load_wanted)) continue;
    if (e->state == Residency::kStoring) {
      // Write-behind reclaim: a store still waiting in the I/O queue holds
      // the object's sealed bytes in RAM, so take them back instead of
      // paying a device store and then a device load. A store that already
      // started lands, and its completion queues the load.
      if (auto blob = take_back_spill(ptr)) {
        if (auto s = reinstall_spill(ptr, *e, *blob, "spill.reclaim");
            s.is_ok()) {
          ooc_reclaims_->inc();
          ooc_reclaimed_bytes_->inc(blob->size());
        } else {
          poison_object(ptr, *e, FailureOp::kStore, s);
        }
        did = true;
      }
      continue;
    }
    if (e->state == Residency::kOnDisk) {
      // Make room before reading the blob back in — strict victims only:
      // evicting another object that still has queued messages here can
      // ping-pong two ready objects through the disk forever when the
      // budget holds only one of them. If no idle victim exists the load
      // proceeds over budget; the strict-first relief after each handler
      // batch drains the excess as soon as queues empty (and a workload
      // that pins more than fits "runs out of memory" exactly as the
      // paper warns, rather than deadlocking).
      while (ooc_.hard_pressure(e->blob_bytes) &&
             spill_one_victim(/*allow_relaxed=*/false)) {
      }
      start_load(*e, ptr);
      did = true;
    }
  }
  return did;
}

void Runtime::start_load(Entry& e, MobilePtr ptr) {
  assert(e.state == Residency::kOnDisk);
  e.state = Residency::kLoading;
  ++outstanding_loads_;
  store_.load_async(ptr.id, [this, ptr](
                                util::Result<std::vector<std::byte>> result) {
    std::lock_guard lock(completions_mutex_);
    Completion c{ptr.id, /*is_load=*/true, result.status(), {}};
    if (result.is_ok()) c.bytes = std::move(result).value();
    completions_.push_back(std::move(c));
    completions_available_.fetch_add(1, std::memory_order_release);
  });
}

bool Runtime::drain_completions() {
  // Advance the backend's virtual maintenance clock every pass — even when
  // no completions are queued — so group-commit flush deadlines and
  // compaction progress while the node computes.
  store_.tick_backend(++storage_ticks_);
  if (completions_available_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  std::vector<Completion> batch;
  {
    std::lock_guard lock(completions_mutex_);
    batch = std::move(completions_);
    completions_.clear();
    completions_available_.store(0, std::memory_order_release);
  }
  for (auto& c : batch) {
    const MobilePtr ptr{c.key};
    Entry* e = find_entry(ptr);
    if (c.is_load) {
      --outstanding_loads_;
      if (e == nullptr) continue;  // destroyed mid-flight
      auto payload =
          c.status.is_ok() ? verified_payload(e->blob_crc, c.bytes) : c.status;
      if (payload.is_ok()) {
        finish_load(*e, ptr, payload.value(), c.bytes.size());
        continue;
      }
      // Hard load failure: retries exhausted, bad seal, or stale content.
      recover_failed_load(ptr, *e, payload.status());
    } else {
      --outstanding_stores_;
      // Draining the completion frees the write-behind budget, whatever the
      // outcome (even when the entry was destroyed mid-flight).
      assert(write_behind_inflight_bytes_ >= c.spill_bytes);
      write_behind_inflight_bytes_ -= c.spill_bytes;
      if (e == nullptr) {
        // Destroyed mid-flight: its erase may have run before this store
        // landed, so erase the blob that did.
        if (c.status.is_ok()) store_.erase(ptr.id);
        continue;
      }
      if (e->state != Residency::kStoring) continue;
      if (!c.status.is_ok()) {
        recover_failed_store(ptr, *e, c.status, std::move(c.bytes));
        continue;
      }
      e->state = Residency::kOnDisk;
      // The blob landed: only now does the entry claim its identity.
      e->blob_bytes = c.spill_bytes;
      e->blob_crc = e->spill_crc;
      e->stored_gen = e->spill_gen;
      if ((!e->queue.empty() || e->load_wanted) && !e->load_queued) {
        e->load_queued = true;
        load_queue_.push_back(ptr);
      }
    }
  }
  return !batch.empty();
}

util::Result<std::span<const std::byte>> Runtime::verified_payload(
    std::uint32_t crc, std::span<const std::byte> blob) {
  obs::ChargedSpan span(obs::Cat::kComp, "load.verify",
                        static_cast<std::uint16_t>(node_),
                        &counters_.comp_time);
  auto payload = unseal_blob(blob);
  if (!payload.is_ok() || sealed_crc(blob) != crc) {
    return util::Status(util::StatusCode::kCorruption,
                        "loaded blob failed seal/content verification");
  }
  return payload;
}

void Runtime::finish_load(Entry& e, MobilePtr ptr,
                          std::span<const std::byte> payload,
                          std::size_t blob_bytes) {
  assert(e.state == Residency::kLoading);
  e.obj = instantiate(e.type, payload, "load.deserialize");
  e.state = Residency::kInCore;
  e.footprint = e.obj->footprint_bytes();
  e.load_wanted = false;
  // The fresh instance is byte-for-byte what the blob serializes: align its
  // dirty generation with the blob's so a clean evict elides the re-store.
  e.obj->sync_generation(e.stored_gen);
  ooc_.on_install(ptr.id, e.footprint);
  e.obj->on_register(*this, ptr);
  // With elision enabled the blob (and its recorded identity) stays on the
  // backend: if the object is evicted again unmodified, spill() skips
  // serialize+store entirely. Forced-spill mode keeps the pre-elision
  // behavior of dropping the blob on reload.
  if (!options_.spill_elision) {
    store_.erase(ptr.id);
    ooc_.on_spill_erased(ptr.id);
    e.blob_bytes = 0;
    e.blob_crc = 0;
    e.stored_gen = 0;
  }
  counters_.objects_loaded.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_loaded.fetch_add(blob_bytes, std::memory_order_relaxed);
  if (!e.queue.empty()) push_ready(e, ptr);
  bump_activity();
  // The reload may have pushed the node over budget; relieve promptly so a
  // storm of reloads cannot pile up unbounded residency. Strict victims
  // only: the relaxed pass could evict the very object we just loaded
  // (its queue is non-empty) before its messages ever run — with a budget
  // of about one object, that livelocks the load/evict cycle.
  while (ooc_.hard_pressure(0) && spill_one_victim(/*allow_relaxed=*/false)) {
  }
}

// --------------------------------------------------------------------------
// Storage-failure recovery (the self-healing ladder)

void Runtime::recover_failed_load(MobilePtr ptr, Entry& e,
                                  const util::Status& cause) {
  // Rung 1: one synchronous re-issued load (with its own retry budget). A
  // transient fault window that outlived the async attempt may be over, and
  // a replicated backend repairs itself on exactly this kind of read.
  auto again = store_.load_sync(ptr.id);
  auto payload = again.is_ok() ? verified_payload(e.blob_crc, again.value())
                               : again.status();
  if (payload.is_ok()) {
    counters_.loads_recovered.fetch_add(1, std::memory_order_relaxed);
    ledger_.add(FailureRecord{ptr, node_, FailureOp::kLoad,
                              FailureResolution::kRetried, cause.code(),
                              cause.message(), 0});
    obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.reload",
                                         static_cast<std::uint16_t>(node_),
                                         ptr.id);
    finish_load(e, ptr, payload.value(), again.value().size());
    return;
  }
  // Rung 2: the per-object checkpoint copy, accepted only when its seal CRC
  // equals the spilled blob's (identical content — a stale checkpoint of an
  // object that changed since is silent corruption and must not win).
  if (options_.recovery.checkpoint_store != nullptr) {
    auto cp = options_.recovery.checkpoint_store->load(ptr.id);
    auto cp_payload =
        cp.is_ok() ? verified_payload(e.blob_crc, cp.value()) : cp.status();
    if (cp_payload.is_ok()) {
      counters_.checkpoint_recoveries.fetch_add(1, std::memory_order_relaxed);
      ledger_.add(FailureRecord{ptr, node_, FailureOp::kLoad,
                                FailureResolution::kCheckpointRecovered,
                                cause.code(), cause.message(), 0});
      obs::TraceRecorder::global().instant(
          obs::Cat::kDisk, "recover.checkpoint",
          static_cast<std::uint16_t>(node_), ptr.id);
      finish_load(e, ptr, cp_payload.value(), cp.value().size());
      return;
    }
  }
  poison_object(ptr, e, FailureOp::kLoad, cause);
}

void Runtime::recover_failed_store(MobilePtr ptr, Entry& e,
                                   const util::Status& cause,
                                   std::vector<std::byte> bytes) {
  // The storage layer hands a failed store's payload back: undo the
  // eviction and reinstall the object in core from it. Verified anyway —
  // these bytes are the object's only copy.
  if (!reinstall_spill(ptr, e, bytes, "spill.reinstall").is_ok()) {
    poison_object(ptr, e, FailureOp::kStore, cause);
    return;
  }
  counters_.spills_reinstalled.fetch_add(1, std::memory_order_relaxed);
  ledger_.add(FailureRecord{ptr, node_, FailureOp::kStore,
                            FailureResolution::kReinstalled, cause.code(),
                            cause.message(), 0});
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.reinstall",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
}

util::Status Runtime::reinstall_spill(MobilePtr ptr, Entry& e,
                                      std::span<const std::byte> blob,
                                      const char* span_name) {
  assert(e.state == Residency::kStoring);
  // The spill never landed: whatever the backend holds for this key is the
  // previous blob, still described by blob_* and stored_gen, and the hard
  // threshold goes back to counting that one.
  if (e.blob_bytes > 0) {
    ooc_.on_spilled(ptr.id, e.blob_bytes);
  } else {
    ooc_.on_spill_erased(ptr.id);
  }
  auto payload = verified_payload(e.spill_crc, blob);
  if (!payload.is_ok()) return payload.status();
  e.obj = instantiate(e.type, payload.value(), span_name);
  // The instance serializes exactly the spill's generation, which differs
  // from stored_gen: a later eviction stores it instead of eliding against
  // the older blob.
  e.obj->sync_generation(e.spill_gen);
  e.state = Residency::kInCore;
  e.footprint = e.obj->footprint_bytes();
  e.load_wanted = false;
  ooc_.on_install(ptr.id, e.footprint);
  e.obj->on_register(*this, ptr);
  if (!e.queue.empty()) push_ready(e, ptr);
  bump_activity();
  // The reinstall may exceed the budget; strict relief only — the relaxed
  // pass could evict this same queued object straight back out and
  // livelock the reinstall cycle.
  while (ooc_.hard_pressure(0) && spill_one_victim(/*allow_relaxed=*/false)) {
  }
  return util::Status::ok();
}

std::optional<std::vector<std::byte>> Runtime::take_back_spill(MobilePtr ptr) {
  auto blob = store_.reclaim_store(ptr.id);
  if (blob) {
    --outstanding_stores_;
    assert(write_behind_inflight_bytes_ >= blob->size());
    write_behind_inflight_bytes_ -= blob->size();
  }
  return blob;
}

void Runtime::poison_object(MobilePtr ptr, Entry& e, FailureOp op,
                            const util::Status& cause) {
  const std::uint64_t dropped = e.queue.size();
  sub_queued(dropped);
  e.queue.clear();
  e.poisoned = true;
  e.state = Residency::kOnDisk;  // whatever blob remains is known-bad
  e.stored_gen = 0;              // and must never satisfy an elision check
  e.load_wanted = false;
  e.load_queued = false;
  e.in_ready_list = false;
  counters_.objects_poisoned.fetch_add(1, std::memory_order_relaxed);
  counters_.poisoned_messages_dropped.fetch_add(dropped,
                                                std::memory_order_relaxed);
  ledger_.add(FailureRecord{ptr, node_, op, FailureResolution::kPoisoned,
                            cause.code(), cause.message(), dropped});
  obs::MetricsRegistry::global().counter("runtime.objects_poisoned").inc();
  obs::TraceRecorder::global().instant(obs::Cat::kDisk, "recover.poison",
                                       static_cast<std::uint16_t>(node_),
                                       ptr.id);
  MRTS_LOG_WARN(
      "node {}: {} poisoned after unrecoverable {} failure ({}); {} queued "
      "message(s) dropped",
      node_, to_string(ptr), to_string(op), cause.to_string(), dropped);
  bump_activity();
}

ObjectHealth Runtime::object_health(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return (e != nullptr && e->poisoned) ? ObjectHealth::kPoisoned
                                       : ObjectHealth::kHealthy;
}

// --------------------------------------------------------------------------
// Control loop

void Runtime::after_handler_accounting(MobilePtr ptr, Entry& e) {
  const std::size_t fp = e.obj->footprint_bytes();
  if (fp != e.footprint) {
    e.footprint = fp;
    ooc_.on_footprint_change(ptr.id, fp);
    // Safety net for handlers declared read-only that grew or shrank the
    // object anyway: a footprint change is proof of mutation.
    e.obj->mark_dirty();
  }
  while (ooc_.hard_pressure(0) && spill_one_victim()) {
  }
  sample_observability();
}

void Runtime::sample_observability() {
  obs::TraceRecorder& tr = obs::TraceRecorder::global();
  if (!tr.enabled()) return;
  const auto track = static_cast<std::uint16_t>(node_);
  tr.counter("ooc.in_core", track, ooc_.in_core_bytes());
}

bool Runtime::run_ready_object() {
  while (!ready_.empty()) {
    const MobilePtr ptr = ready_.front();
    ready_.pop_front();
    Entry* e = find_entry(ptr);
    if (e == nullptr || e->state != Residency::kInCore) {
      continue;  // stale: destroyed, spilled, or migrated meanwhile
    }
    if (e->queue.empty()) {
      e->in_ready_list = false;
      continue;
    }
    std::size_t budget = options_.max_messages_per_turn;
    while (budget-- > 0 && !e->queue.empty()) {
      QueuedMessage msg = std::move(e->queue.front());
      e->queue.pop_front();
      sub_queued(1);
      obs::TraceRecorder& tr = obs::TraceRecorder::global();
      if (tr.enabled() && msg.enq_ts != 0) {
        // Enqueue-to-delivery wait as an async span; value carries the
        // number of directory forwarding hops the message took to get here.
        const std::uint64_t now = tr.now();
        tr.complete(obs::Cat::kOther, "queue.wait",
                    static_cast<std::uint16_t>(node_), msg.enq_ts,
                    now - std::min(msg.enq_ts, now), msg.hops);
      }
      run_handler(ptr, *e, msg.handler, msg.src, msg.payload, "handler");
      e = find_entry(ptr);  // handler may destroy others; self must persist
      assert(e != nullptr);
    }
    if (!e->queue.empty()) {
      ready_.push_back(ptr);  // keep in_ready_list set
    } else {
      e->in_ready_list = false;
    }
    after_handler_accounting(ptr, *e);
    return true;
  }
  return false;
}

void Runtime::run_handler(MobilePtr ptr, Entry& e, HandlerId handler,
                          NodeId src, std::span<const std::byte> payload,
                          const char* span_name) {
  ooc_.on_access(ptr.id);
  e.running = true;
  {
    obs::ChargedSpan span(obs::Cat::kComp, span_name,
                          static_cast<std::uint16_t>(node_),
                          &counters_.comp_time);
    util::ByteReader reader(payload);
    registry_.handler(e.type, handler)(*this, *e.obj, ptr, src, reader);
  }
  e.running = false;
  counters_.messages_executed.fetch_add(1, std::memory_order_relaxed);
  if (!registry_.handler_read_only(e.type, handler)) e.obj->mark_dirty();
}

void Runtime::advise_shed(std::uint32_t count, NodeId target) {
  shed_target_.store(target, std::memory_order_release);
  shed_count_.store(count, std::memory_order_release);
}

bool Runtime::apply_shed_advice() {
  const auto count = shed_count_.exchange(0, std::memory_order_acq_rel);
  if (count == 0) return false;
  const NodeId target = shed_target_.load(std::memory_order_acquire);
  if (target == node_ || !peer_accepting(target)) return false;
  // Shed in-core objects with queued work: the queue travels with the
  // object, so the receiver picks the work up directly.
  std::uint32_t shed = 0;
  std::vector<MobilePtr> victims;
  for (const auto& [ptr, e] : directory_) {
    if (shed + victims.size() >= count) break;
    if (e.state != Residency::kInCore || e.queue.empty() || e.running ||
        e.lock_count != 0 || e.collect_for != 0) {
      continue;
    }
    victims.push_back(ptr);
  }
  for (MobilePtr ptr : victims) {
    do_migrate(ptr, entry_of(ptr), target);
    ++shed;
  }
  return shed > 0;
}

bool Runtime::progress_once() {
  bool did = false;
  did |= endpoint_.poll() > 0;
  // One control-loop iteration == one virtual tick of the reliable layer;
  // overdue unacked frames are retransmitted here.
  if (reliable_ != nullptr) did |= reliable_->on_tick();
  did |= drain_completions();
  did |= apply_shed_advice();
  did |= advance_pending_migrations();
  did |= advance_multicasts();
  did |= schedule_loads();
  // Background (soft-pressure) eviction is write-behind: it stops issuing
  // new spill stores while the in-flight-bytes budget is full; the drained
  // completions above free it. Hard-pressure eviction paths are not gated —
  // when an allocation needs room now, the spill is issued immediately.
  if (ooc_.soft_pressure() && write_behind_has_budget() &&
      spill_one_victim(/*allow_relaxed=*/false)) {
    did = true;
  }
  did |= run_ready_object();
  // End-of-sweep batch flush: AMs generated anywhere in this iteration
  // coalesce per destination but never wait out a sweep boundary, so
  // aggregation costs no det-step latency on the deterministic driver.
  if (reliable_ != nullptr) did |= reliable_->flush();

  if (did) {
    idle_.store(false, std::memory_order_release);
  } else {
    bool pending = !ready_.empty() || !multicasts_.empty() ||
                   !pending_migrations_.empty() || !load_queue_.empty() ||
                   outstanding_loads_ > 0 || outstanding_stores_ > 0 ||
                   !endpoint_.inbox_empty() ||
                   completions_available_.load(std::memory_order_acquire) > 0;
    // Unacked frames keep this node non-idle so the termination detector
    // can never quiesce over a lost message — the retransmit that recovers
    // it is guaranteed another control-loop iteration. Parked reorder-buffer
    // frames likewise represent undispatched work.
    if (!pending && reliable_ != nullptr) {
      pending = reliable_->has_unacked() || reliable_->rx_buffered() > 0;
    }
    if (!pending) {
      for (const auto& [ptr, e] : directory_) {
        if (e.state == Residency::kRemote) continue;
        if (!e.queue.empty() || e.load_wanted) {
          pending = true;
          break;
        }
      }
    }
    idle_.store(!pending, std::memory_order_release);
  }
  return did;
}

bool Runtime::is_idle() const { return idle_.load(std::memory_order_acquire); }

// --------------------------------------------------------------------------
// Checkpoint / restore

util::Status Runtime::checkpoint_to(util::ByteWriter& out) {
  store_.drain();
  for (const auto& [ptr, e] : directory_) {
    if (e.state == Residency::kLoading || e.state == Residency::kStoring) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "checkpoint_to called with I/O in flight (not a "
                          "phase boundary)");
    }
  }
  out.write(next_seq_);
  std::uint64_t count = 0;
  for (const auto& [ptr, e] : directory_) {
    // Poisoned objects have no recoverable state; they are not part of the
    // checkpointed world.
    if (e.state != Residency::kRemote && !e.poisoned) ++count;
  }
  out.write(count);
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote || e.poisoned) continue;
    std::vector<std::byte> spilled;
    if (e.state != Residency::kInCore) {
      // Already spilled: the stored blob is sealed; copy it verbatim.
      auto loaded = store_.load_sync(ptr.id);
      if (!loaded.is_ok()) {
        return util::Status(loaded.status().code(),
                            "checkpoint could not read spilled " +
                                to_string(ptr) + ": " +
                                loaded.status().message());
      }
      spilled = std::move(loaded).value();
      if (!sealed_blob_valid(spilled)) {
        return util::Status(util::StatusCode::kCorruption,
                            "checkpoint read a corrupt spill blob for " +
                                to_string(ptr));
      }
    }
    // A restored world restarts the epoch clock.
    const auto sealed =
        write_object_record(out, ptr, e, /*epoch=*/1, spilled);
    if (options_.recovery.checkpoint_store != nullptr) {
      // Side copy feeding the recovery ladder's checkpoint rung. Best
      // effort: a failed copy degrades recovery, not the checkpoint.
      if (auto s = options_.recovery.checkpoint_store->store(ptr.id, sealed);
          !s.is_ok()) {
        MRTS_LOG_WARN("node {}: checkpoint side-copy of {} failed: {}", node_,
                      to_string(ptr), s.to_string());
      }
    }
  }
  return util::Status::ok();
}

util::Status Runtime::restore_from(util::ByteReader& in) {
  auto image = parse_restore_image(in);
  if (!image.is_ok()) return image.status();
  install_restore_image(std::move(image).value());
  return util::Status::ok();
}

util::Result<Runtime::RestoreImage> Runtime::parse_restore_image(
    util::ByteReader& in) {
  // ArchiveError covers reads past a truncated buffer and an object count
  // the remaining bytes cannot hold.
  RestoreImage image;
  std::vector<util::Result<ObjectRecord>> records;
  try {
    image.next_seq = in.read<std::uint64_t>();
    records = in.read_vector_with<util::Result<ObjectRecord>>(
        [this](util::ByteReader& r) {
          return read_object_record(r, "restore.deserialize");
        });
  } catch (const util::ArchiveError& err) {
    return util::Status(util::StatusCode::kCorruption,
                        std::string("restore image truncated or malformed: ") +
                            err.what());
  }
  std::unordered_set<MobilePtr> ids;
  image.records.reserve(records.size());
  for (auto& rec : records) {
    if (!rec.is_ok()) return rec.status();
    if (!ids.insert(rec.value().ptr).second) {
      return util::Status(util::StatusCode::kCorruption,
                          "restore image names " + to_string(rec.value().ptr) +
                              " twice");
    }
    if (hosts(rec.value().ptr)) {
      return util::Status(util::StatusCode::kAlreadyExists,
                          "restore over an existing local object " +
                              to_string(rec.value().ptr));
    }
    image.records.push_back(std::move(rec).value());
  }
  return image;
}

void Runtime::install_restore_image(RestoreImage image) {
  next_seq_ = std::max(next_seq_, image.next_seq);
  for (ObjectRecord& rec : image.records) install_object(std::move(rec));
}

std::vector<MobilePtr> Runtime::RestoreImage::ids() const {
  std::vector<MobilePtr> out;
  out.reserve(records.size());
  for (const ObjectRecord& rec : records) out.push_back(rec.ptr);
  return out;
}

void Runtime::note_remote_location(MobilePtr ptr, NodeId where) {
  if (where == node_) return;
  auto [it, inserted] = directory_.try_emplace(ptr, Entry{});
  Entry& e = it->second;
  if (!inserted && e.state != Residency::kRemote) return;  // we host it
  e.state = Residency::kRemote;
  e.last_known = where;
  e.epoch = 0;  // weakest knowledge: any real location update supersedes it
}

void Runtime::note_remote_location(MobilePtr ptr, NodeId where,
                                   std::uint64_t epoch) {
  if (where == node_) return;
  auto [it, inserted] = directory_.try_emplace(ptr, Entry{});
  Entry& e = it->second;
  if (!inserted && e.state != Residency::kRemote) return;  // we host it
  if (!inserted && epoch <= e.epoch) return;  // not strictly fresher
  e.state = Residency::kRemote;
  e.last_known = where;
  e.epoch = epoch;
}

// --------------------------------------------------------------------------
// Elastic membership: routing guards, crash export/rebuild

bool Runtime::hosts(MobilePtr ptr) const {
  const Entry* e = find_entry(ptr);
  return e != nullptr && e->state != Residency::kRemote;
}

NodeId Runtime::reroute_if_departed(NodeId next, MobilePtr dst) const {
  if (membership_ == nullptr || !membership_->node_departed(next)) return next;
  // The hop names a node that drained away and will never poll again: the
  // frame would rot in its inbox. Re-aim at the home node — the drain's
  // handoff seeded it with the post-migration location — unless home IS the
  // departed node (or us, whose own entry is the stale one): then any
  // accepting node forwards via its seeded entry.
  const NodeId home = dst.home_node();
  if (home != next && home != node_ && membership_->node_up(home)) {
    return home;
  }
  const NodeId fb = membership_->fallback_node(node_);
  return fb != node_ ? fb : next;
}

void Runtime::refuse_migration(MobilePtr ptr, NodeId dst) {
  counters_.migrations_refused.fetch_add(1, std::memory_order_relaxed);
  ledger_.add(FailureRecord{
      ptr, node_, FailureOp::kMigrate, FailureResolution::kRefused,
      util::StatusCode::kUnavailable,
      "migrate target node " + std::to_string(dst) + " is not accepting "
      "(draining or down)",
      0});
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "migrate.refused",
                                       static_cast<std::uint16_t>(node_), dst);
  MRTS_LOG_WARN("node {}: refused migrate of {} to non-accepting node {}",
                node_, to_string(ptr), dst);
}

std::vector<Runtime::RecoveredObject> Runtime::crash_export() {
  // Settle in-flight I/O first so every entry is kInCore or kOnDisk (a
  // drained completion can trigger recovery spills, hence the loop).
  store_.drain();
  while (drain_completions()) store_.drain();
  std::vector<RecoveredObject> out;
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote) continue;
    RecoveredObject rec;
    rec.ptr = ptr;
    rec.epoch = e.epoch + 1;
    if (e.poisoned) {
      rec.lost = true;  // was already lost before the crash
      out.push_back(std::move(rec));
      continue;
    }
    if (e.state == Residency::kInCore && e.obj != nullptr) {
      util::ByteWriter w(e.footprint + 256);
      // Unregisters the object; the wipe discards it.
      write_install_frame(w, ptr, e);
      rec.frame = w.take();
      out.push_back(std::move(rec));
      continue;
    }
    // Spilled: the replica scan. The blob survives the crash on the
    // replicated spill store (and the checkpoint side-store as the second
    // rung); read it back through the same verification a reload uses.
    std::vector<std::byte> blob;
    if (auto loaded = store_.load_sync(ptr.id);
        loaded.is_ok() && verified_payload(e.blob_crc, loaded.value()).is_ok()) {
      blob = std::move(loaded).value();
    } else if (options_.recovery.checkpoint_store != nullptr) {
      if (auto cp = options_.recovery.checkpoint_store->load(ptr.id);
          cp.is_ok() && verified_payload(e.blob_crc, cp.value()).is_ok()) {
        blob = std::move(cp).value();
      }
    }
    if (blob.empty()) {
      rec.lost = true;
    } else {
      util::ByteWriter w(blob.size() + 256);
      write_object_record(w, ptr, e, e.epoch + 1, blob);
      rec.frame = w.take();
    }
    out.push_back(std::move(rec));
  }
  // Deterministic rebuild order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(),
            [](const RecoveredObject& a, const RecoveredObject& b) {
              return a.ptr.id < b.ptr.id;
            });
  return out;
}

void Runtime::crash_wipe() {
  store_.drain();
  while (drain_completions()) store_.drain();
  for (auto& [ptr, e] : directory_) {
    if (e.state == Residency::kRemote) continue;
    if (e.obj != nullptr) {
      // crash_export may already have unregistered it via
      // write_install_frame; on_unregister is idempotent for our objects but
      // the ooc bookkeeping must go exactly once.
      e.obj.reset();
      ooc_.on_remove(ptr.id);
    }
    if (e.state == Residency::kOnDisk || e.state == Residency::kStoring ||
        e.blob_bytes > 0) {
      store_.erase(ptr.id);
      ooc_.on_spill_erased(ptr.id);
    }
    if (options_.recovery.checkpoint_store != nullptr) {
      options_.recovery.checkpoint_store->erase(ptr.id);
    }
    sub_queued(e.queue.size());
  }
  directory_.clear();
  hosted_objects_.store(0, std::memory_order_release);
  ready_.clear();
  load_queue_.clear();
  multicasts_.clear();
  pending_migrations_.clear();
  shed_count_.store(0, std::memory_order_release);
  obs::TraceRecorder::global().instant(obs::Cat::kOther, "membership.wipe",
                                       static_cast<std::uint16_t>(node_), 0);
  // A fresh empty member has nothing runnable. The reliable link, parked
  // inbox frames, and next_seq_ deliberately survive: the link's session
  // state is modeled as living in the replicated control log, its rx dedup
  // absorbs post-rejoin retransmit duplicates, and the fabric's in-flight
  // balance tracks the parked frames until the node rejoins and polls them.
  idle_.store(true, std::memory_order_release);
}

void Runtime::install_recovered(NodeId from, std::span<const std::byte> frame) {
  util::ByteReader in(frame);
  am_install(from, in);
  counters_.objects_rebuilt.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mrts::core
