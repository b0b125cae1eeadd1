#pragma once

// End-to-end reliable delivery over the (possibly lossy) fabric. The MRTS
// control layer was written against ARMCI's transport guarantees — FIFO,
// exactly-once delivery between every ordered endpoint pair — but the chaos
// fabric can drop, duplicate, reorder, and delay messages. ReliableLink
// restores the contract end to end instead of assuming it from the wire
// (cf. "Design and Evaluation of Mechanisms for a Multicomputer Object
// Store": object-store semantics must be enforced by the ends):
//
//   sender    per-destination sequence numbers; every frame is kept until
//             the receiver's cumulative ack covers it, and retransmitted on
//             a backoff schedule driven by storage::RetryPolicy (the same
//             bounded-exponential machinery the self-healing storage path
//             uses). Retransmission never gives up — max_retries only caps
//             the backoff growth — so at-least-once holds under any finite
//             loss rate.
//   receiver  per-source dedup (cumulative sequence + a bounded reorder
//             buffer): duplicates are suppressed and re-acked, frames ahead
//             of the next expected sequence are buffered and flushed in
//             order once the gap arrives, frames beyond the buffer window
//             are refused (unacked — the sender retransmits them later).
//             Handlers therefore observe exactly-once, FIFO delivery.
//
// Small-message aggregation (the paper's "many tiny asynchronous split
// messages" hot path): outgoing AMs to one destination are appended to an
// open per-(src,dst) batch and flushed as ONE sequenced DATA frame, so one
// sequence number, one cumulative ack, and one retransmit timer amortize
// over N inner AMs. A batch flushes when it reaches batch_max_records or
// batch_max_bytes, when it ages past batch_flush_ticks virtual ticks, when
// the flow hits a retransmit or empty-pipe ack boundary, or when the owner
// calls flush() at the end of a control-loop sweep. With the default
// batch_max_records = 1 every send flushes immediately — the pre-batching
// wire cadence, frame for frame. Because dedup, the reorder buffer, and
// window eviction all operate on whole frames, a batch's inner AMs are
// dispatched exactly-once and in order ATOMICALLY: a dup or evicted batch
// loses or replays no prefix of itself.
//
// Timing is virtual: on_tick() is called once per control-loop iteration
// and retransmit deadlines are tick counts computed from the pure function
// RetryPolicy::delay_for, so a chaos seed replays byte-identically — no
// wall clock is ever consulted. One ReliableLink is owned per node and is
// control-thread-only, like the Runtime that owns it.

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "simnet/fabric.hpp"
#include "storage/retry_policy.hpp"
#include "util/archive.hpp"

namespace mrts::obs {
class Counter;
class HistogramMetric;
}  // namespace mrts::obs

namespace mrts::net {

struct ReliableOptions {
  /// Wrap every runtime send in a sequenced DATA frame with ack/retransmit.
  /// Off by default: a fault-free fabric already gives FIFO exactly-once,
  /// and the chaos drop drills rely on raw-wire semantics.
  bool enabled = false;
  /// Backoff schedule for retransmits. max_retries bounds the GROWTH of the
  /// delay, not the number of attempts — a reliable link never gives up.
  /// The default first retransmit fires after ~25 ticks (2500us / 100us),
  /// comfortably above the deterministic driver's 1-2 sweep ack round trip
  /// and the fault plans' typical delay horizons.
  storage::RetryPolicy retransmit{
      .max_retries = 8,
      .base_delay = std::chrono::microseconds(2500),
      .max_delay = std::chrono::microseconds(200'000),
  };
  /// Frames a receiver buffers ahead of the next expected sequence; frames
  /// at or beyond next_expected + reorder_window are refused (and counted)
  /// until retransmission finds the window advanced.
  std::size_t reorder_window = 64;
  /// Inner AMs an open batch holds before it must flush. 1 (the default)
  /// disables aggregation: every send becomes its own DATA frame at send
  /// time, byte-for-byte the pre-batching cadence.
  std::size_t batch_max_records = 1;
  /// Serialized payload bytes an open batch holds before it must flush.
  std::size_t batch_max_bytes = 8 * 1024;
  /// Age-out: an open batch older than this many virtual ticks is flushed
  /// by on_tick(), bounding the latency a parked AM can accrue when its
  /// flow goes quiet before a threshold is reached.
  std::uint64_t batch_flush_ticks = 1;
  /// Adaptive per-peer RTO (gray-failure mitigation): first-retransmit
  /// deadlines computed Jacobson/Karels-style from the flow's observed ack
  /// RTTs (integer fixed point, Karn's rule: only never-retransmitted
  /// frames feed the estimator) instead of the fixed RetryPolicy base.
  /// Per-attempt growth stays exponential and everything stays a pure
  /// function of virtual ticks. Off by default: the fixed schedule is baked
  /// into every existing sweep digest.
  bool adaptive_rto = false;
  /// Escalation: after this many consecutive retransmits of the SAME frame
  /// the peer is reported suspect — `net.peer_suspect` counter plus the
  /// owner's suspect callback (the Runtime writes a FailureLedger record
  /// feeding HealthMonitor) — so a gray peer is surfaced, never silently
  /// spun on. Reported once per frame. 0 disables.
  int suspect_after = 6;
};

/// Per-destination sender-side flow snapshot (for invariant checkers).
struct ReliableTxFlow {
  NodeId peer = 0;
  std::uint64_t sent = 0;    // logical frames (batches) handed to the wire
  std::uint64_t acked = 0;   // cumulatively acked by the peer
  std::uint64_t unacked = 0; // still awaiting ack (retransmit candidates)
  std::uint64_t ams_sent = 0;     // inner AMs accepted by send()/send_with()
  std::uint64_t open_records = 0; // AMs parked in the open batch (0 at rest)
  // Health signals (HealthMonitor differences these between samples).
  std::uint64_t retransmits = 0;  // retransmissions toward this peer
  std::uint64_t srtt_ticks = 0;   // smoothed ack RTT, virtual ticks
  std::uint64_t rttvar_ticks = 0; // RTT mean deviation, virtual ticks
  std::uint64_t rtt_samples = 0;  // Karn-eligible samples folded in
};

/// Per-source receiver-side flow snapshot (for invariant checkers).
struct ReliableRxFlow {
  NodeId peer = 0;
  std::uint64_t dispatched = 0;     // frames handed to the app, in order
  std::uint64_t dup_suppressed = 0; // duplicate frames absorbed
  std::uint64_t evicted = 0;        // refused beyond the reorder window
  std::uint64_t buffered = 0;       // currently parked in the reorder buffer
  std::uint64_t ams_dispatched = 0; // inner AMs handed to the app, in order
};

class ReliableLink {
 public:
  /// Invoked for every dispatched frame with the inner channel id and a
  /// reader over the application payload. Runs on the control thread from
  /// inside Endpoint::poll.
  using Dispatch =
      std::function<void(NodeId src, AmHandlerId channel, util::ByteReader&)>;

  /// Invoked (at most once per frame) when a frame crosses suspect_after
  /// consecutive retransmits: the peer is probably degraded or gone.
  using SuspectCallback =
      std::function<void(NodeId peer, std::uint64_t seq, int retransmits)>;

  /// Registers the DATA and ACK handlers on `endpoint` — construction order
  /// is part of the wire contract, exactly like the runtime's own handlers.
  ReliableLink(Endpoint& endpoint, ReliableOptions options, Dispatch dispatch);

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Sends `payload` to `dst` on the inner `channel`, appended to the open
  /// batch for that destination (flushed per the rules above) and retained
  /// until acked.
  void send(NodeId dst, AmHandlerId channel, std::vector<std::byte> payload);

  /// Zero-copy send: `fn(ByteWriter&)` serializes the AM payload directly
  /// into the open batch buffer — no intermediate staging vector. The
  /// payload's length prefix is patched in after `fn` returns, so `fn` may
  /// write any amount. `size_hint` pre-reserves batch capacity.
  template <typename Fn>
  void send_with(NodeId dst, AmHandlerId channel, std::size_t size_hint,
                 Fn&& fn) {
    TxFlow& flow = begin_record(dst, channel, size_hint);
    util::ByteWriter w(flow.open_batch);  // sink mode: appends in place
    const std::size_t len_at = w.write_placeholder<std::uint64_t>();
    fn(w);
    const std::size_t body = w.size() - (len_at + sizeof(std::uint64_t));
    w.patch<std::uint64_t>(len_at, static_cast<std::uint64_t>(body));
    end_record(dst, flow, body, /*zero_copy=*/true);
  }

  /// Flushes every open batch (one DATA frame per non-empty destination).
  /// The runtime calls this at the end of each control-loop sweep so
  /// aggregation coalesces within a sweep but never delays an AM across
  /// one. Returns true when anything was flushed.
  bool flush();

  /// Advances virtual time by one tick, flushes batches that aged past
  /// batch_flush_ticks, and retransmits every overdue unacked frame (an
  /// overdue flow's open batch is flushed first so fresh AMs ride the same
  /// recovery cycle). Call once per control-loop iteration; returns true
  /// when anything was flushed or retransmitted (i.e. work was done).
  bool on_tick();

  /// Handler ids the link registered (wired into fault plans by tests).
  [[nodiscard]] AmHandlerId data_handler_id() const { return data_id_; }
  [[nodiscard]] AmHandlerId ack_handler_id() const { return ack_id_; }

  // --- quiescence ----------------------------------------------------------

  /// True while any sent frame is unacked OR any batch is still open; blocks
  /// the owner's idle flag so the termination detector can never quiesce
  /// over a lost (or not-yet-flushed) message.
  [[nodiscard]] bool has_unacked() const;
  /// Frames parked in reorder buffers (must be zero at quiescence).
  [[nodiscard]] std::size_t rx_buffered() const;
  /// Frames still unacked toward one specific peer, counting an open batch
  /// as one frame-to-be. The membership drain gate uses this to keep a node
  /// Draining until every byte other nodes owe it (and it owes them) has
  /// been acknowledged.
  [[nodiscard]] std::uint64_t unacked_to(NodeId peer) const {
    const auto it = tx_.find(peer);
    if (it == tx_.end()) return 0;
    return it->second.unacked.size() + (it->second.open_records > 0 ? 1 : 0);
  }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] std::vector<ReliableTxFlow> tx_flows() const;
  [[nodiscard]] std::vector<ReliableRxFlow> rx_flows() const;
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t dups_suppressed() const {
    return dups_suppressed_;
  }
  /// DATA frames flushed to the wire (first transmissions, not counting
  /// retransmits). batches() * mean batch fill == ams_sent().
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  /// Inner AMs accepted across all destinations.
  [[nodiscard]] std::uint64_t ams_sent() const { return ams_sent_; }
  /// Payload bytes serialized in place by send_with (bytes that skipped the
  /// per-message staging vector entirely).
  [[nodiscard]] std::uint64_t zero_copy_bytes() const {
    return zero_copy_bytes_;
  }
  /// Dispatches whose sequence was not exactly the previous + 1. Zero by
  /// construction; check_fifo_restored pins that construction.
  [[nodiscard]] std::uint64_t dispatch_order_violations() const {
    return order_violations_;
  }
  /// Frames that crossed the suspect_after retransmit threshold (each
  /// counted once, however long it keeps retransmitting afterward).
  [[nodiscard]] std::uint64_t peer_suspects() const { return peer_suspects_; }
  void set_suspect_callback(SuspectCallback cb) {
    suspect_cb_ = std::move(cb);
  }

 private:
  struct Pending {
    /// The complete wire frame: [seq:u64][count:u32][count records], header
    /// patched at flush so retransmission is a plain re-send of these bytes.
    std::vector<std::byte> payload;
    std::uint32_t records = 0;     // inner AMs in this frame
    int attempt = 1;               // transmissions so far
    std::uint64_t sent_tick = 0;   // flush (first transmission; ack RTT basis)
    std::uint64_t retx_tick = 0;   // next retransmission deadline
    bool suspect_reported = false; // suspect_after escalation fired already
  };
  struct TxFlow {
    std::uint64_t next_seq = 1;
    std::uint64_t cum_acked = 0;
    std::uint64_t ams_sent = 0;
    /// Jacobson/Karels estimator state in fixed point (srtt << 3 and
    /// rttvar << 2, both in virtual ticks). Always maintained — it is a
    /// health signal even when adaptive_rto leaves the schedule fixed.
    std::uint64_t srtt_x8 = 0;
    std::uint64_t rttvar_x4 = 0;
    std::uint64_t rtt_samples = 0;
    std::uint64_t retransmits = 0;
    std::map<std::uint64_t, Pending> unacked;
    /// Open batch: wire frame under construction, header placeholder
    /// written at open, seq/count patched at flush.
    std::vector<std::byte> open_batch;
    std::uint32_t open_records = 0;
    std::uint64_t opened_tick = 0;
  };
  struct BufferedFrame {
    std::uint32_t records = 0;
    std::vector<std::byte> payload;  // the records region (header consumed)
  };
  struct RxFlow {
    std::uint64_t next_expected = 1;
    std::uint64_t last_dispatched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t ams_dispatched = 0;
    std::uint64_t dup_suppressed = 0;
    std::uint64_t evicted = 0;
    std::map<std::uint64_t, BufferedFrame> buffer;
  };

  void on_data(NodeId src, util::ByteReader& in);
  void on_ack(NodeId src, util::ByteReader& in);
  /// Opens the destination's batch if needed (writing the frame-header
  /// placeholder) and appends the record's channel id; the caller appends
  /// the length-prefixed payload and calls end_record.
  TxFlow& begin_record(NodeId dst, AmHandlerId channel, std::size_t size_hint);
  void end_record(NodeId dst, TxFlow& flow, std::size_t body_bytes,
                  bool zero_copy);
  /// Seals the open batch into a Pending frame (patching seq/count into the
  /// header), transmits it, and arms its retransmit timer. No-op when the
  /// batch is empty; returns whether a frame went out.
  bool flush_flow(NodeId dst, TxFlow& flow);
  void transmit(NodeId dst, const Pending& frame);
  void send_ack(NodeId dst, std::uint64_t cum);
  void dispatch_frame(NodeId src, RxFlow& flow, std::uint64_t seq,
                      std::uint32_t records, std::span<const std::byte> payload);
  [[nodiscard]] std::uint64_t retx_delay_ticks(const TxFlow& flow, NodeId dst,
                                               std::uint64_t seq,
                                               int attempt) const;

  Endpoint& endpoint_;
  ReliableOptions options_;
  Dispatch dispatch_;
  AmHandlerId data_id_ = 0;
  AmHandlerId ack_id_ = 0;
  std::uint64_t tick_ = 0;
  // std::map: retransmission scans iterate in deterministic order.
  std::map<NodeId, TxFlow> tx_;
  std::map<NodeId, RxFlow> rx_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t dups_suppressed_ = 0;
  std::uint64_t order_violations_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t ams_sent_ = 0;
  std::uint64_t zero_copy_bytes_ = 0;
  std::uint64_t peer_suspects_ = 0;
  SuspectCallback suspect_cb_;
  obs::Counter* m_retransmits_;       // net.retransmits
  obs::Counter* m_dups_suppressed_;   // net.dups_suppressed
  obs::Counter* m_reorder_buffered_;  // net.reorder_buffered
  obs::Counter* m_reorder_evicted_;   // net.reorder_evicted
  obs::Counter* m_batches_;           // net.batches
  obs::Counter* m_zero_copy_;         // net.bytes_saved_zero_copy
  obs::Counter* m_peer_suspect_;      // net.peer_suspect
  obs::HistogramMetric* m_ack_rtt_;   // net.ack_rtt_us (virtual us)
  obs::HistogramMetric* m_batch_fill_;  // net.batch_fill (records per frame)
};

}  // namespace mrts::net
