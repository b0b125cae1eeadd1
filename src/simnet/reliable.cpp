#include "simnet/reliable.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace mrts::net {

// Wire format. DATA: seq (u64), record count (u32), then `count` records of
// [inner channel (AmHandlerId), payload length (u64), payload bytes]. The
// open batch IS the wire frame under construction — the header is written as
// a placeholder when the batch opens and patched at flush, so retransmission
// is a plain re-send of the retained bytes.
// ACK: cumulative sequence (u64) — "I have dispatched everything <= cum".
// Acks are unreliable by design: a lost ack merely provokes a retransmit
// whose duplicate the receiver suppresses and re-acks.

namespace {
constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);
/// Virtual microseconds one on_tick() call represents when mapping
/// RetryPolicy delays (microseconds) onto tick counts, and RTT ticks onto
/// the ack-RTT histogram.
constexpr std::uint64_t kTickQuantumUs = 100;
}  // namespace

ReliableLink::ReliableLink(Endpoint& endpoint, ReliableOptions options,
                           Dispatch dispatch)
    : endpoint_(endpoint),
      options_(options),
      dispatch_(std::move(dispatch)),
      m_retransmits_(&obs::MetricsRegistry::global().counter("net.retransmits")),
      m_dups_suppressed_(
          &obs::MetricsRegistry::global().counter("net.dups_suppressed")),
      m_reorder_buffered_(
          &obs::MetricsRegistry::global().counter("net.reorder_buffered")),
      m_reorder_evicted_(
          &obs::MetricsRegistry::global().counter("net.reorder_evicted")),
      m_batches_(&obs::MetricsRegistry::global().counter("net.batches")),
      m_zero_copy_(&obs::MetricsRegistry::global().counter(
          "net.bytes_saved_zero_copy")),
      m_peer_suspect_(
          &obs::MetricsRegistry::global().counter("net.peer_suspect")),
      m_ack_rtt_(&obs::MetricsRegistry::global().histogram("net.ack_rtt_us")),
      m_batch_fill_(
          &obs::MetricsRegistry::global().histogram("net.batch_fill")) {
  assert(dispatch_ != nullptr);
  assert(options_.batch_max_records >= 1);
  data_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { on_data(src, in); });
  ack_id_ = endpoint_.register_handler(
      [this](NodeId src, util::ByteReader& in) { on_ack(src, in); });
}

void ReliableLink::send(NodeId dst, AmHandlerId channel,
                        std::vector<std::byte> payload) {
  TxFlow& flow = begin_record(dst, channel, payload.size());
  util::ByteWriter w(flow.open_batch);
  w.write_vector(payload);
  end_record(dst, flow, payload.size(), /*zero_copy=*/false);
}

ReliableLink::TxFlow& ReliableLink::begin_record(NodeId dst,
                                                 AmHandlerId channel,
                                                 std::size_t size_hint) {
  TxFlow& flow = tx_[dst];
  util::ByteWriter w(flow.open_batch);
  if (flow.open_records == 0) {
    flow.opened_tick = tick_;
    flow.open_batch.reserve(kFrameHeaderBytes + size_hint + 16);
    w.write<std::uint64_t>(0);  // seq — patched at flush
    w.write<std::uint32_t>(0);  // record count — patched at flush
  }
  w.write(channel);
  return flow;
}

void ReliableLink::end_record(NodeId dst, TxFlow& flow,
                              std::size_t body_bytes, bool zero_copy) {
  ++flow.open_records;
  ++flow.ams_sent;
  ++ams_sent_;
  if (zero_copy) {
    zero_copy_bytes_ += body_bytes;
    m_zero_copy_->inc(body_bytes);
  }
  if (flow.open_records >= options_.batch_max_records ||
      flow.open_batch.size() - kFrameHeaderBytes >= options_.batch_max_bytes) {
    flush_flow(dst, flow);
  }
}

bool ReliableLink::flush_flow(NodeId dst, TxFlow& flow) {
  if (flow.open_records == 0) return false;
  const std::uint64_t seq = flow.next_seq++;
  Pending frame{
      .payload = std::move(flow.open_batch),
      .records = flow.open_records,
      .attempt = 1,
      .sent_tick = tick_,
      .retx_tick = tick_ + retx_delay_ticks(flow, dst, seq, 1),
  };
  flow.open_batch = {};
  flow.open_records = 0;
  util::ByteWriter w(frame.payload);
  w.patch<std::uint64_t>(0, seq);
  w.patch<std::uint32_t>(sizeof(std::uint64_t), frame.records);
  ++batches_;
  m_batches_->inc();
  m_batch_fill_->observe(frame.records);
  transmit(dst, frame);
  flow.unacked.emplace(seq, std::move(frame));
  return true;
}

bool ReliableLink::flush() {
  bool did = false;
  for (auto& [dst, flow] : tx_) did |= flush_flow(dst, flow);
  return did;
}

void ReliableLink::transmit(NodeId dst, const Pending& frame) {
  // One copy per transmission: the wire takes ownership of its bytes while
  // the Pending retains the frame for retransmit.
  auto bytes = frame.payload;
  endpoint_.send(dst, data_id_, std::move(bytes));
}

void ReliableLink::send_ack(NodeId dst, std::uint64_t cum) {
  util::ByteWriter w(8);
  w.write(cum);
  endpoint_.send(dst, ack_id_, w.take());
}

std::uint64_t ReliableLink::retx_delay_ticks(const TxFlow& flow, NodeId dst,
                                             std::uint64_t seq,
                                             int attempt) const {
  // Growth is capped, attempts are not: delay_for's exponential scale stops
  // growing past max_retries + 1, so an arbitrarily long outage costs a
  // bounded (and deterministic) retransmit cadence, never a give-up.
  const int capped =
      std::min(attempt, options_.retransmit.max_retries + 1);
  if (options_.adaptive_rto && flow.rtt_samples > 0) {
    // RTO = srtt + 4 * rttvar (Jacobson/Karels), clamped, then doubled per
    // attempt with the same growth cap as the fixed schedule. All integer
    // tick arithmetic over virtual-time samples: replays byte-identically.
    constexpr std::uint64_t kMinRtoTicks = 4;
    constexpr std::uint64_t kMaxRtoTicks = 2000;
    const std::uint64_t base = std::clamp<std::uint64_t>(
        (flow.srtt_x8 >> 3) + flow.rttvar_x4, kMinRtoTicks, kMaxRtoTicks);
    const auto shift = static_cast<std::uint64_t>(std::max(capped, 1) - 1);
    const std::uint64_t grown = shift >= 63 ? kMaxRtoTicks : base << shift;
    return std::clamp<std::uint64_t>(grown, 1, kMaxRtoTicks);
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(dst) << 32) ^ seq;
  const auto us = options_.retransmit.delay_for(key, std::max(capped, 1));
  return std::max<std::uint64_t>(
      static_cast<std::uint64_t>(us.count()) / kTickQuantumUs, 1);
}

bool ReliableLink::on_tick() {
  ++tick_;
  bool did = false;
  for (auto& [dst, flow] : tx_) {
    // Age-out: a batch parked past the flush horizon goes out now. A flow
    // with an overdue frame also flushes first (the retransmit boundary) so
    // fresh AMs ride the same recovery cycle instead of aging further.
    if (flow.open_records > 0 &&
        tick_ - flow.opened_tick >= options_.batch_flush_ticks) {
      did |= flush_flow(dst, flow);
    }
    if (flow.open_records > 0) {
      for (const auto& [seq, frame] : flow.unacked) {
        if (frame.retx_tick <= tick_) {
          did |= flush_flow(dst, flow);
          break;
        }
      }
    }
    for (auto& [seq, frame] : flow.unacked) {
      if (frame.retx_tick > tick_) continue;
      ++frame.attempt;
      frame.retx_tick = tick_ + retx_delay_ticks(flow, dst, seq, frame.attempt);
      transmit(dst, frame);
      ++retransmits_;
      ++flow.retransmits;
      m_retransmits_->inc();
      // Escalation: a frame retransmitted suspect_after times in a row has
      // seen no ack progress for the whole backoff ladder — report the peer
      // suspect exactly once (we keep retransmitting regardless; giving up
      // is the membership layer's call, not the transport's).
      const int consecutive = frame.attempt - 1;
      if (options_.suspect_after > 0 && !frame.suspect_reported &&
          consecutive >= options_.suspect_after) {
        frame.suspect_reported = true;
        ++peer_suspects_;
        m_peer_suspect_->inc();
        if (suspect_cb_) suspect_cb_(dst, seq, consecutive);
      }
      did = true;
    }
  }
  return did;
}

void ReliableLink::on_data(NodeId src, util::ByteReader& in) {
  const auto seq = in.read<std::uint64_t>();
  const auto records = in.read<std::uint32_t>();
  RxFlow& flow = rx_[src];

  if (seq < flow.next_expected || flow.buffer.contains(seq)) {
    // Duplicate (retransmit of something already dispatched or parked):
    // absorb it and re-ack so the sender stops resending. Whole-frame dedup:
    // none of the batch's inner AMs is dispatched again.
    ++flow.dup_suppressed;
    ++dups_suppressed_;
    m_dups_suppressed_->inc();
    send_ack(src, flow.next_expected - 1);
    return;
  }
  if (seq >= flow.next_expected + options_.reorder_window) {
    // Beyond the reorder buffer: refuse without acking. The cumulative ack
    // leaves it unacked at the sender, whose retransmit will find the
    // window advanced once the gap frames arrive. Nothing of the batch is
    // dispatched — eviction is atomic at frame granularity, so every inner
    // AM returns via the same retransmission.
    ++flow.evicted;
    m_reorder_evicted_->inc();
    send_ack(src, flow.next_expected - 1);
    return;
  }
  if (seq != flow.next_expected) {
    // Ahead of the gap: park until the missing frame arrives.
    const auto payload = in.read_bytes(in.remaining());
    flow.buffer.emplace(
        seq, BufferedFrame{records, {payload.begin(), payload.end()}});
    m_reorder_buffered_->inc();
    send_ack(src, flow.next_expected - 1);
    return;
  }
  // In order: dispatch straight from the arrival buffer (no copy), then
  // flush everything the gap was holding back.
  dispatch_frame(src, flow, seq, records, in.read_bytes(in.remaining()));
  while (true) {
    auto it = flow.buffer.find(flow.next_expected);
    if (it == flow.buffer.end()) break;
    BufferedFrame frame = std::move(it->second);
    flow.buffer.erase(it);
    dispatch_frame(src, flow, flow.next_expected, frame.records,
                   frame.payload);
  }
  send_ack(src, flow.next_expected - 1);
}

void ReliableLink::dispatch_frame(NodeId src, RxFlow& flow, std::uint64_t seq,
                                  std::uint32_t records,
                                  std::span<const std::byte> payload) {
  if (seq != flow.last_dispatched + 1) ++order_violations_;
  flow.last_dispatched = seq;
  flow.next_expected = seq + 1;
  ++flow.dispatched;
  util::ByteReader in(payload);
  for (std::uint32_t r = 0; r < records; ++r) {
    const auto channel = in.read<AmHandlerId>();
    // Zero-copy: the handler reads a window into the frame, not a copy.
    const auto body = in.read_byte_span();
    util::ByteReader reader(body);
    dispatch_(src, channel, reader);
    ++flow.ams_dispatched;
  }
}

void ReliableLink::on_ack(NodeId src, util::ByteReader& in) {
  const auto cum = in.read<std::uint64_t>();
  auto it = tx_.find(src);
  if (it == tx_.end()) return;
  TxFlow& flow = it->second;
  flow.cum_acked = std::max(flow.cum_acked, cum);
  auto& unacked = flow.unacked;
  for (auto f = unacked.begin(); f != unacked.end() && f->first <= cum;) {
    // RTT from the FIRST transmission (sent_tick is set once, at flush, and
    // never touched by retransmission): a retransmitted frame's sample
    // includes the backoff it waited, which is exactly the latency the
    // application observed. One cumulative ack retiring N frames records N
    // samples — one per frame, each erased here so no later (stale or
    // duplicate) ack can sample it again.
    m_ack_rtt_->observe((tick_ - f->second.sent_tick) * kTickQuantumUs);
    // Karn's rule: only frames acked on their FIRST transmission feed the
    // RTT estimator — a retransmitted frame's ack is ambiguous (it may
    // answer either copy) and its sample is inflated by the backoff.
    if (f->second.attempt == 1) {
      const std::uint64_t sample = tick_ - f->second.sent_tick;
      if (flow.rtt_samples == 0) {
        flow.srtt_x8 = sample << 3;
        flow.rttvar_x4 = sample << 1;
      } else {
        const std::uint64_t srtt = flow.srtt_x8 >> 3;
        const std::uint64_t delta = sample > srtt ? sample - srtt
                                                  : srtt - sample;
        // rttvar = 3/4 rttvar + 1/4 delta; srtt = 7/8 srtt + 1/8 sample.
        flow.rttvar_x4 = flow.rttvar_x4 - (flow.rttvar_x4 >> 2) + delta;
        flow.srtt_x8 = flow.srtt_x8 - (flow.srtt_x8 >> 3) + sample;
      }
      ++flow.rtt_samples;
    }
    f = unacked.erase(f);
  }
  // Empty pipe: nothing in flight toward this peer, so holding the open
  // batch buys no aggregation — the ack boundary flushes it.
  if (flow.unacked.empty() && flow.open_records > 0) flush_flow(src, flow);
}

bool ReliableLink::has_unacked() const {
  for (const auto& [dst, flow] : tx_) {
    if (!flow.unacked.empty() || flow.open_records > 0) return true;
  }
  return false;
}

std::size_t ReliableLink::rx_buffered() const {
  std::size_t n = 0;
  for (const auto& [src, flow] : rx_) n += flow.buffer.size();
  return n;
}

std::vector<ReliableTxFlow> ReliableLink::tx_flows() const {
  std::vector<ReliableTxFlow> out;
  out.reserve(tx_.size());
  for (const auto& [dst, flow] : tx_) {
    out.push_back(ReliableTxFlow{
        .peer = dst,
        .sent = flow.next_seq - 1,
        .acked = flow.cum_acked,
        .unacked = flow.unacked.size(),
        .ams_sent = flow.ams_sent,
        .open_records = flow.open_records,
        .retransmits = flow.retransmits,
        .srtt_ticks = flow.srtt_x8 >> 3,
        .rttvar_ticks = flow.rttvar_x4 >> 2,
        .rtt_samples = flow.rtt_samples,
    });
  }
  return out;
}

std::vector<ReliableRxFlow> ReliableLink::rx_flows() const {
  std::vector<ReliableRxFlow> out;
  out.reserve(rx_.size());
  for (const auto& [src, flow] : rx_) {
    out.push_back(ReliableRxFlow{
        .peer = src,
        .dispatched = flow.dispatched,
        .dup_suppressed = flow.dup_suppressed,
        .evicted = flow.evicted,
        .buffered = flow.buffer.size(),
        .ams_dispatched = flow.ams_dispatched,
    });
  }
  return out;
}

}  // namespace mrts::net
