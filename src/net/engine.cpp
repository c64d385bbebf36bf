#include "net/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace bistdse::net {

namespace {

constexpr std::size_t kHeapArity = 4;

}  // namespace

BusIndex NetworkEngine::AddBus(std::string name, double bitrate_bps) {
  if (buses_.size() > Event::kMaxTarget) {
    throw std::length_error("too many buses for the event encoding");
  }
  Bus bus;
  bus.name = std::move(name);
  bus.bitrate_bps = bitrate_bps;
  buses_.push_back(std::move(bus));
  return buses_.size() - 1;
}

std::size_t NetworkEngine::AddSlot(const PeriodicSlot& slot) {
  if (slot.path.empty() || slot.path.size() != slot.hop_ids.size()) {
    throw std::invalid_argument("slot path/hop_ids malformed");
  }
  for (BusIndex b : slot.path) {
    if (b >= buses_.size()) throw std::invalid_argument("unknown bus in path");
  }
  if (slot.message.period_ms <= 0.0) {
    throw std::invalid_argument("slot period must be positive");
  }
  if (slot.client != nullptr && slot.path.size() > 1) {
    // Forwarded frames re-enter with empty metadata; a segmented transfer
    // therefore spans exactly one segment (gateway <-> ECU), which is all
    // the mirrored download/upload paths of the paper need.
    throw std::invalid_argument("transport slots must be single-segment");
  }
  if (hops_.size() + slot.path.size() > Event::kMaxTarget) {
    throw std::length_error("too many slot hops for the event encoding");
  }
  const auto index = static_cast<std::uint32_t>(slot_state_.size());
  slot_state_.push_back({slot.message.period_ms, slot.message.payload_bytes,
                         static_cast<std::uint32_t>(hops_.size()),
                         slot.client});
  for (std::size_t h = 0; h < slot.path.size(); ++h) {
    const BusIndex bus = slot.path[h];
    hops_.push_back({slot.message.FrameTimeMs(buses_[bus].bitrate_bps),
                     slot.hop_ids[h], static_cast<std::uint32_t>(bus), index,
                     h + 1 == slot.path.size()});
  }
  stats_.resize(hops_.size());
  Push(slot.first_release_ms, EventKind::Release, index);
  return index;
}

void NetworkEngine::Push(double time_ms, EventKind kind,
                         std::uint32_t target) {
  if (order_counter_ > Event::kMaxOrder) {
    throw std::overflow_error("event order counter exhausted");
  }
  const Event e{Event::EncodeTime(time_ms),
                order_counter_++ << Event::kOrderShift |
                             std::uint64_t{static_cast<std::uint8_t>(kind)}
                                 << Event::kTargetBits |
                             target};
  events_.push_back(e);
  SiftUp(events_.size() - 1, e);
}

void NetworkEngine::SiftUp(std::size_t i, const Event e) {
  const unsigned __int128 rank = e.Rank();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (rank >= events_[parent].Rank()) break;
    events_[i] = events_[parent];
    i = parent;
  }
  events_[i] = e;
}

void NetworkEngine::PopEvent() {
  const Event last = events_.back();
  events_.pop_back();
  const std::size_t n = events_.size();
  if (n == 0) return;
  // Bottom-up: move the smaller child into the hole down to a leaf, then
  // sift `last` up from there (it usually belongs near the bottom).
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t best = first;
    unsigned __int128 best_rank = events_[first].Rank();
    for (std::size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 r = events_[c].Rank();
      best = r < best_rank ? c : best;
      best_rank = r < best_rank ? r : best_rank;
    }
    events_[i] = events_[best];
    i = best;
  }
  SiftUp(i, last);
}

bool NetworkEngine::Step() {
  const Event e = events_.front();
  PopEvent();
  now_ms_ = e.TimeMs();
  switch (e.Kind()) {
    case EventKind::Release:
      HandleRelease(e.Target());
      return false;
    case EventKind::HopArrival:
      Enqueue(e.Target(), FrameMeta{});
      return false;
    case EventKind::BusFree:
      HandleCompletion(e.Target());
      return true;
  }
  return false;
}

void NetworkEngine::HandleRelease(std::uint32_t slot_index) {
  const SlotState slot = slot_state_[slot_index];
  Push(now_ms_ + slot.period_ms, EventKind::Release, slot_index);

  FrameMeta meta;
  if (slot.client != nullptr) {
    // A still-queued previous instance means the slot's last frame has not
    // even started — do not offer the client a second in-flight frame on the
    // same id (the controller buffer holds one frame per object).
    const Hop& hop = hops_[slot.first_hop];
    const auto& ready = buses_[hop.bus].ready;
    if (std::any_of(ready.begin(), ready.end(), [&](const PendingFrame& f) {
          return f.id == hop.id;
        })) {
      return;
    }
    if (!slot.client->FillFrame(now_ms_, slot.payload_bytes, meta)) {
      return;  // transport has nothing to send: the mirrored slot idles
    }
  }
  Enqueue(slot.first_hop, meta);
}

void NetworkEngine::Enqueue(std::uint32_t hop_index, const FrameMeta& meta) {
  const Hop& hop = hops_[hop_index];
  auto& ready = buses_[hop.bus].ready;
  // Overload semantics: a new instance replaces a previous one still queued
  // on the same id (the controller buffer holds one frame per id).
  const PendingFrame frame{hop.id, hop_index, now_ms_, meta};
  const auto it = std::lower_bound(
      ready.begin(), ready.end(), hop.id,
      [](const PendingFrame& f, can::CanId id) { return f.id > id; });
  if (it != ready.end() && it->id == hop.id) {
    *it = frame;
  } else {
    ready.insert(it, frame);
  }
  if (frame_trace_) {
    TraceFrame(TraceEventKind::FrameReleased, hop.bus, hop.id, meta);
  }
  TryStart(hop.bus);
}

void NetworkEngine::TryStart(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  if (bus.busy || bus.ready.empty()) return;
  bus.in_flight = bus.ready.back();
  bus.ready.pop_back();
  bus.busy = true;
  const double frame_time = hops_[bus.in_flight.hop].frame_ms;
  bus.busy_ms += frame_time;
  Push(now_ms_ + frame_time, EventKind::BusFree,
       static_cast<std::uint32_t>(bus_index));
}

void NetworkEngine::HandleCompletion(BusIndex bus_index) {
  Bus& bus = buses_[bus_index];
  const PendingFrame frame = bus.in_flight;
  bus.busy = false;

  const Hop hop = hops_[frame.hop];
  SlotClient* const client = slot_state_[hop.slot].client;
  SlotHopStats& stats = stats_[frame.hop];
  ++stats.frames_sent;
  const double response = now_ms_ - frame.release_ms;
  stats.max_response_ms = std::max(stats.max_response_ms, response);
  stats.total_response_ms += response;

  const bool is_transport = frame.meta.transfer != 0;
  const FrameFate fate =
      injector_ != nullptr ? injector_->Judge(is_transport)
                           : FrameFate::Delivered;
  // Faults on transport frames are traced even without frame tracing.
  const bool trace_fault = frame_trace_ || (trace_ != nullptr && is_transport);
  switch (fate) {
    case FrameFate::Reordered:
      // The frame reaches the receiver intact, just out of sequence; the
      // segmented transport reassembles by sequence number, so forwarding
      // and outcome delivery follow the Delivered path — only the counters
      // and trace attribute the event.
      ++stats.frames_reordered;
      if (trace_fault) {
        trace_->Record({now_ms_, TraceEventKind::FrameReordered, bus.name,
                        hop.id, frame.meta.transfer, frame.meta.seq, ""});
      }
      [[fallthrough]];
    case FrameFate::Delivered:
      if (frame_trace_) {
        TraceFrame(TraceEventKind::FrameCompleted, bus_index, hop.id,
                   frame.meta);
      }
      if (!hop.last) {
        // Store-and-forward: the gateway re-releases the frame on the next
        // segment after its processing delay.
        Push(now_ms_ + gateway_delay_ms_, EventKind::HopArrival,
             frame.hop + 1);
        if (frame_trace_) {
          const Hop& next = hops_[frame.hop + 1];
          TraceFrame(TraceEventKind::GatewayForward, next.bus, next.id,
                     frame.meta);
        }
      } else if (client != nullptr) {
        client->OnOutcome(now_ms_, frame.meta, fate);
      }
      break;
    case FrameFate::Dropped:
      ++stats.frames_dropped;
      if (trace_fault) {
        trace_->Record({now_ms_, TraceEventKind::FrameDropped, bus.name,
                        hop.id, frame.meta.transfer, frame.meta.seq, ""});
      }
      if (client != nullptr) client->OnOutcome(now_ms_, frame.meta, fate);
      break;
    case FrameFate::Corrupted:
      ++stats.frames_corrupted;
      if (trace_fault) {
        trace_->Record({now_ms_, TraceEventKind::FrameCorrupted, bus.name,
                        hop.id, frame.meta.transfer, frame.meta.seq, ""});
      }
      if (client != nullptr) client->OnOutcome(now_ms_, frame.meta, fate);
      break;
  }
  TryStart(bus_index);
}

void NetworkEngine::TraceFrame(TraceEventKind kind, BusIndex bus,
                               can::CanId id, const FrameMeta& meta) {
  trace_->Record({now_ms_, kind, buses_[bus].name, id, meta.transfer,
                  meta.seq, ""});
}

}  // namespace bistdse::net
