// Discrete-event vehicle-network engine: multiple CAN segments with
// non-preemptive priority arbitration, worst-case stuff-bit frame times
// (can::CanMessage::FrameTimeMs), and gateway store-and-forward between
// segments.
//
// The engine executes *slots*: periodic transmission opportunities. A slot
// without a client models functional background traffic (it always
// transmits). A slot with a SlotClient asks the client for payload at every
// firing — this is how the segmented transport rides the mirrored copies of
// a shut-off ECU's functional messages without ever changing their timing.
//
// The engine runs open-ended in phases, spans bus segments, and reports the
// outcome of every frame to its producer, which is what the retry path of
// the transport layer needs.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "can/message.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"

namespace bistdse::net {

using BusIndex = std::size_t;

/// Transport metadata piggy-backed on a frame. Functional frames keep
/// transfer == 0.
struct FrameMeta {
  std::uint64_t transfer = 0;
  std::uint32_t seq = 0;
  std::uint32_t data_bytes = 0;  ///< Goodput carried by this frame.
  bool first_frame = false;      ///< ISO-TP-style first frame (length header).
};

/// Payload source/sink attached to a slot. FillFrame is called at each slot
/// firing; OnOutcome reports the fate of every frame the client filled.
class SlotClient {
 public:
  virtual ~SlotClient() = default;
  /// Return false to leave the slot idle this period.
  virtual bool FillFrame(double now_ms, std::uint32_t payload_capacity,
                         FrameMeta& meta) = 0;
  virtual void OnOutcome(double now_ms, const FrameMeta& meta,
                         FrameFate fate) = 0;
};

/// One periodic transmission slot, possibly routed over several bus
/// segments (the gateway forwards between consecutive path entries).
struct PeriodicSlot {
  can::CanMessage message;           ///< Payload size / period / jitter.
  std::vector<BusIndex> path;        ///< Bus segments in traversal order.
  std::vector<can::CanId> hop_ids;   ///< CAN id per segment (same size).
  double first_release_ms = 0.0;
  SlotClient* client = nullptr;      ///< nullptr: functional filler traffic.
};

struct SlotHopStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_reordered = 0;
  double max_response_ms = 0.0;
  double total_response_ms = 0.0;
};

class NetworkEngine {
 public:
  explicit NetworkEngine(FaultInjector* injector = nullptr,
                         EventTrace* trace = nullptr,
                         bool trace_frames = false)
      : injector_(injector),
        trace_(trace),
        frame_trace_(trace != nullptr && trace_frames) {}

  BusIndex AddBus(std::string name, double bitrate_bps);

  /// Registers a slot and schedules its first release. `path` and `hop_ids`
  /// must be non-empty and of equal size. Returns the slot index. Slots may
  /// also be added between Run calls (serve::DiagnosisServer registers its
  /// endpoints on a running engine).
  std::size_t AddSlot(const PeriodicSlot& slot);

  void SetGatewayDelayMs(double delay_ms) { gateway_delay_ms_ = delay_ms; }

  /// Advances simulated time to `until_ms` (events at exactly `until_ms`
  /// are processed). `stop` is checked after every frame outcome; the engine
  /// then returns early at the stopping event's time. Run may be called
  /// repeatedly with increasing horizons — slot schedules and queued frames
  /// persist across calls (phased execution).
  template <class Stop>
  double Run(double until_ms, Stop&& stop) {
    const std::uint64_t until = Event::EncodeTime(until_ms);
    while (!events_.empty() && events_.front().time <= until) {
      if (Step() && stop()) return now_ms_;
    }
    now_ms_ = std::max(now_ms_, until_ms);
    return now_ms_;
  }
  double Run(double until_ms) {
    return Run(until_ms, [] { return false; });
  }

  double NowMs() const { return now_ms_; }
  const SlotHopStats& StatsOf(std::size_t slot, std::size_t hop) const {
    return stats_[slot_state_[slot].first_hop + hop];
  }
  const std::string& BusName(BusIndex bus) const { return buses_[bus].name; }
  double BusBusyMs(BusIndex bus) const { return buses_[bus].busy_ms; }

 private:
  enum class EventKind : std::uint8_t { Release, HopArrival, BusFree };

  /// One pending event in 16 bytes. `time` is the event time mapped to an
  /// unsigned integer of the same order; `key` packs the push order (high
  /// bits), the kind and the target (slot, slot-hop or bus index). Ordering
  /// by (time, key) is therefore ordering by (time, push order) — the FIFO
  /// tie-break that keeps the schedule deterministic — and is a single
  /// 128-bit comparison.
  struct Event {
    std::uint64_t time;
    std::uint64_t key;

    static constexpr unsigned kTargetBits = 24;
    static constexpr unsigned kOrderShift = kTargetBits + 2;
    static constexpr std::uint64_t kMaxTarget = (1u << kTargetBits) - 1;
    static constexpr std::uint64_t kMaxOrder =
        (std::uint64_t{1} << (64 - kOrderShift)) - 1;
    static constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

    /// Order-preserving map of a (non-NaN) double; -0 is folded into +0.
    static std::uint64_t EncodeTime(double ms) {
      const auto bits = std::bit_cast<std::uint64_t>(ms + 0.0);
      return (bits & kSign) != 0 ? ~bits : bits | kSign;
    }
    double TimeMs() const {
      return std::bit_cast<double>((time & kSign) != 0 ? time & ~kSign
                                                       : ~time);
    }
    EventKind Kind() const {
      return static_cast<EventKind>((key >> kTargetBits) & 3u);
    }
    std::uint32_t Target() const {
      return static_cast<std::uint32_t>(key & kMaxTarget);
    }
    unsigned __int128 Rank() const {
      return static_cast<unsigned __int128>(time) << 64 | key;
    }
  };

  /// Per slot-hop constants, flattened across slots (the slot-hop index).
  struct Hop {
    double frame_ms;  ///< Worst-case frame time on this hop's bus.
    can::CanId id;
    std::uint32_t bus;
    std::uint32_t slot;
    bool last;        ///< Final segment of the slot's path.
  };

  struct SlotState {
    double period_ms;
    std::uint32_t payload_bytes;
    std::uint32_t first_hop;
    SlotClient* client;
  };

  struct PendingFrame {
    can::CanId id;
    std::uint32_t hop;  ///< Slot-hop index.
    double release_ms;
    FrameMeta meta;
  };

  struct Bus {
    std::string name;
    double bitrate_bps;
    /// Queued frames, at most one per id, sorted by *descending* id so the
    /// arbitration winner (lowest id) is at the back.
    std::vector<PendingFrame> ready;
    PendingFrame in_flight{};
    bool busy = false;
    double busy_ms = 0.0;
  };

  /// Pops and handles the next event; true when it was a frame outcome.
  bool Step();
  void Push(double time_ms, EventKind kind, std::uint32_t target);
  /// Places `e` at heap position `i` or above (i is free to overwrite).
  void SiftUp(std::size_t i, Event e);
  void PopEvent();
  void HandleRelease(std::uint32_t slot_index);
  void Enqueue(std::uint32_t hop_index, const FrameMeta& meta);
  void TryStart(BusIndex bus_index);
  void HandleCompletion(BusIndex bus_index);
  void TraceFrame(TraceEventKind kind, BusIndex bus, can::CanId id,
                  const FrameMeta& meta);

  FaultInjector* injector_;
  EventTrace* trace_;
  bool frame_trace_;  ///< trace_ attached and frame events requested.
  double gateway_delay_ms_ = 1.0;
  double now_ms_ = 0.0;
  std::uint64_t order_counter_ = 0;
  std::vector<Bus> buses_;
  std::vector<SlotState> slot_state_;
  std::vector<Hop> hops_;
  std::vector<SlotHopStats> stats_;  ///< Indexed by slot-hop.
  /// 4-ary min-heap on Event::Rank().
  std::vector<Event> events_;
};

}  // namespace bistdse::net
