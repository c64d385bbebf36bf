// Unit tests of the discrete-event network engine, the segmented transport,
// the fault injector, and the event trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "net/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/trace.hpp"
#include "net/transport.hpp"

namespace bistdse::net {
namespace {

can::CanMessage Msg(can::CanId id, std::uint32_t bytes, double period_ms) {
  can::CanMessage m;
  m.id = id;
  m.payload_bytes = bytes;
  m.period_ms = period_ms;
  m.name = "m" + std::to_string(id);
  return m;
}

PeriodicSlot Slot(can::CanMessage message, std::vector<BusIndex> path,
                  std::vector<can::CanId> hop_ids, SlotClient* client = nullptr,
                  double first_release_ms = 0.0) {
  PeriodicSlot slot;
  slot.message = std::move(message);
  slot.path = std::move(path);
  slot.hop_ids = std::move(hop_ids);
  slot.client = client;
  slot.first_release_ms = first_release_ms;
  return slot;
}

TEST(NetworkEngine, LowestIdWinsArbitration) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  // Both released at t = 0; the lower id must transmit first, the higher id
  // waits exactly one frame time.
  engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}));
  engine.AddSlot(Slot(Msg(2, 8, 10), {bus}, {2}));
  engine.Run(99.5);  // ten whole periods (a release at t=100 would start an
                     // eleventh frame and skew the busy-time bookkeeping)

  const double frame_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_NEAR(engine.StatsOf(0, 0).max_response_ms, frame_ms, 1e-9);
  EXPECT_NEAR(engine.StatsOf(1, 0).max_response_ms, 2 * frame_ms, 1e-9);
  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 10u);
  EXPECT_EQ(engine.StatsOf(1, 0).frames_sent, 10u);
  EXPECT_NEAR(engine.BusBusyMs(bus), 20 * frame_ms, 1e-9);
}

TEST(NetworkEngine, GatewayForwardsAcrossSegments) {
  EventTrace trace;
  NetworkEngine engine(nullptr, &trace, /*trace_frames=*/true);
  engine.SetGatewayDelayMs(0.5);
  const BusIndex b0 = engine.AddBus("b0", 500e3);
  const BusIndex b1 = engine.AddBus("b1", 500e3);
  // One message crossing both segments with remapped ids.
  engine.AddSlot(Slot(Msg(4, 8, 10), {b0, b1}, {4, 20}));
  engine.Run(9.0);  // within one period: exactly one frame per segment

  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 1u);
  EXPECT_EQ(engine.StatsOf(0, 1).frames_sent, 1u);
  const double frame_ms = Msg(4, 8, 10).FrameTimeMs(500e3);
  // Second hop completes after frame + gateway delay + frame.
  EXPECT_NEAR(engine.StatsOf(0, 1).max_response_ms, frame_ms, 1e-9);
  EXPECT_EQ(trace.CountKind(TraceEventKind::GatewayForward), 1u);
  EXPECT_NEAR(engine.BusBusyMs(b0), frame_ms, 1e-9);
  EXPECT_NEAR(engine.BusBusyMs(b1), frame_ms, 1e-9);
}

TEST(NetworkEngine, RejectsMalformedSlots) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {}, {})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1, 2})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 0), {bus}, {1})),
               std::invalid_argument);
  EXPECT_THROW(engine.AddSlot(Slot(Msg(1, 8, 10), {bus, bus}, {1, 2},
                                   reinterpret_cast<SlotClient*>(0x1))),
               std::invalid_argument);
}

// Semantics pins of the engine's event order: every case below holds for
// any data-structure choice, and each one fails if arbitration, replacement,
// mid-run registration or early stopping changes.

// Releases at the same instant are handled in push order, and each one tries
// the bus at once: on an idle bus the first-pushed frame starts even when a
// lower id is released in the same instant.
TEST(NetworkEngine, SameTimeReleasesOnIdleBusStartInPushOrder) {
  EventTrace trace;
  NetworkEngine engine(nullptr, &trace, /*trace_frames=*/true);
  const BusIndex bus = engine.AddBus("b", 500e3);
  engine.AddSlot(Slot(Msg(5, 8, 10), {bus}, {5}));
  engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}));
  engine.Run(9.0);

  const double frame_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_NEAR(engine.StatsOf(0, 0).max_response_ms, frame_ms, 1e-9);
  EXPECT_NEAR(engine.StatsOf(1, 0).max_response_ms, 2 * frame_ms, 1e-9);
  std::vector<can::CanId> completed;
  for (const TraceEvent& e : trace.Events()) {
    if (e.kind == TraceEventKind::FrameCompleted) completed.push_back(e.id);
  }
  EXPECT_EQ(completed, (std::vector<can::CanId>{5, 1}));
}

// A new instance on an id that is still queued replaces the queued one: the
// frame that finally wins arbitration carries the latest release time.
TEST(NetworkEngine, NewInstanceReplacesQueuedOne) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("slow", 10e3);
  // A long blocker occupies the bus from t = 0 while the short slot below
  // releases every 4 ms into the queue.
  engine.AddSlot(Slot(Msg(1, 8, 1000), {bus}, {1}));
  engine.AddSlot(Slot(Msg(2, 0, 4), {bus}, {2}, nullptr, 1.0));
  const double blocker_ms = Msg(1, 8, 1000).FrameTimeMs(10e3);
  const double short_ms = Msg(2, 0, 4).FrameTimeMs(10e3);
  engine.Run(blocker_ms + short_ms);

  const double last_release = 1.0 + 4.0 * std::floor((blocker_ms - 1.0) / 4.0);
  ASSERT_LT(last_release, blocker_ms);
  EXPECT_EQ(engine.StatsOf(1, 0).frames_sent, 1u);
  EXPECT_NEAR(engine.StatsOf(1, 0).max_response_ms,
              blocker_ms + short_ms - last_release, 1e-9);
}

// Slots registered on a running engine (as the diagnosis server registers
// its endpoints) release at their own first release, in the engine's
// future, and are arbitrated with the slots already running.
TEST(NetworkEngine, AddSlotAfterRunReleasesInTheFuture) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  engine.AddSlot(Slot(Msg(3, 8, 10), {bus}, {3}));
  engine.Run(25.0);
  EXPECT_DOUBLE_EQ(engine.NowMs(), 25.0);
  const std::size_t late =
      engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}, nullptr,
                          engine.NowMs() + 8.0));
  engine.Run(32.0);
  EXPECT_EQ(engine.StatsOf(late, 0).frames_sent, 0u);
  engine.Run(49.0);
  const double frame_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_EQ(engine.StatsOf(late, 0).frames_sent, 2u);  // released 33 and 43
  EXPECT_NEAR(engine.StatsOf(late, 0).max_response_ms, frame_ms, 1e-9);
  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 5u);  // 0, 10, 20, 30, 40
}

// Run(until, stop) returns at the time of the frame outcome that satisfied
// `stop`, and a later Run resumes from there.
TEST(NetworkEngine, RunStopsAtTheStoppingEvent) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  engine.AddSlot(Slot(Msg(1, 8, 10), {bus}, {1}));
  int outcomes = 0;
  const double stopped = engine.Run(1000.0, [&] { return ++outcomes == 3; });
  const double frame_ms = Msg(1, 8, 10).FrameTimeMs(500e3);
  EXPECT_NEAR(stopped, 20.0 + frame_ms, 1e-9);
  EXPECT_DOUBLE_EQ(engine.NowMs(), stopped);
  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 3u);
  EXPECT_DOUBLE_EQ(engine.Run(55.0), 55.0);
  EXPECT_EQ(engine.StatsOf(0, 0).frames_sent, 6u);
}

// Every per-slot-hop counter of a lossy two-segment run with gateway
// forwarding and a transport client, pinned to its exact value: any change
// to the event order, to arbitration or to the order of injector draws
// moves at least one of them.
TEST(NetworkEngine, SlotHopStatsArePinned) {
  FaultInjector injector({.drop_rate = 0.05,
                          .corrupt_rate = 0.03,
                          .reorder_rate = 0.04,
                          .seed = 17});
  NetworkEngine engine(&injector);
  engine.SetGatewayDelayMs(0.4);
  const BusIndex b0 = engine.AddBus("b0", 125e3);
  const BusIndex b1 = engine.AddBus("b1", 250e3);
  SegmentedTransfer transfer(1, "t", 600, {}, nullptr);
  engine.AddSlot(Slot(Msg(6, 8, 2.5), {b0}, {6}, &transfer, 2.5));
  engine.AddSlot(Slot(Msg(2, 8, 5), {b0, b1}, {2, 9}));
  engine.AddSlot(Slot(Msg(4, 3, 7), {b1, b0}, {4, 3}, nullptr, 0.5));
  engine.AddSlot(Slot(Msg(8, 6, 3), {b0}, {8}));
  engine.AddSlot(Slot(Msg(5, 8, 4), {b1}, {5}, nullptr, 1.0));
  transfer.Begin(0.0);
  engine.Run(300.0);

  struct Expected {
    std::size_t slot, hop;
    std::uint64_t sent, dropped, corrupted, reordered;
    double max_response_ms, total_response_ms;
  };
  const Expected expected[] = {
      {0, 0, 92, 12, 5, 7, 3.2000000000001023, 190.82000000000278},
      {1, 0, 60, 4, 3, 2, 1.8400000000000318, 76.720000000000908},
      {1, 1, 53, 4, 1, 0, 0.99999999999994316, 30.480000000000022},
      {2, 0, 43, 2, 2, 0, 0.86000000000001364, 17.699999999999992},
      {2, 1, 39, 3, 0, 2, 2.6799999999999926, 53.680000000000774},
      {3, 0, 88, 3, 1, 2, 3.8400000000000318, 176.0800000000018},
      {4, 0, 75, 6, 0, 4, 0.92000000000007276, 41.740000000000137},
  };
  for (const Expected& e : expected) {
    const SlotHopStats& s = engine.StatsOf(e.slot, e.hop);
    SCOPED_TRACE(::testing::Message() << "slot " << e.slot << " hop " << e.hop);
    EXPECT_EQ(s.frames_sent, e.sent);
    EXPECT_EQ(s.frames_dropped, e.dropped);
    EXPECT_EQ(s.frames_corrupted, e.corrupted);
    EXPECT_EQ(s.frames_reordered, e.reordered);
    EXPECT_DOUBLE_EQ(s.max_response_ms, e.max_response_ms);
    EXPECT_DOUBLE_EQ(s.total_response_ms, e.total_response_ms);
  }
  EXPECT_TRUE(transfer.Done());
}

TEST(SegmentedTransfer, ZeroLossRateMatchesSlotGoodput) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  SegmentedTransfer transfer(1, "t", 8000, {}, nullptr);
  // 8 B every 1 ms -> 8 B/ms; first release after one period.
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(5000.0, [&] { return transfer.Finished(); });

  ASSERT_TRUE(transfer.Done());
  EXPECT_EQ(transfer.Stats().frames_sent, 1000u);
  EXPECT_EQ(transfer.Stats().retransmissions, 0u);
  EXPECT_GE(transfer.ElapsedMs(), 1000.0);       // never beats Eq. 1
  EXPECT_LE(transfer.ElapsedMs(), 1100.0);       // small FC/discretization tail
  EXPECT_GT(transfer.Stats().fc_grants, 0u);
}

TEST(SegmentedTransfer, SurvivesHeavyLossViaRetries) {
  FaultInjector injector({.drop_rate = 0.2, .corrupt_rate = 0.05, .seed = 9});
  EventTrace trace;
  NetworkEngine engine(&injector, &trace);
  const BusIndex bus = engine.AddBus("b", 500e3);
  TransportConfig config;
  config.max_retries = 32;
  SegmentedTransfer transfer(1, "t", 2000, config, &trace);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(60000.0, [&] { return transfer.Finished(); });

  ASSERT_TRUE(transfer.Done()) << "failed: " << transfer.Failed();
  EXPECT_GT(transfer.Stats().retransmissions, 0u);
  EXPECT_GT(transfer.Stats().dropped + transfer.Stats().corrupted, 0u);
  EXPECT_EQ(trace.CountKind(TraceEventKind::Retransmission),
            transfer.Stats().retransmissions);
  // 25 % loss stretches the transfer well past the lossless 250 ms.
  EXPECT_GT(transfer.ElapsedMs(), 250.0);
}

TEST(SegmentedTransfer, ExhaustedRetryBudgetFailsTheTransfer) {
  FaultInjector injector({.drop_rate = 1.0, .seed = 3});  // every frame lost
  EventTrace trace;
  NetworkEngine engine(&injector, &trace);
  const BusIndex bus = engine.AddBus("b", 500e3);
  SegmentedTransfer transfer(1, "t", 64, {}, &trace);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(10000.0, [&] { return transfer.Finished(); });

  EXPECT_TRUE(transfer.Failed());
  EXPECT_FALSE(transfer.Done());
  EXPECT_EQ(trace.CountKind(TraceEventKind::TransferFailed), 1u);
  EXPECT_EQ(transfer.Stats().max_retry_burst, 9u);  // max_retries + 1
}

TEST(SegmentedTransfer, TimeoutFailsSlowTransfers) {
  NetworkEngine engine;
  const BusIndex bus = engine.AddBus("b", 500e3);
  TransportConfig config;
  config.timeout_ms = 50.0;  // 8 B/ms cannot move 8000 B in 50 ms
  SegmentedTransfer transfer(1, "t", 8000, config, nullptr);
  engine.AddSlot(Slot(Msg(2, 8, 1.0), {bus}, {2}, &transfer, 1.0));
  transfer.Begin(0.0);
  engine.Run(5000.0, [&] { return transfer.Finished(); });
  EXPECT_TRUE(transfer.Failed());
}

TEST(FaultInjector, DeterministicAndCounted) {
  FaultInjectorConfig config{.drop_rate = 0.3, .corrupt_rate = 0.1, .seed = 5};
  FaultInjector a(config), b(config);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    const FrameFate fa = a.Judge(true);
    ASSERT_EQ(static_cast<int>(fa), static_cast<int>(b.Judge(true)));
    if (fa == FrameFate::Delivered) ++delivered;
  }
  EXPECT_EQ(a.TotalDropped(), b.TotalDropped());
  // ~60 % delivered, +-5 % tolerance over 2000 draws.
  EXPECT_NEAR(static_cast<double>(delivered) / 2000.0, 0.6, 0.05);

  FaultInjectorConfig off = config;
  off.affect_functional = false;
  FaultInjector c(off);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<int>(c.Judge(false)),
              static_cast<int>(FrameFate::Delivered));
  }
}

TEST(EventTrace, JsonlIsOneObjectPerLineWithEscaping) {
  EventTrace trace;
  trace.Record({1.5, TraceEventKind::PhaseStart, "body", 3, 7, 2,
                "note with \"quotes\" and \\backslash"});
  trace.Record({2.0, TraceEventKind::FrameDropped, "chassis", 4, 0, 0, ""});
  std::ostringstream out;
  trace.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"kind\":\"phase_start\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\backslash"), std::string::npos);
  EXPECT_EQ(trace.CountKind(TraceEventKind::FrameDropped), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.Events().empty());
}

}  // namespace
}  // namespace bistdse::net
