// Workload `serve`: an open-loop fleet load on serve::DiagnosisServer in
// simulated time. ECU endpoints upload the fail data of distinct injected
// faults over the diagnostic bus at 1 % frame loss; the server batches the
// uploads through bist::DictionaryStore::DiagnoseBatch and returns the
// rankings. Every frame is a transport frame (no functional filler), so the
// network engine is exercised differently from `corpus`.
//
// Arrivals are a Poisson process at a fixed offered rate with uniformly
// drawn ECUs; latency runs from a request's due time (release) to its
// answer, and a rejected or failed request counts as over any limit.
//
// The server dispatches a batch the moment an upload lands (its modelled
// service time is 0) and uploads complete one at a time on the shared bus,
// so batches hold a single query at any offered rate: the workload measures
// per-query DiagnoseBatch scoring, not batching.
//
// That scoring slows down by up to 80 % while other loads share the cores,
// for minutes at a time, so pass_s is rescaled to a reference core with a
// calibration kernel timed between the passes (calibrate.hpp).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <memory>
#include <random>
#include <set>

#include "bench.hpp"
#include "calibrate.hpp"
#include "bist/dictionary_store.hpp"
#include "bist/fault_dictionary.hpp"
#include "bist/stumps.hpp"
#include "capacity.hpp"
#include "casestudy/casestudy.hpp"
#include "netlist/random_circuit.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/fault.hpp"

namespace perfbench {
namespace {

using namespace bistdse;

constexpr std::size_t kEcus = 24;
constexpr std::uint64_t kPatterns = 512;
constexpr std::size_t kRequests = 2000;       ///< Per timed pass.
constexpr std::size_t kProbeRequests = 500;   ///< Per capacity probe.
/// Offered requests per simulated second: half of the capacity the
/// benchmark measured on seed 3 when it was defined (55 req/sim-s), a
/// moderate load at which queueing shows in the tail but nothing is
/// rejected. Fixed, so that later programs are measured on the same load.
constexpr double kNominalRate = 27.5;
constexpr double kLatencyLimitMs = 500.0;     ///< p99 objective (sim-ms).
constexpr double kFrameLoss = 0.01;

struct Fleet {
  std::unique_ptr<netlist::Netlist> cut;
  /// The shard artifact every ECU's dictionary is mapped from.
  std::string artifact;
  std::size_t dict_faults = 0;
  /// Fail data of distinct injected faults, in draw order.
  std::vector<std::vector<bist::FailDatum>> payloads;
};

std::string EcuName(std::size_t e) { return "ecu-" + std::to_string(e); }

/// The calibration kernel: a stand-in for the dictionary scoring that
/// dominates Run(), on fixed inputs of a shard's size. Per query it scores
/// 2500 candidates by the overlap of their failing-window masks with the
/// observed one and by signature lookups in a 0.6 MB table, then stable-sorts
/// the scores. None of the program's code runs in it.
std::uint64_t ScoringKernel() {
  constexpr std::size_t kCandidates = 2500;
  constexpr std::size_t kWindows = 32;
  constexpr std::size_t kFailData = 8;
  constexpr std::size_t kQueries = 24;
  struct Inputs {
    std::vector<std::uint64_t> masks, signatures;
    std::vector<std::uint64_t> observed;  ///< kQueries masks.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> fail_data;
  };
  static const Inputs in = [] {
    std::mt19937_64 rng(0x5c0e1e7);
    Inputs d;
    for (std::size_t c = 0; c < kCandidates; ++c) {
      d.masks.push_back(rng() & 0xffffffffULL);
    }
    for (std::size_t i = 0; i < kCandidates * kWindows; ++i) {
      d.signatures.push_back(rng() & 0xff);
    }
    for (std::size_t q = 0; q < kQueries; ++q) {
      d.observed.push_back(rng() & 0xffffffffULL);
      for (std::size_t i = 0; i < kFailData; ++i) {
        d.fail_data.emplace_back(static_cast<std::uint32_t>(rng() % kWindows),
                                 rng() & 0xff);
      }
    }
    return d;
  }();
  std::uint64_t sum = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::uint64_t observed = in.observed[q];
    std::vector<std::pair<double, std::uint32_t>> ranked;
    ranked.reserve(kCandidates);
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const std::uint64_t mask = in.masks[c];
      const int inter = std::popcount(mask & observed);
      const int uni = std::popcount(mask | observed);
      double score = uni == 0 ? 0.0
                              : static_cast<double>(inter) /
                                    static_cast<double>(uni);
      std::size_t matches = 0;
      for (std::size_t i = 0; i < kFailData; ++i) {
        const auto [w, signature] = in.fail_data[q * kFailData + i];
        if (!((mask >> w) & 1)) continue;
        const int rank = std::popcount(mask & ((std::uint64_t{1} << w) - 1));
        matches += in.signatures[c * kWindows + rank] == signature ? 1 : 0;
      }
      score += static_cast<double>(matches) / kFailData;
      ranked.emplace_back(score, static_cast<std::uint32_t>(c));
    }
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t k = 0; k < 5; ++k) sum = sum * 31 + ranked[k].second;
  }
  return sum;
}

/// ScoringKernel's time on the reference core: about its median over the
/// baseline runs in perfbench/README.md. It sets the unit of pass_s, not its
/// spread.
constexpr double kScoringReferenceS = 0.008;

void BuildFleet(std::uint64_t seed, Fleet& fleet, Tracer* tracer) {
  auto spec = casestudy::ScaledCutSpec(seed);
  spec.num_gates = 1500;
  spec.num_flops = 128;
  const bist::StumpsConfig config = casestudy::PaperStumpsConfig();
  {
    Tracer::Scope span(tracer, "netlist.generate");
    fleet.cut = std::make_unique<netlist::Netlist>(
        netlist::GenerateRandomCircuit(spec));
  }
  auto faults = sim::CollapsedFaults(*fleet.cut);
  {
    Tracer::Scope span(tracer, "sim.dict_build");
    bist::FaultDictionary(*fleet.cut, config, kPatterns, {}, faults)
        .Save(fleet.artifact);
    fleet.dict_faults = faults.size();
  }
  // Distinct injected faults in a seeded order; faults whose session passes
  // produce no upload and are skipped.
  std::mt19937_64 rng(seed ^ 0x5eedf1ee7ULL);
  std::shuffle(faults.begin(), faults.end(), rng);
  Tracer::Scope span(tracer, "bist.fail_sessions");
  bist::StumpsSession session(*fleet.cut, config);
  fleet.payloads.clear();
  for (std::size_t begin = 0;
       begin < faults.size() && fleet.payloads.size() < kRequests;
       begin += 512) {
    const std::size_t end = std::min(faults.size(), begin + 512);
    const auto results = session.RunBatch(
        kPatterns, {},
        std::span<const sim::StuckAtFault>(faults).subspan(begin, end - begin));
    for (const auto& r : results) {
      if (!r.fail_data.empty() && fleet.payloads.size() < kRequests) {
        fleet.payloads.push_back(r.fail_data);
      }
    }
  }
}

struct Load {
  std::vector<bist::DictQuery> queries;
  std::vector<double> due_ms;
};

/// `n` requests at `rate` per simulated second: exponential gaps, a
/// uniformly drawn ECU per request, payload i for request i.
Load MakeLoad(const Fleet& fleet, std::size_t n, double rate,
              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Load load;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - unit(rng)) * 1000.0 / rate;
    const std::size_t ecu = static_cast<std::size_t>(rng() % kEcus);
    load.queries.push_back(
        {{EcuName(ecu), "p1"}, fleet.payloads[i % fleet.payloads.size()]});
    load.due_ms.push_back(t);
  }
  return load;
}

serve::DiagnosisServerConfig ServerConfig(std::uint64_t seed) {
  serve::DiagnosisServerConfig config;
  config.faults.drop_rate = kFrameLoss;
  // Room for 10 requests per ECU, so admission rejects only under overload.
  config.max_inflight = 10 * kEcus;
  config.faults.seed = seed;
  return config;
}

bist::DictionaryStore MakeStore(const Fleet& fleet) {
  bist::DictionaryStore store;
  for (std::size_t e = 0; e < kEcus; ++e) {
    store.AddFromFile({EcuName(e), "p1"}, fleet.artifact, /*mapped=*/true);
  }
  return store;
}

/// Latency (due -> answered, sim-ms) of every request; +inf for a request
/// that was rejected or failed, so it misses any limit.
std::vector<double> Latencies(const serve::DiagnosisServer& server,
                              const Load& load) {
  std::vector<double> out;
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    const auto& o = server.Outcome(i);
    out.push_back(o.status == serve::RequestStatus::Answered
                      ? o.answered_ms - o.release_ms
                      : INFINITY);
  }
  return out;
}

struct Served {
  std::unique_ptr<serve::DiagnosisServer> server;
  double run_s = 0.0;    ///< Run() alone.
  double total_s = 0.0;  ///< Store mapping, submission and Run().
};

/// A fresh server over `load`; Run() is timed on its own and spanned.
Served Serve(const Fleet& fleet, const Load& load, std::uint64_t seed,
             Tracer* tracer = nullptr) {
  Served s;
  const auto start = Clock::now();
  s.server = std::make_unique<serve::DiagnosisServer>(MakeStore(fleet),
                                                      ServerConfig(seed));
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    s.server->Submit(load.queries[i], load.due_ms[i]);
  }
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "serve.run");
    s.server->Run();
  }
  s.run_s = SecondsSince(t0);
  s.total_s = SecondsSince(start);
  return s;
}

/// The service objective of one probe: every request answered, p99 under
/// the limit, and the backlog drained within the limit of the last due time.
bool MeetsObjective(const serve::DiagnosisServer& server, const Load& load) {
  const std::vector<double> lat = Latencies(server, load);
  double last_answer = 0.0;
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    last_answer = std::max(last_answer, server.Outcome(i).answered_ms);
  }
  return server.Stats().answered == load.queries.size() &&
         Percentile(lat, 0.99) <= kLatencyLimitMs &&
         last_answer <= load.due_ms.back() + kLatencyLimitMs;
}

bool SameRanking(const std::vector<bist::DiagnosisCandidate>& a,
                 const std::vector<bist::DiagnosisCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].fault == b[i].fault) ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunServe(const Args& args, Report& report) {
  Fleet fleet;
  fleet.artifact = args.work_dir + "/perfbench-serve-" +
                   std::to_string(args.seed) + ".fdict";
  // The traced run builds the fleet once, under spans.
  Tracer setup_tracer;
  const double setup_s = TimeSetup(
      [&] {
        BuildFleet(args.seed, fleet, args.trace ? &setup_tracer : nullptr);
      },
      /*once=*/args.trace);
  report.Set("setup_s", setup_s, "s");
  report.Check(fleet.payloads.size() == kRequests,
               "not enough failing sessions for distinct payloads");
  std::set<std::uint64_t> distinct;
  for (const auto& p : fleet.payloads) {
    Fnv h;
    for (const auto& d : p) {
      h.Add(d.window_index);
      h.Add(d.observed_signature);
    }
    distinct.insert(h.Value());
  }
  const double repeat_share =
      1.0 - static_cast<double>(distinct.size()) /
                static_cast<double>(fleet.payloads.size());

  // Timed phase: Run() of a fresh server over the same load, repeated while
  // the run's time lasts (at least three passes), with the calibration
  // kernel timed before every pass and after the last.
  const Load load = MakeLoad(fleet, kRequests, kNominalRate, args.seed);
  Calibration calibration(ScoringKernel, kScoringReferenceS);
  Served first;
  std::vector<double> run_times;
  double last_total_s = 0.0;
  TimePasses(args.trace ? 0.0 : args.seconds, 3, [&](int i) {
    calibration.Sample();
    Served s = Serve(fleet, load, args.seed);
    run_times.push_back(s.run_s);
    last_total_s = s.total_s;
    if (i == 0) first = std::move(s);
  });
  calibration.Sample();
  const serve::DiagnosisServer& server = *first.server;
  const serve::ServerStats& stats = server.Stats();
  report.attempted = stats.submitted;
  report.failed = stats.submitted - stats.answered;

  // Every delivered ranking must equal a direct DiagnoseBatch on the same
  // query against the same shards, in the server's mean batch size.
  const std::size_t top_k = ServerConfig(args.seed).top_k;
  const std::size_t max_batch = ServerConfig(args.seed).max_batch;
  const std::size_t batch = std::clamp<std::size_t>(
      stats.answered / std::max<std::uint64_t>(stats.batches, 1), 1,
      max_batch);
  const bist::DictionaryStore direct_store = MakeStore(fleet);
  std::vector<std::vector<bist::DiagnosisCandidate>> direct;
  const auto t_direct = Clock::now();
  for (std::size_t b = 0; b < load.queries.size(); b += batch) {
    const std::size_t n = std::min(batch, load.queries.size() - b);
    for (auto& r : direct_store.DiagnoseBatch(
             std::span<const bist::DictQuery>(load.queries).subspan(b, n),
             top_k)) {
      direct.push_back(std::move(r));
    }
  }
  const double direct_s = SecondsSince(t_direct);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    const auto& o = server.Outcome(i);
    if (o.status == serve::RequestStatus::Answered &&
        !SameRanking(o.ranking, direct[i])) {
      ++mismatches;
    }
  }
  report.Check(mismatches == 0, std::to_string(mismatches) +
                                    " delivered rankings differ from direct "
                                    "DiagnoseBatch");

  const double run_s = Median(run_times);
  report.Set("pass_s", calibration.Rescale(run_s), "s");
  report.Info("pass_times_s", Join(run_times));
  report.Info("pass_s_measured", std::to_string(run_s) + " s");
  report.Info("slowdown",
              std::to_string(calibration.Slowdown()) + " (median of " +
                  std::to_string(calibration.Times().size()) +
                  " kernel runs over the reference " +
                  std::to_string(calibration.ReferenceSeconds()) + " s)");
  const TailSummary lat = Summarize(Latencies(server, load));
  report.Info("serve_req_per_s",
              std::to_string(static_cast<double>(stats.answered) / run_s) +
                  " 1/s (median of " + std::to_string(run_times.size()) +
                  " passes)");
  report.Info("serve_p50_sim_ms", std::to_string(lat.p50) + " sim-ms at " +
                                      std::to_string(kNominalRate) +
                                      " req/sim-s");
  report.Info("serve_p99_sim_ms",
              std::to_string(lat.tail) + " sim-ms (p" +
                  std::to_string(100.0 * lat.tail_p) + " of " +
                  std::to_string(lat.count) + " requests)");
  report.Info("repeated_payload_share", std::to_string(repeat_share));
  if (!args.trace) {
    std::remove(fleet.artifact.c_str());
    return;
  }

  const double capacity = FindCapacity(
      [&](double rate) {
        const Load probe = MakeLoad(fleet, kProbeRequests, rate, args.seed);
        const Served s = Serve(fleet, probe, args.seed);
        return MeetsObjective(*s.server, probe);
      },
      {.start_rate = kNominalRate, .max_doublings = 8, .bisections = 5});

  // Traced pass: a whole Serve() with a span around Run() (the uncovered
  // rest is mapping the shards and submitting the load), then replays of
  // the layer calls Run() makes internally — the wire codecs over every
  // payload and ranking, and DiagnoseBatch in the server's batch size (timed
  // above) — whose time is reported as a share of Run().
  Tracer tracer;
  const double t0 = tracer.Now();
  const Served traced = Serve(fleet, load, args.seed, &tracer);
  const double t1 = tracer.Now();
  std::size_t wire_mismatches = 0;
  const auto t_wire = Clock::now();
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    const auto query = serve::wire::DecodeQuery(
        serve::wire::EncodeQuery(load.queries[i]));
    const auto ranking = serve::wire::DecodeRanking(
        serve::wire::EncodeRanking(direct[i]));
    wire_mismatches += query.fail_data.size() !=
                               load.queries[i].fail_data.size() ||
                           !SameRanking(ranking, direct[i])
                       ? 1
                       : 0;
  }
  const double wire_s = SecondsSince(t_wire);
  report.Check(wire_mismatches == 0, "wire round trip changed a payload");

  std::vector<double> upload_ms;
  std::vector<double> reply_ms;
  std::uint64_t frames = 0, delivered = 0, retransmissions = 0;
  for (std::size_t i = 0; i < load.queries.size(); ++i) {
    const auto& o = server.Outcome(i);
    frames += o.upload.frames_sent + o.response.frames_sent;
    delivered += o.upload.delivered + o.response.delivered;
    retransmissions += o.upload.retransmissions + o.response.retransmissions;
    if (o.status == serve::RequestStatus::Answered) {
      upload_ms.push_back(o.upload_done_ms - o.release_ms);
      reply_ms.push_back(o.answered_ms - o.upload_done_ms);
    }
  }
  const auto setup_self = SelfTimeByName(setup_tracer.Spans());
  auto setup_seconds = [&](const char* name) {
    const auto it = setup_self.find(name);
    return it == setup_self.end() ? 0.0 : it->second;
  };
  const double sim_s = server.NowMs() * 1e-3;
  const double traced_run_s = traced.run_s;
  report.Set("netlist.generate_s", setup_seconds("netlist.generate"), "s");
  report.Set("sim.dict_build_pct",
             100.0 * setup_seconds("sim.dict_build") / setup_s, "%");
  if (setup_seconds("sim.dict_build") > 0.0) {
    report.Set("sim.dict_patterns_per_s",
               static_cast<double>(kPatterns * fleet.dict_faults) /
                   setup_seconds("sim.dict_build"),
               "1/s");
  }
  report.Set("bist.diagnose_batch_pct", 100.0 * direct_s / traced_run_s, "%");
  report.Set("serve.wire_pct", 100.0 * wire_s / traced_run_s, "%");
  const double batches =
      static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));
  report.Set("serve.batch_fill",
             static_cast<double>(stats.answered) / batches /
                 static_cast<double>(max_batch),
             "ratio");
  report.Set("net.sim_s", sim_s, "sim-s");
  report.Set("net.host_per_sim", traced_run_s / sim_s, "ratio");
  report.Set("net.test_frames", static_cast<double>(frames), "count");
  report.Set("net.delivery_ratio",
             frames ? static_cast<double>(delivered) /
                          static_cast<double>(frames)
                    : 0.0,
             "ratio");
  report.Set("net.retransmissions", static_cast<double>(retransmissions),
             "count");
  report.Set("net.upload_sim_ms_p50", Median(upload_ms), "sim-ms");
  report.Set("serve.reply_sim_ms_p50", Median(reply_ms), "sim-ms");
  report.Set("serve.p50_sim_ms", lat.p50, "sim-ms");
  report.Set("serve.p99_sim_ms", lat.tail, "sim-ms");
  report.Set("serve.capacity_req_per_sim_s", capacity, "1/sim-s");
  ReportTrace(args, report, tracer, t0, t1, last_total_s);
  report.Info("serve_capacity_req_per_sim_s",
              std::to_string(capacity) + " req/sim-s (p99 <= " +
                  std::to_string(kLatencyLimitMs) + " sim-ms)");
  report.Info("bist.diagnose_batch_s", std::to_string(direct_s) + " s");
  report.Info("serve.wire_s", std::to_string(wire_s) + " s");
  for (const auto& [name, seconds] : setup_self) {
    report.Info("setup." + name + "_s", std::to_string(seconds) + " s");
  }
  std::remove(fleet.artifact.c_str());
}

}  // namespace perfbench
