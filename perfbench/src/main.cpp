// perfbench: the repository's single benchmark.
//
//   perfbench --workload profiles|explore|corpus|serve --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//             [--commit SHA]
//
// Prints a stamp line (machine and build), one line per named output, one
// line per metric with its unit, and as the last line a JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. A failed
// correctness check prints the reasons to stderr and exits 1 without a
// result.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "sim/wide_word_simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The end-to-end set (untraced run) and the per-layer set (traced run).
// Every workload reports every end-to-end metric; a per-layer metric of a
// layer the workload never enters reads 0.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"}, {"pass_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricName kPerLayer[] = {
    {"netlist.generate_s", "s"},
    {"arch.generate_pct", "%"},
    {"sim.random_phase_pct", "%"},
    {"sim.random_patterns_per_s", "1/s"},
    {"sim.topup_pct", "%"},
    {"sim.dict_build_pct", "%"},
    {"sim.dict_patterns_per_s", "1/s"},
    {"atpg.tpg_pct", "%"},
    {"atpg.targets", "count"},
    {"atpg.detect_ratio", "ratio"},
    {"atpg.aborted", "count"},
    {"atpg.untestable", "count"},
    {"bist.encode_pct", "%"},
    {"bist.unencodable", "count"},
    {"bist.diagnose_batch_pct", "%"},
    {"sat.decode_pct", "%"},
    {"sat.decodes_per_s", "1/s"},
    {"sat.propagations_per_decode", "count"},
    {"sat.conflicts_per_decode", "count"},
    {"dse.evaluate_pct", "%"},
    {"dse.memo_hit_ratio", "ratio"},
    {"dse.corpus_explore_pct", "%"},
    {"moea.residual_pct", "%"},
    {"moea.front_hv", "hv"},
    {"net.execute_pct", "%"},
    {"net.judge_pct", "%"},
    {"net.sim_s", "sim-s"},
    {"net.host_per_sim", "ratio"},
    {"net.test_frames", "count"},
    {"net.delivery_ratio", "ratio"},
    {"net.retransmissions", "count"},
    {"net.upload_sim_ms_p50", "sim-ms"},
    {"serve.wire_pct", "%"},
    {"serve.batch_fill", "ratio"},
    {"serve.reply_sim_ms_p50", "sim-ms"},
    {"serve.p50_sim_ms", "sim-ms"},
    {"serve.p99_sim_ms", "sim-ms"},
    {"serve.capacity_req_per_sim_s", "1/sim-s"},
    {"trace.uncovered_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload profiles|explore|corpus|serve "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--work-dir DIR] [--commit SHA]\n");
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || args.seconds <= 0.0) return Usage();

  WorkloadFn run = nullptr;
  if (args.workload == "profiles") run = RunProfiles;
  if (args.workload == "explore") run = RunExplore;
  if (args.workload == "corpus") run = RunCorpus;
  if (args.workload == "serve") run = RunServe;
  if (!run) return Usage();

  std::printf(
      "stamp nproc=%ld cpu=\"%s\" simd=%s build=%s commit=%s workload=%s "
      "seed=%llu seconds=%g trace=%d\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      bistdse::sim::simd::SimdBackendName(), PERFBENCH_BUILD_TYPE,
      commit.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  for (const auto& [name, text] : report.info) {
    std::printf("output %s = %s\n", name.c_str(), text.c_str());
  }
  std::string json = "{";
  bool first = true;
  auto emit = [&](const MetricName& m) {
    Value v{0.0, m.unit};
    if (const auto it = report.metrics.find(m.name);
        it != report.metrics.end()) {
      v = it->second;
    } else if (!args.trace) {
      report.check_failures.push_back(std::string("missing metric ") +
                                      m.name);
    }
    if (!std::isfinite(v.value)) {
      report.check_failures.push_back(std::string("metric ") + m.name +
                                      " is not finite");
    }
    std::printf("metric %s = %s %s\n", m.name, Number(v.value).c_str(),
                m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Number(v.value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricName& m : kPerLayer) emit(m);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m);
  }
  json += "}";
  if (report.attempted == 0) {
    report.check_failures.push_back("the workload attempted nothing");
  }

  if (!report.check_failures.empty()) {
    for (const std::string& f : report.check_failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    return 1;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}
