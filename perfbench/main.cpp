// spi_perfbench — the repository's benchmark program. One run measures one
// workload for a fixed time and prints every metric by name and unit,
// then one JSON line:
//
//   spi_perfbench --workload packed_small --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time into
// an untraced and a traced half and prints the per-layer metrics, the
// per-call CPU budget and the tracing overhead. Exit status 1 when any
// output was wrong, 2 on bad arguments. run.py builds and runs this.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

// Fields: name, kind, M, payload bytes, streams, connection cap, warm-up
// units per stream. Warm-up opens the connections and runs every message
// shape once per stream before timing starts.
constexpr Workload kWorkloads[] = {
    {"packed_small", Kind::kPackedBlocking, 32, 100, 4, 0, 8},
    {"single_async", Kind::kSingleAsync, 1, 100, 4, 4, 64},
    {"packed_large", Kind::kPackedBlocking, 8, 100'000, 2, 0, 4},
    {"travel_sim", Kind::kTravel, 11, 0, 1, 0, 1},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string describe(const Workload& w) {
  char text[256];
  std::snprintf(text, sizeof(text),
                "{\"workload\": \"%s\", \"calls_per_unit\": %zu, "
                "\"payload_bytes\": %zu, \"streams\": %zu, "
                "\"max_connections\": %zu, \"warmup_units_per_stream\": %zu, "
                "\"rounds\": %d, \"slices_per_round\": %d}",
                w.name, w.calls_per_unit, w.payload_bytes, w.streams,
                w.connections, w.warmup_units, kRounds, kSlicesPerRound);
  return text;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: spi_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = find_workload(value);
      if (!config.workload) usage("unknown workload");
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!config.workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return config;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// The last line of output: {"correct", "attempted", "failed", "metrics"}.
void print_json(const RunResult& result, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = parse_args(argc, argv);
  std::printf("params %s seed=%llu seconds=%g trace=%d build=%s compiler=%s\n",
              describe(*config.workload).c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, SPI_PERFBENCH_BUILD_TYPE,
              SPI_PERFBENCH_COMPILER);
  std::fflush(stdout);

  RunResult result;
  try {
    result = config.workload->kind == Kind::kTravel
                 ? run_travel_workload(config)
                 : run_tcp_workload(config);
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  if (result.attempted == 0) {
    result.attempted = 1;
    result.failed = 1;
    result.fail("no call was attempted");
  }
  for (const std::string& problem : result.problems) {
    std::printf("INCORRECT: %s\n", problem.c_str());
  }
  const std::vector<Metric>& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  print_metrics(config.trace ? "per-layer metrics" : "end-to-end metrics",
                metrics);
  print_json(result, metrics);
  return result.correct ? 0 : 1;
}
