// Shared declarations of the SPI benchmark program (see README.md in this
// directory). Everything here measures the library from outside: it calls
// public functions, reads the server's /metrics text, and reads process
// CPU, RSS and page-fault counters from the kernel. Nothing in src/ is
// instrumented for it.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/assembler.hpp"
#include "core/call.hpp"
#include "core/handlers.hpp"
#include "core/registry.hpp"
#include "net/endpoint.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ---------------------------------------------------------------

enum class Kind { kPackedBlocking, kSingleAsync, kTravel };

/// Every parameter of a workload, fixed here; only the seed varies a run.
struct Workload {
  const char* name;
  Kind kind;
  size_t calls_per_unit;  // M (travel_sim: invocations per itinerary)
  size_t payload_bytes;   // Echo payload per call (travel_sim: unused)
  size_t streams;         // load threads, or async logical streams
  size_t connections;     // async client connection cap (0 = n/a)
  size_t warmup_units;    // per stream, at every set-up
};

/// Rounds per run. Each round sets up a fresh deployment (timed: setup_s
/// is the median), measures seconds / kRounds, and tears it down, so the
/// medians span several deployments rather than one.
inline constexpr int kRounds = 5;
/// Slices per round. Throughput and CPU metrics are medians over every
/// slice of the run, which keeps one stalled second from moving them.
inline constexpr int kSlicesPerRound = 5;

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path (trace runs)
};

// --- probes (probes.cpp) -----------------------------------------------------

struct CpuSample {
  double cpu_s = 0;          // user + system
  std::uint64_t minflt = 0;  // minor page faults
};
/// This process.
CpuSample sample_self();
/// Another process, read through its CPU-time clock and /proc/<pid>/stat.
CpuSample sample_process(pid_t pid);
/// VmHWM of `pid` (0 = this process), in MiB.
double peak_rss_mb(pid_t pid);
double thread_cpu_s();

/// Prometheus text -> {"name{labels}": value}.
using MetricMap = std::map<std::string, double>;
MetricMap parse_prometheus(std::string_view text);
/// GET /metrics over a private TcpTransport (never counted in the
/// workload's wire bytes).
MetricMap scrape_metrics(const spi::net::Endpoint& endpoint);
/// after[key] - before[key] (missing keys read as 0).
double delta(const MetricMap& before, const MetricMap& after,
             const std::string& key);

double median(std::vector<double> values);
/// The median over rounds of each round's nearest-rank q-percentile
/// (q in [0, 1]): a slow spell of the machine during one round moves it
/// less than a pooled percentile.
double round_percentile(const std::vector<std::vector<double>>& rounds,
                        double q);

// --- tracing (spans.cpp) -----------------------------------------------------

enum class SpanKind : std::uint32_t {
  kClientUnit = 0,    // one unit, as its caller saw it
  kServerWindow = 1,  // handler chain on_request -> on_response, per message
  kHandler = 2,       // one operation execution
};

struct Span {
  std::uint64_t key = 0;  // low 64 bits of the trace id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kClientUnit;
};

std::int64_t now_ns();
/// Records into a per-thread in-memory buffer.
void record_span(const Span& span);
/// Every span recorded so far, across threads; callers quiesce first.
std::vector<Span> drain_spans();
/// 32-hex trace id whose low 64 bits are `key`.
std::string trace_id_for(std::uint64_t key);

/// Registers every operation of `source` into `target`, wrapped so each
/// execution records a kHandler span under the call's trace id.
void register_traced_operations(const spi::core::ServiceRegistry& source,
                                spi::core::ServiceRegistry& target);
/// Server handler-chain link recording one kServerWindow span per message,
/// from on_request to on_response, under the request's trace id.
std::shared_ptr<spi::core::Handler> make_window_handler();

struct TraceSummary {
  double client_call_self_us = 0;  // per unit: unit time minus server windows
  double server_window_us = 0;     // per message
  double handler_us_per_call = 0;
  size_t units = 0;
  size_t unmatched_units = 0;  // client units with no server window
};
TraceSummary summarize_spans(const std::vector<Span>& client,
                             const std::vector<Span>& server);
/// Writes the first `max_units` units (and their server spans) as Chrome
/// trace-event JSON. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& client,
                        const std::vector<Span>& server, size_t max_units);

// --- replay (replay.cpp) -----------------------------------------------------

/// One message of a workload, as it travels: its calls, framing and (for
/// captured traffic) the outcomes the server produced.
struct ReplayMessage {
  std::vector<spi::core::ServiceCall> calls;
  spi::core::PackMode mode = spi::core::PackMode::kPacked;
  std::vector<spi::core::IndexedOutcome> outcomes;  // empty: echo them
};

/// Single-thread CPU microseconds per call of each layer function.
struct ReplayCosts {
  double xml_parse = 0;
  double parse_request = 0;
  double assemble_request = 0;
  double assemble_response = 0;
  double parse_response = 0;
  double http_cycle = 0;
  /// The layers a message passes through once each; xml_parse is inside
  /// parse_request / parse_response and is not added again.
  double layer_sum() const {
    return parse_request + assemble_request + assemble_response +
           parse_response + http_cycle;
  }
};
ReplayCosts replay_layers(const std::vector<ReplayMessage>& messages);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

RunResult run_tcp_workload(const RunConfig& config);
RunResult run_travel_workload(const RunConfig& config);

}  // namespace perfbench
