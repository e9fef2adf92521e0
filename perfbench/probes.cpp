// Process-level probes (CPU, page faults, peak RSS), /metrics scraping and
// the small statistics the report needs.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "http/client.hpp"
#include "net/tcp_transport.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Field `index` (1-based, as in proc(5)) of /proc/<pid>/stat.
std::uint64_t proc_stat_field(pid_t pid, int index) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  for (int i = 3; i <= index && (rest >> field); ++i) {
  }
  return std::strtoull(field.c_str(), nullptr, 10);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

double thread_cpu_s() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

CpuSample sample_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return CpuSample{clock_seconds(CLOCK_PROCESS_CPUTIME_ID),
                   static_cast<std::uint64_t>(usage.ru_minflt)};
}

CpuSample sample_process(pid_t pid) {
  CpuSample sample;
  clockid_t clock{};
  if (clock_getcpuclockid(pid, &clock) == 0) {
    sample.cpu_s = clock_seconds(clock);
  }
  sample.minflt = proc_stat_field(pid, 10);
  return sample;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

MetricMap parse_prometheus(std::string_view text) {
  MetricMap metrics;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.front() == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    metrics[std::string(line.substr(0, space))] =
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return metrics;
}

MetricMap scrape_metrics(const spi::net::Endpoint& endpoint) {
  spi::net::TcpTransport transport;
  spi::http::HttpClient client(transport, endpoint);
  spi::http::Request request;
  request.method = "GET";
  request.target = "/metrics";
  auto response = client.send(std::move(request));
  if (!response.ok() || response.value().status != 200) return {};
  return parse_prometheus(response.value().body);
}

double delta(const MetricMap& before, const MetricMap& after,
             const std::string& key) {
  auto value = [&](const MetricMap& map) {
    auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double round_percentile(const std::vector<std::vector<double>>& rounds,
                        double q) {
  std::vector<double> per_round;
  for (const std::vector<double>& round : rounds) {
    if (!round.empty()) per_round.push_back(percentile(round, q));
  }
  return median(per_round);
}

}  // namespace perfbench
