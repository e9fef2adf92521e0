// The TCP loopback workloads: packed_small, packed_large (blocking
// call_packed from load threads) and single_async (one-call messages on
// the reactor-driven async client). The server runs in a forked process,
// forked while the load generator has no threads, so the two processes'
// CPU, page faults and RSS are read separately.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "benchsupport/workload.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/tcp_transport.hpp"
#include "perfbench.hpp"
#include "services/echo.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using namespace spi;

bool write_all(int fd, const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, size_t size) {
  char* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// --- server process ----------------------------------------------------------

/// Child body: an Echo SpiServer with default options on 127.0.0.1, until
/// the command pipe closes. Traced servers run the Echo operation through
/// the span wrapper and record one window per message; their spans go
/// back over the reply pipe at exit.
[[noreturn]] void server_main(int command_fd, int reply_fd, bool traced) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  net::TcpTransport transport;
  core::ServiceRegistry echo;
  services::register_echo_service(echo);
  core::ServiceRegistry traced_echo;
  if (traced) register_traced_operations(echo, traced_echo);
  core::SpiServer server(transport, net::Endpoint{"127.0.0.1", 0},
                         traced ? traced_echo : echo);
  if (traced) server.handlers().add(make_window_handler());
  if (!server.start().ok()) ::_exit(3);
  const std::uint16_t port = server.endpoint().port;
  if (!write_all(reply_fd, &port, sizeof(port))) ::_exit(4);
  char sink = 0;
  while (::read(command_fd, &sink, 1) > 0 || errno == EINTR) {
  }
  server.stop();
  const std::vector<Span> spans = drain_spans();
  const std::uint64_t count = spans.size();
  if (!write_all(reply_fd, &count, sizeof(count)) ||
      !write_all(reply_fd, spans.data(), count * sizeof(Span))) {
    ::_exit(5);
  }
  ::_exit(0);
}

class ServerProcess {
 public:
  /// Must be called while this process runs no other thread.
  explicit ServerProcess(bool traced) {
    int command[2] = {-1, -1};
    int reply[2] = {-1, -1};
    if (::pipe(command) != 0 || ::pipe(reply) != 0) {
      throw SpiError(ErrorCode::kInternal, "pipe failed");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(command[1]);
      ::close(reply[0]);
      server_main(command[0], reply[1], traced);
    }
    ::close(command[0]);
    ::close(reply[1]);
    command_fd_ = command[1];
    reply_fd_ = reply[0];
    if (pid_ < 0 || !read_all(reply_fd_, &port_, sizeof(port_))) {
      kill();
      throw SpiError(ErrorCode::kInternal, "server process failed to start");
    }
  }

  ~ServerProcess() { kill(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  net::Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  pid_t pid() const { return pid_; }

  /// Graceful stop; returns the spans a traced server recorded.
  std::vector<Span> stop() {
    std::vector<Span> spans;
    ::close(command_fd_);
    command_fd_ = -1;
    std::uint64_t count = 0;
    if (read_all(reply_fd_, &count, sizeof(count))) {
      spans.resize(count);
      if (!read_all(reply_fd_, spans.data(), count * sizeof(Span))) {
        spans.clear();
      }
    }
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::close(reply_fd_);
    reply_fd_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw SpiError(ErrorCode::kInternal, "server process exited badly");
    }
    return spans;
  }

 private:
  void kill() {
    if (command_fd_ >= 0) ::close(command_fd_);
    if (reply_fd_ >= 0) ::close(reply_fd_);
    command_fd_ = reply_fd_ = -1;
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int command_fd_ = -1;
  int reply_fd_ = -1;
  std::uint16_t port_ = 0;
};

// --- load generators ---------------------------------------------------------

enum class Phase { kWarmUp, kMeasure, kStop };

/// Distinct payload batches each stream cycles through.
constexpr size_t kBatchesPerStream = 4;

/// Trace key of unit `unit` of stream `stream` in round `round`; unique
/// within a run and never 0.
std::uint64_t unit_key(int round, size_t stream, std::uint64_t unit) {
  return (static_cast<std::uint64_t>(round) << 48) |
         (static_cast<std::uint64_t>(stream + 1) << 40) | unit;
}

telemetry::TraceContext unit_trace(std::uint64_t key) {
  return telemetry::TraceContext{trace_id_for(key), "00000000000000b1"};
}

/// A closed-loop load generator against one server. Streams warm up on
/// construction; go() starts the measured units, finish() stops issuing
/// and returns once no unit is in flight.
class LoadGenerator {
 public:
  LoadGenerator(const Workload& workload, int round, bool traced)
      : workload_(workload), round_(round), traced_(traced),
        latencies_(workload.streams) {}
  virtual ~LoadGenerator() = default;

  /// Blocks until every stream has run its warm-up units.
  void wait_warm() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return warmed_ == workload_.streams; });
  }
  virtual void go() = 0;
  virtual void finish() = 0;
  virtual std::uint64_t retries() const = 0;

  net::WireStats wire() const { return transport_.stats(); }
  std::uint64_t ok_calls() const {
    return ok_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed_calls() const {
    return failed_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t units() const { return units_.load(std::memory_order_relaxed); }
  std::uint64_t unmeasured_errors() const { return unmeasured_errors_.load(); }
  std::vector<double> latencies_ms() const {
    std::vector<double> all;
    for (const auto& stream : latencies_) {
      all.insert(all.end(), stream.begin(), stream.end());
    }
    return all;
  }

 protected:
  void mark_warm() {
    std::lock_guard lock(mutex_);
    ++warmed_;
    cv_.notify_all();
  }

  /// Accounts one measured unit.
  void complete_unit(size_t stream, std::uint64_t key, std::int64_t start,
                     std::int64_t end, size_t calls, size_t errors) {
    latencies_[stream].push_back(static_cast<double>(end - start) / 1e6);
    ok_calls_.fetch_add(calls - errors, std::memory_order_relaxed);
    failed_calls_.fetch_add(errors, std::memory_order_relaxed);
    units_.fetch_add(1, std::memory_order_relaxed);
    if (traced_) record_span({key, start, end, 0, SpanKind::kClientUnit});
  }

  const Workload& workload_;
  const int round_;
  const bool traced_;
  net::TcpTransport transport_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t warmed_ = 0;  // guarded by mutex_
  std::atomic<Phase> phase_{Phase::kWarmUp};
  // Warm-up calls that failed, and batches of streams ended by an exception.
  std::atomic<std::uint64_t> unmeasured_errors_{0};

 private:
  std::atomic<std::uint64_t> ok_calls_{0};
  std::atomic<std::uint64_t> failed_calls_{0};
  std::atomic<std::uint64_t> units_{0};
  std::vector<std::vector<double>> latencies_;  // per stream
};

/// packed_small / packed_large: `streams` threads, each with its own
/// keep-alive SpiClient, each calling call_packed in a closed loop.
class PackedLoad final : public LoadGenerator {
 public:
  PackedLoad(const Workload& workload, const net::Endpoint& server,
               std::uint64_t seed, int round, bool traced)
      : LoadGenerator(workload, round, traced), server_(server),
        retries_(workload.streams, 0) {
    for (size_t s = 0; s < workload.streams; ++s) {
      std::vector<std::vector<core::ServiceCall>> batches;
      for (size_t b = 0; b < kBatchesPerStream; ++b) {
        batches.push_back(bench::make_echo_calls_text(
            workload.calls_per_unit, workload.payload_bytes,
            seed * 1000 + s * kBatchesPerStream + b));
      }
      batches_.push_back(std::move(batches));
    }
    for (size_t s = 0; s < workload.streams; ++s) {
      threads_.emplace_back([this, s] { run(s); });
    }
  }

  ~PackedLoad() override { finish(); }

  void go() override {
    std::lock_guard lock(mutex_);
    phase_ = Phase::kMeasure;
    cv_.notify_all();
  }

  void finish() override {
    {
      std::lock_guard lock(mutex_);
      phase_ = Phase::kStop;
      cv_.notify_all();
    }
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  std::uint64_t retries() const override {
    std::uint64_t total = 0;
    for (std::uint64_t r : retries_) total += r;
    return total;
  }

 private:
  void run(size_t stream) {
    bool warmed = false;
    try {
      core::ClientOptions options;
      options.keep_alive = true;
      core::SpiClient client(transport_, server_, options);
      const auto& batches = batches_[stream];
      for (size_t u = 0; u < workload_.warmup_units; ++u) {
        const auto& batch = batches[u % batches.size()];
        unmeasured_errors_ +=
            bench::count_echo_errors(batch, client.call_packed(batch));
      }
      mark_warm();
      warmed = true;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return phase_ != Phase::kWarmUp; });
      }
      for (std::uint64_t unit = 0; phase_ == Phase::kMeasure; ++unit) {
        const auto& batch = batches[unit % batches.size()];
        const std::uint64_t key = unit_key(round_, stream, unit);
        std::optional<telemetry::TraceScope> scope;
        const telemetry::TraceContext trace = unit_trace(key);
        if (traced_) scope.emplace(trace);
        const std::int64_t start = now_ns();
        const std::vector<core::CallOutcome> outcomes =
            client.call_packed(batch);
        const std::int64_t end = now_ns();
        scope.reset();
        complete_unit(stream, key, start, end, batch.size(),
                      bench::count_echo_errors(batch, outcomes));
      }
      retries_[stream] = client.stats().retries;
    } catch (const std::exception&) {
      // Never leave the run waiting on this stream: count its batch as
      // failed and end it.
      unmeasured_errors_ += workload_.calls_per_unit;
      if (!warmed) mark_warm();
    }
  }

  net::Endpoint server_;
  std::vector<std::vector<std::vector<core::ServiceCall>>> batches_;
  std::vector<std::uint64_t> retries_;  // per stream, written at thread end
  std::vector<std::thread> threads_;
};

/// single_async: one Reactor, one AsyncHttpClient, `streams` logical
/// streams each re-issuing its next one-call message from the completion
/// callback of the previous one.
class AsyncLoad final : public LoadGenerator {
 public:
  AsyncLoad(const Workload& workload, const net::Endpoint& server,
              std::uint64_t seed, int round, bool traced)
      : LoadGenerator(workload, round, traced), streams_(workload.streams) {
    for (const core::ServiceCall& call : bench::make_echo_calls_text(
             workload.streams * 64, workload.payload_bytes, seed * 1000)) {
      singles_.push_back({call});
    }
    reactor_.start();
    http::AsyncClientOptions http_options;
    http_options.max_connections_per_endpoint = workload.connections;
    http_ = std::make_unique<http::AsyncHttpClient>(reactor_, transport_,
                                                    http_options);
    core::ClientOptions options;
    options.async_client = http_.get();
    client_ = std::make_unique<core::SpiClient>(transport_, server, options);
    for (size_t s = 0; s < streams_.size(); ++s) issue(s);
  }

  ~AsyncLoad() override {
    finish();
    client_.reset();
    http_.reset();
    reactor_.stop();
  }

  void go() override {
    phase_ = Phase::kMeasure;
    started_ = true;
    for (size_t s = 0; s < streams_.size(); ++s) issue(s);
  }

  void finish() override {
    std::unique_lock lock(mutex_);
    phase_ = Phase::kStop;
    if (started_) cv_.wait(lock, [&] { return idle_ == streams_.size(); });
    started_ = false;
  }

  std::uint64_t retries() const override { return client_->stats().retries; }

 private:
  struct Stream {
    std::uint64_t unit = 0;
    std::int64_t start_ns = 0;
  };

  void issue(size_t s) {
    Stream& stream = streams_[s];
    const size_t index = (s * 64 + stream.unit) % singles_.size();
    const std::uint64_t key = unit_key(round_, s, stream.unit);
    std::optional<telemetry::TraceScope> scope;
    const telemetry::TraceContext trace = unit_trace(key);
    if (traced_ && phase_ == Phase::kMeasure) scope.emplace(trace);
    stream.start_ns = now_ns();
    client_->execute_packed_async(
        singles_[index], core::PackMode::kSingle,
        [this, s, index, key](core::SpiClient::PackedResult result) {
          complete(s, index, key, std::move(result));
        });
  }

  /// Runs on the reactor loop thread.
  void complete(size_t s, size_t index, std::uint64_t key,
                core::SpiClient::PackedResult result) {
    const std::int64_t end = now_ns();
    Stream& stream = streams_[s];
    const size_t errors =
        result.ok() ? bench::count_echo_errors(singles_[index], result.value())
                    : 1;
    const Phase phase = phase_;
    ++stream.unit;
    if (phase == Phase::kWarmUp) {
      unmeasured_errors_ += errors;
      if (stream.unit < workload_.warmup_units) {
        issue(s);
      } else {
        mark_warm();
      }
      return;
    }
    complete_unit(s, key, stream.start_ns, end, 1, errors);
    if (phase == Phase::kMeasure) {
      issue(s);
      return;
    }
    std::lock_guard lock(mutex_);
    ++idle_;
    cv_.notify_all();
  }

  Reactor reactor_;
  std::unique_ptr<http::AsyncHttpClient> http_;
  std::unique_ptr<core::SpiClient> client_;
  std::vector<std::vector<core::ServiceCall>> singles_;
  std::vector<Stream> streams_;
  bool started_ = false;
  size_t idle_ = 0;  // guarded by mutex_
};

std::unique_ptr<LoadGenerator> make_load_generator(const Workload& workload,
                                        const net::Endpoint& server,
                                        std::uint64_t seed, int round,
                                        bool traced) {
  if (workload.kind == Kind::kSingleAsync) {
    return std::make_unique<AsyncLoad>(workload, server, seed, round,
                                         traced);
  }
  return std::make_unique<PackedLoad>(workload, server, seed, round, traced);
}

// --- one measured phase ------------------------------------------------------

/// What the measured rounds of one kind (untraced or traced) add up to.
struct Totals {
  std::uint64_t units = 0;
  std::uint64_t ok_calls = 0;
  std::uint64_t failed_calls = 0;
  std::vector<std::vector<double>> latency_ms;  // per round
  // One entry per slice, pooled over rounds; the metrics are their medians.
  std::vector<double> slice_rate, slice_client_cpu, slice_server_cpu;
  std::uint64_t wire_bytes = 0;
  std::uint64_t dials = 0;
  std::uint64_t retries = 0;
  std::uint64_t client_minflt = 0;
  std::uint64_t server_minflt = 0;
  std::vector<double> server_rss_mb;  // per round
  MetricMap metrics;         // /metrics deltas summed over rounds
  std::vector<double> setups;

  std::uint64_t calls() const { return ok_calls + failed_calls; }
  double calls_per_s() const { return median(slice_rate); }
  double client_cpu_us_per_call() const { return median(slice_client_cpu); }
  double server_cpu_us_per_call() const { return median(slice_server_cpu); }
};

/// One round: fork a server, build the load generator, warm up (the
/// set-up, timed), measure `seconds` in kSlicesPerRound slices, tear down.
/// Returns the traced server's spans.
std::vector<Span> run_round(const Workload& workload, std::uint64_t seed,
                            int round, bool traced, double seconds,
                            Totals& phase, RunResult& result) {
  const auto setup_start = Clock::now();
  ServerProcess server(traced);
  std::unique_ptr<LoadGenerator> load =
      make_load_generator(workload, server.endpoint(), seed, round, traced);
  load->wait_warm();
  phase.setups.push_back(seconds_since(setup_start));
  const std::uint64_t warm_messages = workload.streams * workload.warmup_units;
  const net::WireStats wire_before = load->wire();
  const std::uint64_t warm_bytes =
      wire_before.bytes_sent + wire_before.bytes_received;

  const MetricMap metrics_before = scrape_metrics(server.endpoint());
  const std::uint64_t retries_before = load->retries();
  CpuSample client_prev = sample_self();
  CpuSample server_prev = sample_process(server.pid());
  const CpuSample client_start = client_prev;
  const CpuSample server_start = server_prev;
  std::uint64_t calls_prev = 0;
  const auto start = Clock::now();
  auto slice_start = start;
  load->go();
  for (int i = 1; i <= kSlicesPerRound; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds * i /
                                                  kSlicesPerRound)));
    const auto now = Clock::now();
    const CpuSample client_now = sample_self();
    const CpuSample server_now = sample_process(server.pid());
    const std::uint64_t calls_now = load->ok_calls();
    const double calls = static_cast<double>(calls_now - calls_prev);
    if (calls > 0) {
      phase.slice_rate.push_back(
          calls / std::chrono::duration<double>(now - slice_start).count());
      phase.slice_client_cpu.push_back(
          (client_now.cpu_s - client_prev.cpu_s) * 1e6 / calls);
      phase.slice_server_cpu.push_back(
          (server_now.cpu_s - server_prev.cpu_s) * 1e6 / calls);
    }
    client_prev = client_now;
    server_prev = server_now;
    calls_prev = calls_now;
    slice_start = now;
  }
  load->finish();
  const CpuSample client_end = sample_self();
  const CpuSample server_end = sample_process(server.pid());
  const net::WireStats wire_after = load->wire();
  const std::uint64_t wire_bytes =
      (wire_after.bytes_sent - wire_before.bytes_sent) +
      (wire_after.bytes_received - wire_before.bytes_received);
  // Every message of a workload has the same size, so bytes per message
  // are exact and must match the warm-up's.
  if (warm_bytes % warm_messages != 0 || load->units() == 0 ||
      wire_bytes != warm_bytes / warm_messages * load->units()) {
    result.fail("wire bytes per message differ between warm-up (" +
                std::to_string(warm_bytes) + " B / " +
                std::to_string(warm_messages) + ") and measurement (" +
                std::to_string(wire_bytes) + " B / " +
                std::to_string(load->units()) + ")");
  }

  if (load->unmeasured_errors() > 0) {
    result.fail(std::to_string(load->unmeasured_errors()) +
                " warm-up calls failed or echoed wrong data");
  }
  phase.units += load->units();
  phase.ok_calls += load->ok_calls();
  phase.failed_calls += load->failed_calls();
  phase.latency_ms.push_back(load->latencies_ms());
  phase.wire_bytes += wire_bytes;
  phase.dials += wire_after.connections_opened - wire_before.connections_opened;
  phase.retries += load->retries() - retries_before;
  phase.client_minflt += client_end.minflt - client_start.minflt;
  phase.server_minflt += server_end.minflt - server_start.minflt;
  for (const auto& [key, value] : scrape_metrics(server.endpoint())) {
    phase.metrics[key] += value - delta({}, metrics_before, key);
  }
  phase.server_rss_mb.push_back(peak_rss_mb(server.pid()));
  load.reset();  // joins every load thread before the next fork
  return server.stop();
}

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// Mean of a /metrics histogram over the phase, in the histogram's unit
/// times `scale`.
double histogram_mean(const Totals& phase, const std::string& name,
                      const std::string& labels, double scale) {
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  return per(delta({}, phase.metrics, name + "_sum" + suffix) * scale,
             delta({}, phase.metrics, name + "_count" + suffix));
}

std::vector<ReplayMessage> replay_messages(const Workload& workload,
                                           std::uint64_t seed) {
  std::vector<ReplayMessage> messages;
  if (workload.kind == Kind::kSingleAsync) {
    for (const core::ServiceCall& call : bench::make_echo_calls_text(
             64, workload.payload_bytes, seed * 1000)) {
      messages.push_back({{call}, core::PackMode::kSingle, {}});
    }
    return messages;
  }
  for (size_t b = 0; b < kBatchesPerStream; ++b) {
    messages.push_back({bench::make_echo_calls_text(workload.calls_per_unit,
                                                    workload.payload_bytes,
                                                    seed * 1000 + b),
                        core::PackMode::kPacked,
                        {}});
  }
  return messages;
}

}  // namespace

RunResult run_tcp_workload(const RunConfig& config) {
  const Workload& workload = *config.workload;
  RunResult result;

  // Untraced runs: kRounds rounds, each with its own server process, so
  // the medians span several deployments. Traced runs alternate untraced
  // and traced rounds, half the time each.
  Totals plain, traced;
  std::vector<Span> client_spans, server_spans;
  const double round_seconds = config.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced_round = config.trace && round % 2 == 1;
    std::vector<Span> spans =
        run_round(workload, config.seed, round, traced_round, round_seconds,
                  traced_round ? traced : plain, result);
    server_spans.insert(server_spans.end(), spans.begin(), spans.end());
  }
  client_spans = drain_spans();

  result.attempted = plain.calls() + traced.calls();
  result.failed = plain.failed_calls + traced.failed_calls;
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) +
                " calls failed or echoed wrong data");
  }
  // /metrics prints sums with 6 significant digits (%g), so the mean is
  // exact only to that precision.
  const double fanout = histogram_mean(plain, "spi_server_fanout_width", "", 1);
  const double m = static_cast<double>(workload.calls_per_unit);
  if (std::abs(fanout - m) > 1e-5 * m) {
    result.fail("server fan-out width mean " + std::to_string(fanout) +
                " != M = " + std::to_string(workload.calls_per_unit));
  }

  const double calls = static_cast<double>(plain.calls());
  const double messages = static_cast<double>(plain.units);
  std::printf("samples: %llu units, %llu calls, %zu slices of %.2f s over "
              "%zu rounds\n",
              static_cast<unsigned long long>(plain.units),
              static_cast<unsigned long long>(plain.calls()),
              plain.slice_rate.size(), round_seconds / kSlicesPerRound,
              plain.setups.size());
  std::printf("error_rate = %.6g (calls failed or echoed wrong / attempted)\n",
              per(static_cast<double>(result.failed),
                  static_cast<double>(result.attempted)));

  if (!config.trace) {
    result.end_to_end = {
        {"calls_per_s", plain.calls_per_s(), "1/s"},
        {"latency_p50_ms", round_percentile(plain.latency_ms, 0.50), "ms"},
        {"latency_p90_ms", round_percentile(plain.latency_ms, 0.90), "ms"},
        {"latency_p99_ms", round_percentile(plain.latency_ms, 0.99), "ms"},
        {"client_cpu_us_per_call", plain.client_cpu_us_per_call(), "us"},
        {"server_cpu_us_per_call", plain.server_cpu_us_per_call(), "us"},
        {"wire_bytes_per_call", per(static_cast<double>(plain.wire_bytes),
                                    calls), "B"},
        {"server_peak_rss_mb", median(plain.server_rss_mb), "MiB"},
        {"setup_s", median(plain.setups), "s"},
    };
    return result;
  }

  const TraceSummary trace = summarize_spans(client_spans, server_spans);
  if (trace.units == 0 || trace.unmatched_units > 0) {
    result.fail("trace join: " + std::to_string(trace.unmatched_units) +
                " of " + std::to_string(trace.units) +
                " units have no server span");
  }
  if (!config.trace_out.empty() &&
      !write_chrome_trace(config.trace_out, client_spans, server_spans, 400)) {
    result.fail("cannot write " + config.trace_out);
  }

  const ReplayCosts replay = replay_layers(replay_messages(workload,
                                                           config.seed));
  const double measured_cpu =
      plain.client_cpu_us_per_call() + plain.server_cpu_us_per_call();
  std::printf(
      "budget %s: measured CPU %.3f us/call (client %.3f + server %.3f); "
      "layer replay sum %.3f us/call (assemble_request %.3f + parse_request "
      "%.3f + assemble_response %.3f + parse_response %.3f + http cycle "
      "%.3f); unattributed %.3f us/call (%.1f%% of measured)\n",
      workload.name, measured_cpu, plain.client_cpu_us_per_call(),
      plain.server_cpu_us_per_call(), replay.layer_sum(),
      replay.assemble_request, replay.parse_request, replay.assemble_response,
      replay.parse_response, replay.http_cycle,
      measured_cpu - replay.layer_sum(),
      per(measured_cpu - replay.layer_sum(), measured_cpu) * 100);
  std::printf("trace: %zu units joined with their server spans; written to "
              "%s\n",
              trace.units - trace.unmatched_units,
              config.trace_out.empty() ? "(nowhere)" : config.trace_out.c_str());

  const std::string application = "pool=\"application\"";
  result.per_layer = {
      {"net.client_dials_per_msg", per(plain.dials, messages), "count"},
      {"net.server_sendv_segments_per_msg",
       per(delta({}, plain.metrics, "spi_sendv_segments_total"), messages),
       "count"},
      {"http.server_read_us_per_msg",
       histogram_mean(plain, "spi_http_read_seconds", "", 1e6), "us"},
      {"concurrency.reactor_iterations_per_msg",
       per(delta({}, plain.metrics, "spi_reactor_loop_iterations_total"),
           messages), "count"},
      {"concurrency.app_queue_wait_us_per_call",
       histogram_mean(plain, "spi_pool_task_wait_seconds", application, 1e6),
       "us"},
      {"core.server_parse_us_per_msg",
       histogram_mean(plain, "spi_server_stage_seconds", "stage=\"parse\"",
                      1e6), "us"},
      {"core.server_execute_us_per_msg",
       histogram_mean(plain, "spi_server_stage_seconds", "stage=\"execute\"",
                      1e6), "us"},
      {"core.server_assemble_us_per_msg",
       histogram_mean(plain, "spi_server_stage_seconds", "stage=\"assemble\"",
                      1e6), "us"},
      {"core.fanout_width_mean", fanout, "count"},
      {"xml.parse_cpu_us", replay.xml_parse, "us"},
      {"core.parse_request_cpu_us", replay.parse_request, "us"},
      {"core.assemble_request_cpu_us", replay.assemble_request, "us"},
      {"core.assemble_response_cpu_us", replay.assemble_response, "us"},
      {"core.parse_response_cpu_us", replay.parse_response, "us"},
      {"http.message_cycle_cpu_us", replay.http_cycle, "us"},
      {"resilience.retries_per_msg", per(plain.retries, messages), "count"},
      {"common.client_minflt_per_msg", per(plain.client_minflt, messages),
       "count"},
      {"common.server_minflt_per_msg", per(plain.server_minflt, messages),
       "count"},
      {"budget.measured_cpu_us_per_call", measured_cpu, "us"},
      {"budget.layer_sum_cpu_us_per_call", replay.layer_sum(), "us"},
      {"budget.unattributed_cpu_us_per_call",
       measured_cpu - replay.layer_sum(), "us"},
      {"trace.client_call_self_us", trace.client_call_self_us, "us"},
      {"trace.server_window_us", trace.server_window_us, "us"},
      {"trace.handler_us_per_call", trace.handler_us_per_call, "us"},
      {"trace.overhead_pct",
       (1 - per(traced.calls_per_s(), plain.calls_per_s())) * 100, "%"},
  };
  return result;
}

}  // namespace perfbench
