// In-memory span log for the traced run, joined across the client and the
// forked server process by trace id. Both processes stamp CLOCK_MONOTONIC
// (steady_clock on Linux), so their timestamps share one time base.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "core/call_context.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

struct SpanLog {
  std::mutex mutex;
  // One buffer per recording thread; deque keeps buffers in place while
  // other threads register theirs.
  std::deque<std::vector<Span>> buffers;
};

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* buffer = [] {
    SpanLog& log = span_log();
    std::lock_guard lock(log.mutex);
    log.buffers.emplace_back().reserve(1 << 14);
    return &log.buffers.back();
  }();
  return *buffer;
}

// High half tags the id as the benchmark's, so a stray trace never joins.
constexpr std::uint64_t kTraceTag = 0x5b1be7c4a11ed000ULL;

/// Low 64 bits of a trace id made by trace_id_for; 0 when it is not ours.
std::uint64_t key_of(std::string_view trace_id) {
  if (trace_id.size() != 32) return 0;
  const std::string high(trace_id.substr(0, 16));
  const std::string low(trace_id.substr(16));
  if (std::strtoull(high.c_str(), nullptr, 16) != kTraceTag) return 0;
  return std::strtoull(low.c_str(), nullptr, 16);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void record_span(const Span& span) {
  Span stamped = span;
  stamped.thread = thread_index();
  thread_buffer().push_back(stamped);
}

std::vector<Span> drain_spans() {
  SpanLog& log = span_log();
  std::lock_guard lock(log.mutex);
  std::vector<Span> all;
  for (std::vector<Span>& buffer : log.buffers) {
    all.insert(all.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }
  return all;
}

std::string trace_id_for(std::uint64_t key) {
  char id[33];
  std::snprintf(id, sizeof(id), "%016llx%016llx",
                static_cast<unsigned long long>(kTraceTag),
                static_cast<unsigned long long>(key));
  return id;
}

void register_traced_operations(const spi::core::ServiceRegistry& source,
                                spi::core::ServiceRegistry& target) {
  for (const std::string& service : source.service_names()) {
    for (const std::string& operation : source.operation_names(service)) {
      auto handler = source.find(service, operation);
      if (!handler.ok()) throw spi::SpiError(handler.error());
      spi::core::OperationHandler inner = std::move(handler).value();
      auto traced = [inner](const spi::soap::Struct& params) {
        const std::int64_t start = now_ns();
        auto outcome = inner(params);
        const spi::core::CallContext* context =
            spi::core::current_call_context();
        record_span({context ? key_of(context->trace.trace_id) : 0, start,
                     now_ns(), 0, SpanKind::kHandler});
        return outcome;
      };
      spi::Status registered = target.register_operation(
          service, operation, std::move(traced),
          source.traits(service, operation));
      if (!registered.ok()) throw spi::SpiError(registered.error());
    }
  }
}

namespace {

class WindowHandler final : public spi::core::Handler {
 public:
  std::string_view name() const override { return "perfbench-window"; }
  // The server runs both phases of one message on the same thread.
  spi::Status on_request(const spi::core::HandlerContext&) override {
    opened_ns_ = now_ns();
    return spi::Status();
  }
  void on_response(const spi::core::HandlerContext& context) override {
    record_span({key_of(context.request->trace.trace_id), opened_ns_,
                 now_ns(), 0, SpanKind::kServerWindow});
  }

 private:
  static inline thread_local std::int64_t opened_ns_ = 0;
};

}  // namespace

std::shared_ptr<spi::core::Handler> make_window_handler() {
  return std::make_shared<WindowHandler>();
}

TraceSummary summarize_spans(const std::vector<Span>& client,
                             const std::vector<Span>& server) {
  std::unordered_map<std::uint64_t, std::int64_t> window_ns;  // per unit
  double window_total_ns = 0;
  double handler_total_ns = 0;
  size_t windows = 0;
  size_t handlers = 0;
  for (const Span& span : server) {
    if (span.key == 0) continue;  // warm-up traffic carries no bench trace
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    if (span.kind == SpanKind::kServerWindow) {
      window_ns[span.key] += span.end_ns - span.start_ns;
      window_total_ns += duration;
      ++windows;
    } else if (span.kind == SpanKind::kHandler) {
      handler_total_ns += duration;
      ++handlers;
    }
  }
  TraceSummary summary;
  double self_total_ns = 0;
  for (const Span& span : client) {
    if (span.kind != SpanKind::kClientUnit) continue;
    ++summary.units;
    auto it = window_ns.find(span.key);
    if (it == window_ns.end()) {
      ++summary.unmatched_units;
      continue;
    }
    self_total_ns += static_cast<double>(span.end_ns - span.start_ns -
                                         it->second);
  }
  const size_t matched = summary.units - summary.unmatched_units;
  if (matched) summary.client_call_self_us = self_total_ns / 1e3 / matched;
  if (windows) summary.server_window_us = window_total_ns / 1e3 / windows;
  if (handlers) summary.handler_us_per_call = handler_total_ns / 1e3 / handlers;
  return summary;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& client,
                        const std::vector<Span>& server, size_t max_units) {
  std::unordered_set<std::uint64_t> kept;
  std::int64_t origin = 0;
  for (const Span& span : client) {
    if (kept.size() >= max_units) break;
    if (kept.empty()) origin = span.start_ns;
    origin = std::min(origin, span.start_ns);
    kept.insert(span.key);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":\"load generator\"}},\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
               "\"args\":{\"name\":\"server\"}}");
  static constexpr const char* kNames[] = {"unit", "server window",
                                           "operation"};
  auto emit = [&](const Span& span, int pid) {
    if (!kept.count(span.key)) return;
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":\"%s\"}}",
                 kNames[static_cast<int>(span.kind)], pid, span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 trace_id_for(span.key).c_str());
  };
  for (const Span& span : client) emit(span, 1);
  for (const Span& span : server) emit(span, 2);
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
