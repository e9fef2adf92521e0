// Per-call CPU budget: replays each layer function on a workload's exact
// messages, single-threaded, and reports CPU microseconds per call. The
// sum is set against the client+server CPU the run measured; the rest is
// the part no layer function accounts for (reactor, syscalls, thread
// handoff, allocation).
#include "core/dispatcher.hpp"
#include "core/registry.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "perfbench.hpp"
#include "services/echo.hpp"
#include "telemetry/trace.hpp"
#include "xml/parser.hpp"

namespace perfbench {

namespace {

using namespace spi;

struct Prepared {
  const ReplayMessage* message = nullptr;
  std::string request;   // envelope as the client sends it
  std::string response;  // envelope as the server answers
  std::vector<core::IndexedOutcome> outcomes;
  bool packed = false;
};

constexpr double kMinCpuSeconds = 0.04;  // per layer

/// Runs `body` over every prepared message until kMinCpuSeconds of thread
/// CPU have passed; returns CPU microseconds per call.
template <typename Body>
double cpu_us_per_call(const std::vector<Prepared>& prepared, size_t calls,
                       Body body) {
  size_t rounds = 0;
  const double start = thread_cpu_s();
  double elapsed = 0;
  do {
    for (const Prepared& p : prepared) body(p);
    ++rounds;
    elapsed = thread_cpu_s() - start;
  } while (elapsed < kMinCpuSeconds);
  return elapsed * 1e6 / static_cast<double>(rounds * calls);
}

http::Request http_request(const std::string& envelope) {
  http::Request request;
  request.target = "/spi";
  request.headers.set("Host", "localhost");
  request.headers.set("SOAPAction", "\"\"");
  request.headers.set("Content-Type", "text/xml");
  request.body = envelope;
  return request;
}

}  // namespace

ReplayCosts replay_layers(const std::vector<ReplayMessage>& messages) {
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  // Real traffic carries a trace header both ways; so does the replay.
  const telemetry::TraceContext trace{trace_id_for(1), "00f067aa0ba902b7"};
  telemetry::TraceScope scope(trace);

  core::Assembler assembler;
  core::Dispatcher dispatcher;
  std::vector<Prepared> prepared;
  size_t calls = 0;
  for (const ReplayMessage& message : messages) {
    Prepared p;
    p.message = &message;
    p.request = assembler.assemble_request(message.calls, message.mode);
    auto parsed = dispatcher.parse_request(p.request);
    if (!parsed.ok()) throw spi::SpiError(parsed.error());
    p.packed = parsed.value().packed;
    p.outcomes = message.outcomes.empty()
                     ? dispatcher.execute(parsed.value(), registry, nullptr)
                     : message.outcomes;
    p.response = assembler.assemble_response(
        p.outcomes, parsed.value().calls.front().call, p.packed);
    calls += message.calls.size();
    prepared.push_back(std::move(p));
  }

  ReplayCosts costs;
  costs.xml_parse = cpu_us_per_call(prepared, calls, [](const Prepared& p) {
    auto request = xml::parse_document(p.request);
    auto response = xml::parse_document(p.response);
    if (!request.ok() || !response.ok()) throw spi::SpiError(
        spi::ErrorCode::kInternal, "replay: xml parse failed");
  });
  costs.assemble_request =
      cpu_us_per_call(prepared, calls, [&](const Prepared& p) {
        std::string envelope =
            assembler.assemble_request(p.message->calls, p.message->mode);
        if (envelope.size() != p.request.size()) throw spi::SpiError(
            spi::ErrorCode::kInternal, "replay: request size changed");
      });
  costs.parse_request =
      cpu_us_per_call(prepared, calls, [&](const Prepared& p) {
        auto parsed = dispatcher.parse_request(p.request);
        if (!parsed.ok()) throw spi::SpiError(parsed.error());
      });
  costs.assemble_response =
      cpu_us_per_call(prepared, calls, [&](const Prepared& p) {
        std::string envelope = assembler.assemble_response(
            p.outcomes, p.message->calls.front(), p.packed);
        if (envelope.size() != p.response.size()) throw spi::SpiError(
            spi::ErrorCode::kInternal, "replay: response size changed");
      });
  costs.parse_response =
      cpu_us_per_call(prepared, calls, [&](const Prepared& p) {
        auto parsed = dispatcher.parse_response(p.response);
        if (!parsed.ok()) throw spi::SpiError(parsed.error());
        auto routed =
            dispatcher.route(std::move(parsed).value(), p.message->calls.size());
        if (!routed.ok()) throw spi::SpiError(routed.error());
      });
  costs.http_cycle = cpu_us_per_call(prepared, calls, [](const Prepared& p) {
    http::MessageParser request_parser(http::MessageParser::Mode::kRequest);
    request_parser.feed(http_request(p.request).serialize());
    http::MessageParser response_parser(http::MessageParser::Mode::kResponse);
    response_parser.feed(
        http::Response::make(200, "OK", p.response, "text/xml").serialize());
    if (!request_parser.poll_request() || !response_parser.poll_response()) {
      throw spi::SpiError(spi::ErrorCode::kInternal,
                          "replay: http framing failed");
    }
  });
  return costs;
}

}  // namespace perfbench
