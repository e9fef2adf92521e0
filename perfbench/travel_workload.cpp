// travel_sim: the paper's §4.3 itinerary (eleven invocations, packed into
// seven messages) on the calibrated SimLink, one booking after another.
// Three in-process servers stand for the paper's three server nodes. Each
// round builds one deployment and books on it for the whole round, like a
// long-running agent; its inventory is the demo's with the stock raised so
// that every booking of a round finds the same cheapest flight and room.
#include <cstdio>
#include <mutex>
#include <optional>

#include "core/client.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "perfbench.hpp"
#include "services/airline.hpp"
#include "services/creditcard.hpp"
#include "services/hotel.hpp"
#include "services/travel_agent.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using namespace spi;

constexpr size_t kInvocations = 11;
constexpr size_t kMessages = 7;

/// The testbed calibration, pinned here so a change of library defaults
/// cannot move the reproduction silently (values of
/// LinkParams::ethernet_100mbit and the figure benches' pack cost).
net::LinkParams testbed_link() {
  net::LinkParams link;
  link.connect_cost = std::chrono::microseconds(3000);
  link.rtt = std::chrono::microseconds(400);
  link.bandwidth_bytes_per_sec = 12.5e6;
  link.endpoint_ns_per_byte = 50.0;
  link.per_message_overhead = std::chrono::microseconds(2000);
  link.client_cores = 1;
  link.server_cores = 2;
  return link;
}

core::PackCostModel testbed_pack_cost() {
  core::PackCostModel model;
  model.ns_per_byte = 100.0;
  model.us_per_call = 200.0;
  return model;
}

/// Records each message's calls and outcomes, for the layer replay.
class CaptureHandler final : public core::Handler {
 public:
  std::string_view name() const override { return "perfbench-capture"; }
  void on_response(const core::HandlerContext& context) override {
    ReplayMessage message;
    for (const core::IndexedCall& call : context.request->calls) {
      message.calls.push_back(call.call);
    }
    message.mode = context.request->packed ? core::PackMode::kPacked
                                           : core::PackMode::kSingle;
    message.outcomes = *context.outcomes;
    std::lock_guard lock(mutex_);
    messages_.push_back(std::move(message));
  }
  std::vector<ReplayMessage> take() {
    std::lock_guard lock(mutex_);
    return std::move(messages_);
  }

 private:
  std::mutex mutex_;
  std::vector<ReplayMessage> messages_;
};

struct Booking {
  services::Itinerary itinerary;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double client_cpu_s = 0;   // the booking thread
  double process_cpu_s = 0;  // the whole process (servers included)
  std::uint64_t wire_bytes = 0;
  std::uint64_t dials = 0;
  std::uint64_t retries = 0;
  std::uint64_t minflt = 0;
  MetricMap metrics;  // summed over the three servers
  // Confirmed reservations on the deployment after this booking, and the
  // bookings it has made; the two must agree.
  size_t confirmed_flights = 0;
  size_t confirmed_rooms = 0;
  size_t bookings_so_far = 0;

  double latency_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// Seats and rooms per inventory line. Five digits for the first 89,999
/// bookings, so every QueryFlights / QueryRooms reply keeps its size.
constexpr std::int64_t kStock = 99'999;

/// services::make_demo_airlines / make_demo_hotels with kStock in every
/// line: same services, flights, rooms and prices.
std::vector<std::unique_ptr<services::Airline>> stocked_airlines(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<services::Airline>> airlines;
  airlines.push_back(std::make_unique<services::Airline>(
      "AirChina",
      std::vector<services::FlightSpec>{{"CA-101", "PEK", "HNL", 84'500, kStock},
                                        {"CA-205", "PEK", "SEA", 61'200, kStock}},
      seed ^ 0xA1));
  airlines.push_back(std::make_unique<services::Airline>(
      "PacificWings",
      std::vector<services::FlightSpec>{{"PW-77", "PEK", "HNL", 79'900, kStock},
                                        {"PW-12", "PEK", "LAS", 55'000, kStock}},
      seed ^ 0xA2));
  airlines.push_back(std::make_unique<services::Airline>(
      "NimbusAir",
      std::vector<services::FlightSpec>{{"NB-9", "PEK", "HNL", 72'300, kStock},
                                        {"NB-44", "PEK", "MCO", 90'100, kStock}},
      seed ^ 0xA3));
  return airlines;
}

std::vector<std::unique_ptr<services::Hotel>> stocked_hotels(
    std::uint64_t seed) {
  std::vector<std::unique_ptr<services::Hotel>> hotels;
  hotels.push_back(std::make_unique<services::Hotel>(
      "GrandPalm",
      std::vector<services::RoomSpec>{
          {"GRAND-STD", "Honolulu", "standard", 18'900, kStock},
          {"GRAND-STE", "Honolulu", "suite", 44'000, kStock}},
      seed ^ 0xB1));
  hotels.push_back(std::make_unique<services::Hotel>(
      "SeasideInn",
      std::vector<services::RoomSpec>{
          {"SEA-STD", "Honolulu", "standard", 21'500, kStock},
          {"SEA-STE", "Honolulu", "suite", 39'900, kStock}},
      seed ^ 0xB2));
  hotels.push_back(std::make_unique<services::Hotel>(
      "LagoonResort",
      std::vector<services::RoomSpec>{
          {"LAG-STD", "Honolulu", "standard", 24'700, kStock},
          {"LAG-STE", "Honolulu", "suite", 52'800, kStock}},
      seed ^ 0xB3));
  return hotels;
}

struct Deployment {
  net::SimTransport transport{testbed_link()};
  core::ServiceRegistry registries[3];
  core::ServiceRegistry traced_registries[3];
  std::vector<std::unique_ptr<services::Airline>> airlines;
  std::vector<std::unique_ptr<services::Hotel>> hotels;
  std::unique_ptr<services::CreditCardService> card;
  std::unique_ptr<core::SpiServer> servers[3];
  std::unique_ptr<core::SpiClient> clients[3];
  // Counters as of the end of the previous booking.
  net::WireStats wire;
  std::uint64_t retries = 0;
  MetricMap metrics;
  size_t bookings = 0;

  Deployment(std::uint64_t seed, bool traced, CaptureHandler* capture) {
    airlines = stocked_airlines(seed);
    for (auto& airline : airlines) airline->register_with(registries[0]);
    hotels = stocked_hotels(seed);
    for (auto& hotel : hotels) hotel->register_with(registries[1]);
    services::CreditCardOptions card_options;
    card_options.limit_cents = std::int64_t{1} << 60;
    card = std::make_unique<services::CreditCardService>("CardGate", seed,
                                                         card_options);
    card->register_with(registries[2]);

    static constexpr const char* kNodes[] = {"airline-node", "hotel-node",
                                             "card-node"};
    core::ServerOptions server_options;
    server_options.pack_cost = testbed_pack_cost();
    core::ClientOptions client_options;
    client_options.pack_cost = testbed_pack_cost();
    for (int i = 0; i < 3; ++i) {
      if (traced) register_traced_operations(registries[i],
                                             traced_registries[i]);
      servers[i] = std::make_unique<core::SpiServer>(
          transport, net::Endpoint{kNodes[i], 80},
          traced ? traced_registries[i] : registries[i], server_options);
      if (traced) servers[i]->handlers().add(make_window_handler());
      if (capture) {
        servers[i]->handlers().add(std::shared_ptr<core::Handler>(
            capture, [](core::Handler*) {}));
      }
      if (!servers[i]->start().ok()) {
        throw SpiError(ErrorCode::kInternal, "travel server failed to start");
      }
      clients[i] = std::make_unique<core::SpiClient>(
          transport, servers[i]->endpoint(), client_options);
    }
    metrics = server_metrics();
  }

  /// The three servers' /metrics, summed series by series.
  MetricMap server_metrics() const {
    MetricMap sum;
    for (const auto& server : servers) {
      for (const auto& [key, value] :
           parse_prometheus(server->metrics().expose())) {
        sum[key] += value;
      }
    }
    return sum;
  }

  Result<Booking> book(std::uint64_t trace_key) {
    services::TravelAgentConfig config;
    config.airline_services = {"AirChina", "PacificWings", "NimbusAir"};
    config.hotel_services = {"GrandPalm", "SeasideInn", "LagoonResort"};
    config.use_packing = true;
    services::TravelAgent agent(*clients[0], *clients[1], *clients[2],
                                config);
    std::optional<telemetry::TraceScope> scope;
    const telemetry::TraceContext trace{trace_id_for(trace_key),
                                        "00000000000000c1"};
    if (trace_key) scope.emplace(trace);

    Booking booking;
    const CpuSample process_before = sample_self();
    const double thread_before = thread_cpu_s();
    booking.start_ns = now_ns();
    auto itinerary = agent.book();
    booking.end_ns = now_ns();
    if (trace_key) {
      record_span({trace_key, booking.start_ns, booking.end_ns, 0,
                   SpanKind::kClientUnit});
    }
    booking.client_cpu_s = thread_cpu_s() - thread_before;
    const CpuSample process_after = sample_self();
    booking.process_cpu_s = process_after.cpu_s - process_before.cpu_s;
    booking.minflt = process_after.minflt - process_before.minflt;
    if (!itinerary.ok()) return itinerary.error();
    booking.itinerary = std::move(itinerary).value();
    ++bookings;

    // Both ends of every connection live on this one SimTransport, so its
    // send counter holds request and response bytes once each.
    const net::WireStats wire_now = transport.stats();
    booking.wire_bytes = wire_now.bytes_sent - wire.bytes_sent;
    booking.dials = wire_now.connections_opened - wire.connections_opened;
    wire = wire_now;
    std::uint64_t retries_now = 0;
    for (const auto& client : clients) retries_now += client->stats().retries;
    booking.retries = retries_now - retries;
    retries = retries_now;
    const MetricMap metrics_now = server_metrics();
    for (const auto& [key, value] : metrics_now) {
      booking.metrics[key] = value - delta({}, metrics, key);
    }
    metrics = metrics_now;
    for (const auto& airline : airlines) {
      booking.confirmed_flights += airline->confirmed_reservations();
    }
    for (const auto& hotel : hotels) {
      booking.confirmed_rooms += hotel->confirmed_reservations();
    }
    booking.bookings_so_far = bookings;
    return booking;
  }
};

/// Why `booking` is not the reference outcome (empty when it is).
std::string check_booking(const Booking& booking,
                          const services::Itinerary& reference) {
  const services::Itinerary& it = booking.itinerary;
  if (it.invocations != kInvocations || it.messages != kMessages) {
    return "itinerary took " + std::to_string(it.invocations) +
           " invocations in " + std::to_string(it.messages) + " messages";
  }
  if (it.airline != reference.airline || it.flight_id != reference.flight_id ||
      it.hotel != reference.hotel || it.room_id != reference.room_id ||
      it.flight_cents != reference.flight_cents ||
      it.room_cents != reference.room_cents) {
    return "itinerary differs from the first booking";
  }
  if (it.total_cents != it.flight_cents + it.room_cents ||
      it.flight_reservation_id.empty() || it.room_reservation_id.empty() ||
      it.authorization_id.empty()) {
    return "itinerary is incomplete or its total is wrong";
  }
  if (booking.confirmed_flights != booking.bookings_so_far ||
      booking.confirmed_rooms != booking.bookings_so_far) {
    return "expected one confirmed flight and one confirmed room per booking";
  }
  const double fanout_sum = delta({}, booking.metrics,
                                  "spi_server_fanout_width_sum");
  const double fanout_count = delta({}, booking.metrics,
                                    "spi_server_fanout_width_count");
  if (fanout_sum != kInvocations || fanout_count != kMessages) {
    return "servers saw " + std::to_string(fanout_sum) + " calls in " +
           std::to_string(fanout_count) + " messages";
  }
  return {};
}

/// What the rounds of one kind (untraced or traced) add up to. Rates and
/// CPU are taken per round; the metrics are medians over rounds.
struct Totals {
  std::vector<Booking> bookings;
  std::vector<std::vector<double>> latency_ms;  // per round
  std::vector<double> round_calls_per_s;
  std::vector<double> round_client_cpu_us;
  std::vector<double> round_server_cpu_us;
};

/// Books one itinerary after another on `deployment` for `seconds`, and
/// adds them to `phase` as one round.
void run_round(Deployment& deployment, double seconds, bool traced,
               const services::Itinerary& reference, std::uint64_t key_base,
               Totals& phase, RunResult& result) {
  std::vector<double> latency;
  double booking_s = 0, client_cpu_s = 0, process_cpu_s = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; seconds_since(start) < seconds; ++i) {
    result.attempted += kInvocations;
    auto booking = deployment.book(traced ? key_base + i + 1 : 0);
    if (!booking.ok()) {
      result.failed += kInvocations;
      result.fail("booking failed: " + booking.error().to_string());
      continue;
    }
    if (std::string why = check_booking(booking.value(), reference);
        !why.empty()) {
      result.failed += kInvocations;
      result.fail(why);
      continue;
    }
    latency.push_back(booking.value().latency_ms());
    booking_s += booking.value().latency_ms() / 1e3;
    client_cpu_s += booking.value().client_cpu_s;
    process_cpu_s += booking.value().process_cpu_s;
    phase.bookings.push_back(std::move(booking).value());
  }
  if (latency.empty()) return;
  const double calls = static_cast<double>(latency.size() * kInvocations);
  phase.latency_ms.push_back(std::move(latency));
  phase.round_calls_per_s.push_back(calls / booking_s);
  phase.round_client_cpu_us.push_back(client_cpu_s * 1e6 / calls);
  phase.round_server_cpu_us.push_back((process_cpu_s - client_cpu_s) * 1e6 /
                                      calls);
}

double sum_of(const Totals& phase, const std::string& key) {
  double total = 0;
  for (const Booking& booking : phase.bookings) {
    auto it = booking.metrics.find(key);
    if (it != booking.metrics.end()) total += it->second;
  }
  return total;
}

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

}  // namespace

RunResult run_travel_workload(const RunConfig& config) {
  RunResult result;

  // Each round: set-up (a deployment and one warm-up booking, timed; the
  // first warm-up fixes the reference itinerary), then bookings on that
  // deployment for seconds / kRounds. Traced runs alternate untraced and
  // traced rounds.
  std::vector<double> setups;
  services::Itinerary reference;
  Totals plain, traced;
  for (int round = 0; round < kRounds; ++round) {
    const bool traced_round = config.trace && round % 2 == 1;
    const auto start = Clock::now();
    Deployment deployment(config.seed + round, traced_round, nullptr);
    auto warm_up = deployment.book(0);
    setups.push_back(seconds_since(start));
    if (!warm_up.ok()) {
      result.fail("warm-up booking failed: " + warm_up.error().to_string());
      return result;
    }
    if (round == 0) reference = warm_up.value().itinerary;
    if (std::string why = check_booking(warm_up.value(), reference);
        !why.empty()) {
      result.fail("warm-up: " + why);
    }
    run_round(deployment, config.seconds / kRounds, traced_round, reference,
              1000 * (round + 1), traced_round ? traced : plain, result);
  }

  const size_t n = plain.bookings.size();
  if (n == 0) {
    result.fail("no booking completed");
    return result;
  }
  for (const Booking& booking : plain.bookings) {
    if (booking.wire_bytes != plain.bookings.front().wire_bytes) {
      result.fail("wire bytes differ between bookings");
    }
  }
  const double messages = static_cast<double>(n * kMessages);
  const double client_cpu_us = median(plain.round_client_cpu_us);
  const double server_cpu_us = median(plain.round_server_cpu_us);
  std::printf("samples: %zu itineraries, %zu calls in %zu messages\n", n,
              n * kInvocations, n * kMessages);
  std::printf("error_rate = %.6g (calls failed or wrong / attempted)\n",
              per(static_cast<double>(result.failed),
                  static_cast<double>(result.attempted)));
  std::printf("note: client and servers share this process; client CPU is "
              "the booking thread, server CPU the rest of the process\n");

  if (!config.trace) {
    result.end_to_end = {
        {"calls_per_s", median(plain.round_calls_per_s), "1/s"},
        {"latency_p50_ms", round_percentile(plain.latency_ms, 0.50), "ms"},
        {"latency_p90_ms", round_percentile(plain.latency_ms, 0.90), "ms"},
        {"latency_p99_ms", round_percentile(plain.latency_ms, 0.99), "ms"},
        {"client_cpu_us_per_call", client_cpu_us, "us"},
        {"server_cpu_us_per_call", server_cpu_us, "us"},
        {"wire_bytes_per_call",
         static_cast<double>(plain.bookings.front().wire_bytes) /
             kInvocations, "B"},
        {"server_peak_rss_mb", peak_rss_mb(0), "MiB"},
        {"setup_s", median(setups), "s"},
    };
    return result;
  }

  // Spans of the traced rounds, then one captured booking for the replay.
  const std::vector<Span> spans = drain_spans();
  std::vector<Span> client_spans, server_spans;
  for (const Span& span : spans) {
    (span.kind == SpanKind::kClientUnit ? client_spans : server_spans)
        .push_back(span);
  }
  const TraceSummary trace = summarize_spans(client_spans, server_spans);
  if (trace.units == 0 || trace.unmatched_units > 0) {
    result.fail("trace join: " + std::to_string(trace.unmatched_units) +
                " of " + std::to_string(trace.units) +
                " itineraries have no server span");
  }
  if (!config.trace_out.empty() &&
      !write_chrome_trace(config.trace_out, client_spans, server_spans, 50)) {
    result.fail("cannot write " + config.trace_out);
  }

  std::printf("trace: %zu itineraries joined with their server spans; "
              "written to %s\n",
              trace.units - trace.unmatched_units,
              config.trace_out.empty() ? "(nowhere)" : config.trace_out.c_str());

  CaptureHandler capture;
  {
    Deployment deployment(config.seed, false, &capture);
    auto booking = deployment.book(0);
    if (!booking.ok()) result.fail("capture booking failed");
  }
  const std::vector<ReplayMessage> captured = capture.take();
  if (captured.size() != kMessages) {
    result.fail("captured " + std::to_string(captured.size()) +
                " messages, expected 7");
  }
  const ReplayCosts replay = replay_layers(captured);
  const double measured_cpu = client_cpu_us + server_cpu_us;
  std::printf(
      "budget travel_sim: measured CPU %.3f us/call (client %.3f + servers "
      "%.3f); layer replay sum %.3f us/call; unattributed %.3f us/call\n",
      measured_cpu, client_cpu_us, server_cpu_us, replay.layer_sum(),
      measured_cpu - replay.layer_sum());

  std::uint64_t dials = 0, retries = 0, minflt = 0;
  for (const Booking& booking : plain.bookings) {
    dials += booking.dials;
    retries += booking.retries;
    minflt += booking.minflt;
  }
  auto mean = [&](const std::string& name, const std::string& labels,
                  double scale) {
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    return per(sum_of(plain, name + "_sum" + suffix) * scale,
               sum_of(plain, name + "_count" + suffix));
  };
  const double traced_cps = median(traced.round_calls_per_s);
  result.per_layer = {
      {"net.client_dials_per_msg", per(dials, messages), "count"},
      {"net.server_sendv_segments_per_msg",
       per(sum_of(plain, "spi_sendv_segments_total"), messages), "count"},
      {"http.server_read_us_per_msg",
       mean("spi_http_read_seconds", "", 1e6), "us"},
      {"concurrency.reactor_iterations_per_msg",
       per(sum_of(plain, "spi_reactor_loop_iterations_total"), messages),
       "count"},
      {"concurrency.app_queue_wait_us_per_call",
       mean("spi_pool_task_wait_seconds", "pool=\"application\"", 1e6), "us"},
      {"core.server_parse_us_per_msg",
       mean("spi_server_stage_seconds", "stage=\"parse\"", 1e6), "us"},
      {"core.server_execute_us_per_msg",
       mean("spi_server_stage_seconds", "stage=\"execute\"", 1e6), "us"},
      {"core.server_assemble_us_per_msg",
       mean("spi_server_stage_seconds", "stage=\"assemble\"", 1e6), "us"},
      {"core.fanout_width_mean", mean("spi_server_fanout_width", "", 1),
       "count"},
      {"xml.parse_cpu_us", replay.xml_parse, "us"},
      {"core.parse_request_cpu_us", replay.parse_request, "us"},
      {"core.assemble_request_cpu_us", replay.assemble_request, "us"},
      {"core.assemble_response_cpu_us", replay.assemble_response, "us"},
      {"core.parse_response_cpu_us", replay.parse_response, "us"},
      {"http.message_cycle_cpu_us", replay.http_cycle, "us"},
      {"resilience.retries_per_msg", per(retries, messages), "count"},
      // One process: every fault is counted on the client side.
      {"common.client_minflt_per_msg", per(minflt, messages), "count"},
      {"common.server_minflt_per_msg", 0, "count"},
      {"budget.measured_cpu_us_per_call", measured_cpu, "us"},
      {"budget.layer_sum_cpu_us_per_call", replay.layer_sum(), "us"},
      {"budget.unattributed_cpu_us_per_call",
       measured_cpu - replay.layer_sum(), "us"},
      {"trace.client_call_self_us", trace.client_call_self_us, "us"},
      {"trace.server_window_us", trace.server_window_us, "us"},
      {"trace.handler_us_per_call", trace.handler_us_per_call, "us"},
      {"trace.overhead_pct",
       (1 - per(traced_cps, median(plain.round_calls_per_s))) * 100, "%"},
  };
  return result;
}

}  // namespace perfbench
