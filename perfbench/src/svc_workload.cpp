#include "svc_workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/helcfl_scheduler.h"
#include "mec/cost_model.h"
#include "mec/tdma.h"
#include "percentile.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "spans.h"
#include "svc/client.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "util/rng.h"

namespace perfbench {

namespace core = helcfl::core;
namespace mec = helcfl::mec;
namespace sched = helcfl::sched;
namespace sim = helcfl::sim;
namespace svc = helcfl::svc;
namespace util = helcfl::util;

namespace {

constexpr std::uint64_t kFleetStream = 3;
constexpr std::uint64_t kReportStream = 11;
constexpr std::uint64_t kRetryStream = 12;
constexpr double kModelSizeBits = 4e6;
constexpr int kSetupRepeats = 5;
constexpr int kWaitMs = 2;
/// No wait in a healthy run comes near this; hitting it is an error.
constexpr std::int64_t kStallNs = std::int64_t{20'000'000'000};

sim::ExperimentConfig fleet_config(const SvcSpec& spec, std::uint64_t seed) {
  sim::ExperimentConfig config = sim::paper_config();
  config.n_users = spec.devices;
  config.fraction = spec.fraction;
  config.seed = seed;
  return config;
}

svc::ServiceOptions service_options(const SvcSpec& spec) {
  svc::ServiceOptions options;
  options.fraction = spec.fraction;
  // Leases never expire: the workload measures scheduling, not liveness.
  options.lease_ticks = std::uint64_t{1} << 50;
  // The service applies a whole ingress batch per poll; matching the
  // ingress bound keeps its own queue from shedding what ingress admitted.
  options.queue_capacity = spec.ingress_queue;
  return options;
}

svc::RetryOptions retry_options() {
  // Ticks are wall milliseconds: a retransmission means a frame was shed
  // or lost, not that the clock was impatient.
  svc::RetryOptions retry;
  retry.base_delay_ticks = 200;
  retry.max_delay_ticks = 2000;
  retry.max_attempts = 64;
  return retry;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

/// Generator-side time, split by the kind of client call.
struct ClientTimes {
  std::int64_t send_ns = 0;  ///< ClientChannel::send_frame
  std::int64_t poll_ns = 0;  ///< ServiceClient poll/deliver/take_decision
  std::int64_t wait_ns = 0;  ///< ClientChannel::poll_frames (blocked on the server)
};

/// One TCP session: service, server, two connections (device reports and
/// the controller) and a ServiceClient on each.
class Session {
 public:
  Session(const std::vector<sched::UserInfo>& users, const SvcSpec& spec,
          std::uint64_t seed)
      : service_(users, service_options(spec)),
        server_(service_, svc::Endpoint::parse("tcp:127.0.0.1:0"),
                [&spec] {
                  svc::ServerOptions options;
                  options.ingress_threads = 1;
                  options.ingress_queue_capacity = spec.ingress_queue;
                  return options;
                }()),
        reports_(retry_options(), util::Rng(seed).fork(kRetryStream)),
        control_(retry_options(), util::Rng(seed).fork(kRetryStream + 1)),
        start_ns_(now_ns()) {
    server_.start();
    report_channel_ = svc::ClientChannel(server_.endpoint());
    control_channel_ = svc::ClientChannel(server_.endpoint());
  }
  ~Session() { server_.stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void trace_into(SpanRecorder* spans) { spans_ = spans; }

  /// Registers every device with at most `window` unacked reports in flight.
  void register_all(const std::vector<svc::DeviceReport>& reports, std::size_t window) {
    std::size_t next = 0;
    const std::int64_t start = now_ns();
    while (next < reports.size() || reports_.pending_reports() > 0) {
      while (next < reports.size() && reports_.pending_reports() < window) {
        reports_.send_report(reports[next++], tick());
      }
      flush(reports_, report_channel_, 0);
      receive(reports_, report_channel_, 0);
      if (now_ns() - start > kStallNs) throw std::runtime_error("registration stalled");
    }
  }

  /// Sends one round's reports and waits for every ack.
  void report_round(const std::vector<svc::DeviceReport>& reports, std::uint64_t parent) {
    for (const svc::DeviceReport& report : reports) reports_.send_report(report, tick());
    const std::int64_t start = now_ns();
    while (reports_.pending_reports() > 0) {
      flush(reports_, report_channel_, parent);
      if (reports_.pending_reports() == 0) break;
      receive(reports_, report_channel_, parent);
      if (now_ns() - start > kStallNs) throw std::runtime_error("report phase stalled");
    }
  }

  /// Requests the decision for `round` and waits for it.
  svc::DecisionResponse decide(std::uint64_t round, std::uint64_t parent) {
    control_.request_decision(round, tick());
    const std::int64_t start = now_ns();
    for (;;) {
      flush(control_, control_channel_, parent);
      receive(control_, control_channel_, parent);
      const std::int64_t t0 = now_ns();
      std::optional<svc::DecisionResponse> response = control_.take_decision();
      times_.poll_ns += now_ns() - t0;
      if (response.has_value()) return *response;
      if (!control_.awaiting_decision()) {
        throw std::runtime_error("decision request exhausted its retries");
      }
      if (now_ns() - start > kStallNs) throw std::runtime_error("decision stalled");
    }
  }

  void stop() { server_.stop(); }
  const svc::SchedulerService& service() const { return service_; }
  svc::ServerStats server_stats() const { return server_.stats(); }
  const svc::ServiceClient& report_client() const { return reports_; }
  const svc::ServiceClient& control_client() const { return control_; }
  std::uint64_t report_frames_sent() const { return report_frames_sent_; }
  ClientTimes& times() { return times_; }

 private:
  std::uint64_t tick() const {
    return static_cast<std::uint64_t>((now_ns() - start_ns_) / 1'000'000);
  }

  void span(const char* name, std::int64_t start, std::int64_t end, std::uint64_t parent) {
    if (spans_ != nullptr) spans_->record(name, start, end, parent);
  }

  /// Transmits whatever `client` has due.
  void flush(svc::ServiceClient& client, svc::ClientChannel& channel,
             std::uint64_t parent) {
    const std::int64_t t0 = now_ns();
    const std::vector<std::vector<std::uint8_t>> frames = client.poll(tick());
    const std::int64_t t1 = now_ns();
    times_.poll_ns += t1 - t0;
    span("svc.client.poll", t0, t1, parent);
    if (frames.empty()) return;
    for (const auto& frame : frames) {
      if (!channel.send_frame(frame)) throw std::runtime_error("connection lost");
    }
    const std::int64_t t2 = now_ns();
    times_.send_ns += t2 - t1;
    span("svc.client.send", t1, t2, parent);
    if (&client == &reports_) report_frames_sent_ += frames.size();
  }

  /// Waits up to `kWaitMs` for frames and hands them to `client`.
  void receive(svc::ServiceClient& client, svc::ClientChannel& channel,
               std::uint64_t parent) {
    inbox_.clear();
    const std::int64_t t0 = now_ns();
    channel.poll_frames(inbox_, kWaitMs);
    const std::int64_t t1 = now_ns();
    times_.wait_ns += t1 - t0;
    span("svc.client.wait", t0, t1, parent);
    if (!channel.connected()) throw std::runtime_error("server closed the connection");
    for (const svc::Frame& frame : inbox_) client.deliver(svc::encode_frame(frame));
    const std::int64_t t2 = now_ns();
    times_.poll_ns += t2 - t1;
    span("svc.client.poll", t1, t2, parent);
  }

  svc::SchedulerService service_;
  svc::SocketServer server_;
  svc::ServiceClient reports_;
  svc::ServiceClient control_;
  svc::ClientChannel report_channel_;
  svc::ClientChannel control_channel_;
  std::int64_t start_ns_;
  SpanRecorder* spans_ = nullptr;
  std::vector<svc::Frame> inbox_;
  std::uint64_t report_frames_sent_ = 0;
  ClientTimes times_;
};

/// One stretch of the closed loop.
struct Phase {
  std::vector<double> decision_ms;
  std::vector<double> report_phase_ms;
  std::vector<double> round_ms;
  std::size_t late = 0;  ///< decisions over the latency limit
  double seconds = 0.0;
  ClientTimes client;

  double rounds_per_s() const {
    return seconds > 0.0 ? static_cast<double>(round_ms.size()) / seconds : 0.0;
  }
};

struct SetupTimes {
  double fleet_ms = 0.0;
  double service_ctor_ms = 0.0;  ///< service + server start + connects
  double registration_ms = 0.0;
  double total_s = 0.0;
};

/// What the in-process replay measured.
struct Replay {
  std::vector<double> ingest_us_per_report;
  std::vector<double> poll_ms;         ///< applying one round's reports
  std::vector<double> decision_poll_ms;
  std::vector<double> round_ms;        ///< ingest + both polls
  std::vector<double> encode_us;
  std::vector<double> core_decide_ms;  ///< traced runs only
};

/// FNV-1a over a decision's picks and the bits of its frequencies.
std::uint64_t decision_hash(const svc::DecisionResponse& decision) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (value >> (8 * b)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(decision.selected.size());
  for (const std::size_t d : decision.selected) mix(d);
  for (const double f : decision.frequencies_hz) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    mix(bits);
  }
  return hash;
}

/// Regenerates the report stream of `seed`, replays it through an
/// in-process service (and, when `mirror_core`, a bare
/// core::HelcflScheduler), and checks every TCP decision against it.  The
/// TCP run keeps only decision hashes, so its memory does not grow with the
/// number of rounds it completes.
Replay replay_and_check(const std::vector<sched::UserInfo>& users, const SvcSpec& spec,
                        std::uint64_t seed, const std::vector<std::uint64_t>& tcp_hashes,
                        bool mirror_core, SpanRecorder* spans, RunResult& result) {
  Replay replay;
  ReportGenerator generator(users, spec, seed);
  const std::vector<svc::DeviceReport> registration = generator.registration();
  svc::SchedulerService service(users, service_options(spec));
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < registration.size(); ++i) {
    service.ingest(svc::encode_frame(svc::encode(registration[i])), tick);
    if ((i + 1) % spec.ingress_queue == 0 || i + 1 == registration.size()) {
      service.poll(++tick);
      service.take_outbox();
    }
  }
  std::vector<sched::UserInfo> mirror_users = users;
  core::HelcflScheduler mirror([&spec] {
    core::HelcflOptions options;
    options.fraction = spec.fraction;
    options.eta = service_options(spec).eta;
    options.enable_dvfs = service_options(spec).enable_dvfs;
    return options;
  }());

  std::size_t mismatches = 0;
  std::size_t invalid = 0;
  std::vector<std::uint8_t> seen(users.size(), 0);
  for (std::size_t r = 0; r < tcp_hashes.size(); ++r) {
    const std::vector<svc::DeviceReport> reports = generator.round(r);
    const std::int64_t t0 = now_ns();
    for (const svc::DeviceReport& report : reports) {
      service.ingest(svc::encode_frame(svc::encode(report)), tick);
    }
    const std::int64_t t1 = now_ns();
    service.poll(++tick);
    const std::int64_t t2 = now_ns();
    service.take_outbox();
    const std::int64_t t3 = now_ns();
    svc::DecisionRequest request;
    request.controller_seq = r + 1;
    request.round = r;
    service.ingest(svc::encode_frame(svc::encode(request)), tick);
    service.poll(++tick);
    const std::int64_t t4 = now_ns();
    std::vector<std::vector<std::uint8_t>> outbox = service.take_outbox();
    std::optional<svc::DecisionResponse> response;
    for (const auto& bytes : outbox) {
      std::vector<svc::Frame> frames;
      std::vector<svc::FrameError> errors;
      svc::decode_datagram(bytes, frames, errors);
      for (const svc::Frame& frame : frames) {
        if (frame.type == svc::MsgType::kDecisionResponse) {
          response = svc::decode_decision_response(frame.payload);
        }
      }
    }
    if (!response.has_value()) {
      result.check(false, "the replay service issued no decision for round " +
                              std::to_string(r));
      return replay;
    }
    const std::int64_t e0 = now_ns();
    const std::vector<std::uint8_t> encoded = svc::encode_frame(svc::encode(*response));
    const std::int64_t e1 = now_ns();

    const double n_reports = static_cast<double>(std::max<std::size_t>(reports.size(), 1));
    replay.ingest_us_per_report.push_back(static_cast<double>(t1 - t0) / 1e3 / n_reports);
    replay.poll_ms.push_back(ms(t2 - t1));
    replay.decision_poll_ms.push_back(ms(t4 - t3));
    replay.round_ms.push_back(ms((t2 - t0) + (t4 - t3)));
    replay.encode_us.push_back(static_cast<double>(e1 - e0) / 1e3);
    result.check(!encoded.empty(), "a decision encoded to no bytes");
    if (spans != nullptr) {
      spans->record("svc.replay.ingest", t0, t1);
      spans->record("svc.replay.poll", t1, t2);
      spans->record("svc.replay.decision_poll", t3, t4);
      spans->record("svc.replay.decision_encode", e0, e1);
    }

    // Equal hashes make the TCP decision this one, so checking the replay's
    // picks checks the TCP picks.
    if (decision_hash(*response) != tcp_hashes[r]) ++mismatches;
    const auto& selected = response->selected;
    const auto& frequencies = response->frequencies_hz;
    if (selected.size() != frequencies.size()) ++invalid;
    for (std::size_t k = 0; k < selected.size(); ++k) {
      const std::size_t d = selected[k];
      if (d >= users.size() || seen[d] != 0 || k >= frequencies.size()) {
        ++invalid;
        continue;
      }
      seen[d] = 1;
      const double f = frequencies[k];
      if (!(f >= users[d].device.f_min_hz && f <= users[d].device.f_max_hz)) ++invalid;
    }
    for (const std::size_t d : selected) {
      if (d < users.size()) seen[d] = 0;
    }

    if (mirror_core) {
      for (const svc::DeviceReport& report : reports) {
        mirror_users[report.device_id].t_cal_max_s = report.t_cal_max_s;
        mirror_users[report.device_id].t_com_s = report.t_com_s;
      }
      const std::int64_t c0 = now_ns();
      const sched::Decision decision = mirror.decide({mirror_users}, r);
      const std::int64_t c1 = now_ns();
      replay.core_decide_ms.push_back(ms(c1 - c0));
      if (spans != nullptr) spans->record("core.decide", c0, c1);
      if (decision.selected != response->selected ||
          decision.frequencies_hz != response->frequencies_hz) {
        ++mismatches;
      }
    }
  }
  result.check(mismatches == 0, std::to_string(mismatches) +
                                    " TCP decisions differ from the in-process replay");
  result.check(invalid == 0, std::to_string(invalid) +
                                 " picks are duplicated, unregistered or outside "
                                 "[f_min, f_max]");
  return replay;
}

/// Eq. (10) TDMA round delay and Eq. (11) energy of one decided cohort.
std::pair<double, double> price_decision(const std::vector<sched::UserInfo>& users,
                                         const mec::Channel& channel,
                                         const svc::DecisionResponse& decided) {
  std::vector<double> compute;
  std::vector<double> upload;
  double energy = 0.0;
  for (std::size_t k = 0; k < decided.selected.size(); ++k) {
    const mec::Device& device = users.at(decided.selected[k]).device;
    const mec::UserCost cost =
        mec::user_cost(device, channel, kModelSizeBits, decided.frequencies_hz.at(k));
    compute.push_back(cost.compute_delay_s);
    upload.push_back(cost.upload_delay_s);
    energy += cost.total_energy_j();
  }
  return {mec::schedule_uploads(compute, upload).round_delay_s, energy};
}

void note(RunResult& result, const std::string& name, double value, const char* unit,
          const std::string& extra = "") {
  char line[256];
  std::snprintf(line, sizeof(line), "%s = %.6g %s%s", name.c_str(), value, unit,
                extra.c_str());
  result.notes.emplace_back(line);
}

}  // namespace

ReportGenerator::ReportGenerator(const std::vector<sched::UserInfo>& users,
                                 const SvcSpec& spec, std::uint64_t seed)
    : users_(users),
      spec_(spec),
      seed_(seed),
      next_seq_(users.size(), 1),
      picked_(users.size(), 0) {}

std::vector<svc::DeviceReport> ReportGenerator::registration() {
  std::vector<svc::DeviceReport> reports(users_.size());
  for (std::size_t d = 0; d < users_.size(); ++d) {
    reports[d] = {d, next_seq_[d]++, users_[d].t_cal_max_s, users_[d].t_com_s};
  }
  return reports;
}

std::vector<svc::DeviceReport> ReportGenerator::round(std::uint64_t round) {
  util::Rng rng = util::Rng(seed_).fork(kReportStream).fork(round);
  const std::size_t n = users_.size();
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(spec_.report_share * static_cast<double>(n)));
  // Floyd's algorithm: k distinct ids in O(k) draws.
  std::vector<std::size_t> ids;
  ids.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(j)));
    if (picked_[t] != 0) t = j;
    picked_[t] = 1;
    ids.push_back(t);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<svc::DeviceReport> reports;
  reports.reserve(k);
  const double lo = 1.0 - spec_.perturbation;
  const double hi = 1.0 + spec_.perturbation;
  for (const std::size_t d : ids) {
    picked_[d] = 0;
    reports.push_back({d, next_seq_[d]++, users_[d].t_cal_max_s * rng.uniform(lo, hi),
                       users_[d].t_com_s * rng.uniform(lo, hi)});
  }
  return reports;
}

std::vector<sched::UserInfo> make_svc_users(const SvcSpec& spec, std::uint64_t seed) {
  const sim::ExperimentConfig config = fleet_config(spec, seed);
  util::Rng rng = util::Rng(seed).fork(kFleetStream);
  const std::vector<std::size_t> samples(spec.devices, 40);
  const auto devices = sim::make_fleet(config, samples, rng);
  return sched::build_user_info(devices, sim::make_channel(config), kModelSizeBits);
}

RunResult run_svc_workload(const SvcSpec& spec, const RunOptions& options) {
  RunResult result;
  SpanRecorder spans;

  // --- set-up, several times; the last session is the one measured ---
  std::vector<SetupTimes> setups;
  std::vector<sched::UserInfo> users;
  std::unique_ptr<Session> session;
  std::unique_ptr<ReportGenerator> generator;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    SetupTimes t;
    const std::int64_t start = now_ns();
    users = make_svc_users(spec, options.seed);
    const std::int64_t after_fleet = now_ns();
    session = std::make_unique<Session>(users, spec, options.seed);
    const std::int64_t after_ctor = now_ns();
    generator = std::make_unique<ReportGenerator>(users, spec, options.seed);
    session->register_all(generator->registration(), spec.registration_window);
    const std::int64_t end = now_ns();
    t.fleet_ms = ms(after_fleet - start);
    t.service_ctor_ms = ms(after_ctor - after_fleet);
    t.registration_ms = ms(end - after_ctor);
    t.total_s = static_cast<double>(end - start) / 1e9;
    setups.push_back(t);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };
  const svc::ServerStats setup_server = session->server_stats();

  // --- the timed closed loop (traced runs: untraced half, traced half) ---
  std::vector<std::uint64_t> hashes;            ///< one per completed round
  std::vector<svc::DecisionResponse> priced;     ///< the first spec.sim_decisions
  std::uint64_t reports_sent = 0;
  auto run_phase = [&](double seconds, SpanRecorder* phase_spans) {
    Phase phase;
    session->trace_into(phase_spans);
    session->times() = {};
    const std::int64_t start = now_ns();
    std::int64_t end = start;
    try {
      while (ms(end - start) < seconds * 1e3) {
        const std::uint64_t r = hashes.size();
        const std::vector<svc::DeviceReport> reports = generator->round(r);
        const std::uint64_t round_span = phase_spans != nullptr ? spans.open_id() : 0;
        const std::uint64_t report_span = phase_spans != nullptr ? spans.open_id() : 0;
        const std::int64_t t0 = now_ns();
        session->report_round(reports, report_span);
        const std::int64_t t1 = now_ns();
        const std::uint64_t decide_span = phase_spans != nullptr ? spans.open_id() : 0;
        const svc::DecisionResponse response = session->decide(r, decide_span);
        const std::int64_t t2 = now_ns();
        if (phase_spans != nullptr) {
          spans.record_with_id(report_span, "svc.report_phase", t0, t1, round_span);
          spans.record_with_id(decide_span, "svc.decision", t1, t2, round_span);
          spans.record_with_id(round_span, "svc.round", t0, t2);
        }
        result.check(response.round == r, "a decision answered the wrong round");
        hashes.push_back(decision_hash(response));
        if (priced.size() < spec.sim_decisions) priced.push_back(response);
        reports_sent += reports.size();
        phase.report_phase_ms.push_back(ms(t1 - t0));
        phase.decision_ms.push_back(ms(t2 - t1));
        phase.round_ms.push_back(ms(t2 - t0));
        if (ms(t2 - t1) > spec.decision_limit_ms) ++phase.late;
        end = t2;
      }
    } catch (const std::exception& error) {
      result.check(false, std::string("closed loop failed: ") + error.what());
    }
    phase.seconds = static_cast<double>(end - start) / 1e9;
    phase.client = session->times();
    return phase;
  };
  const Phase plain = run_phase(options.trace ? options.seconds / 2 : options.seconds,
                                nullptr);
  const Phase traced = options.trace ? run_phase(options.seconds / 2, &spans) : Phase{};
  session->stop();
  const svc::ServiceStats service_stats = session->service().stats();
  const svc::ServerStats server_stats = session->server_stats();
  const std::uint64_t exhausted =
      session->report_client().exhausted() + session->control_client().exhausted();
  const std::uint64_t retries =
      session->report_client().retries() + session->control_client().retries();
  const std::uint64_t report_frames_sent = session->report_frames_sent();
  session.reset();

  result.attempted = std::max<std::uint64_t>(reports_sent + hashes.size(), 1);
  result.failed = exhausted;

  // --- correctness: replay the regenerated stream in-process ---
  const Replay replay = replay_and_check(users, spec, options.seed, hashes, options.trace,
                                         options.trace ? &spans : nullptr, result);
  result.check(!hashes.empty(), "no decision completed");
  result.check(exhausted == 0, "a report or request exhausted its retries");

  // --- decision quality under the cost model (deterministic per seed) ---
  const mec::Channel channel = sim::make_channel(fleet_config(spec, options.seed));
  std::vector<double> sim_delay;
  std::vector<double> sim_energy;
  for (const svc::DecisionResponse& decision : priced) {
    const auto [delay, energy] = price_decision(users, channel, decision);
    sim_delay.push_back(delay);
    sim_energy.push_back(energy);
  }
  result.check(priced.size() == spec.sim_decisions,
               "fewer decisions than the cost model prices");

  const LatencySummary decision = summarize(plain.decision_ms);
  const LatencySummary report_phase = summarize(plain.report_phase_ms);
  const double rounds_per_s = plain.rounds_per_s();
  const std::size_t late = plain.late + traced.late;
  const double ok_share =
      1.0 - static_cast<double>(exhausted + late) / static_cast<double>(result.attempted);

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median_of(&SetupTimes::total_s), "s"};
  e2e["throughput_per_s"] = {rounds_per_s, "1/s"};
  e2e["latency_ms_p50"] = {decision.p50, "ms"};
  // The tail is reported but not gated: its run-to-run spread on a shared
  // 4-vCPU host exceeds any allowed bound (README.md, "Steadiness").
  result.per_layer["e2e.latency_ms_tail"] = {decision.tail, "ms"};
  e2e["ops_ok_share"] = {ok_share, "share"};
  e2e["sim_round_s"] = {mean(sim_delay), "s"};
  e2e["sim_round_energy_j"] = {mean(sim_energy), "J"};

  note(result, "svc.rounds_per_s", rounds_per_s, "1/s");
  note(result, "svc.decision_ms_p50", decision.p50, "ms");
  note(result, "svc.decision_ms_tail", decision.tail, "ms", " (" + tail_label(decision) + ")");
  note(result, "svc.report_phase_ms_p50", report_phase.p50, "ms");
  note(result, "svc.report_phase_ms_tail", report_phase.tail, "ms",
       " (" + tail_label(report_phase) + ")");
  note(result, "ops_failed_share", 1.0 - ok_share, "share");
  note(result, "svc.decisions_over_limit", static_cast<double>(late), "count");
  note(result, "svc.setup_ingress_shed", static_cast<double>(setup_server.ingress_shed),
       "count");

  if (options.trace) {
    const double n = static_cast<double>(std::max<std::size_t>(traced.round_ms.size(), 1));
    const ClientTimes& client_times = traced.client;
    const LatencySummary traced_report_phase = summarize(traced.report_phase_ms);
    std::vector<double> sorted_core = replay.core_decide_ms;
    std::sort(sorted_core.begin(), sorted_core.end());
    auto& layer = result.per_layer;
    layer["core.decide_ms_p50"] = {percentile_sorted(sorted_core, 50.0), "ms"};
    layer["core.decide_ms_p99"] = {percentile_sorted(sorted_core, 99.0), "ms"};
    layer["svc.replay.ingest_us_per_report"] = {median(replay.ingest_us_per_report), "us"};
    layer["svc.replay.poll_ms_per_round"] = {median(replay.poll_ms), "ms"};
    layer["svc.replay.decision_poll_ms"] = {median(replay.decision_poll_ms), "ms"};
    layer["svc.replay.decision_encode_us"] = {median(replay.encode_us), "us"};
    layer["svc.transport_share"] = {
        1.0 - median(replay.round_ms) / median(traced.round_ms), "share"};
    layer["svc.report_phase_ms_p50"] = {traced_report_phase.p50, "ms"};
    layer["svc.report_phase_ms_tail"] = {traced_report_phase.tail, "ms"};
    layer["svc.client.send_ms"] = {ms(client_times.send_ns) / n, "ms"};
    layer["svc.client.poll_ms"] = {ms(client_times.poll_ns) / n, "ms"};
    layer["svc.client.wait_ms"] = {ms(client_times.wait_ns) / n, "ms"};
    layer["svc.ingress_frames"] = {static_cast<double>(server_stats.ingress_frames), "count"};
    layer["svc.ingress_shed"] = {static_cast<double>(server_stats.ingress_shed), "count"};
    layer["svc.reports_applied"] = {static_cast<double>(service_stats.reports_applied),
                                    "count"};
    layer["svc.reports_deduped"] = {static_cast<double>(service_stats.reports_deduped),
                                    "count"};
    layer["svc.reports_shed"] = {static_cast<double>(service_stats.reports_shed), "count"};
    layer["svc.frames_rejected"] = {static_cast<double>(service_stats.frames_rejected),
                                    "count"};
    layer["svc.client_retries"] = {static_cast<double>(retries), "count"};
    layer["svc.retries_exhausted"] = {static_cast<double>(exhausted), "count"};
    layer["svc.useful_frame_ratio"] = {
        static_cast<double>(service_stats.reports_applied) /
            static_cast<double>(std::max<std::uint64_t>(report_frames_sent, 1)),
        "ratio"};
    layer["setup.fleet_ms"] = {median_of(&SetupTimes::fleet_ms), "ms"};
    layer["setup.service_ctor_ms"] = {median_of(&SetupTimes::service_ctor_ms), "ms"};
    layer["setup.registration_ms"] = {median_of(&SetupTimes::registration_ms), "ms"};
    layer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
    layer["trace.throughput_ratio"] = {traced.rounds_per_s() / rounds_per_s, "ratio"};
    result.check(spans.dropped() == 0, "the span buffer overflowed");
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/svc_fleet_tcp-seed" +
                               std::to_string(options.seed) + ".spans.csv";
      result.check(spans.write_csv(path), "could not write " + path);
      result.notes.push_back("spans written to " + path);
    }
  }
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return result;
}

}  // namespace perfbench
