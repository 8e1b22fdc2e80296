// The svc_fleet_tcp workload (README.md, "Workloads"): a closed-loop
// controller drives svc::SchedulerService behind svc::SocketServer over
// loopback TCP.  Q = 100,000 devices register once during set-up; each
// round a seeded 1 % of them report perturbed delays, the controller waits
// for every ack, then requests a decision (C = 0.01, 1,000 picks) and waits
// for it.
#pragma once

#include <cstdint>
#include <vector>

#include "report.h"
#include "sched/scheduler.h"
#include "svc/frame.h"

namespace perfbench {

struct SvcSpec {
  std::size_t devices = 100'000;
  double fraction = 0.01;          ///< C: picks per decision = devices · C
  double report_share = 0.01;      ///< devices reporting per round
  double perturbation = 0.20;      ///< reported delay = initial · U(1 ± this)
  std::size_t ingress_queue = 4096;
  std::size_t registration_window = 2048;  ///< unacked registrations in flight
  double decision_limit_ms = 25.0; ///< a slower decision counts as failed
  std::size_t sim_decisions = 200; ///< decisions priced by the cost model
};

/// The seeded report stream.  round(r) must be called for r = 0, 1, 2, ...
/// in order (report_seq is a per-device counter).
class ReportGenerator {
 public:
  ReportGenerator(const std::vector<helcfl::sched::UserInfo>& users,
                  const SvcSpec& spec, std::uint64_t seed);

  /// One report per device with its initial delays (report_seq 1).
  std::vector<helcfl::svc::DeviceReport> registration();

  /// The reports of round `round`: distinct devices, ascending id.
  std::vector<helcfl::svc::DeviceReport> round(std::uint64_t round);

 private:
  const std::vector<helcfl::sched::UserInfo>& users_;
  SvcSpec spec_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<std::uint8_t> picked_;  ///< scratch for distinct sampling
};

/// The fleet of `spec.devices` devices for `seed` (sim::make_fleet, paper
/// constants, 40 samples per device).
std::vector<helcfl::sched::UserInfo> make_svc_users(const SvcSpec& spec,
                                                    std::uint64_t seed);

RunResult run_svc_workload(const SvcSpec& spec, const RunOptions& options);

}  // namespace perfbench
