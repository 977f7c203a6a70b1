// Simulated DIABLO deployment with a crash and a restart (workload
// sim_uber_crash): diablo::run_experiment on SRBB with the Uber shape at
// scale 0.05 (10 validators, 10 clients, 10-region AWS latency matrix), an
// open loop on the trace's schedule (~43 TPS), replicated execution, and
// validator 3 down from 40 s to 70 s. It is the only workload that runs the
// consensus, sim, rpm, srbb catch-up sync and diablo client layers.
// Simulated-time results are deterministic per seed; wall time is what the
// program's own speed moves.
#include <cstdio>

#include "bench.hpp"
#include "diablo/runner.hpp"

namespace perfbench {

using namespace srbb;

namespace {

constexpr SimTime kCrashAt = seconds(40);
constexpr SimTime kRestartAt = seconds(70);

diablo::RunConfig make_config(const Options& options) {
  diablo::RunConfig config;
  config.system_name = "SRBB";
  config.kind = diablo::SystemKind::kSrbb;
  config.validators = 200;  // 10 AWS regions x 20, as in the paper
  config.workload = diablo::WorkloadSpec::uber();
  config.latency = sim::LatencyModel::aws_global();
  config.clients = 10;
  config.drain = seconds(120);
  config = diablo::scale_config(config, 0.05);
  if (options.tiny) {
    config.workload = diablo::WorkloadSpec::constant("tiny", 20.0, 12,
                                                     diablo::TxShape::kMobilityRide);
    config.drain = seconds(20);
  }
  config.seed = options.seed;
  // A crashed validator loses its volatile state, so each owns its replica.
  config.replicated_execution = true;
  // DIABLO-style retry, as in bench_ablation_crash_recovery. 800 ms is below
  // the commit latency, so most transactions are resent (about 3.8 eager
  // validations per transaction). A timeout above the commit latency leaves
  // transactions from the crashed validator's last proposal committed but
  // never acknowledged: resends reach validators that already committed
  // them and are dropped without an ack (perfbench/README.md, blind spots).
  config.client_resend_timeout = millis(800);
  sim::CrashSpec crash;
  crash.node = 3;
  crash.at = options.tiny ? seconds(4) : kCrashAt;
  crash.restart_at = options.tiny ? seconds(7) : kRestartAt;
  config.faults.seed = options.seed;
  config.faults.crashes.push_back(crash);
  return config;
}

/// The simulated-time outcome, which must repeat exactly for one seed.
bool same_outcome(const diablo::RunResult& a, const diablo::RunResult& b) {
  return a.sent == b.sent && a.committed == b.committed &&
         a.p50_latency_s == b.p50_latency_s &&
         a.max_latency_s == b.max_latency_s &&
         a.network_messages == b.network_messages &&
         a.network_bytes == b.network_bytes &&
         a.eager_validations == b.eager_validations;
}

}  // namespace

void run_sim(const Options& options, RunReport& report) {
  const diablo::RunConfig config = make_config(options);

  // Program set-up: the same deployment with no traffic and no drain builds
  // the network, genesis, replicas and clients and stops at time zero.
  diablo::RunConfig empty = config;
  empty.workload.rates_per_second.clear();
  empty.drain = 0;
  empty.faults = sim::FaultPlan{};
  std::vector<double> setup_s;
  const std::int64_t setup_start = now_ns();
  while (setup_s.size() < 9 ||
         (now_ns() - setup_start < 1'000'000'000 && setup_s.size() < 200)) {
    const std::int64_t t0 = now_ns();
    const diablo::RunResult r = diablo::run_experiment(empty);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (r.sent != 0) report.fail("empty deployment sent transactions");
  }

  // Timed runs: repeat the whole experiment, at least twice, while another
  // run still ends inside the measured window. The traced run reports only
  // per-layer figures, which one run gives.
  std::vector<double> wall_s;
  std::vector<diablo::RunResult> results;
  const double start_s = static_cast<double>(now_ns()) / 1e9;
  do {
    const std::int64_t t0 = now_ns();
    results.push_back(diablo::run_experiment(config));
    wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  } while (!options.trace &&
           (wall_s.size() < 2 || static_cast<double>(now_ns()) / 1e9 - start_s +
                                         median(wall_s) <= options.seconds));
  // Read before the traced run below, whose trace buffer is the
  // benchmark's memory, not the program's.
  const double rss_mb = peak_rss_mb();
  const diablo::RunResult& r = results.front();
  for (const diablo::RunResult& other : results) {
    if (!same_outcome(r, other)) report.fail("simulation not deterministic for one seed");
  }

  // Exact client-observed latencies come from the client.ack trace events,
  // recorded on an extra run that is not timed (tracing costs wall time but
  // must leave the simulated outcome unchanged).
  std::vector<double> latency_ms;
  if (!options.trace) {
    obs::TraceSink sink;
    diablo::RunConfig traced = config;
    traced.trace = &sink;
    const diablo::RunResult rt = diablo::run_experiment(traced);
    if (!same_outcome(r, rt)) report.fail("tracing changed the simulated outcome");
    for (const obs::TraceEvent& event : sink.events()) {
      if (std::string_view{event.name} == "client.ack") {
        latency_ms.push_back(static_cast<double>(event.arg1) / 1e6);
      }
    }
    if (latency_ms.size() != r.committed) report.fail("acks do not match commits");
  }

  const double sim_wall_s = median(wall_s);
  const double eager_per_tx =
      r.sent == 0 ? 0.0 : static_cast<double>(r.eager_validations) / static_cast<double>(r.sent);
  std::printf("sim: %zu timed run(s), wall %.3f s median; sent %llu committed "
              "%llu (%.2f%%), sim_tps %.2f, sim_latency p50 %.3f s p99 %.3f s, "
              "eager validations/tx %.3f, crashes %llu restarts %llu, "
              "superblocks synced %llu\n",
              wall_s.size(), sim_wall_s, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.committed), r.commit_pct,
              r.throughput_tps, quantile(latency_ms, 0.5) / 1e3,
              quantile(latency_ms, 0.99) / 1e3, eager_per_tx,
              static_cast<unsigned long long>(r.validator_crashes),
              static_cast<unsigned long long>(r.validator_restarts),
              static_cast<unsigned long long>(r.superblocks_synced));

  // Output checks: every transaction sent is committed and acknowledged
  // once, and the fault schedule ran: one crash, one restart that caught up
  // through sync.
  report.attempted = r.sent;
  report.failed = r.sent - std::min(r.sent, r.committed);
  if (r.sent == 0) report.fail("no transactions sent");
  if (report.failed != 0) report.fail("transactions sent but never committed");
  if (r.validator_crashes != 1 || r.validator_restarts != 1) {
    report.fail("crash/restart schedule did not run");
  }
  if (r.superblocks_synced == 0) report.fail("restarted validator synced nothing");

  report.set("commit_tps", static_cast<double>(r.committed) / sim_wall_s, "tx/s");
  report.set("tx_latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  report.set("tx_latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", rss_mb, "MB");

  const double committed = static_cast<double>(std::max<std::uint64_t>(1, r.committed));
  report.set("sim.tps", r.throughput_tps, "tx/s");
  report.set("sim.wall_s", sim_wall_s, "s");
  report.set("sim.net_msgs_per_tx", static_cast<double>(r.network_messages) / committed, "count");
  report.set("sim.net_bytes_per_tx", static_cast<double>(r.network_bytes) / committed, "B");
  report.set("srbb.eager_validations_per_tx", eager_per_tx, "ratio");
  report.set("pool.wait_p50_s", to_seconds(r.pool_wait.p50), "s");
  report.set("consensus.propose_to_decide_p50_s", to_seconds(r.propose_to_decide.p50), "s");
  report.set("srbb.decide_to_commit_p50_s", to_seconds(r.decide_to_commit.p50), "s");
  report.set("sync.superblocks_synced", static_cast<double>(r.superblocks_synced), "count");
  report.set("srbb.restarts", static_cast<double>(r.validator_restarts), "count");
}

}  // namespace perfbench
