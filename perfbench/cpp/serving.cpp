// The serving workload: S1 and S2 SessionServer daemons and a
// SessionClient in one process over loopback TCP, driven as a closed loop.
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.h"
#include "layers.h"
#include "net/party_runner.h"
#include "net/session/session_client.h"
#include "net/session/session_server.h"
#include "net/tcp_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

using pcl::ConsensusProtocol;

/// Sessions per closed-loop round: enough for a p90 with ten samples
/// beyond it from a single round.
constexpr std::size_t kRoundSessions = 100;

/// What the daemons' callbacks see and record.  The program callbacks read
/// a session's votes; the close sinks fold each session's private traffic
/// and op counters in.
class SessionBook {
 public:
  void add_round(std::uint32_t first_id, const Batch& votes) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < votes.size(); ++i) {
      votes_[first_id + static_cast<std::uint32_t>(i)] = votes[i];
    }
  }
  [[nodiscard]] Votes votes_for(std::uint32_t id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return votes_.at(id);
  }
  void record_program(std::uint32_t id, double ms) {
    const std::lock_guard<std::mutex> lock(mu_);
    program_ms_[id] = ms;
  }
  [[nodiscard]] double program_ms(std::uint32_t id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = program_ms_.find(id);
    return it == program_ms_.end() ? 0.0 : it->second;
  }
  /// Close sink body: server-side traffic always; op counters and spans
  /// only while a traced phase collects them.
  void on_close(pcl::SessionObs& obs) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++closes_;
    closed_cv_.notify_all();
    add_traffic(obs.traffic, phase_);
    for (const auto& e : obs.traffic.traffic_entries()) {
      bytes_ += static_cast<double>(e.bytes);
      messages_ += static_cast<double>(e.messages);
    }
    if (sink_ != nullptr) {
      add_op_totals(obs.metrics, phase_);
      for (const pcl::obs::TraceEvent& event : obs.trace.events()) {
        sink_->record(event);
      }
    }
  }
  void add_user_traffic(const pcl::TrafficStats& stats) {
    const std::lock_guard<std::mutex> lock(mu_);
    add_traffic(stats, phase_);
    for (const auto& e : stats.traffic_entries()) {
      bytes_ += static_cast<double>(e.bytes);
      messages_ += static_cast<double>(e.messages);
    }
  }
  /// A daemon writes SESSION_CLOSE before its close sink runs, so the
  /// client can finish a round while the last sinks are still pending.
  /// Blocks until `closes` sinks (two per session) have run in total.
  /// Gives up after 30 s, so a session that never closed cannot hang the
  /// run (it is reported failed by its outcome).
  void await_closes(std::uint64_t closes) {
    std::unique_lock<std::mutex> lock(mu_);
    closed_cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return closes_ >= closes; });
  }
  [[nodiscard]] std::uint64_t closes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closes_;
  }
  /// Starts a fresh accumulation; `sink` non-null collects ops and spans.
  void reset(pcl::obs::TraceSink* sink) {
    const std::lock_guard<std::mutex> lock(mu_);
    phase_ = TracedPhase{};
    bytes_ = messages_ = 0.0;
    sink_ = sink;
  }
  [[nodiscard]] TracedPhase phase() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return phase_;
  }
  [[nodiscard]] double bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  [[nodiscard]] double messages() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable closed_cv_;
  std::uint64_t closes_ = 0;
  std::map<std::uint32_t, Votes> votes_;
  std::map<std::uint32_t, double> program_ms_;
  TracedPhase phase_;
  double bytes_ = 0.0, messages_ = 0.0;
  pcl::obs::TraceSink* sink_ = nullptr;
};

struct Round {
  Batch votes;
  std::uint64_t base_seed = 0;
  std::vector<pcl::SessionOutcome> outcomes;
};

struct TimedRun {
  std::vector<Round> rounds;
  RoundSamples samples;
  double bytes = 0.0;
  double messages = 0.0;
  SessionTimes sessions;
  TracedPhase steps;
  std::uint64_t attempted = 0, failed = 0;
};

/// One S1/S2 daemon pair and a client, connected over loopback.
class Cluster {
 public:
  Cluster(const ConsensusProtocol& protocol, SessionBook& book,
          std::size_t users)
      : s1_(server_config("S1", users), program("S1", protocol, book),
            [&book](const pcl::SessionRecord&, pcl::SessionObs& obs) {
              book.on_close(obs);
            }),
        s2_(server_config("S2", users), program("S2", protocol, book),
            [&book](const pcl::SessionRecord&, pcl::SessionObs& obs) {
              book.on_close(obs);
            }),
        client_(client_config(users),
                [&protocol, &book](const pcl::SessionInfo& info,
                                   const std::string& user, pcl::Channel& chan) {
                  (void)protocol.run_party_session(
                      user, book.votes_for(info.id),
                      ConsensusProtocol::SessionContext{info.id, info.seed},
                      chan);
                }) {
    std::thread s1_start([this] { s1_.start(std::move(s1_listener_)); });
    std::thread s2_start([this] { s2_.start(std::move(s2_listener_)); });
    client_.connect();
    s1_start.join();
    s2_start.join();
  }
  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::vector<pcl::SessionOutcome> run(
      const std::vector<pcl::SessionSpec>& specs) {
    return client_.run(specs);
  }
  void stop() {
    client_.close();
    s1_.drain_and_stop();
    s2_.drain_and_stop();
  }

 private:
  static pcl::TcpTimeouts timeouts() {
    pcl::TcpTimeouts t;
    t.connect = std::chrono::milliseconds(30000);
    t.accept = std::chrono::milliseconds(30000);
    t.recv = std::chrono::milliseconds(30000);
    t.send = std::chrono::milliseconds(30000);
    return t;
  }
  pcl::SessionServerConfig server_config(const std::string& role,
                                         std::size_t users) {
    pcl::SessionServerConfig config;
    config.role = role;
    config.num_users = users;
    config.endpoints = endpoints_;
    config.timeouts = timeouts();
    // The client keeps at most nproc sessions in flight; the daemons admit
    // twice that, so a session closing late never bounces a new open.
    config.manager.max_sessions = 2 * nproc();
    config.manager.workers = nproc();
    return config;
  }
  pcl::SessionClientConfig client_config(std::size_t users) {
    pcl::SessionClientConfig config;
    config.num_users = users;
    config.endpoints = endpoints_;
    config.timeouts = timeouts();
    config.max_in_flight = nproc();
    config.open_budget = std::chrono::milliseconds(60000);
    return config;
  }
  static pcl::SessionServer::Program program(const std::string& role,
                                             const ConsensusProtocol& protocol,
                                             SessionBook& book) {
    return [role, &protocol, &book](const pcl::SessionInfo& info,
                                    pcl::Channel& chan) -> std::optional<int> {
      const Votes votes = book.votes_for(info.id);
      const double t0 = now_s();
      const std::optional<int> label = protocol.run_party_session(
          role, votes, ConsensusProtocol::SessionContext{info.id, info.seed},
          chan);
      if (role == "S1") book.record_program(info.id, 1e3 * (now_s() - t0));
      return label;
    };
  }
  static pcl::EndpointMap make_endpoints(const pcl::TcpListener& s1,
                                         const pcl::TcpListener& s2) {
    pcl::EndpointMap endpoints;
    endpoints["S1"] = pcl::TcpEndpoint{"127.0.0.1", s1.port()};
    endpoints["S2"] = pcl::TcpEndpoint{"127.0.0.1", s2.port()};
    return endpoints;
  }

  // Declared before the daemons: their configs read endpoints_.
  pcl::TcpListener s1_listener_ = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::TcpListener s2_listener_ = pcl::TcpListener::bind("127.0.0.1", 0);
  pcl::EndpointMap endpoints_ = make_endpoints(s1_listener_, s2_listener_);
  pcl::SessionServer s1_;
  pcl::SessionServer s2_;
  pcl::SessionClient client_;
};

/// Runs `round` (votes and base seed set) as sessions first_id, ... and
/// waits for every daemon close sink of those sessions.
void run_round(Cluster& cluster, SessionBook& book, std::uint32_t first_id,
               Round& round) {
  book.add_round(first_id, round.votes);
  std::vector<pcl::SessionSpec> specs(round.votes.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].info.id = first_id + static_cast<std::uint32_t>(i);
    specs[i].info.seed = pcl::derive_party_seed(round.base_seed, i);
  }
  const std::uint64_t closes_before = book.closes();
  pcl::obs::Span span("bench.serving_round");
  round.outcomes = cluster.run(specs);
  book.await_closes(closes_before + 2 * specs.size());
}

/// Closed-loop rounds (round r has ids and seeds of its own) until
/// `budget_s` has passed, checked between rounds.
TimedRun run_timed(Cluster& cluster, SessionBook& book, const Args& args,
                   const pcl::ConsensusConfig& cfg, std::size_t first_round,
                   double budget_s, pcl::obs::TraceSink* sink) {
  TimedRun run;
  book.reset(sink);
  const double t0 = now_s();
  for (std::size_t r = first_round; now_s() - t0 < budget_s; ++r) {
    Round round;
    pcl::DeterministicRng rng(pcl::derive_party_seed(args.seed, 2 * r));
    for (std::size_t i = 0; i < kRoundSessions; ++i) {
      round.votes.push_back(make_votes(rng, r * kRoundSessions + i,
                                       cfg.num_users, cfg.num_classes));
    }
    round.base_seed = pcl::derive_party_seed(args.seed, 2 * r + 1);
    const double cpu0 = process_cpu_s();
    const double start = now_s();
    run_round(cluster, book,
              static_cast<std::uint32_t>(1 + r * kRoundSessions), round);
    const double wall = now_s() - start;
    const double cpu = process_cpu_s() - cpu0;
    double ok = 0.0;
    for (const pcl::SessionOutcome& o : round.outcomes) {
      ++run.attempted;
      if (!o.ok) {
        ++run.failed;
        std::fprintf(stderr, "perfbench: session %u failed: %s\n", o.info.id,
                     o.status.c_str());
        continue;
      }
      ok += 1.0;
      run.sessions.latency_ms.push_back(static_cast<double>(o.latency_ns) / 1e6);
      run.sessions.program_ms.push_back(book.program_ms(o.info.id));
      if (o.traffic) book.add_user_traffic(*o.traffic);
    }
    run.samples.add(ok, wall, cpu);
    run.rounds.push_back(std::move(round));
  }
  run.bytes = book.bytes();
  run.messages = book.messages();
  run.steps = book.phase();
  run.steps.answered = static_cast<double>(run.attempted - run.failed);
  return run;
}

}  // namespace

Report run_serving(const Args& args) {
  // pc_party's tier-1 crypto profile: 64-bit Paillier, 160-bit DGK,
  // ell = 44; two users and three classes.
  pcl::ConsensusConfig cfg;
  cfg.num_classes = 3;
  cfg.num_users = 2;
  cfg.threshold_fraction = 0.6;
  cfg.sigma1 = 1.0;
  cfg.sigma2 = 0.5;
  cfg.share_bits = 30;
  cfg.compare_bits = 44;
  cfg.dgk_params.n_bits = 160;
  cfg.dgk_params.v_bits = 30;
  cfg.dgk_params.plaintext_bound = 160;
  pcl::DeterministicRng keygen(kKeygenSeed);
  ConsensusProtocol protocol(cfg, keygen);
  SessionBook book;
  Report report;
  Checks checks(args.break_check);
  std::vector<Round> rounds;
  {
    Cluster cluster(protocol, book, cfg.num_users);
    {
      // Untimed warm-up, ids far above any timed round's: the first
      // sessions of a process run noticeably slower than later ones.
      Round warm;
      pcl::DeterministicRng rng(kWarmupSeed);
      for (std::size_t i = 0; i < 2 * nproc(); ++i) {
        warm.votes.push_back(make_votes(rng, i, cfg.num_users, cfg.num_classes));
      }
      warm.base_seed = kWarmupSeed;
      run_round(cluster, book, 1u << 30, warm);
    }
    const double setup_s = since_start_s();
    if (!args.trace) {
      TimedRun run = run_timed(cluster, book, args, cfg, 0, args.seconds, nullptr);
      const double q = run.steps.answered;
      report.add("labels_per_s", "1/s", run.samples.labels_per_s());
      report.add("latency_ms_p50", "ms", median(run.sessions.latency_ms));
      report.add("cpu_ms_per_label", "ms", run.samples.cpu_ms_per_label());
      report.add("bytes_per_label", "bytes", run.bytes / q);
      report.add("messages_per_label", "count", run.messages / q);
      report.add("setup_s", "s", setup_s);
      report.add("peak_rss_mb", "MB", peak_rss_mb());
      report.attempted = run.attempted;
      report.failed = run.failed;
      rounds = std::move(run.rounds);
    } else {
      TimedRun untraced =
          run_timed(cluster, book, args, cfg, 0, args.seconds / 2, nullptr);
      pcl::obs::TraceSink sink;
      pcl::obs::ObserverScope bench_scope(&sink, nullptr, "bench");
      TimedRun traced = run_timed(cluster, book, args, cfg,
                                  untraced.rounds.size(), args.seconds / 2, &sink);
      cluster.stop();
      const pcl::obs::TrafficByStep traffic = traffic_by_step(traced.steps);
      normalise(traced.steps);
      const UnitCosts costs = measure_unit_costs(
          cfg, false,
          static_cast<std::size_t>(traced.messages > 0
                                       ? traced.bytes / traced.messages
                                       : 0.0));
      add_layer_metrics(report, traced.steps, costs, untraced.sessions,
                        untraced.samples, traced.samples);
      if (!args.trace_out.empty()) write_trace(args.trace_out, sink, traffic, nullptr);
      report.attempted = untraced.attempted + traced.attempted;
      report.failed = untraced.failed + traced.failed;
      rounds = std::move(untraced.rounds);
      for (auto& r : traced.rounds) rounds.push_back(std::move(r));
    }
  }

  // ---- correctness, outside the timed phase, daemons stopped ------------
  // "session_replay": every session's label equals an isolated in-process
  // run of its session seed.  Lane q of run_batch_seeded(votes, base)
  // replays run_query_seeded(votes[q], derive_party_seed(base, q)) exactly,
  // which is how each round seeded its sessions, so one lane batch per
  // round replays the whole round; two sessions are also replayed with
  // run_query_seeded itself.
  Batch all_votes;
  std::vector<Label> all_labels;
  pcl::DeterministicRng pick(pcl::derive_party_seed(args.seed, 0x73657276ULL));
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    const auto replay = protocol.run_batch_seeded(round.votes, round.base_seed);
    for (std::size_t i = 0; i < round.outcomes.size(); ++i) {
      const pcl::SessionOutcome& o = round.outcomes[i];
      if (!o.ok) continue;
      Label expected = replay[i].label;
      if (checks.broken("session_replay") && r == 0 && i == 0) {
        expected = expected ? std::nullopt : Label(0);
      }
      std::ostringstream detail;
      detail << "session " << o.info.id << ": served " << (o.label ? *o.label : -1)
             << ", in-process replay " << (expected ? *expected : -1);
      checks.expect("session_replay", o.label == expected, detail.str());
      all_votes.push_back(round.votes[i]);
      all_labels.push_back(o.label);
    }
  }
  for (std::size_t s = 0; s < 2 && !rounds.empty(); ++s) {
    const Round& round = rounds[pick.index_below(rounds.size())];
    const std::size_t i = pick.index_below(round.outcomes.size());
    const Label isolated =
        protocol
            .run_query_seeded(round.votes[i],
                              pcl::derive_party_seed(round.base_seed, i))
            .label;
    std::ostringstream detail;
    detail << "session " << round.outcomes[i].info.id << ": served "
           << (round.outcomes[i].label ? *round.outcomes[i].label : -1)
           << ", run_query_seeded " << (isolated ? *isolated : -1);
    checks.expect("session_replay",
                  !round.outcomes[i].ok || round.outcomes[i].label == isolated,
                  detail.str());
  }
  check_noise_oracle(protocol, all_votes, 2, args.seed, checks);
  check_release_rate(cfg, all_votes, all_labels, checks);
  checks.finish();
  report.correct = checks.all_passed();
  return report;
}

}  // namespace perfbench
