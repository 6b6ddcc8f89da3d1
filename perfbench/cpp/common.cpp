#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "net/party_runner.h"
#include "obs/clock.h"

namespace perfbench {

namespace {

const std::uint64_t g_process_start_ns = pcl::obs::monotonic_time_ns();

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return static_cast<double>(pcl::obs::monotonic_time_ns()) / 1e9;
}

double since_start_s() {
  return static_cast<double>(pcl::obs::monotonic_time_ns() -
                             g_process_start_ns) /
         1e9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the latter survives execve,
  // so it would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double RoundSamples::labels_per_s() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    rates.push_back(answered[i] / wall_s[i]);
  }
  return median(rates);
}

double RoundSamples::cpu_ms_per_label() const {
  std::vector<double> per_label;
  for (std::size_t i = 0; i < cpu_s.size(); ++i) {
    per_label.push_back(1e3 * cpu_s[i] / answered[i]);
  }
  return median(per_label);
}

double RoundSamples::cpu_utilization() const {
  double cpu = 0.0, wall = 0.0;
  for (std::size_t i = 0; i < cpu_s.size(); ++i) {
    cpu += cpu_s[i];
    wall += wall_s[i];
  }
  return cpu / (wall * static_cast<double>(nproc()));
}

Votes make_votes(pcl::Rng& rng, std::size_t query_index, std::size_t users,
                 std::size_t classes) {
  const std::size_t majority = rng.next_u64() % classes;
  Votes votes;
  votes.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    std::vector<double> v(classes, 0.0);
    const bool dissent = query_index % 4 == 3 && u % 2 == 1;
    v[dissent ? rng.next_u64() % classes : majority] = 1.0;
    votes.push_back(std::move(v));
  }
  return votes;
}

std::vector<double> vote_counts(const Votes& votes) {
  std::vector<double> counts(votes.empty() ? 0 : votes.front().size(), 0.0);
  for (const auto& user : votes) {
    for (std::size_t i = 0; i < user.size(); ++i) counts[i] += user[i];
  }
  return counts;
}

Label plaintext_alg4(const std::vector<double>& counts, double threshold,
                     double z1, const std::vector<double>& z2) {
  const double top = *std::max_element(counts.begin(), counts.end());
  if (top + z1 < threshold) return std::nullopt;
  int best = 0;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] + z2[i] > counts[best] + z2[best]) best = static_cast<int>(i);
  }
  return best;
}

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  if (std::find(seen_.begin(), seen_.end(), name) == seen_.end()) {
    seen_.push_back(name);
  }
  if (!ok) {
    failures_.push_back(name + ": " + detail);
    std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Checks::finish() {
  if (!broken_.empty() &&
      std::find(seen_.begin(), seen_.end(), broken_) == seen_.end()) {
    expect(broken_, false, "no such check in this workload");
  }
}

void check_noise_oracle(pcl::ConsensusProtocol& protocol, const Batch& votes,
                        std::size_t count, std::uint64_t seed, Checks& checks) {
  const pcl::ConsensusConfig& cfg = protocol.config();
  pcl::DeterministicRng rng(pcl::derive_party_seed(seed, 0x4e6f697365ULL));
  for (std::size_t k = 0; k < count && !votes.empty(); ++k) {
    const Votes& v = votes[rng.index_below(votes.size())];
    const double z1 = rng.gaussian(0.0, cfg.sigma1);
    std::vector<double> z2(cfg.num_classes);
    for (double& z : z2) z = rng.gaussian(0.0, cfg.sigma2);
    Label expected = plaintext_alg4(vote_counts(v), protocol.threshold_votes(),
                                    z1, z2);
    if (checks.broken("noise_oracle")) {
      expected = expected ? std::nullopt : Label(0);
    }
    const Label got =
        protocol.run_query_with_noise_seeded(v, z1, z2, rng.next_u64()).label;
    std::ostringstream detail;
    detail << "query " << k << ": protocol " << (got ? *got : -1)
           << ", plaintext Alg. 4 " << (expected ? *expected : -1);
    checks.expect("noise_oracle", got == expected, detail.str());
  }
}

void check_release_rate(const pcl::ConsensusConfig& config,
                        const Batch& votes, const std::vector<Label>& labels,
                        Checks& checks) {
  const double threshold =
      config.threshold_fraction * static_cast<double>(config.num_users);
  double mean = 0.0, var = 0.0;
  for (const Votes& v : votes) {
    const std::vector<double> counts = vote_counts(v);
    const double top = *std::max_element(counts.begin(), counts.end());
    const double p = normal_cdf((top - threshold) / config.sigma1);
    mean += p;
    var += p * (1.0 - p);
  }
  double released = 0.0;
  for (const Label& l : labels) released += l.has_value() ? 1.0 : 0.0;
  if (checks.broken("release_rate")) {
    released += kReleaseSigmas * std::sqrt(var) + 1.0;
  }
  const double slack = kReleaseSigmas * std::sqrt(var) + 0.5;
  std::ostringstream detail;
  detail << released << " released of " << labels.size() << ", expected "
         << mean << " +- " << slack;
  checks.expect("release_rate", std::abs(released - mean) <= slack,
                detail.str());
}

void print_report(const Report& report) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << json_escape(m.name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << json_escape(m.unit) << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
