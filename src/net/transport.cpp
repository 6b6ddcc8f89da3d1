#include "net/transport.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "obs/clock.h"

namespace pcl {

namespace {

/// Process-wide interning of step and party names for TrafficStats rows.
/// Lookups of known names (every send after a name's first) share the
/// lock; only a new name takes it exclusively.  Leaked on purpose: threads
/// may still record traffic while others unwind at process exit.
class NameTable {
 public:
  static NameTable& instance() {
    static NameTable* table = new NameTable;
    return *table;
  }

  std::uint32_t intern(const std::string& name) {
    if (const auto id = find(name)) return *id;
    const std::unique_lock lock(mutex_);
    const auto [it, added] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (added) names_.push_back(name);
    return it->second;
  }

  /// Id of `name` if it was ever interned.
  std::optional<std::uint32_t> find(const std::string& name) const {
    const std::shared_lock lock(mutex_);
    const auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  /// The name behind `id` (a deque element: stable once inserted).
  const std::string& name(std::uint32_t id) const {
    const std::shared_lock lock(mutex_);
    return names_[id];
  }

 private:
  mutable std::shared_mutex mutex_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

const std::string& name_of(std::uint32_t id) {
  return NameTable::instance().name(id);
}

/// Whether party `id` falls in `category` (a name prefix; empty matches
/// anything).
bool matches_category(std::uint32_t id, const std::string& category) {
  return category.empty() || name_of(id).starts_with(category);
}

}  // namespace

void TrafficStats::record_send(const std::string& step, const std::string& from,
                               const std::string& to, std::size_t bytes) {
  NameTable& names = NameTable::instance();
  const Row key{names.intern(step), names.intern(from), names.intern(to), {}};
  const auto by_link = [](const Row& a, const Row& b) {
    return std::tie(a.step, a.from, a.to) < std::tie(b.step, b.from, b.to);
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::lower_bound(traffic_.begin(), traffic_.end(), key, by_link);
  if (it == traffic_.end() || by_link(key, *it)) {
    it = traffic_.insert(it, key);
  }
  it->totals.bytes += bytes;
  it->totals.messages += 1;
}

void TrafficStats::add_time(const std::string& step,
                            std::chrono::nanoseconds elapsed) {
  const NameId id = NameTable::instance().intern(step);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (TimeRow& row : time_) {
    if (row.step == id) {
      row.elapsed += elapsed;
      return;
    }
  }
  time_.push_back({id, elapsed});
}

template <typename Pick>
std::size_t TrafficStats::sum_for(const std::string& step,
                                  const std::string& from_category,
                                  const std::string& to_category,
                                  Pick pick) const {
  const std::optional<NameId> id = NameTable::instance().find(step);
  if (!id) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const Row& row : traffic_) {
    if (row.step == *id && matches_category(row.from, from_category) &&
        matches_category(row.to, to_category)) {
      total += pick(row.totals);
    }
  }
  return total;
}

std::size_t TrafficStats::bytes_for(const std::string& step,
                                    const std::string& from_category,
                                    const std::string& to_category) const {
  return sum_for(step, from_category, to_category,
                 [](const LinkTotals& t) { return t.bytes; });
}

std::size_t TrafficStats::messages_for(const std::string& step,
                                       const std::string& from_category,
                                       const std::string& to_category) const {
  return sum_for(step, from_category, to_category,
                 [](const LinkTotals& t) { return t.messages; });
}

double TrafficStats::seconds_for(const std::string& step) const {
  const std::optional<NameId> id = NameTable::instance().find(step);
  if (!id) return 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const TimeRow& row : time_) {
    if (row.step == *id) {
      return std::chrono::duration<double>(row.elapsed).count();
    }
  }
  return 0.0;
}

double TrafficStats::total_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::chrono::nanoseconds total{0};
  for (const TimeRow& row : time_) total += row.elapsed;
  return std::chrono::duration<double>(total).count();
}

std::vector<std::string> TrafficStats::steps() const {
  // Timed steps in name order, then traffic-only steps in name order.
  std::vector<std::string> timed;
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const TimeRow& row : time_) timed.push_back(name_of(row.step));
    for (const Row& row : traffic_) out.push_back(name_of(row.step));
  }
  std::sort(timed.begin(), timed.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase_if(out, [&](const std::string& step) {
    return std::binary_search(timed.begin(), timed.end(), step);
  });
  timed.insert(timed.end(), out.begin(), out.end());
  return timed;
}

std::vector<TrafficStats::Entry> TrafficStats::traffic_entries() const {
  std::vector<Entry> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(traffic_.size());
    for (const Row& row : traffic_) {
      out.push_back({name_of(row.step), name_of(row.from), name_of(row.to),
                     row.totals.bytes, row.totals.messages});
    }
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.step, a.from, a.to) < std::tie(b.step, b.from, b.to);
  });
  return out;
}

obs::TrafficByStep TrafficStats::by_step() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::TrafficByStep out;
  for (const Row& row : traffic_) {
    obs::StepTraffic& step = out[name_of(row.step)];
    step.bytes += row.totals.bytes;
    step.messages += row.totals.messages;
  }
  return out;
}

void TrafficStats::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  traffic_.clear();
  time_.clear();
}

void Network::send(const std::string& from, const std::string& to,
                   MessageWriter message) {
  std::vector<std::uint8_t> bytes = std::move(message).take();
  if (stats_ != nullptr) stats_->record_send(step_, from, to, bytes.size());
  if (record_transcript_) {
    transcript_.push_back({step_, from, to, bytes.size()});
  }
  queues_[{from, to}].push_back(std::move(bytes));
}

MessageReader Network::recv(const std::string& to, const std::string& from) {
  const auto it = queues_.find({from, to});
  if (it == queues_.end() || it->second.empty()) {
    throw std::logic_error("Network::recv: no pending message from '" + from +
                           "' to '" + to + "'");
  }
  std::vector<std::uint8_t> bytes = std::move(it->second.front());
  it->second.pop_front();
  return MessageReader(std::move(bytes));
}

bool Network::has_pending(const std::string& to,
                          const std::string& from) const {
  const auto it = queues_.find({from, to});
  return it != queues_.end() && !it->second.empty();
}

std::size_t Network::pending_total() const {
  std::size_t total = 0;
  for (const auto& [link, queue] : queues_) total += queue.size();
  return total;
}

StepScope::StepScope(Network& net, TrafficStats* stats, std::string step)
    : net_(net),
      stats_(stats),
      step_(std::move(step)),
      previous_step_(net.step()),
      start_ns_(obs::monotonic_time_ns()) {
  net_.set_step(step_);
}

StepScope::~StepScope() {
  if (stats_ != nullptr) {
    stats_->add_time(step_, std::chrono::nanoseconds(
                                obs::monotonic_time_ns() - start_ns_));
  }
  net_.set_step(previous_step_);
}

}  // namespace pcl
