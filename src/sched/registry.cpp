#include "sched/registry.hpp"

#include "sched/batch.hpp"
#include "sched/elare.hpp"
#include "sched/fair_share.hpp"
#include "sched/immediate.hpp"
#include "sched/pam.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace e2c::sched {

PolicyRegistry::PolicyRegistry() {
  register_policy("FCFS", [] { return std::make_unique<FcfsPolicy>(); });
  register_policy("MEET", [] { return std::make_unique<MeetPolicy>(); });
  register_policy("MECT", [] { return std::make_unique<MectPolicy>(); });
  register_policy("FTMIN-EET", [] { return std::make_unique<FtMinEetPolicy>(); });
  register_policy("MM", [] { return std::make_unique<MinMinPolicy>(); });
  register_policy("MMU", [] { return std::make_unique<MaxUrgencyPolicy>(); });
  register_policy("MSD", [] { return std::make_unique<SoonestDeadlinePolicy>(); });
  register_policy("ELARE", [] { return std::make_unique<ElarePolicy>(); });
  register_policy("FELARE", [] { return std::make_unique<FelarePolicy>(); });
  register_policy("FairShare", [] { return std::make_unique<FairSharePolicy>(); });
  register_policy("PAM", [] { return std::make_unique<PamPolicy>(); });
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::register_policy(const std::string& name, PolicyFactory factory) {
  require_input(static_cast<bool>(factory), "policy registry: null factory");
  require_input(!name.empty(), "policy registry: empty policy name");
  for (Entry& entry : entries_) {
    if (util::iequals(entry.name, name)) {
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back(Entry{name, std::move(factory)});
}

bool PolicyRegistry::contains(const std::string& name) const noexcept {
  for (const Entry& entry : entries_) {
    if (util::iequals(entry.name, name)) return true;
  }
  return false;
}

std::unique_ptr<Policy> PolicyRegistry::create(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (util::iequals(entry.name, name)) return entry.factory();
  }
  std::string message = "unknown scheduling policy: '" + name + "'";
  if (const auto suggestion = util::nearest_match(name, names())) {
    message += " — did you mean '" + *suggestion + "'?";
  }
  message += " (registered:";
  for (const Entry& entry : entries_) message += " " + entry.name;
  message += ")";
  throw UnknownPolicyError(message);
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  return PolicyRegistry::instance().create(name);
}

std::vector<std::string> immediate_policy_names() {
  return {"FCFS", "FTMIN-EET", "MECT", "MEET"};
}

std::vector<std::string> batch_policy_names() {
  return {"MM", "MMU", "MSD", "ELARE", "FELARE", "PAM"};
}

}  // namespace e2c::sched
