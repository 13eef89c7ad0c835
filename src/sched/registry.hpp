/// \file registry.hpp
/// \brief Policy registry: name -> factory, with the built-ins pre-loaded.
///
/// This is the extension point the paper advertises: a student registers a
/// factory for their policy once and every E2C surface (CLI, experiments,
/// benches) can select it by name, exactly like the built-ins in the GUI's
/// scheduler drop-down.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/policy.hpp"

namespace e2c::sched {

/// Creates a fresh policy instance.
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// Global registry of scheduling policies. Thread-compatible: registration
/// happens at startup, lookups afterwards.
class PolicyRegistry {
 public:
  /// The process-wide registry, pre-populated with the paper's built-ins:
  /// immediate FCFS, MEET, MECT, FTMIN-EET; batch MM, MMU, MSD, ELARE,
  /// FELARE, FairShare, PAM.
  static PolicyRegistry& instance();

  /// Registers (or replaces) a factory under \p name (case-insensitive
  /// lookup). Throws e2c::InputError on an empty name.
  void register_policy(const std::string& name, PolicyFactory factory);

  /// True if \p name is registered.
  [[nodiscard]] bool contains(const std::string& name) const noexcept;

  /// Instantiates the policy registered under \p name. Throws
  /// e2c::UnknownPolicyError for unknown names.
  [[nodiscard]] std::unique_ptr<Policy> create(const std::string& name) const;

  /// Registered names in registration order (the GUI drop-down contents).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  PolicyRegistry();
  struct Entry {
    std::string name;
    PolicyFactory factory;
  };
  std::vector<Entry> entries_;
};

/// Convenience: create a policy from the global registry.
[[nodiscard]] std::unique_ptr<Policy> make_policy(const std::string& name);

/// Convenience: the built-in immediate policy names (Fig. 3's left column).
[[nodiscard]] std::vector<std::string> immediate_policy_names();

/// Convenience: the built-in batch policy names (Fig. 3's right column).
[[nodiscard]] std::vector<std::string> batch_policy_names();

}  // namespace e2c::sched
