// Golden digests of generated workloads: generate_workload is a pure
// function of (EET, GeneratorConfig), and the experiment data plane relies
// on that — a trace generated once per (intensity, replication) is shared by
// every policy cell. These FNV-1a digests pin the exact traces for fixed
// seeds across intensities, so the share-once refactor (and any future
// generator edit) cannot silently change what experiments run. Beyond the
// aggregate Poisson uniform-mix presets they cover the other four aggregate
// arrival processes, the default mix over large random catalogs (1024 and
// 1000 task types), per-type arrival streams (poisson, burst and normal
// merged by time), a non-uniform type mix and a multi-tenant merge. An
// intentional generator change must update the constants below.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "exp/tenants.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

namespace exp = e2c::exp;
namespace workload = e2c::workload;
using workload::Intensity;

void fnv1a(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
}

std::uint64_t digest_of(const workload::Workload& trace) {
  std::uint64_t hash = 14695981039346656037ULL;
  fnv1a(hash, trace.size());
  for (const workload::TaskDef& def : trace.tasks()) {
    fnv1a(hash, def.id);
    fnv1a(hash, static_cast<std::uint64_t>(def.type));
    fnv1a(hash, std::bit_cast<std::uint64_t>(def.arrival));
    fnv1a(hash, std::bit_cast<std::uint64_t>(def.deadline));
  }
  return hash;
}

workload::GeneratorConfig classroom_config(Intensity intensity, std::size_t replication) {
  const auto system = exp::heterogeneous_classroom();
  return workload::config_for_intensity(
      system.eet, exp::machine_types_of(system), intensity, /*duration=*/60.0,
      exp::workload_seed(/*base_seed=*/42, intensity, replication));
}

std::uint64_t trace_digest(Intensity intensity, std::size_t replication) {
  const auto system = exp::heterogeneous_classroom();
  return digest_of(
      workload::generate_workload(system.eet, classroom_config(intensity, replication)));
}

struct Golden {
  Intensity intensity;
  std::size_t replication;
  std::uint64_t digest;
};

TEST(WorkloadDigest, GeneratedTracesMatchGoldens) {
  const Golden goldens[] = {
      {Intensity::kLow, 0, 0x74b48b0f0db827ddULL},
      {Intensity::kLow, 1, 0xb9135e15140c8e8cULL},
      {Intensity::kMedium, 0, 0xff19a68aa9f21dfbULL},
      {Intensity::kMedium, 1, 0x4d7c0a7121aba1a5ULL},
      {Intensity::kHigh, 0, 0x3578c167a3e85554ULL},
      {Intensity::kHigh, 1, 0xec5183870d6fa8e5ULL},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(trace_digest(golden.intensity, golden.replication), golden.digest)
        << "intensity " << workload::intensity_name(golden.intensity)
        << " replication " << golden.replication << " digest 0x" << std::hex
        << trace_digest(golden.intensity, golden.replication);
  }
}

TEST(WorkloadDigest, DigestIsReproducibleWithinProcess) {
  EXPECT_EQ(trace_digest(Intensity::kHigh, 0), trace_digest(Intensity::kHigh, 0));
}

/// A random inconsistent catalog of \p types task types on 4 machine types,
/// built like the sweep benchmark's.
e2c::hetero::EetMatrix random_catalog(std::size_t types) {
  e2c::util::Rng rng(0xE2CBE4C11);
  std::vector<std::string> task_names;
  for (std::size_t t = 0; t < types; ++t) task_names.push_back("T" + std::to_string(t));
  return e2c::hetero::EetMatrix::random(std::move(task_names), {"m0", "m1", "m2", "m3"},
                                        /*base=*/2.0, /*task_range=*/4.0,
                                        /*machine_range=*/4.0, /*inconsistent=*/true, rng);
}

TEST(WorkloadDigest, DefaultMixOnLargeCatalogsMatchesGoldens) {
  // The uniform default mix over catalogs whose type count is and is not a
  // power of two: every type draw of these traces is pinned.
  const struct {
    std::size_t types;
    Intensity intensity;
    std::uint64_t digest;
  } goldens[] = {
      {1024, Intensity::kMedium, 0xfa0c581fe5e4e717ULL},
      {1024, Intensity::kHigh, 0xd8fb346af3337d4aULL},
      {1000, Intensity::kLow, 0x8eb4f22dbe6b4a19ULL},
      {1000, Intensity::kHigh, 0x8cd10850d80d95aaULL},
  };
  for (const auto& golden : goldens) {
    const e2c::hetero::EetMatrix eet = random_catalog(golden.types);
    const workload::GeneratorConfig config = workload::config_for_intensity(
        eet, {0, 1, 2, 3}, golden.intensity, /*duration=*/2000.0,
        exp::workload_seed(/*base_seed=*/42, golden.intensity, /*replication=*/0));
    const workload::Workload trace = workload::generate_workload(eet, config);
    EXPECT_EQ(digest_of(trace), golden.digest)
        << golden.types << " types, intensity " << workload::intensity_name(golden.intensity)
        << ", " << trace.size() << " tasks, digest 0x" << std::hex << digest_of(trace);
  }
}

TEST(WorkloadDigest, AggregateArrivalKindsMatchGoldens) {
  // One aggregate stream per arrival process over the uniform default mix:
  // the non-Poisson emitters' draws, and the interleaving of arrival, type
  // and deadline draws in one generation pass, are pinned.
  const auto system = exp::heterogeneous_classroom();
  const struct {
    workload::ArrivalKind kind;
    std::uint64_t digest;
  } goldens[] = {
      {workload::ArrivalKind::kUniform, 0x17238ac4362b334aULL},
      {workload::ArrivalKind::kNormal, 0x68fd3afce468779dULL},
      {workload::ArrivalKind::kConstant, 0x4b989a87e5c4b6bcULL},
      {workload::ArrivalKind::kBurst, 0x4855b404026846bdULL},
  };
  for (const auto& golden : goldens) {
    workload::GeneratorConfig config = classroom_config(Intensity::kHigh, 0);
    config.arrival = golden.kind;
    const workload::Workload trace = workload::generate_workload(system.eet, config);
    EXPECT_EQ(digest_of(trace), golden.digest)
        << workload::arrival_kind_name(golden.kind) << ", " << trace.size()
        << " tasks, digest 0x" << std::hex << digest_of(trace);
  }
}

TEST(WorkloadDigest, PerTypeMixedArrivalKindsMatchGolden) {
  // One stream per task type, cycling poisson / burst / normal, merged by
  // arrival time: the per-type path's split order and merge are pinned.
  const auto system = exp::heterogeneous_classroom();
  workload::GeneratorConfig config = classroom_config(Intensity::kMedium, 0);
  const workload::ArrivalKind kinds[] = {workload::ArrivalKind::kPoisson,
                                         workload::ArrivalKind::kBurst,
                                         workload::ArrivalKind::kNormal};
  for (std::size_t type = 0; type < system.eet.task_type_count(); ++type) {
    config.per_type_arrivals.push_back(
        {kinds[type % 3], 0.2 * static_cast<double>(type + 1)});
  }
  const std::uint64_t digest =
      digest_of(workload::generate_workload(system.eet, config));
  EXPECT_EQ(digest, 0xdf4922794ebc128dULL) << "digest 0x" << std::hex << digest;
}

TEST(WorkloadDigest, NonUniformTypeWeightsMatchGolden) {
  const auto system = exp::heterogeneous_classroom();
  workload::GeneratorConfig config = classroom_config(Intensity::kHigh, 1);
  config.type_weights = {5.0, 0.0, 1.0, 2.5, 0.5};
  const std::uint64_t digest =
      digest_of(workload::generate_workload(system.eet, config));
  EXPECT_EQ(digest, 0xd3f80d00687a400fULL) << "digest 0x" << std::hex << digest;
}

TEST(WorkloadDigest, MultiTenantMergeMatchesGolden) {
  const auto system = exp::heterogeneous_classroom();
  const std::vector<exp::TenantSpec> tenants = {
      {"tenantA", 0.6, 60.0, 11}, {"tenantB", 0.3, 40.0, 12}, {"tenantC", 0.9, 60.0, 13}};
  const workload::Workload trace = exp::make_multi_tenant_workload(system, tenants);
  std::uint64_t digest = digest_of(trace);
  for (const workload::TaskDef& def : trace.tasks()) fnv1a(digest, def.tenant);
  EXPECT_EQ(digest, 0xd9cd4e3bd1b62747ULL) << "digest 0x" << std::hex << digest;
}

}  // namespace
