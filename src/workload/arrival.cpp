#include "workload/arrival.hpp"

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace e2c::workload {

const char* arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kUniform: return "uniform";
    case ArrivalKind::kNormal: return "normal";
    case ArrivalKind::kConstant: return "constant";
    case ArrivalKind::kBurst: return "burst";
  }
  return "unknown";
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                           ArrivalKind::kNormal, ArrivalKind::kConstant,
                           ArrivalKind::kBurst}) {
    if (util::iequals(name, arrival_kind_name(kind))) return kind;
  }
  throw InputError("unknown arrival process: '" + name + "'");
}

}  // namespace e2c::workload
