#include "core/filter_config.h"

#include <cstddef>
#include <utility>

namespace osd {

const char* OperatorName(Operator op) {
  switch (op) {
    case Operator::kSSd:
      return "SSD";
    case Operator::kSsSd:
      return "SSSD";
    case Operator::kPSd:
      return "PSD";
    case Operator::kFSd:
      return "FSD";
    case Operator::kFPlusSd:
      return "F+SD";
  }
  return "?";
}

namespace {

/// Sets `*out` to the value `s` names in `table`; false if none does.
template <typename T, size_t N>
bool Lookup(const std::pair<const char*, T> (&table)[N], const std::string& s,
            T* out) {
  for (const auto& [name, value] : table) {
    if (s == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseOperatorName(const std::string& s, Operator* op) {
  static constexpr std::pair<const char*, Operator> kNames[] = {
      {"ssd", Operator::kSSd}, {"sssd", Operator::kSsSd},
      {"psd", Operator::kPSd}, {"fsd", Operator::kFSd},
      {"f+sd", Operator::kFPlusSd},
  };
  return Lookup(kNames, s, op);
}

bool ParseFilterName(const std::string& s, FilterConfig* config) {
  const std::pair<const char*, FilterConfig> kNames[] = {
      {"all", FilterConfig::All()}, {"bf", FilterConfig::BruteForce()},
      {"p", FilterConfig::P()},     {"g", FilterConfig::G()},
      {"gp", FilterConfig::GP()},   {"l", FilterConfig::BruteForce()},
      {"lp", FilterConfig::P()},    {"lg", FilterConfig::G()},
      {"lgp", FilterConfig::GP()},
  };
  return Lookup(kNames, s, config);
}

FilterStats& FilterStats::operator+=(const FilterStats& other) {
  dist_evals += other.dist_evals;
  scan_steps += other.scan_steps;
  pair_tests += other.pair_tests;
  node_ops += other.node_ops;
  flow_runs += other.flow_runs;
  mbr_validations += other.mbr_validations;
  stat_validations += other.stat_validations;
  stat_prunes += other.stat_prunes;
  cover_prunes += other.cover_prunes;
  exact_checks += other.exact_checks;
  dominance_checks += other.dominance_checks;
  return *this;
}

void FilterStats::AppendJson(std::string* out) const {
  const std::pair<const char*, long> fields[] = {
      {"dominance_checks", dominance_checks},
      {"instance_comparisons", InstanceComparisons()},
      {"dist_evals", dist_evals},
      {"pair_tests", pair_tests},
      {"scan_steps", scan_steps},
      {"node_ops", node_ops},
      {"flow_runs", flow_runs},
      {"stat_prunes", stat_prunes},
      {"cover_prunes", cover_prunes},
      {"mbr_validations", mbr_validations},
      {"stat_validations", stat_validations},
      {"exact_checks", exact_checks},
  };
  const char* sep = "";
  for (const auto& [key, value] : fields) {
    *out += sep;
    sep = ",";
    *out += '"';
    *out += key;
    *out += "\":";
    *out += std::to_string(value);
  }
}

}  // namespace osd
