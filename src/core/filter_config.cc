#include "core/filter_config.h"

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

FilterStats& FilterStats::operator+=(const FilterStats& other) {
  dist_evals += other.dist_evals;
  scan_steps += other.scan_steps;
  pair_tests += other.pair_tests;
  node_ops += other.node_ops;
  flow_runs += other.flow_runs;
  mbr_validations += other.mbr_validations;
  stat_prunes += other.stat_prunes;
  cover_prunes += other.cover_prunes;
  level_decisions += other.level_decisions;
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
      {"level_decisions", level_decisions},
      {"mbr_validations", mbr_validations},
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
