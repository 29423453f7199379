// Level-by-level S-SD decisions on local R-trees.
//
// Section 5.1.1: when object instances are organized in R-trees, the S-SD
// check can be run top-down over node-granularity bounds. A subtree with
// probability mass p and box B contributes its mass somewhere in the
// distance interval [mindist(Q, B), maxdist(Q, B)], which yields a lower
// envelope for U's CDF (mass placed at interval ends) and an upper
// envelope for V's CDF (mass placed at interval starts):
//
//   validation:  lowCDF_U(x) >= upCDF_V(x) for all x  (strict somewhere,
//                which also certifies U_Q != V_Q)     => SD holds
//   pruning:     upCDF_U(x) <  lowCDF_V(x) for some x => SD cannot hold
//
// If neither fires, the widest frontier interval is refined (node ->
// children -> instances -> exact atoms) until a decision or a fixed work
// cap, after which the caller falls back to the exact merge-scan.
//
// S-SD is the only caller. The paper runs SS-SD level by level too, but
// behind SS-SD's per-q statistic gate per-q envelopes cost more than they
// decide, so SS-SD goes straight to the exact per-q scans.

#ifndef OSD_CORE_CDF_ENVELOPE_H_
#define OSD_CORE_CDF_ENVELOPE_H_

#include "core/filter_config.h"
#include "core/query_context.h"
#include "object/uncertain_object.h"

namespace osd {

enum class EnvelopeDecision { kDominates, kNotDominates, kUndecided };

/// Level-by-level S-SD decision: does U_Q <=_st V_Q (and differ)?
/// `geometric` selects CH(Q) (true) or all query instances (false) for the
/// upper distance bounds.
EnvelopeDecision EnvelopeSSd(const UncertainObject& u,
                             const UncertainObject& v,
                             const QueryContext& ctx, bool geometric,
                             FilterStats* stats);

}  // namespace osd

#endif  // OSD_CORE_CDF_ENVELOPE_H_
