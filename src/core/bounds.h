// An analytical upper bound for PageRank's iteration count (§5.1 "Upper
// Bound Estimates").
//
// The paper contrasts PREDIcT with the closed-form PageRank bound of
// Langville & Meyer:  #iterations = log10(eps) / log10(d),  which
// ignores the input graph entirely and over-predicts by 2x-3.5x. The
// bound serves paper_panel's sec51 view, which reproduces that
// comparison, and `predict_cli bound`.

#ifndef PREDICT_CORE_BOUNDS_H_
#define PREDICT_CORE_BOUNDS_H_

#include "common/result.h"

namespace predict {

/// Langville–Meyer bound on PageRank iterations for tolerance `epsilon`
/// and damping factor `d`.
Result<double> PageRankIterationUpperBound(double epsilon, double damping);

}  // namespace predict

#endif  // PREDICT_CORE_BOUNDS_H_
