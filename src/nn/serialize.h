// Weight snapshots.
//
// Models expose their parameter list; these helpers snapshot / restore all
// values as an in-memory blob (used by the transfer-learning experiment,
// Fig. 14, to clone a base model before fine-tuning).
#pragma once

#include <vector>

#include "nn/param.h"

namespace vkey::nn {

/// Copy all parameter values into one flat snapshot.
std::vector<double> snapshot(const std::vector<Parameter*>& params);

/// Restore values from a snapshot created over an identically-shaped
/// parameter list (sizes are validated).
void restore(const std::vector<Parameter*>& params,
             const std::vector<double>& snap);

}  // namespace vkey::nn
