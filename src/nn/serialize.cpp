#include "nn/serialize.h"

#include <algorithm>

#include "common/error.h"

namespace vkey::nn {

std::vector<double> snapshot(const std::vector<Parameter*>& params) {
  std::vector<double> out;
  for (const Parameter* p : params) {
    out.insert(out.end(), p->value.begin(), p->value.end());
  }
  return out;
}

namespace {

std::size_t param_total(const std::vector<Parameter*>& params) {
  std::size_t total = 0;
  for (const Parameter* p : params) total += p->size();
  return total;
}

}  // namespace

void restore(const std::vector<Parameter*>& params,
             const std::vector<double>& snap) {
  VKEY_REQUIRE(snap.size() == param_total(params), "snapshot size mismatch");
  std::size_t off = 0;
  for (Parameter* p : params) {
    std::copy(snap.begin() + static_cast<std::ptrdiff_t>(off),
              snap.begin() + static_cast<std::ptrdiff_t>(off + p->size()),
              p->value.begin());
    p->bump();
    off += p->size();
  }
}

}  // namespace vkey::nn
