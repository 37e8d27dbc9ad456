#include "engine/query.hpp"

namespace rispar {

const char* begin_mode_name(BeginMode mode) {
  switch (mode) {
    case BeginMode::kSeparator: return "separator";
    case BeginMode::kExact: return "exact";
  }
  return "?";
}

const char* variant_name(Variant variant) {
  switch (variant) {
    case Variant::kDfa: return "DFA";
    case Variant::kNfa: return "NFA";
    case Variant::kRid: return "RID";
    case Variant::kSfa: return "SFA";
  }
  return "?";
}

void validate_query(const QueryOptions& options, const DeviceCaps& caps,
                    const std::string& context) {
  const auto reject = [&](const char* knob) {
    throw ValidationError(context + " cannot honor '" + knob + "'");
  };
  if (options.convergence && !caps.convergence) reject("convergence");
  if (options.kernel != DetKernel::kFused && !caps.kernel_select) reject("kernel");
  if (options.lookback > 0 && !caps.lookback) reject("lookback");
  if ((options.offset != 0 || options.limit != QueryOptions::kNoLimit) && !caps.paging)
    reject("offset/limit");
  if (options.positions && !caps.positions) reject("positions");
  if (options.begin_mode == BeginMode::kExact && !caps.exact_begins)
    reject("begin_mode=exact");
}

std::string device_context(const char* what, Variant variant) {
  return std::string("the ") + variant_name(variant) + " device (" + what + ")";
}

}  // namespace rispar
