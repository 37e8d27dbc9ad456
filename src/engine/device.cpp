#include "engine/device.hpp"

#include "parallel/thread_pool.hpp"

namespace rispar {

void Device::stream_feed(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const StreamFindWindow* find) const {
  validate_query(options, stream_capabilities(), device_context("stream", variant()));
  // One governor per FEED: its clock starts here and covers both the
  // decision window and the find side, so a feed's deadline is the budget
  // for everything that window triggers.
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = own.active() ? &own : nullptr;
  stream_window(carry, window, pool, options, gov);
  if (find == nullptr) return;
  // The find side reads the same bytes through the searcher's all-bytes
  // map; only the knobs streaming find honors are forwarded, so
  // a device-only knob (a future one) can never leak into the kernel.
  QueryOptions find_options;
  find_options.chunks = options.chunks;
  find_options.convergence = options.convergence;
  find_options.kernel = options.kernel;
  find_options.positions = true;
  find_options.begin_mode = options.begin_mode;
  find_options.max_history_bytes = options.max_history_bytes;
  stream_find_feed(find->searcher, carry.find, find->window, pool, find_options,
                   find->sink, find->pattern_id, gov, find->reverse);
}

}  // namespace rispar
