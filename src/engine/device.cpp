#include "engine/device.hpp"

#include "parallel/thread_pool.hpp"

namespace rispar {

namespace {

// Normalized to nullptr when inactive so the kernels' fast paths never
// even branch on the pointer.
const QueryGovernor* normalize(const QueryGovernor& own) {
  return own.active() ? &own : nullptr;
}

}  // namespace

template <typename Input>
QueryResult Device::recognize_window(const Input& input, ThreadPool& pool,
                                     const QueryOptions& options) const {
  validate_query(options, capabilities(), device_context("recognize", variant()));
  // One governor per call, shared by every chunk task of the window.
  const QueryGovernor own(options.deadline, options.cancel);
  StreamCarry carry;
  const WindowRun run = stream_window(carry, input, pool, options, normalize(own));
  QueryResult result;
  result.accepted = stream_accepted(carry);
  result.transitions = carry.transitions;
  result.chunks = run.chunks;
  result.reach_seconds = run.reach_seconds;
  result.join_seconds = run.join_seconds;
  return result;
}

QueryResult Device::recognize(std::span<const Symbol> input, ThreadPool& pool,
                              const QueryOptions& options) const {
  return recognize_window(input, pool, options);
}

QueryResult Device::recognize(const ByteSpan& input, ThreadPool& pool,
                              const QueryOptions& options) const {
  return recognize_window(input, pool, options);
}

void Device::stream_feed(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options) const {
  validate_query(options, stream_capabilities(), device_context("stream", variant()));
  const QueryGovernor own(options.deadline, options.cancel);
  stream_window(carry, window, pool, options, normalize(own));
}

void Device::stream_feed(StreamCarry& carry, const ByteSpan& window, ThreadPool& pool,
                         const QueryOptions& options,
                         const StreamFindWindow* find) const {
  validate_query(options, stream_capabilities(), device_context("stream", variant()));
  // One governor per FEED: its clock starts here and covers both the
  // decision window and the find side, so a feed's deadline is the budget
  // for everything that window triggers.
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = normalize(own);
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
  stream_find_feed(find->searcher, carry.find,
                   ByteSpan(window.bytes, find->searcher.symbols()), pool, find_options,
                   find->sink, find->pattern_id, gov, find->reverse);
}

}  // namespace rispar
