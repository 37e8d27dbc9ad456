// Resource governance for queries: deadlines, cooperative cancellation,
// and the typed error taxonomy every failure path maps onto.
//
// This is the bottom layer of the query stack (engine/query.hpp includes
// parallel/ca_run.hpp which includes this), so the taxonomy lives here and
// query.hpp re-exports it — the kernels can throw DeadlineExceeded without
// an include cycle back into engine/.
//
// ## Cooperative checkpoints
//
// Nothing preempts a running kernel. Instead every parallel entry point
// builds a QueryGovernor from QueryOptions::{deadline, cancel} and the
// kernels poll it cooperatively:
//
//  * at the top of every pool task (chunk boundary) — the floor every
//    shape honors, including the SFA comparator whose inner run is opaque;
//  * every kGovernorStride symbols inside the per-symbol loops (reference,
//    NFA, counting, finding kernels) via GovPoll;
//  * between the 512-unit blocks of the fused lockstep loops, once
//    the blocks accumulate to the stride, so the amortized cost stays under
//    the documented <2% budget (docs/perf.md "Checkpoint polling
//    granularity");
//  * at every StreamSession window (per feed).
//
// A trip throws QueryCancelled or DeadlineExceeded from whichever worker
// polls first; the exception unwinds through the ThreadPool's first-error
// capture and rethrows from run() on the submitting thread. Sibling chunk
// tasks of the batch still run to completion (they poll too, so they trip
// fast) — the pool never abandons claimed tasks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace rispar {

/// Root of the query failure taxonomy. Thrown when a query asks for an
/// option combination the chosen device (or query shape) cannot honor, or
/// for a device that cannot be built. Catching QueryError catches every
/// subclass below — existing call sites keep working unchanged.
class QueryError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A knob/shape mismatch found during validation (the validate_query
/// rejects, stream-session precondition failures, poisoned-session use).
class ValidationError : public QueryError {
 public:
  using QueryError::QueryError;
};

/// The query's deadline elapsed before it completed. Carries how long the
/// query had run when the trip was observed and the budget it was given.
class DeadlineExceeded : public QueryError {
 public:
  DeadlineExceeded(std::chrono::nanoseconds elapsed, std::chrono::nanoseconds budget);
  std::chrono::nanoseconds elapsed() const { return elapsed_; }
  std::chrono::nanoseconds budget() const { return budget_; }

 private:
  std::chrono::nanoseconds elapsed_;
  std::chrono::nanoseconds budget_;
};

/// The query's CancelToken was tripped. Carries how long the query had run
/// when the cancellation was observed.
class QueryCancelled : public QueryError {
 public:
  explicit QueryCancelled(std::chrono::nanoseconds elapsed);
  std::chrono::nanoseconds elapsed() const { return elapsed_; }

 private:
  std::chrono::nanoseconds elapsed_;
};

/// A resource budget ran out: SFA probe budget, DFA subset-construction
/// budget, or pool admission rejection under overload. `resource` names the
/// budget, `limit` its configured value, `observed` what was demanded when
/// the budget tripped (e.g. the queue depth an overloaded pool rejected at).
class ResourceExhausted : public QueryError {
 public:
  ResourceExhausted(std::string resource, std::int64_t limit, std::int64_t observed);
  const std::string& resource() const { return resource_; }
  std::int64_t limit() const { return limit_; }
  std::int64_t observed() const { return observed_; }

 private:
  std::string resource_;
  std::int64_t limit_;
  std::int64_t observed_;
};

/// Read side of a cancellation flag. Copyable, shareable across threads;
/// a default-constructed token is never cancelled (and `valid()` is false,
/// so governors built from it stay inactive). Obtain a live one from
/// CancelSource::token().
class CancelToken {
 public:
  CancelToken() = default;

  bool valid() const { return flag_ != nullptr; }
  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: request_cancel() trips every token handed out. Safe to call
/// from any thread, any number of times; the queries observing the token
/// throw QueryCancelled at their next checkpoint.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_release); }
  bool cancel_requested() const { return flag_->load(std::memory_order_acquire); }
  CancelToken token() const { return CancelToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Symbols between cooperative polls inside the per-symbol kernel loops.
/// Small enough for sub-millisecond trip latency on any kernel, large
/// enough that the poll (one relaxed steady_clock read + one atomic load)
/// amortizes to <2% of the fused series (measured by the
/// deadline_checkpoint bench series in BENCH_chunk_kernels.json).
inline constexpr std::size_t kGovernorStride = 8192;

/// One query's governance state: construction captures the start time;
/// poll() throws QueryCancelled (checked first — an explicit cancel beats a
/// deadline that happened to elapse too) or DeadlineExceeded once tripped.
/// Inactive governors (no deadline, no valid token) make poll() a single
/// predictable branch, so kernels thread the pointer unconditionally.
/// Const-polled from many worker threads at once; all state is immutable
/// after construction except the shared token flag.
class QueryGovernor {
 public:
  QueryGovernor(std::chrono::nanoseconds deadline, CancelToken cancel)
      : start_(std::chrono::steady_clock::now()),
        deadline_(deadline),
        cancel_(std::move(cancel)),
        active_(deadline.count() > 0 || cancel_.valid()) {}

  bool active() const { return active_; }

  /// Cooperative checkpoint: no-op while healthy, throws on trip.
  void poll() const {
    if (active_) check();
  }

  std::chrono::nanoseconds elapsed() const {
    return std::chrono::steady_clock::now() - start_;
  }

 private:
  void check() const;  // out of line: the throw paths don't belong inline

  std::chrono::steady_clock::time_point start_;
  std::chrono::nanoseconds deadline_;
  CancelToken cancel_;
  bool active_;
};

/// Countdown helper for per-symbol loops: `step()` per symbol costs one
/// decrement-and-branch until the stride elapses, then one governor poll.
/// Null/inactive governors never poll (the countdown still runs — one
/// register decrement, cheaper than re-testing the pointer per symbol).
struct GovPoll {
  const QueryGovernor* gov;
  std::size_t countdown = kGovernorStride;

  explicit GovPoll(const QueryGovernor* g)
      : gov(g != nullptr && g->active() ? g : nullptr) {}

  void step() {
    if (--countdown == 0) {
      countdown = kGovernorStride;
      if (gov != nullptr) gov->poll();
    }
  }
};

}  // namespace rispar
