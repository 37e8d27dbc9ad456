// Deterministic fault-injection harness (ISSUE 6 tentpole part 4).
//
// Compiled in only under -DRISPAR_FAULT_INJECT=ON; in normal builds every
// probe folds to a constexpr-false no-op, so the sites cost nothing.
//
// When compiled in, each named site draws from one deterministic
// splitmix64 stream: site k fails iff hash(seed, draw_counter) falls under
// the configured probability. Same seed + same execution order (the sweep
// runs single-threaded batteries) => same faults, so a failing sweep seed
// reproduces exactly.
//
// Sites wired in (each throws a typed error the caller must survive):
//  * "pool.task"      — a pool task throws FaultInjected before running its
//                       body (exercises the batch first-error capture)
//  * "governor.poll"  — an active governor's checkpoint trips QueryCancelled
//  * "subset.alloc"   — subset construction fails as std::bad_alloc
//  * "sfa.alloc"      — SFA composition-table growth fails as std::bad_alloc
//  * "packed.alloc"   — packed-table build fails as std::bad_alloc
//  * "reverse.build"  — the reverse-begins artifact build (Pattern::
//                       reverse_begins) throws FaultInjected; the lazy
//                       slot must stay empty so a retry can succeed
//  * "mpstream.merge" — MultiStreamSession's window merge throws after the
//                       per-pattern scans ran; the session must poison
//  * "checkpoint.encode" — serializing a session checkpoint fails; the
//                       carry must stay untouched so a retry succeeds
//  * "checkpoint.decode" — resuming from a blob fails before any state is
//                       adopted; the blob stays valid for a retry
//  * "server.drain"   — the rispard drain's checkpoint emission throws; the
//                       client gets a typed ERROR frame and the drain still
//                       completes (terminal frame + close)
//
// Configuration: fault::configure(seed, rate) from tests, or the
// environment (RISPAR_FAULT_SEED, RISPAR_FAULT_RATE — rate in [0,1]) read
// lazily on the first probe. Unconfigured => disabled even when compiled in.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rispar::fault {

/// What an injected task throw looks like. Deliberately NOT a QueryError:
/// the sweep asserts callers surface it (or a typed wrapper) without
/// crashing, and that catch sites for "any error" don't quietly depend on
/// the taxonomy.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

#ifdef RISPAR_FAULT_INJECT

inline constexpr bool kEnabled = true;

/// Draw the site's next deterministic sample; true => the caller must fail.
bool should_fail(const char* site);

/// Arm the harness: every subsequent draw uses this seed/rate. Resets the
/// draw counter so sweeps are reproducible per (seed, battery).
void configure(std::uint64_t seed, double rate);

/// Disarm (probes return false until the next configure()).
void disable();

/// Total injections fired since the last configure() — sweeps assert > 0
/// so a silently dead harness fails loudly.
std::uint64_t fire_count();

/// RAII disarm for scopes that must run clean (oracle reruns inside the
/// sweep). Restores nothing: re-configure() for the next battery.
struct ScopedDisable {
  ScopedDisable() { disable(); }
  ~ScopedDisable() = default;
};

#else

inline constexpr bool kEnabled = false;

inline bool should_fail(const char*) { return false; }
inline void configure(std::uint64_t, double) {}
inline void disable() {}
inline std::uint64_t fire_count() { return 0; }
struct ScopedDisable {};

#endif

/// The standard probe: throw FaultInjected when the site's draw fails.
/// `if constexpr` keeps release builds free of even the call.
inline void maybe_throw(const char* site) {
  if constexpr (kEnabled) {
    if (should_fail(site)) throw FaultInjected(std::string("injected fault at ") + site);
  } else {
    (void)site;
  }
}

}  // namespace rispar::fault
