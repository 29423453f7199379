// Named fault-injection points for testing failure paths deliberately.
//
// A failpoint is a named site in library code (R-tree traversal, local-tree
// refinement, dominance checks, dataset I/O, engine execution) that tests
// can arm to throw, return an error, or delay. Sites are compiled in only
// when the build is configured with -DOSD_FAILPOINTS=ON; release builds
// reduce every site to a no-op with zero overhead. The trigger registry
// itself is always compiled, so trigger semantics (spec parsing, N-th-hit
// arming, exhaustion, counters) stay testable in every build via
// Evaluate().
//
// Spec strings (env-style, e.g. via $OSD_FAILPOINTS or --failpoints):
//
//   spec    := entry (',' entry)*
//   entry   := site '=' trigger
//   trigger := 'off' | [N 'x'] action ['(' arg ')'] ['@' S | '@p=' P]
//   action  := 'throw' | 'throw_bad_alloc' | 'error' | 'delay' | 'abort'
//
//   site                site names use [A-Za-z0-9_.-]
//   throw[(message)]    throw InjectedFault (a std::runtime_error)
//   throw_bad_alloc     throw std::bad_alloc — simulates an allocation
//                       failure at the site without exhausting RAM
//   error               make OSD_FAILPOINT_ERROR sites take their error
//                       path (a no-op at plain OSD_FAILPOINT sites)
//   delay(ms)           sleep for `ms` milliseconds, then continue
//   abort               std::abort() — simulated crash (no unwinding, no
//                       flushes) for kill-injection durability tests
//   Nx                  fire at most N times, then stay dormant
//   @S                  first firing on the S-th hit (1-based)
//   @p=P                probabilistic: each hit fires with probability P,
//                       P in (0, 1], drawn from the registry RNG (seeded
//                       via $OSD_FAILPOINT_SEED or SeedRng() so chaos runs
//                       replay identically). Mutually exclusive with @S;
//                       composes with Nx (at most N probabilistic fires).
//
// Examples:
//   nnc.pop=throw@100            throw on the 100th heap pop
//   io.binary.object=2xerror     fail the first two binary object reads
//   dominance.check=delay(5)@10  5 ms stall from the 10th check onward
//   mem.charge=throw_bad_alloc   OOM on the first budget charge
//   flow.augment=throw@p=0.01    each augmenting phase fails w.p. 1%
//
// Configure rejects malformed specs atomically (missing '=', bad counts,
// trailing garbage, non-finite delays, duplicate sites) and — so a typo'd
// spec cannot silently arm nothing — any site name the library does not
// actually contain. Sites under the reserved "test." prefix bypass the
// known-site check; tests use them to drive the registry directly.
//
// Thread-safety: Configure / Clear / Evaluate / the counters may be called
// from any thread; triggers fire atomically (a 2xerror spec fires exactly
// twice across all threads combined).

#ifndef OSD_COMMON_FAILPOINT_H_
#define OSD_COMMON_FAILPOINT_H_

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace osd {

namespace failpoint {

/// The exception thrown by a `throw` trigger; carries the site name so
/// error reports can say which failpoint fired.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(std::string site, const std::string& message)
      : std::runtime_error(message), site_(std::move(site)) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

#if defined(OSD_FAILPOINTS_ENABLED)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// True when failpoint *sites* are compiled into the library. The registry
/// works either way; with sites compiled out, armed triggers simply never
/// get hit by library code.
inline bool Enabled() { return kCompiledIn; }

/// Parses and applies a spec string (see the header comment). All entries
/// are validated before any is applied; on a parse error nothing changes,
/// *error (optional) gets a precise message, and false is returned.
/// Re-configuring a site replaces its trigger and resets its counters;
/// `site=off` disarms one site.
bool Configure(const std::string& spec, std::string* error = nullptr);

/// Applies the spec in $OSD_FAILPOINTS, if set and non-empty.
bool ConfigureFromEnv(std::string* error = nullptr);

/// Disarms every site and resets all counters.
void Clear();

/// Hits observed at `site` while it was configured (armed or dormant).
long HitCount(const std::string& site);

/// Times the trigger at `site` actually fired.
long FireCount(const std::string& site);

/// Names of currently configured sites, sorted.
std::vector<std::string> ArmedSites();

/// Every site name compiled into the library (the Configure whitelist),
/// sorted. Chaos drivers use this to build random multi-site storms
/// without hard-coding the site list.
std::vector<std::string> KnownSiteNames();

/// Reseeds the registry RNG that `@p=` triggers draw from. Defaults to a
/// fixed constant (overridable via $OSD_FAILPOINT_SEED) so probabilistic
/// chaos runs are reproducible by construction.
void SeedRng(unsigned long long seed);

namespace internal {
/// Number of configured sites; lets Evaluate skip the registry lock (one
/// relaxed load) whenever nothing is armed.
extern std::atomic<long> g_configured;
bool Hit(const char* site);
}  // namespace internal

/// Evaluates the trigger at `site`: may throw InjectedFault or sleep;
/// returns true iff an `error` trigger fired. This is what the site macros
/// expand to; tests may also call it directly to drive the registry.
inline bool Evaluate(const char* site) {
  if (internal::g_configured.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return internal::Hit(site);
}

}  // namespace failpoint
}  // namespace osd

// Site macros. OSD_FAILPOINT marks a site that can throw or delay (an
// `error` trigger is a no-op there); OSD_FAILPOINT_ERROR additionally runs
// `stmt` — typically `return Fail(...)` — when an `error` trigger fires.
#if defined(OSD_FAILPOINTS_ENABLED)
#define OSD_FAILPOINT(site)                    \
  do {                                         \
    (void)::osd::failpoint::Evaluate(site);    \
  } while (0)
#define OSD_FAILPOINT_ERROR(site, stmt)        \
  do {                                         \
    if (::osd::failpoint::Evaluate(site)) {    \
      stmt;                                    \
    }                                          \
  } while (0)
#else
#define OSD_FAILPOINT(site) ((void)0)
#define OSD_FAILPOINT_ERROR(site, stmt) ((void)0)
#endif

#endif  // OSD_COMMON_FAILPOINT_H_
