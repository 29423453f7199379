#include "common/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <thread>
#include <utility>

namespace osd::failpoint {

namespace {

enum class Action { kThrow, kBadAlloc, kError, kDelay, kAbort };

/// Every OSD_FAILPOINT / OSD_FAILPOINT_ERROR site compiled into the
/// library. Configure rejects any other site name (minus the "test."
/// escape) so a typo'd spec fails loudly instead of silently arming a
/// trigger nothing will ever hit. Keep in sync with the site macros.
constexpr const char* kKnownSites[] = {
    "dominance.check",    "engine.execute",
    "flow.augment",       "io.binary.header",
    "io.binary.object",   "io.checkpoint.write",
    "io.open",            "io.recover.replay",
    "io.text.header",     "io.text.object",   "io.wal.append",
    "io.wal.fsync",       "mem.charge",       "mem.flow.build",
    "mem.nnc.heap",       "mem.profile.matrix",
    "mem.profile.sorted", "net.accept",       "net.read",
    "net.write",          "nnc.node_expand",  "nnc.object_examine",
    "nnc.pop",            "object.local_tree",
};

bool KnownSite(const std::string& site) {
  if (site.rfind("test.", 0) == 0) return true;  // reserved for tests
  for (const char* known : kKnownSites) {
    if (site == known) return true;
  }
  return false;
}

struct Trigger {
  Action action = Action::kThrow;
  std::string message;
  double delay_ms = 0.0;
  long start_hit = 1;        // 1-based hit index of the first firing
  long max_fires = -1;       // -1 = unlimited
  double probability = 1.0;  // per-hit fire probability (from @p=)
  long hits = 0;
  long fires = 0;
};

/// Fixed default seed for the @p= RNG: probabilistic chaos runs replay
/// identically unless the caller chooses otherwise ($OSD_FAILPOINT_SEED or
/// SeedRng).
constexpr unsigned long long kDefaultSeed = 0x05DC'0D5Dull;

struct Registry {
  Registry() {
    unsigned long long seed = kDefaultSeed;
    if (const char* env = std::getenv("OSD_FAILPOINT_SEED");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != nullptr && *end == '\0') seed = v;
    }
    rng.seed(seed);
  }
  std::mutex mu;
  std::map<std::string, Trigger> sites;
  std::mt19937_64 rng;  // draws happen under mu, so replays are exact
};

// Leaked singleton: failpoints may be evaluated during static destruction
// of test fixtures, so the registry must never be destroyed first.
Registry& Reg() {
  static Registry* r = new Registry;
  return *r;
}

bool ParseFail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

bool ValidSiteName(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

bool ParseLong(const std::string& s, long* out) {
  if (s.empty()) return false;
  long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (1L << 60)) return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

/// Parses one trigger expression; `site` only flavours error messages.
bool ParseTrigger(const std::string& site, const std::string& expr,
                  Trigger* t, bool* off, std::string* error) {
  *off = false;
  if (expr == "off") {
    *off = true;
    return true;
  }
  std::string rest = expr;

  // Optional `Nx` fire-count prefix.
  const size_t x = rest.find('x');
  if (x != std::string::npos && x > 0 &&
      rest.find_first_not_of("0123456789") == x) {
    long n = 0;
    if (!ParseLong(rest.substr(0, x), &n) || n < 1) {
      return ParseFail(error, site + ": bad fire count in '" + expr + "'");
    }
    t->max_fires = n;
    rest = rest.substr(x + 1);
  }

  // Optional `@S` start-hit or `@p=P` probability suffix. Only an '@'
  // after the argument's closing ')' is a suffix — `throw(a@b)` carries
  // the '@' in its message.
  size_t at = rest.rfind('@');
  const size_t close = rest.rfind(')');
  if (at != std::string::npos && close != std::string::npos && at < close) {
    at = std::string::npos;
  }
  if (at != std::string::npos) {
    const std::string suffix = rest.substr(at + 1);
    if (suffix.rfind("p=", 0) == 0) {
      const std::string num = suffix.substr(2);
      char* end = nullptr;
      const double p = std::strtod(num.c_str(), &end);
      if (num.empty() || end == nullptr || *end != '\0' ||
          !std::isfinite(p)) {
        return ParseFail(error, site + ": bad probability in '" + expr +
                                    "' (want @p=<number>)");
      }
      if (p <= 0.0 || p > 1.0) {
        return ParseFail(error,
                         site + ": probability " + num +
                             " out of range; @p= needs p in (0, 1]");
      }
      t->probability = p;
    } else {
      long s = 0;
      if (!ParseLong(suffix, &s) || s < 1) {
        return ParseFail(error, site + ": bad start hit in '" + expr + "'");
      }
      t->start_hit = s;
    }
    rest = rest.substr(0, at);
  }

  // Action with optional parenthesized argument.
  std::string action = rest;
  std::string arg;
  bool have_arg = false;
  const size_t open = rest.find('(');
  if (open != std::string::npos) {
    const size_t arg_close = rest.find(')', open + 1);
    if (arg_close == std::string::npos) {
      return ParseFail(error, site + ": missing ')' in '" + expr + "'");
    }
    if (arg_close != rest.size() - 1) {
      return ParseFail(error, site + ": trailing garbage after ')' in '" +
                                  expr + "'");
    }
    action = rest.substr(0, open);
    arg = rest.substr(open + 1, arg_close - open - 1);
    have_arg = true;
  } else if (rest.find(')') != std::string::npos) {
    return ParseFail(error, site + ": ')' without '(' in '" + expr + "'");
  }
  if (action == "throw") {
    t->action = Action::kThrow;
    t->message = arg;
  } else if (action == "throw_bad_alloc") {
    t->action = Action::kBadAlloc;
    if (have_arg) {
      return ParseFail(error, site + ": 'throw_bad_alloc' takes no argument");
    }
  } else if (action == "error") {
    t->action = Action::kError;
    if (have_arg) {
      return ParseFail(error, site + ": 'error' takes no argument");
    }
  } else if (action == "abort") {
    t->action = Action::kAbort;
    if (have_arg) {
      return ParseFail(error, site + ": 'abort' takes no argument");
    }
  } else if (action == "delay") {
    t->action = Action::kDelay;
    char* end = nullptr;
    t->delay_ms = std::strtod(arg.c_str(), &end);
    if (arg.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(t->delay_ms) || t->delay_ms < 0) {
      return ParseFail(error,
                       site + ": 'delay' needs a finite non-negative "
                              "millisecond argument, got '" +
                           arg + "'");
    }
  } else {
    return ParseFail(
        error,
        site + ": unknown action '" + action +
            "' (expected throw|throw_bad_alloc|error|delay|abort|off)");
  }
  return true;
}

}  // namespace

namespace internal {

std::atomic<long> g_configured{0};

bool Hit(const char* site) {
  Action action;
  double delay_ms = 0.0;
  std::string message;
  {
    std::lock_guard<std::mutex> lock(Reg().mu);
    auto it = Reg().sites.find(site);
    if (it == Reg().sites.end()) return false;
    Trigger& t = it->second;
    ++t.hits;
    if (t.hits < t.start_hit) return false;
    if (t.max_fires >= 0 && t.fires >= t.max_fires) return false;
    if (t.probability < 1.0) {
      // Draw under the registry lock: a fixed seed then yields one global
      // deterministic decision sequence, so storms replay exactly when the
      // workload's hit order is deterministic.
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      if (uniform(Reg().rng) >= t.probability) return false;
    }
    ++t.fires;
    action = t.action;
    delay_ms = t.delay_ms;
    message = t.message;
  }
  // Act outside the lock so a sleeping or throwing trigger never blocks
  // other sites (or this site on other threads).
  switch (action) {
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          delay_ms));
      return false;
    case Action::kThrow:
      throw InjectedFault(site,
                          message.empty() ? "injected fault" : message);
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kError:
      return true;
    case Action::kAbort:
      // Simulated crash for kill-injection tests: die without unwinding or
      // flushing, exactly like SIGKILL mid-write (modulo the partial-write
      // torn tails, which the tests synthesize separately).
      std::abort();
  }
  return false;
}

}  // namespace internal

bool Configure(const std::string& spec, std::string* error) {
  // Validate every entry before applying any, so a bad spec is atomic.
  std::vector<std::pair<std::string, Trigger>> parsed;
  std::vector<std::string> disarm;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = Trim(spec.substr(pos, comma - pos));
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return ParseFail(error, "missing '=' in '" + entry + "'");
    }
    const std::string site = Trim(entry.substr(0, eq));
    const std::string expr = Trim(entry.substr(eq + 1));
    if (!ValidSiteName(site)) {
      return ParseFail(error, "bad site name '" + site + "'");
    }
    if (!KnownSite(site)) {
      return ParseFail(error, "unknown site '" + site +
                                  "' (not compiled into the library; use "
                                  "the 'test.' prefix for registry-only "
                                  "sites)");
    }
    for (const auto& [seen_site, seen_trigger] : parsed) {
      if (seen_site == site) {
        return ParseFail(error, "duplicate entry for site '" + site + "'");
      }
    }
    for (const std::string& seen_site : disarm) {
      if (seen_site == site) {
        return ParseFail(error, "duplicate entry for site '" + site + "'");
      }
    }
    Trigger t;
    bool off = false;
    if (!ParseTrigger(site, expr, &t, &off, error)) return false;
    if (off) {
      disarm.push_back(site);
    } else {
      parsed.emplace_back(site, t);
    }
  }

  std::lock_guard<std::mutex> lock(Reg().mu);
  for (const std::string& site : disarm) Reg().sites.erase(site);
  for (auto& [site, trigger] : parsed) Reg().sites[site] = trigger;
  internal::g_configured.store(static_cast<long>(Reg().sites.size()),
                               std::memory_order_relaxed);
  return true;
}

bool ConfigureFromEnv(std::string* error) {
  const char* spec = std::getenv("OSD_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return true;
  return Configure(spec, error);
}

void Clear() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  Reg().sites.clear();
  internal::g_configured.store(0, std::memory_order_relaxed);
}

long HitCount(const std::string& site) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  auto it = Reg().sites.find(site);
  return it == Reg().sites.end() ? 0 : it->second.hits;
}

long FireCount(const std::string& site) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  auto it = Reg().sites.find(site);
  return it == Reg().sites.end() ? 0 : it->second.fires;
}

std::vector<std::string> ArmedSites() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  std::vector<std::string> out;
  out.reserve(Reg().sites.size());
  for (const auto& [site, trigger] : Reg().sites) out.push_back(site);
  return out;
}

std::vector<std::string> KnownSiteNames() {
  std::vector<std::string> out(std::begin(kKnownSites),
                               std::end(kKnownSites));
  std::sort(out.begin(), out.end());
  return out;
}

void SeedRng(unsigned long long seed) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  Reg().rng.seed(seed);
}

}  // namespace osd::failpoint
