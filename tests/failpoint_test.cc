// Trigger-registry semantics for the fault-injection layer. The registry
// is compiled into every build, so most of these tests drive it directly
// through Evaluate() and run with failpoints ON or OFF; the wired-site
// tests at the bottom branch on Enabled() to assert injection in ON builds
// and inertness in OFF builds.

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "io/dataset_io.h"

namespace osd {
namespace failpoint {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Clear(); }
  void TearDown() override { Clear(); }
};

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "noequals",               // entry without '='
      "test.site=",             // empty trigger
      "test.site=explode",      // unknown action
      "test.site=xerror",       // missing count before 'x'
      "test.site=0xerror",      // zero max-fires
      "test.site=error@0",      // 1-based start hit
      "test.site=error@abc",    // non-numeric start hit
      "test.site=delay",        // delay needs an argument
      "test.site=delay(-5)",    // negative delay
      "test.site=delay(abc)",   // non-numeric delay
      "test.site=delay(inf)",   // non-finite delay
      "test.site=delay(nan)",   // non-finite delay
      "test.site=error(5)",     // error takes no argument
      "test.site=throw(",       // unterminated argument
      "test.site=throw(x)y",    // trailing garbage after ')'
      "test.site=throw)",       // ')' without '('
      "test.site=throw_bad_alloc(msg)",  // throw_bad_alloc takes no argument
      "test.site=abort(5)",     // abort takes no argument
      "bad site=error",         // invalid character in site name
      "=error",                 // empty site name
      "test.site=error@p=",     // empty probability
      "test.site=error@p=abc",  // non-numeric probability
      "test.site=error@p=0",    // p must be in (0, 1]
      "test.site=error@p=-0.5",
      "test.site=error@p=1.5",
      "test.site=error@p=inf",  // non-finite probability
      "test.site=error@p=nan",
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    std::string error;
    EXPECT_FALSE(Configure(spec, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(ArmedSites().empty())
        << "a rejected spec must not arm anything";
  }
}

TEST_F(FailpointTest, AbortActionParsesAndFires) {
  // `abort` is the simulated-crash action of the durability kill matrix:
  // it must parse (with triggers), and firing must die by SIGABRT — no
  // unwinding, no flushes, exactly like a kill mid-write.
  std::string error;
  ASSERT_TRUE(Configure("test.s=abort@2", &error)) << error;
  EXPECT_FALSE(Evaluate("test.s"));  // count trigger: first hit passes
  EXPECT_EXIT(Evaluate("test.s"), ::testing::KilledBySignal(SIGABRT), "");
}

TEST_F(FailpointTest, RejectionIsAtomic) {
  // One bad entry poisons the whole spec: the valid first entry must not
  // be applied either.
  std::string error;
  ASSERT_FALSE(Configure("test.good=error,bad site=error", &error));
  EXPECT_TRUE(ArmedSites().empty());
  EXPECT_FALSE(Evaluate("test.good"));
}

TEST_F(FailpointTest, RejectsUnknownSites) {
  // Sites must name a compiled-in OSD_FAILPOINT (or use the reserved
  // 'test.' prefix); a typo in a site name is an error, not a silent no-op.
  std::string error;
  EXPECT_FALSE(Configure("nnc.ppo=error", &error));
  EXPECT_NE(error.find("unknown site 'nnc.ppo'"), std::string::npos)
      << "error was: " << error;
  EXPECT_TRUE(ArmedSites().empty());
  // Real wired sites and the test escape hatch both pass validation.
  EXPECT_TRUE(Configure("nnc.pop=error,test.anything=error", &error)) << error;
}

TEST_F(FailpointTest, RejectsDuplicateSites) {
  std::string error;
  EXPECT_FALSE(Configure("test.s=error,test.s=throw", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos)
      << "error was: " << error;
  EXPECT_TRUE(ArmedSites().empty());
  // Duplicates across arm/disarm entries are rejected too — the spec
  // would otherwise be order-dependent.
  EXPECT_FALSE(Configure("test.s=error,test.s=off", &error));
  EXPECT_TRUE(ArmedSites().empty());
}

TEST_F(FailpointTest, ThrowArgumentMayContainTriggerSyntax) {
  // '@' and 'x' inside a parenthesized message are argument text, not
  // trigger modifiers.
  ASSERT_TRUE(Configure("test.s=throw(a@b)"));
  try {
    Evaluate("test.s");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_STREQ(e.what(), "a@b");
  }
  // ...but an '@' after the ')' is still a start-hit modifier.
  ASSERT_TRUE(Configure("test.s=throw(msg)@2"));
  EXPECT_FALSE(Evaluate("test.s"));
  EXPECT_THROW(Evaluate("test.s"), InjectedFault);
}

TEST_F(FailpointTest, BadAllocTriggerThrowsStdBadAlloc) {
  ASSERT_TRUE(Configure("test.s=throw_bad_alloc"));
  EXPECT_THROW(Evaluate("test.s"), std::bad_alloc);
  EXPECT_EQ(FireCount("test.s"), 1);
  // Composes with count/start-hit modifiers like every other action.
  ASSERT_TRUE(Configure("test.s=1xthrow_bad_alloc@2"));
  EXPECT_FALSE(Evaluate("test.s"));
  EXPECT_THROW(Evaluate("test.s"), std::bad_alloc);
  EXPECT_FALSE(Evaluate("test.s"));  // exhausted
}

TEST_F(FailpointTest, ErrorTriggerFiresEveryHit) {
  ASSERT_TRUE(Configure("test.s=error"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_EQ(HitCount("test.s"), 2);
  EXPECT_EQ(FireCount("test.s"), 2);
  EXPECT_FALSE(Evaluate("test.other"));  // unarmed sites never fire
  EXPECT_EQ(HitCount("test.other"), 0);
}

TEST_F(FailpointTest, MaxFiresAndStartHitCompose) {
  // 2xerror@2: dormant on hit 1, fires on hits 2 and 3, exhausted after.
  ASSERT_TRUE(Configure("test.s=2xerror@2"));
  EXPECT_FALSE(Evaluate("test.s"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_FALSE(Evaluate("test.s"));
  EXPECT_FALSE(Evaluate("test.s"));
  EXPECT_EQ(HitCount("test.s"), 5);
  EXPECT_EQ(FireCount("test.s"), 2);
}

TEST_F(FailpointTest, ThrowTriggerThrowsInjectedFaultWithSite) {
  ASSERT_TRUE(Configure("test.s=throw(boom)"));
  try {
    Evaluate("test.s");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_EQ(e.site(), "test.s");
  }
  // Code that knows only std::runtime_error still catches injected faults.
  ASSERT_TRUE(Configure("test.s=throw"));
  EXPECT_THROW(Evaluate("test.s"), std::runtime_error);
}

TEST_F(FailpointTest, ThrowTriggerDefaultMessage) {
  ASSERT_TRUE(Configure("test.s=throw"));
  try {
    Evaluate("test.s");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_STREQ(e.what(), "injected fault");
  }
}

TEST_F(FailpointTest, DelayTriggerSleeps) {
  ASSERT_TRUE(Configure("test.s=delay(20)"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(Evaluate("test.s"));  // delay is not an error trigger
  const double elapsed_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() *
      1e3;
  EXPECT_GE(elapsed_ms, 15.0);
}

TEST_F(FailpointTest, OffDisarmsOneSiteAndClearDisarmsAll) {
  ASSERT_TRUE(Configure("test.a=error,test.b=error"));
  EXPECT_EQ(ArmedSites(), (std::vector<std::string>{"test.a", "test.b"}));
  ASSERT_TRUE(Configure("test.a=off"));
  EXPECT_EQ(ArmedSites(), (std::vector<std::string>{"test.b"}));
  EXPECT_FALSE(Evaluate("test.a"));
  EXPECT_TRUE(Evaluate("test.b"));
  Clear();
  EXPECT_TRUE(ArmedSites().empty());
  EXPECT_FALSE(Evaluate("test.b"));
  EXPECT_EQ(HitCount("test.b"), 0) << "Clear must reset counters";
}

TEST_F(FailpointTest, ReconfigureResetsCounters) {
  ASSERT_TRUE(Configure("test.s=1xerror"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_FALSE(Evaluate("test.s"));  // exhausted
  ASSERT_TRUE(Configure("test.s=1xerror"));
  EXPECT_TRUE(Evaluate("test.s")) << "re-arming must reset hit/fire counts";
}

TEST_F(FailpointTest, ProbabilityErrorsArePrecise) {
  std::string error;
  ASSERT_FALSE(Configure("test.s=error@p=zzz", &error));
  EXPECT_NE(error.find("bad probability"), std::string::npos)
      << "error was: " << error;
  ASSERT_FALSE(Configure("test.s=error@p=1.5", &error));
  EXPECT_NE(error.find("out of range"), std::string::npos)
      << "error was: " << error;
  EXPECT_NE(error.find("(0, 1]"), std::string::npos)
      << "error was: " << error;
}

TEST_F(FailpointTest, ProbabilityOneFiresEveryHit) {
  // p=1 is a valid edge: behaves exactly like an unconditional trigger.
  ASSERT_TRUE(Configure("test.s=error@p=1"));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_EQ(FireCount("test.s"), 8);
}

TEST_F(FailpointTest, ProbabilisticTriggerIsSeededAndReplayable) {
  // Two runs under the same seed see the same coin flips in the same
  // order; a different seed (very likely) differs. p=0.5 over 64 hits
  // makes an all-fire or no-fire pattern astronomically unlikely.
  constexpr int kHits = 64;
  auto pattern = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < kHits; ++i) fired.push_back(Evaluate("test.s"));
    return fired;
  };
  SeedRng(12345);
  ASSERT_TRUE(Configure("test.s=error@p=0.5"));
  const std::vector<bool> first = pattern();
  SeedRng(12345);
  ASSERT_TRUE(Configure("test.s=error@p=0.5"));
  EXPECT_EQ(pattern(), first);

  int fires = 0;
  for (const bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, kHits);
  // Every hit is counted whether or not the coin fired.
  EXPECT_EQ(HitCount("test.s"), kHits);
  EXPECT_EQ(FireCount("test.s"), fires);
}

TEST_F(FailpointTest, ProbabilityComposesWithMaxFires) {
  // 2xerror@p=1: probabilistic gate passes every hit, the fire budget
  // still caps at two.
  ASSERT_TRUE(Configure("test.s=2xerror@p=1"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_TRUE(Evaluate("test.s"));
  EXPECT_FALSE(Evaluate("test.s"));
  // ...and @p= is mutually exclusive with the @N start-hit form.
  std::string error;
  EXPECT_FALSE(Configure("test.s=error@2@p=0.5", &error));
}

TEST_F(FailpointTest, KnownSiteNamesFeedStormBuilders) {
  // The whitelist is the contract chaos storms build specs from: sorted,
  // non-empty, and every name round-trips through Configure.
  const std::vector<std::string> sites = KnownSiteNames();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  std::string spec;
  for (const std::string& site : sites) {
    if (!spec.empty()) spec += ',';
    spec += site + "=error@p=0.01";
  }
  std::string error;
  EXPECT_TRUE(Configure(spec, &error)) << error;
  EXPECT_EQ(ArmedSites().size(), sites.size());
}

TEST_F(FailpointTest, ConfigureFromEnvReadsOsdFailpoints) {
  ASSERT_EQ(setenv("OSD_FAILPOINTS", "test.env=error", 1), 0);
  EXPECT_TRUE(ConfigureFromEnv());
  EXPECT_EQ(ArmedSites(), (std::vector<std::string>{"test.env"}));
  EXPECT_TRUE(Evaluate("test.env"));

  ASSERT_EQ(unsetenv("OSD_FAILPOINTS"), 0);
  Clear();
  EXPECT_TRUE(ConfigureFromEnv()) << "unset env var is a no-op, not an error";
  EXPECT_TRUE(ArmedSites().empty());
}

// --- Wired sites ---------------------------------------------------------

std::string WriteValidDataset() {
  const std::string path =
      std::string(::testing::TempDir()) + "/failpoint_ds.txt";
  std::ofstream out(path);
  out << "osd-dataset 1 2 1\n0 2\n0 0 0.5\n1 1 0.5\n";
  return path;
}

TEST_F(FailpointTest, ArmedIoSiteInjectsOnlyWhenCompiledIn) {
  ASSERT_TRUE(Configure("io.open=error"));
  std::vector<UncertainObject> loaded;
  std::string error;
  const bool ok = LoadText(WriteValidDataset(), &loaded, &error);
  if (Enabled()) {
    ASSERT_FALSE(ok);
    EXPECT_NE(error.find("failpoint io.open"), std::string::npos)
        << "error was: " << error;
    EXPECT_GE(FireCount("io.open"), 1);
  } else {
    // OFF build: the armed trigger must be completely inert — the load
    // succeeds and library code never even hits the site.
    ASSERT_TRUE(ok) << error;
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(HitCount("io.open"), 0);
  }
}

TEST_F(FailpointTest, NthHitErrorTargetsOneObject) {
  if (!Enabled()) GTEST_SKIP() << "failpoint sites not compiled in";
  // Two objects; fail the binary read of the second one only.
  std::vector<UncertainObject> objects;
  std::string error;
  ASSERT_TRUE(LoadText(WriteValidDataset(), &objects, &error)) << error;
  objects.push_back(UncertainObject(1, 2, {5, 5, 6, 6}, {0.5, 0.5}));
  const std::string bin =
      std::string(::testing::TempDir()) + "/failpoint_ds.bin";
  ASSERT_TRUE(SaveBinary(objects, bin, &error)) << error;

  ASSERT_TRUE(Configure("io.binary.object=error@2"));
  std::vector<UncertainObject> loaded;
  ASSERT_FALSE(LoadBinary(bin, &loaded, &error));
  EXPECT_NE(error.find("at object 1"), std::string::npos)
      << "error was: " << error;
  EXPECT_NE(error.find("failpoint io.binary.object"), std::string::npos);

  Clear();
  ASSERT_TRUE(LoadBinary(bin, &loaded, &error)) << error;
  EXPECT_EQ(loaded.size(), 2u);
}

}  // namespace
}  // namespace failpoint
}  // namespace osd
