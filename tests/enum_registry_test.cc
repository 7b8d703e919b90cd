#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>

#include "mapreduce/codec.h"
#include "mapreduce/execution_policy.h"
#include "mapreduce/fault_injection.h"
#include "mapreduce/policy_spec.h"
#include "mapreduce/worker_error.h"
#include "util/enum_registry.h"

namespace smr {
namespace {

/// Every registered enum must round-trip value -> name -> value over its
/// full value table, and reject names that are not registered. The loop
/// runs over kValues, so enumerators that do not exist yet are pinned the
/// moment they are registered — this is the "spec parsers become
/// exhaustiveness-checked round-trips" half of the registry contract.
template <typename E>
void ExpectRegistryRoundTrips() {
  static_assert(EnumTraits<E>::kCount > 0);
  static_assert(EnumTraits<E>::kValues.size() == EnumTraits<E>::kCount);
  static_assert(EnumTraits<E>::kNames.size() == EnumTraits<E>::kCount);
  for (const E value : EnumTraits<E>::kValues) {
    const char* name = EnumTraits<E>::Name(value);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown");
    const auto parsed = EnumTraits<E>::FromName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, value) << name;
    EXPECT_TRUE(EnumTraits<E>::IsValue(
        static_cast<std::underlying_type_t<E>>(value)));
  }
  EXPECT_FALSE(EnumTraits<E>::FromName("definitely-not-registered"));
  EXPECT_FALSE(EnumTraits<E>::FromName(""));
}

TEST(EnumRegistry, AllPublicEnumsRoundTrip) {
  ExpectRegistryRoundTrips<WorkerErrorKind>();
  ExpectRegistryRoundTrips<FrameKind>();
  ExpectRegistryRoundTrips<BackendMode>();
  ExpectRegistryRoundTrips<OnExhausted>();
  ExpectRegistryRoundTrips<WorkerRole>();
  ExpectRegistryRoundTrips<FaultKind>();
}

// The registered counts are part of the wire/spec surface: a count change
// means a new public mode or frame kind, which the affected subsystem
// tests must acknowledge. Keep these in sync deliberately.
TEST(EnumRegistry, PinnedCounts) {
  EXPECT_EQ(EnumTraits<WorkerErrorKind>::kCount, 6u);
  EXPECT_EQ(EnumTraits<FrameKind>::kCount, 7u);
  EXPECT_EQ(EnumTraits<BackendMode>::kCount, 2u);
  EXPECT_EQ(EnumTraits<OnExhausted>::kCount, 2u);
  EXPECT_EQ(EnumTraits<WorkerRole>::kCount, 2u);
  EXPECT_EQ(EnumTraits<FaultKind>::kCount, 5u);
}

TEST(EnumRegistry, NameListsReadAsEnglish) {
  EXPECT_EQ(EnumNameList<BackendMode>(), "thread or process");
  EXPECT_EQ(EnumNameList<FaultKind>(),
            "kill, stall, corrupt, spawnfail, or spillfail");
}

TEST(EnumRegistry, UnregisteredValuesNameAsUnknown) {
  EXPECT_STREQ(EnumTraits<BackendMode>::Name(static_cast<BackendMode>(99)),
               "unknown");
  EXPECT_FALSE(EnumTraits<FrameKind>::IsValue(0));
  EXPECT_FALSE(EnumTraits<FrameKind>::IsValue(8));
  EXPECT_TRUE(EnumTraits<FrameKind>::IsValue(1));
  EXPECT_TRUE(EnumTraits<FrameKind>::IsValue(7));
}

/// Every registered spec token must be accepted by the policy-spec parser
/// it names — the parser reads the registry, so this holds by construction,
/// and this test keeps it holding if the parser ever grows a hand-rolled
/// path again.
TEST(EnumRegistry, PolicySpecAcceptsEveryRegisteredName) {
  for (const BackendMode mode : EnumTraits<BackendMode>::kValues) {
    const ExecutionPolicy policy =
        PolicyFromSpecs("1", "partition", "auto", "on", "0",
                        EnumTraits<BackendMode>::Name(mode), "0", "", "fail");
    EXPECT_EQ(policy.backend, mode);
  }
  for (const OnExhausted mode : EnumTraits<OnExhausted>::kValues) {
    const ExecutionPolicy policy =
        PolicyFromSpecs("1", "partition", "auto", "on", "0", "thread", "0",
                        "", EnumTraits<OnExhausted>::Name(mode));
    EXPECT_EQ(policy.on_exhausted, mode);
  }
}

/// Same for the fault-plan grammar: every registered role and kind token
/// parses back to its enumerator. spillfail requires role map, which the
/// role loop's kind ("kill") and the kind loop's role ("map") both satisfy.
TEST(EnumRegistry, FaultPlanAcceptsEveryRegisteredName) {
  for (const WorkerRole role : EnumTraits<WorkerRole>::kValues) {
    const FaultPlan plan = ParseFaultPlan(
        std::string(EnumTraits<WorkerRole>::Name(role)) + ":kill:0");
    ASSERT_EQ(plan.faults.size(), 1u);
    EXPECT_EQ(plan.faults[0].role, role);
  }
  for (const FaultKind kind : EnumTraits<FaultKind>::kValues) {
    const FaultPlan plan = ParseFaultPlan(
        std::string("map:") + EnumTraits<FaultKind>::Name(kind) + ":0");
    ASSERT_EQ(plan.faults.size(), 1u);
    EXPECT_EQ(plan.faults[0].kind, kind);
  }
}

/// Parser error messages list the registry vocabulary, so they track the
/// enum definition instead of drifting from it.
TEST(EnumRegistry, ParserErrorsListRegisteredNames) {
  try {
    PolicyFromSpecs("1", "partition", "auto", "on", "0", "bogus", "0", "",
                    "fail");
    FAIL() << "bogus backend spec must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("thread or process"),
              std::string::npos)
        << e.what();
  }
  try {
    ParseFaultPlan("map:bogus:0");
    FAIL() << "bogus fault kind must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("kill, stall, corrupt, spawnfail, or spillfail"),
              std::string::npos)
        << e.what();
  }
}

TEST(EnumRegistry, WorkerErrorKindNamesMatchRegistry) {
  for (const WorkerErrorKind kind : EnumTraits<WorkerErrorKind>::kValues) {
    EXPECT_STREQ(WorkerErrorKindName(kind),
                 EnumTraits<WorkerErrorKind>::Name(kind));
  }
}

}  // namespace
}  // namespace smr
