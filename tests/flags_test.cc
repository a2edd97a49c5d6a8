#include "common/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dear {
namespace {

FlagParser MakeParser() {
  FlagParser p;
  p.AddString("name", "default", "a string");
  p.AddInt("count", 7, "an int");
  p.AddDouble("rate", 1.5, "a double");
  p.AddBool("verbose", false, "a bool");
  return p;
}

Status ParseArgs(FlagParser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return p.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {}).ok());
  EXPECT_EQ(p.GetString("name"), "default");
  EXPECT_EQ(p.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("rate"), 1.5);
  EXPECT_FALSE(p.GetBool("verbose"));
}

TEST(FlagsTest, EqualsForm) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(
      ParseArgs(p, {"--name=hello", "--count=42", "--rate=0.25"}).ok());
  EXPECT_EQ(p.GetString("name"), "hello");
  EXPECT_EQ(p.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("rate"), 0.25);
}

TEST(FlagsTest, SpaceForm) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--name", "world", "--count", "-3"}).ok());
  EXPECT_EQ(p.GetString("name"), "world");
  EXPECT_EQ(p.GetInt("count"), -3);
}

TEST(FlagsTest, BareBooleanFlag) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--verbose"}).ok());
  EXPECT_TRUE(p.GetBool("verbose"));
}

TEST(FlagsTest, BooleanWithExplicitValue) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--verbose", "false"}).ok());
  EXPECT_FALSE(p.GetBool("verbose"));
  FlagParser q = MakeParser();
  ASSERT_TRUE(ParseArgs(q, {"--verbose=true"}).ok());
  EXPECT_TRUE(q.GetBool("verbose"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"first", "--count=1", "second"}).ok());
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(FlagsTest, DoubleDashEndsFlagParsing) {
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--", "--count=9"}).ok());
  EXPECT_EQ(p.GetInt("count"), 7);  // untouched
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"--count=9"}));
}

TEST(FlagsTest, UnknownFlagRejected) {
  FlagParser p = MakeParser();
  const Status st = ParseArgs(p, {"--nope=1"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--nope"), std::string::npos);
}

TEST(FlagsTest, MalformedValuesRejected) {
  FlagParser p = MakeParser();
  EXPECT_FALSE(ParseArgs(p, {"--count=abc"}).ok());
  FlagParser q = MakeParser();
  EXPECT_FALSE(ParseArgs(q, {"--rate=1.2.3"}).ok());
  FlagParser r = MakeParser();
  EXPECT_FALSE(ParseArgs(r, {"--verbose=maybe"}).ok());
}

TEST(FlagsTest, OutOfRangeIntegerRejected) {
  for (const char* value :
       {"2147483648", "-2147483649", "99999999999999999999"}) {
    FlagParser p = MakeParser();
    const Status st = ParseArgs(p, {"--count", value});
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("out of range"), std::string::npos) << value;
    EXPECT_EQ(p.GetInt("count"), 7) << value;
  }
  FlagParser p = MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--count=-2147483648"}).ok());
  EXPECT_EQ(p.GetInt("count"), -2147483648LL);
}

TEST(FlagsTest, NonFiniteNumberRejected) {
  for (const char* value : {"nan", "inf", "-inf", "1e999"}) {
    FlagParser p = MakeParser();
    const Status st = ParseArgs(p, {"--rate", value});
    ASSERT_FALSE(st.ok()) << value;
    EXPECT_NE(st.message().find("finite"), std::string::npos) << value;
    EXPECT_DOUBLE_EQ(p.GetDouble("rate"), 1.5) << value;
  }
}

TEST(FlagsTest, MissingValueRejected) {
  FlagParser p = MakeParser();
  EXPECT_FALSE(ParseArgs(p, {"--count"}).ok());
}

TEST(FlagsTest, UsageListsFlags) {
  const FlagParser p = MakeParser();
  const std::string usage = p.Usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("default 7"), std::string::npos);
  EXPECT_NE(usage.find("a double"), std::string::npos);
}

/// A seeded argv over the registered flags (and an unknown and an empty
/// name): `--x=v`, `--x v`, bare `--x`, `--x=`, bare `--`, an argument cut
/// short, values that are huge, tiny, non-numeric or not booleans, and now
/// and then the previous argument repeated.
std::vector<std::string> MutatedArgs(std::uint64_t seed) {
  static const char* const kNames[] = {"name", "count", "rate", "verbose",
                                       "nope", ""};
  static const char* const kValues[] = {
      "",      "7",    "-3",    "0.25",  "1e300", "1e999", "-1e-400",
      "99999999999999999999", "-2147483649", "2147483647",
      "abc",   "1.2.3", "true", "false", "maybe", "--",
      "=",     "nan",  "inf",   " 5",    "0x1f"};
  Rng rng(seed);
  std::vector<std::string> args;
  for (auto k = rng.NextBounded(7); k > 0; --k) {
    const std::string flag =
        std::string("--") + kNames[rng.NextBounded(std::size(kNames))];
    const std::string value = kValues[rng.NextBounded(std::size(kValues))];
    switch (rng.NextBounded(6)) {
      case 0:
        args.push_back(flag + "=" + value);
        break;
      case 1:
        args.push_back(flag);
        args.push_back(value);
        break;
      case 2:
        args.push_back(flag);
        break;
      case 3:
        args.push_back(flag + "=");
        break;
      case 4:
        args.push_back("--");
        break;
      default: {
        std::string cut = flag + "=" + value;
        cut.resize(rng.NextBounded(cut.size() + 1));
        args.push_back(cut);
      }
    }
    if (rng.NextBounded(4) == 0) args.push_back(args.back());
  }
  return args;
}

// Every mutated argv parses to ok or to an InvalidArgument Status, never an
// abort (flags_test runs under ASan + UBSan), and an accepted argv leaves
// every flag readable: the int flag holds the integer its text spells and
// the double flag a finite number.
TEST(FlagsFuzzTest, MutatedArgvYieldsOkOrStatus) {
  constexpr std::uint64_t kSeeds = 2000;
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // A crash (a sanitizer abort) leaves its seed as the last one printed.
    std::fprintf(stderr, "\rflags fuzz seed %llu",
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> args = MutatedArgs(seed);
    std::vector<const char*> argv = {"prog"};
    for (const auto& a : args) argv.push_back(a.c_str());
    FlagParser p = MakeParser();
    const Status st = p.Parse(static_cast<int>(argv.size()), argv.data());
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(st.message().empty());
      continue;
    }
    ++accepted;
    const std::string& count = p.GetString("count");
    EXPECT_EQ(p.GetInt("count"), std::strtoll(count.c_str(), nullptr, 10))
        << count;
    (void)p.GetString("name");
    EXPECT_TRUE(std::isfinite(p.GetDouble("rate"))) << p.GetString("rate");
    const std::string& verbose = p.GetString("verbose");
    EXPECT_TRUE(verbose == "true" || verbose == "false") << verbose;
  }
  std::fprintf(stderr, "\n");
  // Both outcomes occur.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, static_cast<int>(kSeeds));
}

}  // namespace
}  // namespace dear
