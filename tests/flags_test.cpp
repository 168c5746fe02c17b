#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"

namespace fedcl {
namespace {

FlagParser parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(Flags, EqualsForm) {
  FlagParser f = parse({"--name=value", "--count=7"});
  EXPECT_TRUE(f.has("name"));
  EXPECT_EQ(f.get("name"), "value");
  EXPECT_EQ(f.get_int("count", 0), 7);
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, SpaceForm) {
  FlagParser f = parse({"--rate", "0.25", "--label", "abc"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.25);
  EXPECT_EQ(f.get("label"), "abc");
}

TEST(Flags, BareBoolean) {
  FlagParser f = parse({"--verbose", "--attack"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.get_bool("attack", false));
  EXPECT_FALSE(f.get_bool("missing", false));
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, BooleanValues) {
  FlagParser f = parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  FlagParser bad = parse({"--e=maybe"});
  EXPECT_THROW(bad.get_bool("e", false), Error);
}

TEST(Flags, UnknownAreTheFlagsUsageDoesNotList) {
  const char* usage =
      "usage: %s [--sigma=S] [--no-retry]\n"
      "  --port=0 picks an ephemeral port.\n";
  EXPECT_TRUE(parse({"--sigma=0.5", "--no-retry", "--port", "0", "--help"})
                  .unknown(usage)
                  .empty());
  // A misspelling, a prefix of a listed flag, and a flag the usage
  // does not list at all are unknown, in name order.
  EXPECT_EQ(parse({"--sigm=0.5", "--weight-by-size", "--no", "--sigma=1"})
                .unknown(usage),
            (std::vector<std::string>{"--no", "--sigm", "--weight-by-size"}));
}

TEST(Flags, StrayArgumentsAreKeptInOrder) {
  // "2" is --rounds' value; "5", "x" and a bare "--" are neither a
  // flag nor a flag's value.
  FlagParser f = parse({"--rounds", "2", "5", "--sigma=1", "x", "--"});
  EXPECT_EQ(f.get_int("rounds", 0), 2);
  EXPECT_EQ(f.stray(), (std::vector<std::string>{"5", "x", "--"}));
  EXPECT_TRUE(f.refuse_unlisted("usage: %s [--rounds=T] [--sigma=S]", "prog"));
  FlagParser clean = parse({"--rounds", "2", "--sigma=1"});
  EXPECT_TRUE(clean.stray().empty());
  EXPECT_FALSE(
      clean.refuse_unlisted("usage: %s [--rounds=T] [--sigma=S]", "prog"));
}

TEST(Flags, Fallbacks) {
  FlagParser f = parse({});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
}

TEST(Flags, TypeErrors) {
  FlagParser f = parse({"--n=abc", "--x=1.5.3"});
  EXPECT_THROW(f.get_int("n", 0), Error);
  EXPECT_THROW(f.get_double("x", 0.0), Error);
}

TEST(Flags, NegativeNumberAsValue) {
  FlagParser f = parse({"--offset", "-5"});
  // "-5" does not start with --, so it binds as the value.
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace fedcl
