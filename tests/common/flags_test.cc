#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace actop {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) {
    argv.push_back(s.data());
  }
  return argv;
}

TEST(FlagsTest, Defaults) {
  Flags flags;
  flags.DefineInt("count", 7, "");
  flags.DefineDouble("rate", 1.5, "");
  flags.DefineBool("verbose", false, "");
  flags.DefineString("name", "abc", "");
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 1.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("name"), "abc");
}

TEST(FlagsTest, EqualsSyntax) {
  Flags flags;
  flags.DefineInt("count", 0, "");
  flags.DefineDouble("rate", 0.0, "");
  std::vector<std::string> args = {"prog", "--count=42", "--rate=2.25"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 2.25);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags flags;
  flags.DefineInt("count", 0, "");
  std::vector<std::string> args = {"prog", "--count", "13"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("count"), 13);
}

TEST(FlagsTest, BoolForms) {
  Flags flags;
  flags.DefineBool("a", false, "");
  flags.DefineBool("b", true, "");
  flags.DefineBool("c", false, "");
  flags.DefineBool("d", true, "");
  flags.DefineBool("e", false, "");
  flags.DefineBool("f", true, "");
  std::vector<std::string> args = {"prog",    "--a",   "--no-b", "--c=true",
                                   "--d=false", "--e=1", "--f=0"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d"));
  EXPECT_TRUE(flags.GetBool("e"));
  EXPECT_FALSE(flags.GetBool("f"));
}

TEST(FlagsTest, NegativeNumbers) {
  Flags flags;
  flags.DefineInt("delta", 0, "");
  std::vector<std::string> args = {"prog", "--delta=-5"};
  auto argv = MakeArgv(args);
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("delta"), -5);
}

TEST(FlagsDeathTest, UnknownFlagExits) {
  Flags flags;
  flags.DefineInt("count", 0, "");
  std::vector<std::string> args = {"prog", "--nope=1"};
  auto argv = MakeArgv(args);
  EXPECT_EXIT(flags.Parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsDeathTest, BadValueExits) {
  // Unparsable numbers, out-of-range numbers (ERANGE), boolean values other
  // than true/false/1/0 and any value on the negated form all exit through
  // the usage path.
  for (const char* arg : {"--count=abc", "--count=99999999999999999999", "--rate=1e999",
                          "--check=yes", "--check=on", "--check=", "--check=TRUE",
                          "--no-check=true", "--no-check=false"}) {
    Flags flags;
    flags.DefineInt("count", 0, "");
    flags.DefineDouble("rate", 0.0, "");
    flags.DefineBool("check", false, "");
    std::vector<std::string> args = {"prog", arg};
    auto argv = MakeArgv(args);
    EXPECT_EXIT(flags.Parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "bad value")
        << arg;
  }
}

}  // namespace
}  // namespace actop
