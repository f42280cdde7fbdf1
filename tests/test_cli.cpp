#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hdem {
namespace {

// Helper building argv from a list of strings.
struct Args {
  explicit Args(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(prog.data());
    for (auto& a : storage) ptrs.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::string prog = "test";
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(Cli, DefaultsWhenAbsent) {
  Args a({});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 42, ""), 42);
  EXPECT_DOUBLE_EQ(cli.real("x", 1.5, ""), 1.5);
  EXPECT_EQ(cli.str("mode", "serial", ""), "serial");
  EXPECT_FALSE(cli.flag("full", ""));
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, EqualsSyntax) {
  Args a({"--n=7", "--x=2.25", "--mode=mp"});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 0, ""), 7);
  EXPECT_DOUBLE_EQ(cli.real("x", 0.0, ""), 2.25);
  EXPECT_EQ(cli.str("mode", "", ""), "mp");
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, SpaceSyntax) {
  Args a({"--n", "9", "--mode", "hybrid"});
  Cli cli(a.argc(), a.argv());
  EXPECT_EQ(cli.integer("n", 0, ""), 9);
  EXPECT_EQ(cli.str("mode", "", ""), "hybrid");
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, BooleanFlag) {
  Args a({"--full"});
  Cli cli(a.argc(), a.argv());
  EXPECT_TRUE(cli.flag("full", ""));
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, IntegerList) {
  Args a({"--procs=1,2,4,8"});
  Cli cli(a.argc(), a.argv());
  const auto v = cli.integer_list("procs", {}, "");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, IntegerListDefault) {
  Args a({});
  Cli cli(a.argc(), a.argv());
  const auto v = cli.integer_list("procs", {3, 5}, "");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 5);
}

TEST(Cli, UnknownOptionFails) {
  Args a({"--bogus=1"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, BadIntegerFails) {
  Args a({"--n=abc"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "");
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, HelpStopsExecution) {
  Args a({"--help"});
  Cli cli(a.argc(), a.argv());
  cli.integer("n", 0, "count");
  EXPECT_TRUE(cli.finish());
}

// Programs return exit_code() when finish() stops them: --help succeeds,
// and an error fails, so a script with a mistyped or removed flag cannot
// pass without running.
TEST(Cli, HelpExitsZeroErrorsExitTwo) {
  const auto stop = [](std::vector<std::string> args) {
    Args a(std::move(args));
    Cli cli(a.argc(), a.argv());
    cli.integer("n", 0, "count");
    EXPECT_TRUE(cli.finish());
    return cli.exit_code();
  };
  EXPECT_EQ(stop({"--help"}), 0);
  EXPECT_EQ(stop({"--no-such-flag"}), 2);
  EXPECT_EQ(stop({"--n=abc"}), 2);
  EXPECT_EQ(stop({"stray"}), 2);
}

TEST(Cli, NegativeNumbersAsValues) {
  Args a({"--x=-2.5", "--n=-3"});
  Cli cli(a.argc(), a.argv());
  EXPECT_DOUBLE_EQ(cli.real("x", 0.0, ""), -2.5);
  EXPECT_EQ(cli.integer("n", 0, ""), -3);
  EXPECT_FALSE(cli.finish());
}

}  // namespace
}  // namespace hdem
