// The shared argv parser: both spellings, last-wins, the leftover check,
// and numbers that do not parse staying behind for it to report.

#include "support/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/export.h"

namespace onoff::flags {
namespace {

// An owned, mutable argv with the trailing nullptr main() gets.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args)
      : argc(static_cast<int>(args.size())),
        storage_(args.begin(), args.end()) {
    for (std::string& arg : storage_) ptrs_.push_back(arg.data());
    ptrs_.push_back(nullptr);
  }
  // ptrs_ points into storage_.
  Argv(const Argv&) = delete;
  Argv& operator=(const Argv&) = delete;

  char** argv() { return ptrs_.data(); }
  std::vector<std::string> Left() const {
    return std::vector<std::string>(ptrs_.begin(), ptrs_.begin() + argc);
  }

  int argc = 0;

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

using Args = std::vector<std::string>;

TEST(FlagsTest, BothSpellingsAreTaken) {
  Argv a{"prog", "--blocks", "4", "--senders=8", "--out", "x.json",
         "--name=alice", "rest"};
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "blocks", 20), 4u);
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "senders", 16), 8u);
  std::string out;
  std::string name;
  EXPECT_EQ(StringFlagFromArgs(&a.argc, a.argv(), "out", &out), 1);
  EXPECT_EQ(StringFlagFromArgs(&a.argc, a.argv(), "name", &name), 1);
  EXPECT_EQ(out, "x.json");
  EXPECT_EQ(name, "alice");
  EXPECT_EQ(a.Left(), (Args{"prog", "rest"}));
  EXPECT_EQ(a.argv()[a.argc], nullptr);
}

TEST(FlagsTest, AbsentFlagKeepsDefault) {
  Argv a{"prog", "--other", "1"};
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "blocks", 20), 20u);
  EXPECT_DOUBLE_EQ(DoubleFlagFromArgs(&a.argc, a.argv(), "loss", 0.5), 0.5);
  EXPECT_FALSE(SwitchFromArgs(&a.argc, a.argv(), "check"));
  EXPECT_EQ(a.Left(), (Args{"prog", "--other", "1"}));
}

TEST(FlagsTest, RepeatedFlagLastWins) {
  Argv a{"prog", "--trials", "3", "--trials=5", "--loss", "0.1",
         "--loss=0.25", "--check", "--check"};
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "trials", 12), 5u);
  EXPECT_DOUBLE_EQ(DoubleFlagFromArgs(&a.argc, a.argv(), "loss", 0), 0.25);
  EXPECT_TRUE(SwitchFromArgs(&a.argc, a.argv(), "check"));
  EXPECT_EQ(a.argc, 1);
}

TEST(FlagsTest, DuplicateJsonIsAnError) {
  Argv twice{"prog", "--json", "a.json", "--metrics-json=b.json"};
  Result<std::string> path =
      obs::JsonPathFromArgs(&twice.argc, twice.argv(), "default.json");
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kInvalidArgument);

  Argv once{"prog", "--json=a.json", "--blocks", "4"};
  path = obs::JsonPathFromArgs(&once.argc, once.argv(), "default.json");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "a.json");
  EXPECT_EQ(once.Left(), (Args{"prog", "--blocks", "4"}));

  Argv skip{"prog", "--metrics-json", "-"};
  path = obs::JsonPathFromArgs(&skip.argc, skip.argv(), "default.json");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "");
}

TEST(FlagsTest, LeftoverArgumentsAreReported) {
  Argv a{"prog", "--blocks", "4", "--no-such-flag", "extra"};
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "blocks", 20), 4u);
  Status st = LeftoverArgs(a.argc, a.argv());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "argument not understood: --no-such-flag extra");

  // Operands are allowed up to a count; a flag never is.
  Argv ops{"cmd", "alice", "bob"};
  EXPECT_TRUE(LeftoverArgs(ops.argc, ops.argv(), 2).ok());
  EXPECT_EQ(LeftoverArgs(ops.argc, ops.argv(), 1).message(),
            "argument not understood: bob");
  Argv flag{"cmd", "--alice"};
  EXPECT_FALSE(LeftoverArgs(flag.argc, flag.argv(), 3).ok());

  Argv clean{"prog"};
  EXPECT_TRUE(LeftoverArgs(clean.argc, clean.argv()).ok());
}

TEST(FlagsTest, UnparsableNumbersStayForTheLeftoverCheck) {
  Argv a{"prog", "--blocks", "4x", "--senders=-1", "--loss", "0.1p",
         "--trials", "99999999999999999999", "--reps="};
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "blocks", 20), 20u);
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "senders", 16), 16u);
  EXPECT_DOUBLE_EQ(DoubleFlagFromArgs(&a.argc, a.argv(), "loss", 0), 0);
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "trials", 12), 12u);
  EXPECT_EQ(U64FlagFromArgs(&a.argc, a.argv(), "reps", 3), 3u);
  EXPECT_EQ(a.Left(), (Args{"prog", "--blocks", "4x", "--senders=-1",
                            "--loss", "0.1p", "--trials",
                            "99999999999999999999", "--reps="}));
  EXPECT_FALSE(LeftoverArgs(a.argc, a.argv()).ok());

  // A flag missing its value stays too.
  Argv tail{"prog", "--blocks"};
  EXPECT_EQ(U64FlagFromArgs(&tail.argc, tail.argv(), "blocks", 20), 20u);
  EXPECT_EQ(tail.Left(), (Args{"prog", "--blocks"}));
}

TEST(FlagsTest, ParseU64AcceptsOnlyWholeDecimals) {
  EXPECT_EQ(ParseU64("0"), 0u);
  EXPECT_EQ(ParseU64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "4x", "-1", "+1", " 1", "1 ", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace onoff::flags
