#include "support/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace onoff::log {
namespace {

// Captures everything a block logs through the test sink.
class SinkCapture {
 public:
  SinkCapture() : file_(std::tmpfile()) { SetSinkForTest(file_); }
  ~SinkCapture() {
    SetSinkForTest(nullptr);
    std::fclose(file_);
  }

  std::string Contents() {
    std::fflush(file_);
    std::string out;
    long size = std::ftell(file_);
    std::rewind(file_);
    out.resize(static_cast<size_t>(size));
    size_t read = std::fread(out.data(), 1, out.size(), file_);
    out.resize(read);
    return out;
  }

 private:
  FILE* file_;
};

class LogTest : public ::testing::Test {
 protected:
  LogTest() : saved_(GetLevel()) {}
  ~LogTest() override { SetLevel(saved_); }
  Level saved_;
};

TEST_F(LogTest, LevelNamesRoundTrip) {
  EXPECT_EQ(LevelFromString("trace"), Level::kTrace);
  EXPECT_EQ(LevelFromString("DEBUG"), Level::kDebug);
  EXPECT_EQ(LevelFromString("Info"), Level::kInfo);
  EXPECT_EQ(LevelFromString("warn"), Level::kWarn);
  EXPECT_EQ(LevelFromString("error"), Level::kError);
  EXPECT_EQ(LevelFromString("off"), Level::kOff);
  EXPECT_FALSE(LevelFromString("nonsense").has_value());
  EXPECT_STREQ(LevelName(Level::kInfo), "info");
}

TEST_F(LogTest, ThresholdFiltersLowerLevels) {
  SetLevel(Level::kWarn);
  EXPECT_FALSE(Enabled(Level::kDebug));
  EXPECT_FALSE(Enabled(Level::kInfo));
  EXPECT_TRUE(Enabled(Level::kWarn));
  EXPECT_TRUE(Enabled(Level::kError));

  SinkCapture sink;
  ONOFF_LOG(Level::kInfo, "test", "hidden %d", 1);
  ONOFF_LOG(Level::kError, "test", "shown %d", 2);
  std::string out = sink.Contents();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("shown 2"), std::string::npos);
  EXPECT_NE(out.find("[error] test:"), std::string::npos);
}

TEST_F(LogTest, MacroSkipsArgumentEvaluationWhenFiltered) {
  SetLevel(Level::kError);
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return 0;
  };
  ONOFF_LOG(Level::kDebug, "test", "%d", count());
  EXPECT_EQ(evaluations, 0);
  SinkCapture sink;
  ONOFF_LOG(Level::kError, "test", "%d", count());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, LevelFromArgsStripsFlag) {
  const char* raw[] = {"prog", "cmd", "--log-level", "debug", "tail"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  EXPECT_EQ(LevelFromArgs(&argc, argv), Level::kDebug);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "cmd");
  EXPECT_STREQ(argv[2], "tail");

  const char* raw_eq[] = {"prog", "--log-level=warn"};
  char* argv_eq[2];
  for (int i = 0; i < 2; ++i) argv_eq[i] = const_cast<char*>(raw_eq[i]);
  int argc_eq = 2;
  EXPECT_EQ(LevelFromArgs(&argc_eq, argv_eq), Level::kWarn);
  EXPECT_EQ(argc_eq, 1);
}

}  // namespace
}  // namespace onoff::log
