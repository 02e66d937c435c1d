#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include "support/breaker.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/table.h"
#include "support/timer.h"

namespace capellini {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = InvalidArgument("bad row");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "invalid_argument: bad row");
}

// Exhaustive by construction: the switch has no default, so adding a
// StatusCode without extending this list is a -Wswitch error under the CI's
// -Werror build, and StatusCodeName coverage can never silently lag.
const char* RoundTripStatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kDeadlock:
    case StatusCode::kInternal:
    case StatusCode::kIoError:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kDataLoss:
      return StatusCodeName(code);
  }
  return "unhandled";
}

TEST(StatusTest, AllCodesHaveNames) {
  std::set<std::string> names;
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kDeadlock, StatusCode::kInternal,
        StatusCode::kIoError, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kDataLoss}) {
    const char* name = RoundTripStatusCodeName(code);
    EXPECT_STRNE(name, "unknown");
    EXPECT_STRNE(name, "unhandled");
    names.insert(name);  // also distinct: no two codes share a name
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(StatusTest, DataLossHelper) {
  const Status status = DataLoss("corrupted solution");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.ToString(), "data_loss: corrupted solution");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> expected(42);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*expected, 42);
  EXPECT_TRUE(expected.status().ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> expected(NotFound("nope"));
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GeometricMeanApproximatelyCorrect) {
  Rng rng(13);
  const double target = 5.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.NextPositiveWithMean(target));
  }
  EXPECT_NEAR(sum / n, target, 0.2);
}

TEST(RngTest, GeometricMeanBelowOneClampsToOne) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextPositiveWithMean(0.5), 1);
}

TEST(RngTest, SampleDistinctSortedProperties) {
  Rng rng(17);
  for (const std::int64_t k : {0, 1, 5, 50, 100}) {
    const auto sample = rng.SampleDistinctSorted(10, 109, k);
    ASSERT_EQ(sample.size(), static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      EXPECT_GE(sample[i], 10);
      EXPECT_LE(sample[i], 109);
      if (i > 0) {
        EXPECT_LT(sample[i - 1], sample[i]);
      }
    }
  }
}

TEST(RngTest, SampleDistinctFullRange) {
  Rng rng(19);
  const auto sample = rng.SampleDistinctSorted(0, 9, 10);
  ASSERT_EQ(sample.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<std::size_t>(i)], i);
}

TEST(CliTest, ParsesAllKinds) {
  CliFlags flags;
  std::int64_t n = 5;
  double x = 1.5;
  bool verbose = false;
  std::string name = "default";
  flags.AddInt("n", &n, "count");
  flags.AddDouble("x", &x, "factor");
  flags.AddBool("verbose", &verbose, "chatty");
  flags.AddString("name", &name, "label");

  const char* argv[] = {"prog", "--n=42", "--x", "2.25", "--verbose",
                        "--name=corpus"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "corpus");
}

TEST(CliTest, RejectsUnknownFlag) {
  CliFlags flags;
  const char* argv[] = {"prog", "--bogus=1"};
  const Status status = flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(CliTest, RejectsBadInteger) {
  CliFlags flags;
  std::int64_t n = 0;
  flags.AddInt("n", &n, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, HelpReturnsNotFound) {
  CliFlags flags;
  const char* argv[] = {"prog", "--help"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kNotFound);
}

TEST(TableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TableTest, NumAndIntFormat) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Int(1234567), "1,234,567");
  EXPECT_EQ(TextTable::Int(-1000), "-1,000");
  EXPECT_EQ(TextTable::Int(7), "7");
}

TEST(CliTest, UsageListsFlagsWithDefaults) {
  CliFlags flags;
  std::int64_t n = 5;
  bool verbose = true;
  flags.AddInt("n", &n, "count of things");
  flags.AddBool("verbose", &verbose, "chatty");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("count of things"), std::string::npos);
  EXPECT_NE(usage.find("default 5"), std::string::npos);
  EXPECT_NE(usage.find("default true"), std::string::npos);
}

TEST(CliTest, ExplicitFalseBool) {
  CliFlags flags;
  bool verbose = true;
  flags.AddBool("verbose", &verbose, "chatty");
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(verbose);
}

TEST(CliTest, TrailingFlagWithoutValueFails) {
  CliFlags flags;
  std::int64_t n = 0;
  flags.AddInt("n", &n, "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(argv)).code(),
            StatusCode::kInvalidArgument);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.ElapsedMs(), 0.0);
  EXPECT_GE(timer.ElapsedSec(), 0.0);
}

TEST(BreakerTest, TripsProbesAndReportsEachTransition) {
  using Decision = Breaker::Decision;
  using Transition = Breaker::Transition;
  Breaker breaker(
      {.threshold = 2, .window = 0, .rate = 0.5, .probe_cooldown = 1,
       .probe_timeout = 2});
  EXPECT_EQ(breaker.Report(true), Transition::kNone);
  EXPECT_EQ(breaker.Report(true), Transition::kTripped);
  EXPECT_EQ(breaker.state(), Breaker::State::kOpen);
  EXPECT_EQ(breaker.Report(true), Transition::kNone);  // stale while open

  EXPECT_EQ(breaker.Admit().decision, Decision::kDeflect);  // cooldown
  EXPECT_EQ(breaker.Admit().decision, Decision::kProbe);
  EXPECT_EQ(breaker.Report(true), Transition::kProbeFailed);

  // A probe that never reports: aborted, or timed out by deflections.
  breaker.Admit();
  EXPECT_EQ(breaker.Admit().decision, Decision::kProbe);
  EXPECT_EQ(breaker.AbortProbe(), Transition::kProbeLost);
  EXPECT_EQ(breaker.AbortProbe(), Transition::kNone);  // no probe in flight
  breaker.Admit();
  EXPECT_EQ(breaker.Admit().decision, Decision::kProbe);
  EXPECT_EQ(breaker.Admit().transition, Transition::kNone);
  const Breaker::Admission timed_out = breaker.Admit();
  EXPECT_EQ(timed_out.decision, Decision::kDeflect);
  EXPECT_EQ(timed_out.transition, Transition::kProbeLost);

  breaker.Admit();
  EXPECT_EQ(breaker.Admit().decision, Decision::kProbe);
  EXPECT_EQ(breaker.Report(false), Transition::kProbeSucceeded);
  EXPECT_EQ(breaker.state(), Breaker::State::kClosed);
  EXPECT_EQ(breaker.Admit().decision, Decision::kAllow);
  // Closing starts from a clean slate: one failure does not re-trip.
  EXPECT_EQ(breaker.Report(true), Transition::kNone);
}

TEST(JsonTest, WritesOneCompactLayout) {
  JsonWriter json;
  json.BeginObject()
      .Key("a").BeginArray().Int(1).Double(2.5).String("x").Bool(true)
      .EndArray()
      .Key("b").BeginObject().EndObject()
      .Key("c").Double(2.0)
      .Key("d").Hex(0xabc)
      .EndObject();
  EXPECT_EQ(json.str(),
            R"({"a":[1,2.5,"x",true],"b":{},"c":2.0,"d":"0000000000000abc"})");
}

TEST(JsonTest, EscapesAndControlCharactersRoundTrip) {
  std::string text = "quote\" backslash\\ slash/ tab\t newline\n";
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\x7f caf\xc3\xa9";
  JsonWriter json;
  json.BeginArray().String(text).EndArray();
  auto parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->items.size(), 1u);
  EXPECT_EQ(parsed->items[0].kind, JsonValue::Kind::kString);
  EXPECT_EQ(parsed->items[0].text, text);
  // Every escape RFC 8259 allows, including a surrogate pair.
  auto escapes = ParseJson(R"("\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00")");
  ASSERT_TRUE(escapes.ok()) << escapes.status().ToString();
  EXPECT_EQ(escapes->text, "\"\\/\b\f\n\r\t\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonTest, IntegersAtTheLimitsReadBackExactly) {
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::int64_t kMinI64 = std::numeric_limits<std::int64_t>::min();
  JsonWriter json;
  json.BeginObject().Key("u").Int(kMaxU64).Key("i").Int(kMinI64).EndObject();
  auto parsed = ParseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::uint64_t u = 0;
  std::int64_t i = 0;
  ASSERT_TRUE(parsed->Find("u")->Get(u));
  ASSERT_TRUE(parsed->Find("i")->Get(i));
  EXPECT_EQ(u, kMaxU64);
  EXPECT_EQ(i, kMinI64);
  // A value that does not fit the requested type is refused, not clamped.
  std::int64_t narrow = 7;
  EXPECT_FALSE(parsed->Find("u")->Get(narrow));
  EXPECT_FALSE(parsed->Find("i")->Get(u));
  EXPECT_EQ(narrow, 7);
  int whole = 0;
  auto fraction = ParseJson("1.5");
  ASSERT_TRUE(fraction.ok());
  EXPECT_FALSE(fraction->Get(whole));
}

TEST(JsonTest, DoublesReadBackBitExact) {
  const double values[] = {2.0 / 1200, 1e-300, 0.1, -0.0, 1.0 / 3.0,
                           123456789.125, 5e-324, 1.7976931348623157e308};
  for (const double value : values) {
    JsonWriter json;
    json.Double(value);
    auto parsed = ParseJson(json.str());
    ASSERT_TRUE(parsed.ok()) << json.str();
    double back = 1.0;
    ASSERT_TRUE(parsed->Get(back)) << json.str();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << json.str();
  }
}

TEST(JsonTest, NonFiniteDoublesAreWrittenAsNull) {
  JsonWriter json;
  json.BeginArray()
      .Double(std::numeric_limits<double>::infinity())
      .Double(-std::numeric_limits<double>::infinity())
      .Double(std::numeric_limits<double>::quiet_NaN())
      .EndArray();
  EXPECT_EQ(json.str(), "[null,null,null]");
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  const char* bad[] = {
      R"({"seed": 7, "drop_publish_rate": 0.5,, oops)",
      "[1,,2]",
      "[1,2,]",
      R"({"a": 1,})",
      R"({"a" 1})",
      R"({"a": "unterminated)",
      R"({"a": 1} trailing)",
      "",
      "01",
      "1.",
      "-",
      "tru",
      R"("\x")",
      R"("\ud800")",
      "\"raw\ncontrol\"",
  };
  for (const char* text : bad) {
    auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
  const auto error = ParseJson(R"({"a" 1})").status();
  EXPECT_NE(error.message().find("byte 5"), std::string::npos)
      << error.ToString();
  EXPECT_FALSE(ParseJson(std::string(65, '[') + std::string(65, ']')).ok());
  EXPECT_TRUE(ParseJson(std::string(64, '[') + std::string(64, ']')).ok());
  EXPECT_TRUE(ParseJson(" {\"a\" : [ 1 , -2.5e+3 , null , false ] }\n").ok());
}

TEST(JsonFileTest, ReadFileOnAMissingPathIsNotFound) {
  const auto missing = ReadFile(testing::TempDir() + "no_such_file.json");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  const std::string path = testing::TempDir() + "json_file_test.bin";
  const std::string bytes("a\0b\xff", 4);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
}

TEST(JsonFileTest, WriteFileReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(WriteFile("/dev/full", "{}").code(), StatusCode::kIoError);
  EXPECT_FALSE(WriteFile(testing::TempDir() + "no_dir/x.json", "{}").ok());
}

}  // namespace
}  // namespace capellini
