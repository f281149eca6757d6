#include "bench/harness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

namespace actop {
namespace {

const char kReference[] =
    "{\n"
    "  \"bench\": \"parallel\",\n"
    "  \"schema_version\": 1,\n"
    "  \"threads\": 4,\n"
    "  \"scale\": 0.5,\n"
    "  \"scenarios\": [\n"
    "    {\"name\": \"halo_shards16\", \"events\": 10, \"events_per_sec\": 1600},\n"
    "    {\"name\": \"halo_shards1\", \"events\": 10, \"events_per_sec\": 100},\n"
    "    {\"name\": \"no_rate\", \"events\": 10}\n"
    "  ]\n"
    "}\n";

// Writes `text` to a file under the test temp dir and returns its path.
std::string WriteReference(const std::string& file, const std::string& text) {
  const std::string path = ::testing::TempDir() + file;
  std::ofstream(path) << text;
  return path;
}

// Builds a harness for `bench` from command-line arguments (argv[0] added).
BenchHarness MakeHarness(const std::string& bench, std::vector<std::string> args) {
  args.insert(args.begin(), "bench_" + bench);
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return BenchHarness(bench, static_cast<int>(argv.size()), argv.data());
}

TEST(BenchHarnessTest, LookupRefMatchesWholeName) {
  double value = 0.0;
  ASSERT_TRUE(LookupRef(kReference, "halo_shards1", "events_per_sec", &value));
  EXPECT_EQ(value, 100.0);
  ASSERT_TRUE(LookupRef(kReference, "halo_shards16", "events_per_sec", &value));
  EXPECT_EQ(value, 1600.0);
  EXPECT_FALSE(LookupRef(kReference, "halo_shards", "events_per_sec", &value));
}

TEST(BenchHarnessTest, LookupRefWithoutKeyYieldsNoValue) {
  double value = -1.0;
  EXPECT_FALSE(LookupRef(kReference, "no_rate", "events_per_sec", &value));
  EXPECT_EQ(value, -1.0);
}

TEST(BenchHarnessTest, LookupHeaderReadsOnlyTheHeader) {
  double value = 0.0;
  ASSERT_TRUE(LookupHeader(kReference, "threads", &value));
  EXPECT_EQ(value, 4.0);
  ASSERT_TRUE(LookupHeader(kReference, "scale", &value));
  EXPECT_EQ(value, 0.5);
  EXPECT_FALSE(LookupHeader(kReference, "events", &value));
}

TEST(BenchHarnessTest, RefusesReferenceFromAnotherBench) {
  const std::string path = WriteReference("harness_parallel.json", kReference);
  EXPECT_EXIT(MakeHarness("engine", {"--compare=" + path, "--gate"}),
              ::testing::ExitedWithCode(2), "written by bench_parallel, not bench_engine");
  EXPECT_EXIT(MakeHarness("engine", {"--compare=" + path + ".missing"}),
              ::testing::ExitedWithCode(2), "cannot read reference");
}

TEST(BenchHarnessTest, RefusesReferenceWithoutBenchHeader) {
  const std::string path = WriteReference("harness_not_bench.json", "{\"name\": \"x\"}\n");
  EXPECT_EXIT(MakeHarness("engine", {"--compare=" + path}), ::testing::ExitedWithCode(2),
              "has no \"bench\" header field");
}

TEST(BenchHarnessTest, RejectsMalformedNumbers) {
  EXPECT_EXIT(MakeHarness("engine", {"--threshold=abc"}), ::testing::ExitedWithCode(2),
              "bad value for --threshold");
  EXPECT_EXIT(MakeHarness("engine", {"--scale=1x"}), ::testing::ExitedWithCode(2),
              "bad value for --scale");
}

TEST(BenchHarnessTest, GateFailsOnMissingScenarioAndRegression) {
  const std::string path = WriteReference("harness_gate.json", kReference);
  {
    BenchHarness harness = MakeHarness("parallel", {"--compare=" + path, "--gate"});
    EXPECT_EQ(harness.AddScenario("halo_shards1", 95.0, JsonFields()), 0.95);
    EXPECT_EQ(harness.Finish(), 0);
  }
  {
    BenchHarness harness = MakeHarness("parallel", {"--compare=" + path, "--gate"});
    EXPECT_EQ(harness.AddScenario("halo_shards2", 100.0, JsonFields()), std::nullopt);
    EXPECT_EQ(harness.Finish(), 1);
  }
  {
    BenchHarness harness = MakeHarness("parallel", {"--compare=" + path});
    harness.AddScenario("halo_shards2", 100.0, JsonFields());
    EXPECT_EQ(harness.Finish(), 0);
  }
  {
    BenchHarness harness =
        MakeHarness("parallel", {"--compare=" + path, "--gate", "--threshold=0.2"});
    harness.AddScenario("halo_shards16", 1200.0, JsonFields());
    EXPECT_EQ(harness.Finish(), 1);
  }
  {
    BenchHarness harness = MakeHarness("parallel", {"--gate"});
    harness.AddScenario("halo_shards1", 1.0, JsonFields());
    harness.GateFailure("floor %d", 3);
    EXPECT_EQ(harness.Finish(), 1);
  }
}

TEST(BenchHarnessTest, WritesHeaderScenariosAndFields) {
  const std::string out = ::testing::TempDir() + "harness_out.json";
  BenchHarness harness = MakeHarness("engine", {"--json=" + out, "--scale=0.25"});
  harness.AddScenario("a", 10.0, JsonFields().Int("events", 3).Num("ratio", "%.2f", 0.5));
  harness.AddScenario("b", 10.0, JsonFields());
  harness.AddField("total", "%.3f", 1.0);
  ASSERT_EQ(harness.Finish(), 0);
  std::ifstream in(out);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
#ifdef NDEBUG
  const std::string assertions = "false";
#else
  const std::string assertions = "true";
#endif
  EXPECT_EQ(text, "{\n  \"bench\": \"engine\",\n  \"schema_version\": 1,\n"
                  "  \"assertions\": " + assertions + ",\n  \"scale\": 0.25,\n"
                  "  \"scenarios\": [\n"
                  "    {\"name\": \"a\", \"events\": 3, \"ratio\": 0.50},\n"
                  "    {\"name\": \"b\"}\n"
                  "  ],\n  \"total\": 1.000\n}\n");
}

}  // namespace
}  // namespace actop
