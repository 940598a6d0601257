// Schema coverage for the unified experiment harness: the
// ExperimentRegistry mirrors the strategy registry's contract (unknown
// names/options are loud errors, aliases resolve), and every registered
// experiment run in smoke mode emits a BENCH_<name>.json that parses,
// keeps its schema fields, and reports its pass verdict — the acceptance
// gate for `hbn_bench --suite=smoke`.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiments/experiments.h"
#include "hbn/shard/process.h"
#include "hbn/util/json.h"

namespace hbn {
namespace {

using engine::BenchReporter;
using engine::ExperimentContext;
using util::ParsedField;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

const ParsedField* find(const util::ParsedRecord& record,
                        std::string_view key) {
  for (const ParsedField& field : record) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

TEST(ExperimentRegistry, ListsAtLeastTenExperiments) {
  const auto names = bench::experiments().names();
  EXPECT_GE(names.size(), 10u);
}

TEST(ExperimentRegistry, AliasesResolveToCanonicalExperiments) {
  const auto e1 = bench::experiments().create("e1");
  EXPECT_EQ(e1->name(), "approx-ratio");
  const auto e10 = bench::experiments().create("e10");
  EXPECT_EQ(e10->name(), "ablation");
}

TEST(ExperimentRegistry, UnknownNameAndUnknownOptionAreLoud) {
  EXPECT_THROW((void)bench::experiments().create("no-such-experiment"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::experiments().create("runtime:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::experiments().create("runtime:reps=abc"),
               std::invalid_argument);
}

TEST(BenchReporter, SummaryRecordCarriesRunMetadata) {
  BenchReporter reporter("unit-test");
  reporter.beginRow();
  reporter.field("x", 1);
  reporter.addTiming(2.0);
  reporter.addTiming(4.0);

  ExperimentContext ctx;
  ctx.seed = 99;
  ctx.seedSet = true;
  ctx.threads = 3;
  ctx.smoke = true;
  const std::string dir =
      testing::TempDir() + "bench_reporter_schema_test";
  const std::string path = reporter.writeFile(dir, ctx, /*passed=*/false);
  EXPECT_EQ(path, dir + "/BENCH_unit-test.json");

  const auto parsed = util::parseRecords(slurp(path));
  ASSERT_EQ(parsed.size(), 2u);
  // Row record: schema fields first, in stable order.
  EXPECT_EQ(parsed[0][0].key, "schema_version");
  EXPECT_DOUBLE_EQ(parsed[0][0].number, BenchReporter::kSchemaVersion);
  EXPECT_EQ(parsed[0][1].key, "experiment");
  EXPECT_EQ(parsed[0][1].text, "unit-test");
  EXPECT_EQ(parsed[0][2].key, "kind");
  EXPECT_EQ(parsed[0][2].text, "row");
  // Summary record: verdict, run parameters, machine spec, timing stats.
  const util::ParsedRecord& summary = parsed[1];
  EXPECT_EQ(find(summary, "kind")->text, "summary");
  EXPECT_EQ(find(summary, "passed")->kind, ParsedField::Kind::boolean);
  EXPECT_EQ(find(summary, "passed")->text, "false");
  EXPECT_EQ(find(summary, "mode")->text, "smoke");
  EXPECT_DOUBLE_EQ(find(summary, "seed")->number, 99.0);
  EXPECT_DOUBLE_EQ(find(summary, "threads")->number, 3.0);
  EXPECT_DOUBLE_EQ(find(summary, "rows")->number, 1.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_mean")->number, 3.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_min")->number, 2.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_max")->number, 4.0);
  ASSERT_NE(find(summary, "host"), nullptr);
  ASSERT_NE(find(summary, "compiler"), nullptr);
  EXPECT_GE(find(summary, "cpus")->number, 1.0);
}

TEST(BenchReporter, EmptyTimingStatsRenderAsNull) {
  BenchReporter reporter("no-timings");
  ExperimentContext ctx;
  const std::string path =
      reporter.writeFile(testing::TempDir(), ctx, /*passed=*/true);
  const auto parsed = util::parseRecords(slurp(path));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(find(parsed[0], "wall_ms_mean")->kind,
            ParsedField::Kind::null);
}

// The acceptance gate: every registered experiment, run at smoke scale,
// must pass its paper-claim checks and emit a BENCH_<name>.json that
// round-trips through the parser with the schema fields on every record.
TEST(ExperimentSuite, SmokeSuiteEmitsValidJsonForEveryExperiment) {
  const std::string dir = testing::TempDir() + "hbn_smoke_suite";
  std::filesystem::remove_all(dir);
  for (const std::string& name : bench::experiments().names()) {
    SCOPED_TRACE(name);
    const auto experiment = bench::experiments().create(name);
    ExperimentContext ctx;
    ctx.smoke = true;  // out stays null: tables are discarded
    BenchReporter reporter{std::string(experiment->name())};
    const bool passed = experiment->run(ctx, reporter);
    EXPECT_TRUE(passed) << "experiment claims failed: " << name;
    const std::string path = reporter.writeFile(dir, ctx, passed);

    const auto parsed = util::parseRecords(slurp(path));
    ASSERT_GE(parsed.size(), 2u)
        << name << " must emit at least one row plus the summary";
    for (const util::ParsedRecord& record : parsed) {
      const ParsedField* version = find(record, "schema_version");
      ASSERT_NE(version, nullptr);
      EXPECT_DOUBLE_EQ(version->number, BenchReporter::kSchemaVersion);
      EXPECT_EQ(find(record, "experiment")->text, name);
      ASSERT_NE(find(record, "kind"), nullptr);
    }
    EXPECT_EQ(find(parsed.back(), "kind")->text, "summary");
    EXPECT_EQ(find(parsed.back(), "passed")->kind,
              ParsedField::Kind::boolean);
    EXPECT_EQ(find(parsed.back(), "passed")->text, "true");
  }
}

// Determinism of the emitted trajectory: the same (experiment, seed) pair
// must produce identical measurement rows run-to-run (the summary record
// differs only in wall-clock fields).
TEST(ExperimentSuite, RingVsBusRowsAreDeterministic) {
  auto runOnce = [] {
    const auto experiment = bench::experiments().create("ring-vs-bus");
    ExperimentContext ctx;
    ctx.smoke = true;
    BenchReporter reporter{std::string(experiment->name())};
    (void)experiment->run(ctx, reporter);
    const std::string dir = testing::TempDir() + "hbn_determinism";
    return slurp(reporter.writeFile(dir, ctx, true));
  };
  const auto first = util::parseRecords(runOnce());
  const auto second = util::parseRecords(runOnce());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t r = 0; r + 1 < first.size(); ++r) {  // skip summary
    ASSERT_EQ(first[r].size(), second[r].size());
    for (std::size_t f = 0; f < first[r].size(); ++f) {
      EXPECT_EQ(first[r][f].key, second[r][f].key);
      EXPECT_EQ(first[r][f].text, second[r][f].text);
    }
  }
}

}  // namespace
}  // namespace hbn

// The smoke suite's sharded-serving experiment re-runs this binary as
// its socket workers; a worker invocation short-circuits here.
int main(int argc, char** argv) {
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv);
      code >= 0) {
    return code;
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
