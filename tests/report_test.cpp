// Paper reports (`speakup report`, exp/report.hpp) through their run half,
// write_report: a trimmed grid, a file without a "report" key, and each
// auction_game file's Theorem 3.1 table against its golden under
// tests/golden/report/ (golden-named by its file stem). The reduce half,
// print_report, is checked here on hand-made outcomes; the simulated paper
// files' goldens are checked in hotpath_fingerprint_test, from the same one
// run of each file that checks its fingerprint pins.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"

namespace speakup::exp {
namespace {

namespace fs = std::filesystem;

const std::string kScenarioDir = SPEAKUP_SCENARIO_DIR;
const std::string kGoldenDir = kScenarioDir + "/../tests/golden/report/";

std::string read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string report_of(const std::string& path, int jobs) {
  ::unsetenv("SPEAKUP_FULL");  // the goldens are quick-mode output
  std::ostringstream os;
  write_report(path, jobs, os);
  return os.str();
}

TEST(ReportGolden, AuctionGameReportsMatchByteForByte) {
  int checked = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(kScenarioDir)) {
    if (e.path().extension() != ".json" || file_kind(e.path().string()) != "auction_game") {
      continue;
    }
    EXPECT_EQ(report_of(e.path().string(), 1),
              read(kGoldenDir + e.path().stem().string() + ".txt"))
        << "the report of " << e.path().filename() << " drifted from its golden";
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no auction_game file under " << kScenarioDir;
}

// A report reads its axes from what ran: a grid trimmed to one capacity
// prints that capacity's rows instead of looking up the missing ones.
TEST(Report, TrimmedGridPrintsTheRowsThatRan) {
  std::string text = read(kScenarioDir + "/abl1.json");
  const auto edit = [&text](const std::string& from, const std::string& to) {
    ASSERT_NE(text.find(from), std::string::npos) << from;
    text.replace(text.find(from), from.size(), to);
  };
  edit("\"capacity_rps\": [50, 100, 200]", "\"capacity_rps\": [50]");
  edit("\"duration_s\": 60", "\"duration_s\": 10");  // keeps the test quick
  const std::string path = ::testing::TempDir() + "/abl1_trimmed.json";
  std::ofstream(path, std::ios::binary) << text;

  std::istringstream out(report_of(path, 2));
  std::string line;
  while (std::getline(out, line) && line.rfind("---", 0) != 0) {
  }
  std::vector<std::string> rows;
  while (std::getline(out, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rfind("50        retries (3.2)", 0), 0u) << rows[0];
  EXPECT_EQ(rows[1].rfind("50        auction (3.3)", 0), 0u) << rows[1];
}

TEST(Report, FileWithoutReportKeyListsTheReducers) {
  const std::string path = ::testing::TempDir() + "/no_report.json";
  std::ofstream(path, std::ios::binary) << R"({"scenarios": [{"duration_s": 1}]})";
  try {
    (void)report_of(path, 1);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no \"report\" key"), std::string::npos) << what;
    EXPECT_NE(what.find(report_names()), std::string::npos) << what;
  }
}

// A reducer that reads a client group, a collateral download or a row the
// file did not run names itself, the row and what is missing, and prints
// nothing.
TEST(Report, ReducerNamesTheRowAndWhatItLacks) {
  for (const auto& [report, want] :
       {std::pair{"fig8", "fig8 report: row 'solo' has no client group 2"},
        std::pair{"fig9", "fig9 report: row 'solo' has no collateral download"},
        std::pair{"abl4", "abl4 report: row 'solo' has no client group 1"},
        std::pair{"tab1", "tab1 report: no row 'row1'"}}) {
    const ScenarioFile file = parse_scenario_file(
        std::string(R"({"report": ")") + report + R"(", "scenarios": [{"label": "solo", )" +
        R"("groups": [{"label": "g", "count": 1, "workload": "good"}]}]})");
    RunOutcome solo{"solo", file.scenarios.front().config, {}, {}, ""};
    solo.result.groups.resize(1);
    std::ostringstream os;
    try {
      print_report(file, {&solo, 1}, os);
      ADD_FAILURE() << report << ": expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_EQ(std::string(e.what()), want);
      EXPECT_EQ(os.str(), "") << report << " printed part of a report";
    }
  }
}

}  // namespace
}  // namespace speakup::exp
