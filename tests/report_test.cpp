// Paper reports (`speakup report`, exp/report.hpp): each checked-in paper
// file must print its golden under tests/golden/report/ byte for byte. The
// goldens are the quick-mode stdout of the per-figure bench harnesses the
// reports replaced, so this pins every reducer's arithmetic and layout.
// One figure is masked: Table 1 row 3 measures host speed, so its
// "sinks <N> Mbit/s" number varies run to run and compares as "sinks # Mbit/s".
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/scenario_io.hpp"

namespace speakup::exp {
namespace {

const std::string kScenarioDir = SPEAKUP_SCENARIO_DIR;

std::string read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string mask_host_speed(const std::string& report) {
  static const std::regex sink_rate("sinks [0-9]+ Mbit/s");
  return std::regex_replace(report, sink_rate, "sinks # Mbit/s");
}

std::string report_of(const std::string& path, int jobs) {
  ::unsetenv("SPEAKUP_FULL");  // the goldens are quick-mode output
  std::ostringstream os;
  write_report(path, jobs, os);
  return os.str();
}

struct Golden {
  const char* name;  // tests/golden/report/<name>.txt
  const char* file;  // scenarios/<file>
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.file; }

class ReportGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ReportGolden, MatchesByteForByte) {
  const Golden& g = GetParam();
  const std::string golden =
      read(kScenarioDir + "/../tests/golden/report/" + g.name + ".txt");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(mask_host_speed(report_of(kScenarioDir + "/" + g.file, 0)),
            mask_host_speed(golden));
}

INSTANTIATE_TEST_SUITE_P(
    PaperFiles, ReportGolden,
    ::testing::Values(Golden{"fig2", "fig2.json"}, Golden{"fig3", "fig3.json"},
                      Golden{"fig4", "fig4.json"}, Golden{"fig5", "fig5.json"},
                      Golden{"fig6", "fig6.json"}, Golden{"fig7", "fig7.json"},
                      Golden{"fig8", "shared_bottleneck.json"}, Golden{"fig9", "lossy.json"},
                      Golden{"sec7_4", "sec7_4.json"}, Golden{"tab1", "tab1.json"},
                      Golden{"abl1", "abl1.json"}, Golden{"abl3", "abl3.json"},
                      Golden{"abl4", "abl4.json"}, Golden{"abl5", "abl5.json"}),
    [](const ::testing::TestParamInfo<Golden>& info) { return std::string(info.param.name); });

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

}  // namespace
}  // namespace speakup::exp
