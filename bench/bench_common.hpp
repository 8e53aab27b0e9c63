// Scenario-file lookup for the benchmarks under bench/ (micro_hotpath,
// tab1_thinner_capacity). The paper's figures are `speakup report` runs
// (exp/report.hpp), not bench binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/scenario_io.hpp"

namespace speakup::bench {

/// Locates a checked-in scenario file (scenarios/<name> in the source tree;
/// $SPEAKUP_SCENARIO_DIR overrides, e.g. for running from an install).
inline std::string scenario_path(const std::string& name) {
  if (const char* env = std::getenv("SPEAKUP_SCENARIO_DIR")) {
    return std::string(env) + "/" + name;
  }
#ifdef SPEAKUP_SCENARIO_DIR
  return std::string(SPEAKUP_SCENARIO_DIR) + "/" + name;
#else
  return "scenarios/" + name;
#endif
}

/// Loads a checked-in scenario file; a parse failure is fatal (the grids
/// under scenarios/ are part of the bench suite).
inline exp::ScenarioFile load_scenarios(const std::string& name) {
  try {
    return exp::load_scenario_file(scenario_path(name));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

}  // namespace speakup::bench
