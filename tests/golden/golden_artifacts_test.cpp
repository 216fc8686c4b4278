// Golden-artifact regression tests: the Table 1 / Figure 6 / Figure 10
// renderings of the canonical scenario, its serialized dataset and a small
// traceroute campaign over it, pinned byte-for-byte against checked-in
// fixtures.  The renderers in
// src/artifact are the same code the bench harnesses print, so any
// accounting change to the headline numbers must be made explicitly:
// regenerate with
//
//   INTERTUBES_GOLDEN_REGEN=1 ./intertubes_tests --gtest_filter='GoldenArtifacts*'
//
// and commit the fixture diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "artifact/renderers.hpp"
#include "core/dataset_io.hpp"
#include "risk/risk_matrix.hpp"
#include "test_support.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/campaign_fixture.hpp"

#ifndef INTERTUBES_GOLDEN_DIR
#error "INTERTUBES_GOLDEN_DIR must be defined by the build"
#endif

namespace intertubes::testing {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(INTERTUBES_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("INTERTUBES_GOLDEN_REGEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = fixture_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path << " (" << actual.size() << " bytes)";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with INTERTUBES_GOLDEN_REGEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  EXPECT_EQ(actual, expected)
      << "artifact drifted from " << path
      << "; if the change is intentional, regenerate with INTERTUBES_GOLDEN_REGEN=1 and "
         "commit the fixture diff";
}

const risk::RiskMatrix& shared_matrix() {
  static const risk::RiskMatrix matrix = risk::RiskMatrix::from_map(shared_scenario().map());
  return matrix;
}

TEST(GoldenArtifacts, Table1MapSummary) {
  check_golden("table1.golden", artifact::render_table1(shared_scenario()));
}

TEST(GoldenArtifacts, Fig6SharingDistribution) {
  check_golden("fig6.golden", artifact::render_fig6(shared_scenario(), shared_matrix()));
}

TEST(GoldenArtifacts, Fig10Robustness) {
  check_golden("fig10.golden", artifact::render_fig10(shared_scenario(), shared_matrix()));
}

TEST(GoldenArtifacts, DatasetBytes) {
  // The pipeline's whole output: every node, conduit, tenant, validation
  // flag and link of the canonical map, as the dataset writer emits it.
  const auto& scenario = shared_scenario();
  check_golden("dataset.golden",
               core::serialize_dataset(scenario.map(), core::Scenario::cities(), scenario.row(),
                                       scenario.truth().profiles()));
}

TEST(GoldenArtifacts, CampaignBytes) {
  // A seed-0x1257 traceroute campaign over the canonical world: the flow
  // order and counts, every hop's DNS name and decoded ISP, and the
  // corridors under each route.
  auto params = testing::shared_campaign_params();
  params.num_probes = 400;
  const auto& cities = core::Scenario::cities();
  check_golden("campaign.golden",
               traceroute::serialize_campaign(
                   traceroute::run_campaign(testing::shared_l3_topology(), cities, params),
                   cities));
}

TEST(GoldenArtifacts, RenderersAreDeterministic) {
  // The fixtures are only meaningful if the renderers are pure functions
  // of the scenario: two renders must agree byte for byte.
  EXPECT_EQ(artifact::render_table1(shared_scenario()), artifact::render_table1(shared_scenario()));
  EXPECT_EQ(artifact::render_fig10(shared_scenario(), shared_matrix()),
            artifact::render_fig10(shared_scenario(), shared_matrix()));
}

}  // namespace
}  // namespace intertubes::testing
