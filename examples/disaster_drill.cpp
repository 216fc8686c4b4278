// Disaster drill: what regional catastrophes do to the long-haul map.
//
// Two parts.  First, one concrete disaster — an epicenter (given, or
// grid-searched for the worst case), every conduit inside it severed, and
// the §4-style shared-risk damage reported.  Second, a Monte-Carlo
// failure *campaign* (sim/): many trials of sequential population-
// weighted disaster discs, fanned out over a thread pool and aggregated
// into mean/p5/p50/p95 degradation curves plus a per-ISP impact table.
// The campaign report is bit-identical for any thread count.
//
// Usage: disaster_drill [city-name] [radius-km] [seed] [trials] [threads]
#include <cstdlib>
#include <iostream>

#include "core/scenario.hpp"
#include "risk/cuts.hpp"
#include "risk/geo_hazard.hpp"
#include "sim/campaign.hpp"
#include "transport/undersea.hpp"
#include "util/table.hpp"

using namespace intertubes;

int main(int argc, char** argv) {
  const std::string epicenter = argc > 1 ? argv[1] : "";
  const double radius_km = argc > 2 ? std::strtod(argv[2], nullptr) : 100.0;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 0x1257;
  const std::size_t trials = argc > 4 ? std::strtoull(argv[4], nullptr, 0) : 200;
  const std::size_t threads = argc > 5 ? std::strtoull(argv[5], nullptr, 0) : 0;

  core::Scenario scenario{core::ScenarioParams::with_seed(seed)};
  const auto& cities = core::Scenario::cities();
  const auto& map = scenario.map();

  sim::HazardRegion region;
  region.radius_km = radius_km;
  if (epicenter.empty()) {
    region = risk::worst_case_placement(map, cities, scenario.row(), radius_km, 100.0);
    std::cout << "no epicenter given; grid-searched the worst case: near "
              << cities.city(cities.nearest(region.center)).display_name() << "\n";
  } else {
    const auto id = cities.find(epicenter);
    if (!id) {
      std::cerr << "unknown city: " << epicenter << "\n";
      return 1;
    }
    region.center = cities.city(*id).location;
  }

  const auto impact = risk::assess_hazard(map, scenario.row(), region);
  std::cout << "\ndisaster radius " << radius_km << " km:\n"
            << "  conduits severed: " << impact.conduits_cut << "\n"
            << "  provider links hit: " << impact.links_hit << " across " << impact.isps_hit
            << " ISPs\n"
            << "  node-pair connectivity: " << format_double(impact.connectivity, 3) << "\n";

  // Footnote 8 check: do the coasts stay mutually reachable?
  const auto festoons = transport::default_us_festoons(cities);
  const auto sf = cities.find("San Francisco, CA");
  const auto nyc = cities.find("New York, NY");
  if (sf && nyc) {
    std::cout << "\nSF <-> NYC disjoint paths: terrestrial "
              << risk::min_conduit_cut(map, *sf, *nyc) << ", with undersea festoons "
              << risk::min_conduit_cut_with_undersea(map, festoons, *sf, *nyc) << "\n";
  }

  // The Monte-Carlo campaign: sequences of correlated disasters, not one.
  sim::Executor executor(threads);
  const sim::CampaignEngine engine(map, &cities, &scenario.row());
  sim::CampaignConfig config;
  config.stressor = sim::Stressor::correlated_hazards(5, radius_km);
  config.trials = trials;
  config.seed = seed;
  const auto report = engine.run(config, executor);
  std::cout << "\n" << sim::render_report(report, &scenario.truth().profiles()) << "\n";
  std::cout << "(" << executor.num_threads() << " threads; identical output at any count)\n";
  return 0;
}
