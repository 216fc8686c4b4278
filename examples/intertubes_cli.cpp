// intertubes_cli — the library's command-line front end.
//
// Subcommands:
//   build   build the world + map and save the dataset TSV
//   stats   headline map statistics and the long-haul census
//   risk    shared-risk analysis (sharing distribution, choke points, ranking,
//           most similar risk profiles)
//   cuts    resilience: bridges, coast-to-coast min cuts, disaster drill
//   plan    §5 mitigation toolkit for one ISP (re-routes, peers, expansion,
//           latency headroom)
//   export  GeoJSON map (traffic-annotated) + road, rail and pipeline layers
//   check   parse a dataset file and report structured diagnostics
//   serve   run the concurrent query engine over a scripted workload
//
// Common flags: --seed <n> (default 0x1257), --strict / --lenient parse
// policy for file-reading commands. Run with no arguments for help.
//
// Exit codes: 0 success, 1 runtime failure (bad data, unknown ISP, parse
// errors), 2 usage error (unknown command/flag, missing value).  `help`,
// `--help`, `-h`, or no arguments print usage and exit 0.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/sharded.hpp"
#include "serve/snapshot.hpp"

#include "artifact/renderers.hpp"
#include "cascade/cascade.hpp"
#include "core/dataset_diff.hpp"
#include "core/dataset_io.hpp"
#include "dissect/dissector.hpp"
#include "dissect/gap_optimizer.hpp"
#include "core/exporter.hpp"
#include "core/longhaul.hpp"
#include "core/scenario.hpp"
#include "optimize/expansion.hpp"
#include "optimize/latency.hpp"
#include "optimize/robustness.hpp"
#include "risk/cuts.hpp"
#include "risk/geo_hazard.hpp"
#include "risk/risk_matrix.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/l3_topology.hpp"
#include "traceroute/overlay.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "worldgen/worldgen.hpp"

using namespace intertubes;

namespace {

struct Args {
  std::string command;
  std::uint64_t seed = 0x1257;
  std::string isp = "Sprint";
  std::string out = "intertubes_dataset.tsv";
  std::string prefix = "intertubes";
  std::string before_path;
  std::string after_path;
  std::string in_path;
  std::size_t k = 5;
  double radius_km = 100.0;
  std::size_t requests = 200;  ///< `serve` workload length
  std::size_t threads = 4;     ///< `serve` closed-loop client threads
  std::size_t shards = 1;      ///< `serve` fleet size
  std::size_t churn = 1;       ///< `serve` live delta batches applied mid-run
  std::size_t top = 10;        ///< `dissect` audit rows
  double target = 2.0;         ///< `dissect` stretch target vs c-latency
  std::size_t trials = 64;     ///< `cascade` Monte-Carlo trials
  double margin = 0.25;        ///< `cascade` capacity margin
  double scale = 1.0;          ///< `generate` world scale (vs the paper world)
  std::size_t continents = 0;  ///< `generate` continents (0 = auto from scale)
  bool out_set = false;        ///< --out was passed explicitly
  std::string adversary = "random";  ///< `cascade` stressor: random|targeted|hazard
  /// Parse policy for commands that read files (check, diff).  Lenient by
  /// default: quarantine bad records, report them, keep going.
  ParsePolicy policy = ParsePolicy::Lenient;
};

void usage(std::ostream& os) {
  os <<
      "usage: intertubes_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  build    build the world and mapping pipeline, save dataset TSV (--out)\n"
      "  stats    headline statistics and the long-haul census\n"
      "  risk     shared-risk analysis of the constructed map\n"
      "  cuts     bridges, min cuts, and a disaster drill (--radius)\n"
      "  plan     mitigation toolkit for one ISP (--isp, --k)\n"
      "  export   write GeoJSON layers (--prefix): the map annotated with a\n"
      "           100 000-probe traceroute campaign, roads, rails, pipelines\n"
      "  diff     compare two dataset files (--before, --after)\n"
      "  check    parse a dataset file, report diagnostics (--in)\n"
      "  serve    sharded query engine over a scripted workload\n"
      "           (--requests, --threads, --shards; --churn M applies M live\n"
      "            cut/repair delta batches while clients stream)\n"
      "  dissect  all-pairs speed-of-light audit + gap-closing conduit proposals\n"
      "           (--top, --target, --k)\n"
      "  cascade  cross-layer cascade campaign + percolation sweep\n"
      "           (--adversary, --k cuts/trial, --trials, --margin, --radius)\n"
      "  generate synthesize a planet-scale world (--scale, --continents, --seed),\n"
      "           strict-ingest it, and run the full analysis stack over it;\n"
      "           --out additionally saves the dataset TSV\n"
      "  help     print this message\n"
      "\n"
      "flags:\n"
      "  --seed <n>     world seed (default 0x1257)\n"
      "  --isp <name>   ISP for `plan` (default Sprint)\n"
      "  --out <file>   dataset path for `build`\n"
      "  --prefix <p>   output prefix for `export`\n"
      "  --in <file>    dataset path for `check`\n"
      "  --k <n>        expansion steps for `plan` (default 5)\n"
      "  --radius <km>  disaster radius for `cuts` (default 100)\n"
      "  --requests <n> workload length for `serve` (default 200)\n"
      "  --threads <n>  client threads for `serve` (default 4)\n"
      "  --shards <n>   serve domains for `serve` (default 1)\n"
      "  --churn <n>    live delta batches for `serve` (default 1)\n"
      "  --top <n>      audit rows for `dissect` (default 10)\n"
      "  --target <f>   stretch target vs c-latency for `dissect` (default 2.0)\n"
      "  --trials <n>   Monte-Carlo trials for `cascade` (default 64)\n"
      "  --margin <f>   capacity margin for `cascade` (default 0.25)\n"
      "  --adversary <a> cascade stressor: random, targeted, hazard (default random)\n"
      "  --scale <f>    world size multiplier for `generate` (default 1.0)\n"
      "  --continents <n> continental meshes for `generate` (default auto)\n"
      "  --strict       fail fast on the first malformed record\n"
      "  --lenient      quarantine malformed records and keep going (default)\n";
}

/// Uniform usage-error path: message to stderr, usage to stderr, exit 2.
constexpr int kUsageError = 2;

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  if (args.command == "--help" || args.command == "-h") {
    args.command = "help";
    return true;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    // Boolean flags take no value.
    if (flag == "--strict") {
      args.policy = ParsePolicy::Strict;
      continue;
    }
    if (flag == "--lenient") {
      args.policy = ParsePolicy::Lenient;
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      args.command = "help";
      return true;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--isp") {
      args.isp = value;
    } else if (flag == "--out") {
      args.out = value;
      args.out_set = true;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--continents") {
      args.continents = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--prefix") {
      args.prefix = value;
    } else if (flag == "--before") {
      args.before_path = value;
    } else if (flag == "--after") {
      args.after_path = value;
    } else if (flag == "--in") {
      args.in_path = value;
    } else if (flag == "--k") {
      args.k = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--radius") {
      args.radius_km = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--requests") {
      args.requests = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--threads") {
      args.threads = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--shards") {
      args.shards = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--churn") {
      args.churn = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--top") {
      args.top = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--target") {
      args.target = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trials") {
      args.trials = std::strtoul(value.c_str(), nullptr, 0);
    } else if (flag == "--margin") {
      args.margin = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--adversary") {
      args.adversary = value;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

int cmd_build(const core::Scenario& scenario, const Args& args) {
  core::save_dataset(args.out, scenario.map(), core::Scenario::cities(), scenario.row(),
                     scenario.truth().profiles());
  const auto stats = core::compute_stats(scenario.map());
  std::cout << "built map: " << stats.nodes << " nodes, " << stats.links << " links, "
            << stats.conduits << " conduits\n"
            << "dataset written to " << args.out << "\n";
  return 0;
}

int cmd_stats(const core::Scenario& scenario, const Args&) {
  const auto stats = core::compute_stats(scenario.map());
  std::cout << "nodes: " << stats.nodes << "\nlinks: " << stats.links
            << "\nconduits: " << stats.conduits << " (" << stats.validated_conduits
            << " validated)\nconduit-km: " << format_double(stats.total_conduit_km, 0) << "\n";
  const auto census = core::long_haul_census(scenario.map(), core::Scenario::cities());
  std::cout << "\nlong-haul census (30 mi / 100k population / >=2 providers):\n"
            << "  long-haul conduits: " << census.long_haul_conduits << " ("
            << census.by_span << " by span, " << census.by_population << " by population, "
            << census.by_sharing << " by sharing)\n"
            << "  metro conduits:     " << census.metro_conduits << "\n";
  std::cout << "\nlong-haul hubs:\n";
  for (const auto& [city, degree] : core::hub_ranking(scenario.map(), 8)) {
    std::cout << "  " << core::Scenario::cities().city(city).display_name() << " (" << degree
              << " conduits)\n";
  }
  return 0;
}

int cmd_risk(const core::Scenario& scenario, const Args&) {
  const auto& cities = core::Scenario::cities();
  const auto& profiles = scenario.truth().profiles();
  const auto matrix = risk::RiskMatrix::from_map(scenario.map());
  const auto counts = matrix.conduits_shared_by_at_least();
  const double total = static_cast<double>(matrix.num_conduits());
  for (std::size_t k = 2; k <= 4 && k <= counts.size(); ++k) {
    std::cout << "conduits shared by >= " << k << " ISPs: " << counts[k - 1] << " ("
              << format_double(100.0 * static_cast<double>(counts[k - 1]) / total, 1) << "%)\n";
  }

  std::cout << "\nmost shared conduits:\n";
  for (core::ConduitId cid : matrix.most_shared_conduits(10)) {
    const auto& c = scenario.map().conduit(cid);
    std::cout << "  " << cities.city(c.a).display_name() << " -- "
              << cities.city(c.b).display_name() << ": " << c.tenants.size() << " tenants\n";
  }

  // Per-ISP ranking (Fig. 6 right axis).
  TextTable ranking({"ISP", "conduits", "avg sharing", "SE", "p25", "p75"});
  for (const auto& row : matrix.isp_risk_ranking()) {
    ranking.start_row();
    ranking.add_cell(profiles[row.isp].name);
    ranking.add_cell(row.conduits_used);
    ranking.add_cell(row.mean_sharing, 2);
    ranking.add_cell(row.standard_error, 2);
    ranking.add_cell(row.p25, 1);
    ranking.add_cell(row.p75, 1);
  }
  std::cout << "\n" << ranking.render("per-ISP shared risk (ascending)");

  // Most similar risk profiles by Hamming distance (Fig. 8); ties keep
  // (i, j) order.
  struct Pair {
    std::size_t distance;
    isp::IspId i, j;
  };
  const auto hamming = matrix.hamming_matrix();
  std::vector<Pair> pairs;
  for (isp::IspId i = 0; i < profiles.size(); ++i) {
    for (isp::IspId j = i + 1; j < profiles.size(); ++j) pairs.push_back({hamming[i][j], i, j});
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& x, const Pair& y) { return x.distance < y.distance; });
  std::cout << "\nmost similar risk profiles (smallest Hamming distance):\n";
  for (std::size_t k = 0; k < 5 && k < pairs.size(); ++k) {
    std::cout << "  " << profiles[pairs[k].i].name << " ~ " << profiles[pairs[k].j].name
              << " (distance " << pairs[k].distance << ")\n";
  }
  return 0;
}

int cmd_cuts(const core::Scenario& scenario, const Args& args) {
  const auto& cities = core::Scenario::cities();
  const auto bridges = risk::bridge_conduits(scenario.map());
  std::cout << bridges.size() << " single-point-of-failure conduits\n";
  const auto sf = cities.find("San Francisco, CA");
  const auto ny = cities.find("New York, NY");
  if (sf && ny) {
    std::cout << "SF <-> NYC conduit-disjoint paths: "
              << risk::min_conduit_cut(scenario.map(), *sf, *ny) << "\n";
  }
  const auto study = risk::hazard_study(scenario.map(), cities, scenario.row(), args.radius_km,
                                        100, args.seed);
  std::cout << "\ndisaster drill (radius " << args.radius_km << " km, 100 samples):\n"
            << "  mean links hit: " << format_double(study.mean_links_hit, 1)
            << ", p95: " << format_double(study.p95_links_hit, 1) << "\n"
            << "  worst sample: " << study.worst_impact.links_hit << " links across "
            << study.worst_impact.isps_hit << " ISPs near "
            << cities.city(cities.nearest(study.worst_region.center)).display_name() << "\n";
  return 0;
}

int cmd_plan(const core::Scenario& scenario, const Args& args) {
  const auto& cities = core::Scenario::cities();
  const auto& profiles = scenario.truth().profiles();
  const isp::IspId isp = isp::find_profile(profiles, args.isp);
  if (isp == isp::kNoIsp) {
    std::cerr << "unknown ISP: " << args.isp << " (names: ";
    for (const auto& p : profiles) std::cerr << p.name << " ";
    std::cerr << ")\n";
    return 1;
  }
  const auto matrix = risk::RiskMatrix::from_map(scenario.map());
  const auto targets = matrix.most_shared_conduits(12);
  const auto summaries = optimize::summarize_robustness(scenario.map(), matrix, targets);
  for (const auto& s : summaries) {
    if (s.isp != isp) continue;
    std::cout << args.isp << " rides " << s.targets_using
              << " of the 12 most shared conduits; re-routing costs " << format_double(s.pi_avg, 2)
              << " extra hops on average and cuts worst-tube tenancy by "
              << format_double(s.srr_avg, 1) << "\n";
  }
  for (core::ConduitId target : targets) {
    if (!matrix.uses(isp, target)) continue;
    const auto suggestion = optimize::suggest_reroute(scenario.map(), matrix, target, isp);
    const auto& c = scenario.map().conduit(target);
    std::cout << "  " << cities.city(c.a).display_name() << " -- "
              << cities.city(c.b).display_name() << " (" << matrix.sharing_count(target)
              << " tenants): ";
    if (suggestion.optimized_path.empty()) {
      std::cout << "no alternative path\n";
    } else {
      std::cout << "PI=" << suggestion.path_inflation
                << " hops, SRR=" << suggestion.shared_risk_reduction << "\n";
    }
  }
  const auto peering = optimize::suggest_peering(scenario.map(), matrix, targets, 3);
  std::cout << "suggested peers: ";
  for (isp::IspId peer : peering[isp].suggested) std::cout << profiles[peer].name << "  ";
  const auto expansion =
      optimize::optimize_expansion(scenario.map(), scenario.row(), isp, args.k);
  std::cout << "\n\nexpansion (up to k=" << args.k << " new conduits, baseline avg shared risk "
            << format_double(expansion.baseline_avg_shared_risk, 2) << "):\n";
  for (std::size_t k = 0; k < expansion.steps.size(); ++k) {
    const auto& step = expansion.steps[k];
    std::cout << "  k=" << (k + 1) << ": avg " << format_double(step.avg_shared_risk, 2)
              << ", improvement " << format_double(100.0 * step.improvement_ratio, 1) << "%";
    if (step.added != transport::kNoCorridor) {
      const auto& corridor = scenario.row().corridor(step.added);
      std::cout << " (+ " << cities.city(corridor.a).display_name() << " -- "
                << cities.city(corridor.b).display_name() << ")";
    }
    std::cout << "\n";
  }

  // Latency headroom: today's paths against the ROW and line-of-sight
  // bounds (Fig. 12's headline).
  const auto study = optimize::latency_study(scenario.map(), cities, scenario.row());
  std::vector<double> gap_ms;
  for (const auto& pair : study.pairs) {
    if (pair.row_reachable) gap_ms.push_back(pair.row_ms - pair.los_ms);
  }
  std::cout << "\nlatency study over " << study.pairs.size() << " city pairs:\n"
            << "  best existing path is already the best ROW path for "
            << format_double(100.0 * study.fraction_best_is_row, 1) << "% of pairs\n"
            << "  ROW-vs-LOS gap: median=" << format_double(median(gap_ms) * 1000.0, 0)
            << " us, p75=" << format_double(quartile75(gap_ms) * 1000.0, 0) << " us\n";
  return 0;
}

int cmd_export(const core::Scenario& scenario, const Args& args) {
  const auto& cities = core::Scenario::cities();
  // Annotate every conduit with the probes a 100 000-probe traceroute
  // campaign routes through it.
  const auto topo = traceroute::L3Topology::from_ground_truth(scenario.truth(), cities);
  traceroute::CampaignParams campaign_params;
  campaign_params.seed = args.seed;
  campaign_params.num_probes = 100000;
  const auto campaign = traceroute::run_campaign(topo, cities, campaign_params);
  const auto overlay = traceroute::overlay_campaign(scenario.map(), cities, campaign);
  core::MapAnnotations annotations;
  for (const auto& usage : overlay.usage) annotations.probes_per_conduit.push_back(usage.total());

  const auto write = [&args](const std::string& layer, const std::string& content) {
    const std::string path = args.prefix + "_" + layer + ".geojson";
    write_file(path, content);
    std::cout << "wrote " << path << " (" << content.size() / 1024 << " KiB)\n";
  };
  write("fiber_map",
        core::export_fiber_map_geojson(scenario.map(), cities, scenario.row(), annotations));
  write("roadways", core::export_transport_geojson(scenario.bundle().road, cities));
  write("railways", core::export_transport_geojson(scenario.bundle().rail, cities));
  write("pipelines", core::export_transport_geojson(scenario.bundle().pipeline, cities));
  return 0;
}

int cmd_diff(const core::Scenario& scenario, const Args& args) {
  if (args.before_path.empty() || args.after_path.empty()) {
    std::cerr << "diff requires --before <file> and --after <file>\n";
    usage(std::cerr);
    return kUsageError;
  }
  const auto& profiles = scenario.truth().profiles();
  DiagnosticSink sink(args.policy);
  const auto before = core::load_dataset(args.before_path, core::Scenario::cities(),
                                         scenario.row(), profiles, sink);
  const auto after = core::load_dataset(args.after_path, core::Scenario::cities(),
                                        scenario.row(), profiles, sink);
  const auto diff = core::diff_maps(before, after);
  if (diff.empty()) {
    std::cout << "datasets are structurally identical\n";
  } else {
    std::cout << core::render_diff(diff, core::Scenario::cities(), profiles);
  }
  if (sink.total() > 0) std::cout << "\n" << sink.render();
  return 0;
}

int cmd_check(const core::Scenario& scenario, const Args& args) {
  if (args.in_path.empty()) {
    std::cerr << "check requires --in <file>\n";
    usage(std::cerr);
    return kUsageError;
  }
  const auto& profiles = scenario.truth().profiles();
  DiagnosticSink sink(args.policy);
  // Under --strict the first defect throws ParseError, which main() turns
  // into `error: <source>:<line>: <message>`.
  const auto map = core::load_dataset(args.in_path, core::Scenario::cities(), scenario.row(),
                                      profiles, sink);
  const auto stats = core::compute_stats(map);
  std::cout << "parsed " << args.in_path << ": " << stats.nodes << " nodes, " << stats.links
            << " links, " << stats.conduits << " conduits\n";
  if (sink.total() > 0) {
    std::cout << "\n" << sink.render();
  } else {
    std::cout << "no defects found\n";
  }
  return sink.error_count() > 0 ? 1 : 0;
}

/// Run the serve/ query engine over a scripted mixed workload: a
/// hash-routed fleet of --shards serve domains (one worker each),
/// closed-loop client threads streaming the script, and --churn live
/// delta batches applied while the clients are in flight, each
/// RCU-swapping every shard's replica.  Prints the merged fleet report.
int cmd_serve(const core::Scenario& scenario, const Args& args) {
  if (args.requests == 0 || args.threads == 0 || args.shards == 0) {
    std::cerr << "serve requires --requests >= 1, --threads >= 1 and --shards >= 1\n";
    usage(std::cerr);
    return kUsageError;
  }
  serve::ShardedEngine fleet({.shards = args.shards, .threads_per_shard = 1});
  // Non-owning alias: the Scenario on main's stack outlives the fleet.
  const std::shared_ptr<const core::Scenario> world{std::shared_ptr<const core::Scenario>{},
                                                    &scenario};
  fleet.publish(serve::Snapshot::build(world, {0, "cli base"}));
  const auto base = fleet.current();

  const auto targets = base->matrix().most_shared_conduits(2);
  const std::vector<serve::Request> script = {
      serve::SharedRiskQuery{args.isp},
      serve::TopConduitsQuery{args.k},
      serve::CityPathQuery{"San Francisco, CA", "New York, NY"},
      serve::CityPathQuery{"Seattle, WA", "Miami, FL"},
      serve::WhatIfCutQuery{{targets[0]}},
      serve::HammingNeighborsQuery{args.isp, 3},
  };

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < args.threads; ++t) {
    clients.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < args.requests; i = next.fetch_add(1)) {
        const auto response = fleet.serve(script[i % script.size()]);
        if (response.status != serve::Status::Ok &&
            response.status != serve::Status::Overloaded) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Live churn while clients stream: cut the second most-shared
  // conduit's corridor, then repair it, alternating — each apply()
  // rebuilds the next epoch off the hot path and swaps every shard's
  // replica, so the report shows traffic served across several epochs.
  const transport::CorridorId corridor = base->map().conduit(targets[1]).corridor;
  for (std::size_t batch = 0; batch < args.churn; ++batch) {
    serve::DeltaBatch delta;
    if (batch % 2 == 0) {
      delta.cut = {corridor};
    } else {
      delta.repair = {corridor};
    }
    delta.label = "cli churn";
    fleet.apply(delta);
    fleet.purge_stale_cache();
  }
  for (auto& client : clients) client.join();

  std::cout << "served " << fleet.total_served() << " requests on " << args.threads
            << " client threads across " << fleet.num_shards() << " shards (shed "
            << fleet.total_shed() << ", failed " << failures.load() << ")\n"
            << "applied " << fleet.deltas_applied() << " delta batches; snapshot epoch now "
            << fleet.epoch() << " [" << fleet.current()->label()
            << "], stale cache entries purged: " << fleet.purge_stale_cache() << "\n\n"
            << fleet.render_metrics();
  return failures.load() == 0 ? 0 : 1;
}

/// All-pairs speed-of-light audit plus the gap-closing conduit proposals,
/// both on the default executor (the batched sweep fans out per source).
int cmd_dissect(const core::Scenario& scenario, const Args& args) {
  if (args.top == 0 || args.target < 1.0) {
    std::cerr << "dissect requires --top >= 1 and --target >= 1.0\n";
    usage(std::cerr);
    return kUsageError;
  }
  const auto& cities = core::Scenario::cities();
  auto& executor = sim::default_executor();

  const dissect::LatencyDissector dissector(scenario.map(), cities, scenario.row());
  dissect::DissectOptions options;
  options.target_factor = args.target;
  const auto study = dissector.dissect(&executor, options);
  std::cout << artifact::render_clatency_audit(study, cities, args.top);

  dissect::GapClosingParams params;
  params.target_factor = args.target;
  params.max_k = args.k;
  const auto closing = dissect::close_gaps(scenario.map(), cities, scenario.row(), params,
                                           &executor);
  std::cout << "\ngap closing (target " << format_double(args.target, 1)
            << "x c-latency, up to k=" << args.k << " new conduits):\n"
            << "  before: " << closing.gap_pairs_before << " gap pairs, total excess "
            << format_double(closing.excess_ms_before, 1) << " ms\n";
  for (std::size_t i = 0; i < closing.steps.size(); ++i) {
    const auto& step = closing.steps[i];
    const auto& corridor = scenario.row().corridor(step.corridor);
    std::cout << "  k=" << (i + 1) << ": trench "
              << cities.city(corridor.a).display_name() << " -- "
              << cities.city(corridor.b).display_name() << " ("
              << format_double(step.km_added, 0) << " km) -> " << step.gap_pairs
              << " gap pairs, excess " << format_double(step.excess_ms, 1) << " ms\n";
  }
  if (closing.steps.empty()) std::cout << "  no corridor pays for its trench\n";
  return 0;
}

/// Cross-layer cascade campaign (overload-round curves + per-ISP damage)
/// followed by a percolation sweep, both on the default executor.
int cmd_cascade(const core::Scenario& scenario, const Args& args) {
  if (args.trials == 0 || args.k == 0 || args.margin < 0.0) {
    std::cerr << "cascade requires --trials >= 1, --k >= 1, --margin >= 0\n";
    usage(std::cerr);
    return kUsageError;
  }
  sim::Stressor stressor = sim::Stressor::random_cuts(args.k);
  sim::StressorKind adversary = sim::StressorKind::RandomCuts;
  if (args.adversary == "targeted") {
    stressor = sim::Stressor::targeted_cuts(args.k);
    adversary = sim::StressorKind::TargetedCuts;
  } else if (args.adversary == "hazard") {
    stressor = sim::Stressor::correlated_hazards(args.k, args.radius_km);
    adversary = sim::StressorKind::CorrelatedHazards;
  } else if (args.adversary != "random") {
    std::cerr << "unknown adversary: " << args.adversary << " (random, targeted, hazard)\n";
    return kUsageError;
  }
  const auto& cities = core::Scenario::cities();
  auto& executor = sim::default_executor();
  const auto l3 = traceroute::L3Topology::from_ground_truth(scenario.truth(), cities);
  const cascade::CascadeEngine engine(scenario.map(), &l3, &cities, &scenario.row());

  cascade::CascadeConfig config;
  config.stressor = stressor;
  config.params.capacity_margin = args.margin;
  config.trials = args.trials;
  config.seed = args.seed;
  const auto report = engine.run(config, &executor);
  std::cout << artifact::render_cascade(report, &scenario.truth().profiles());

  cascade::PercolationConfig sweep_config;
  sweep_config.adversary = adversary;
  sweep_config.hazard_radius_km = args.radius_km;
  sweep_config.trials = args.trials;
  sweep_config.seed = args.seed;
  const auto sweep = engine.percolation(sweep_config, &executor);
  std::cout << "\n" << artifact::render_percolation(sweep);
  return 0;
}

/// Synthesize a planet-scale world at --scale, strict-ingest it (inherent
/// in generate_world's dataset round-trip), then prove the whole analysis
/// stack runs on it: risk matrix, serve snapshot, a cascade campaign, and
/// the all-pairs dissection sweep.  `generate` needs no Scenario — the
/// synthetic world replaces it.
int cmd_generate(const Args& args) {
  if (args.scale <= 0.0) {
    std::cerr << "generate requires --scale > 0\n";
    usage(std::cerr);
    return kUsageError;
  }
  auto& executor = sim::default_executor();
  worldgen::WorldSpec spec;
  spec.scale = args.scale;
  spec.continents = args.continents;
  spec.seed = args.seed;
  const worldgen::World world = worldgen::generate_world(spec, &executor);
  for (const auto& violation : worldgen::validate(world)) {
    std::cerr << "invariant violation: " << violation << "\n";
  }
  if (!worldgen::validate(world).empty()) return 1;

  const auto summary = worldgen::summarize(world);
  std::cout << "generated world (scale " << format_double(args.scale, 1) << ", seed 0x" << std::hex
            << args.seed << std::dec << "):\n"
            << "  " << summary.cities << " cities on " << summary.continents << " continents, "
            << summary.cables << " submarine cables\n"
            << "  map: " << summary.nodes << " nodes, " << summary.links << " links, "
            << summary.conduits << " conduits (" << summary.submarine_conduits << " submarine), "
            << summary.isps << " ISPs\n"
            << "  mean degree " << format_double(summary.mean_degree, 2) << ", mean tenancy "
            << format_double(summary.mean_tenants, 2) << ", "
            << format_double(summary.total_conduit_km, 0) << " conduit-km\n";

  // The full downstream stack, unchanged from the paper world.
  const auto snapshot = serve::Snapshot::build(world.view(), {0, "generated world"});
  std::cout << "\nrisk: " << snapshot->sharing_table()[1] << " conduits shared by >= 2 ISPs\n";

  cascade::CascadeConfig config;
  config.stressor = sim::Stressor::random_cuts(args.k);
  config.params.capacity_margin = args.margin;
  config.trials = args.trials;
  config.seed = args.seed;
  const auto report = snapshot->cascade_engine().run(config, &executor);
  std::cout << "cascade (" << args.trials << " trials, k=" << args.k << "): demand delivered "
            << format_double(100.0 * report.demand_delivered.points.back().mean, 1)
            << "% at the fixed point\n";

  const dissect::LatencyDissector dissector(snapshot->shared_path_engine(),
                                            snapshot->map().nodes(), world.cities(), world.row());
  const auto study = dissector.dissect(&executor, {});
  std::cout << "dissect: " << (study.pairs.size() - study.fiber_unreachable)
            << " fiber-reachable pairs, median stretch " << format_double(study.median_stretch, 2)
            << "x c-latency\n";

  if (args.out_set) {
    write_file(args.out, world.dataset());
    std::cout << "\ndataset written to " << args.out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    // No arguments at all is a help request; a malformed invocation is a
    // usage error.  Both print usage, only the latter is nonzero.
    usage(argc < 2 ? std::cout : std::cerr);
    return argc < 2 ? 0 : kUsageError;
  }
  if (args.command == "help") {
    usage(std::cout);
    return 0;
  }
  try {
    // `generate` builds its own synthetic world; skip the paper Scenario.
    if (args.command == "generate") return cmd_generate(args);
    const core::Scenario scenario{core::ScenarioParams::with_seed(args.seed)};
    if (args.command == "build") return cmd_build(scenario, args);
    if (args.command == "stats") return cmd_stats(scenario, args);
    if (args.command == "risk") return cmd_risk(scenario, args);
    if (args.command == "cuts") return cmd_cuts(scenario, args);
    if (args.command == "plan") return cmd_plan(scenario, args);
    if (args.command == "export") return cmd_export(scenario, args);
    if (args.command == "diff") return cmd_diff(scenario, args);
    if (args.command == "check") return cmd_check(scenario, args);
    if (args.command == "serve") return cmd_serve(scenario, args);
    if (args.command == "dissect") return cmd_dissect(scenario, args);
    if (args.command == "cascade") return cmd_cascade(scenario, args);
    std::cerr << "unknown command: " << args.command << "\n";
    usage(std::cerr);
    return kUsageError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
