// Workload `campaign-10x`: a 10x generated world (several continents joined
// by submarine cables) and, on one sim::Executor of fixed size, a
// cascade::CascadeEngine campaign, a sim::CampaignEngine failure campaign
// and an all-pairs dissect::LatencyDissector sweep.  No pipeline, no serve
// engine: batched Dijkstra rows and forests (route), overload rounds
// (cascade) and executor fan-out (sim) dominate.
//
// kWorldSeed drives the generated world, the seed the trial draws.
// Set-up: generate the world, derive its L3 topology, compile the conduit
// graph once and build the three engines over it.  It is repeated before
// every pass, and the pass runs on the last engines.  A pass runs the three
// stages once; passes repeat until the time budget is spent and every pass
// must reproduce the first pass's report digest.
//
// The traced run splits each stage into its public pieces: the parallel
// run, a serial sample of run_trial, a batch of route forests, and the
// distance rows under the dissection sweep.
#include <memory>

#include "cascade/cascade.hpp"
#include "common.hpp"
#include "dissect/dissector.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "trace.hpp"
#include "traceroute/l3_topology.hpp"
#include "util/rng.hpp"
#include "worldgen/worldgen.hpp"

namespace perfbench {

namespace {

using namespace intertubes;

/// Set-ups before every pass; the VM's speed shifts within seconds, so the
/// run's median set-up samples the whole run.
constexpr int kSetupsPerPass = 2;
constexpr std::size_t kCascadeTrials = 48;
constexpr std::size_t kCampaignTrials = 4800;
constexpr std::size_t kCascadeSample = 4;
constexpr std::size_t kCampaignSample = 200;
constexpr std::size_t kForestSources = 64;

struct Engines {
  std::unique_ptr<worldgen::World> world;
  std::unique_ptr<traceroute::L3Topology> l3;
  std::shared_ptr<const route::PathEngine> conduits;
  std::unique_ptr<cascade::CascadeEngine> cascade;
  std::unique_ptr<sim::CampaignEngine> campaign;
  std::unique_ptr<dissect::LatencyDissector> dissector;
};

Engines set_up(std::uint64_t seed, sim::Executor& executor, double& generate_s) {
  Engines e;
  auto t0 = Clock::now();
  worldgen::WorldSpec spec;
  spec.scale = 10.0;
  e.world =
      std::make_unique<worldgen::World>(worldgen::generate_world(spec.with_seed(seed), &executor));
  generate_s = seconds_since(t0);
  const auto& w = *e.world;
  e.l3 = std::make_unique<traceroute::L3Topology>(
      traceroute::L3Topology::from_ground_truth(w.truth(), w.cities()));
  std::vector<route::EdgeSpec> edges;
  for (const auto& conduit : w.map().conduits()) {
    edges.push_back({conduit.a, conduit.b, conduit.length_km});
  }
  e.conduits = std::make_shared<const route::PathEngine>(
      static_cast<route::NodeId>(w.cities().size()), std::move(edges));
  e.cascade = std::make_unique<cascade::CascadeEngine>(w.map(), e.l3.get(), &w.cities(), &w.row(),
                                                       e.conduits);
  e.campaign = std::make_unique<sim::CampaignEngine>(w.map(), &w.cities(), &w.row());
  e.dissector = std::make_unique<dissect::LatencyDissector>(e.conduits, w.map().nodes(),
                                                            w.cities(), w.row());
  return e;
}

void curve(Digest& d, const sim::MetricCurve& c) {
  d.str(c.name);
  for (const auto& p : c.points) {
    for (double v : {p.mean, p.p5, p.p50, p.p95}) d.f64(v);
    d.u64(p.samples);
  }
}

void impact(Digest& d, const std::vector<sim::IspImpact>& rows) {
  for (const auto& r : rows) {
    d.u64(r.isp);
    for (double v : {r.mean_links_lost, r.p95_links_lost, r.max_links_lost}) d.f64(v);
  }
}

std::uint64_t digest_cascade(const cascade::CascadeReport& r) {
  Digest d;
  for (const auto* c : {&r.conduits_dead, &r.overload_failed, &r.giant_component,
                        &r.l3_edges_dead, &r.l3_reachability, &r.demand_delivered,
                        &r.mean_stretch}) {
    curve(d, *c);
  }
  impact(d, r.isp_impact);
  return d.value();
}

std::uint64_t digest_campaign(const sim::CampaignReport& r) {
  Digest d;
  for (const auto* c : {&r.conduits_down, &r.connectivity, &r.components, &r.links_hit,
                        &r.isps_hit, &r.weight_lost}) {
    curve(d, *c);
  }
  impact(d, r.isp_impact);
  return d.value();
}

std::uint64_t digest_study(const dissect::DissectionStudy& s) {
  Digest d;
  for (auto n : s.nodes) d.u64(n);
  for (const auto& p : s.pairs) {
    for (double v : {p.clat_ms, p.los_ms, p.row_ms, p.fiber_ms, p.detour_ms, p.stretch}) d.f64(v);
  }
  d.u64(s.fiber_unreachable);
  d.u64(s.row_unreachable);
  d.u64(s.within_target);
  d.f64(s.median_stretch);
  d.f64(s.p95_stretch);
  d.f64(s.total_achievable_ms);
  return d.value();
}

}  // namespace

Result run_campaign(const Options& options) {
  Result res;
  sim::Executor executor(options.threads);

  cascade::CascadeConfig cascade_config;
  cascade_config.trials = std::max<std::size_t>(1, kCascadeTrials / options.shrink);
  cascade_config.seed = mix64(options.seed ^ 0xca5cade);
  sim::CampaignConfig campaign_config;
  campaign_config.stressor = sim::Stressor::random_cuts(20);
  campaign_config.trials = std::max<std::size_t>(1, kCampaignTrials / options.shrink);
  campaign_config.seed = mix64(options.seed ^ 0xfa11);

  std::vector<double> setups, generates;
  Engines e;
  std::vector<double> cascade_s, campaign_s, dissect_s, total_s;
  std::string first_digest;
  dissect::DissectionStudy study;
  double measured_s = 0.0;
  while (total_s.size() < 2 || measured_s < options.seconds) {
    study = {};  // tear the previous pass down outside the timed regions
    for (int i = 0; i < kSetupsPerPass; ++i) {
      e = Engines{};
      const auto t0 = Clock::now();
      double generate_s = 0.0;
      e = set_up(kWorldSeed, executor, generate_s);
      setups.push_back(seconds_since(t0));
      generates.push_back(generate_s);
    }
    auto t0 = Clock::now();
    const auto cascade_report = e.cascade->run(cascade_config, &executor);
    cascade_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const auto campaign_report = e.campaign->run(campaign_config, executor);
    campaign_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    study = e.dissector->dissect(&executor);
    dissect_s.push_back(seconds_since(t0));
    total_s.push_back(cascade_s.back() + campaign_s.back() + dissect_s.back());
    measured_s += total_s.back();
    res.attempted += cascade_config.trials + campaign_config.trials + 1;

    Digest d;
    d.u64(digest_cascade(cascade_report));
    d.u64(digest_campaign(campaign_report));
    d.u64(digest_study(study));
    if (first_digest.empty()) first_digest = d.hex();
    res.check(d.hex() == first_digest, "campaign-10x: pass " + std::to_string(total_s.size()) +
                                           " report digest differs from pass 1");
  }
  res.digest = first_digest;
  res.peak_rss_mb = peak_rss_mb();
  const auto& world = *e.world;

  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double passes = static_cast<double>(total_s.size());
  const Rate cascade_rate{"cascade_trials_per_s", passes * double(cascade_config.trials),
                          sum(cascade_s), passes * double(cascade_config.trials) / sum(cascade_s)};
  const Rate campaign_rate{"campaign_trials_per_s", passes * double(campaign_config.trials),
                           sum(campaign_s),
                           passes * double(campaign_config.trials) / sum(campaign_s)};
  res.rates = {cascade_rate, campaign_rate};
  res.gated = {{"setup_s", median(setups), "s"},
               {"pass_s", median(total_s), "s"},
               {"stage1_ms", median(cascade_s) * 1e3, "ms"},
               {"stage2_ms", median(campaign_s) * 1e3, "ms"},
               {"stage3_ms", median(dissect_s) * 1e3, "ms"}};
  res.figures = {{"setup_s", median(setups), "s"},
                 {"cascade_trials_per_s", cascade_rate.value, "1/s"},
                 {"campaign_trials_per_s", campaign_rate.value, "1/s"},
                 {"dissect_s", median(dissect_s), "s"}};
  const auto summary = worldgen::summarize(world);
  res.context = {
      {"world", "worldgen scale 10, " +
                    std::to_string(summary.cities) + " cities, " +
                    std::to_string(summary.conduits) + " conduits, " +
                    std::to_string(summary.links) + " links, " +
                    std::to_string(summary.continents) + " continents, " +
                    std::to_string(summary.cables) + " cables"},
      {"campaigns", std::to_string(cascade_config.trials) + " cascade trials (" +
                        sim::stressor_name(cascade_config.stressor) + "), " +
                        std::to_string(campaign_config.trials) + " failure trials (" +
                        sim::stressor_name(campaign_config.stressor) + "), " +
                        std::to_string(study.nodes.size()) + "-node all-pairs sweep"},
      {"passes", std::to_string(total_s.size())},
  };

  if (!options.trace) return res;

  trace::enable(true);
  const double threads = static_cast<double>(executor.num_threads());
  std::vector<std::size_t> rounds;
  cascade::CascadeReport cascade_report;
  sim::CampaignReport campaign_report;
  study = {};
  {
    trace::Span op("campaign.cascade");
    {
      trace::Span span("cascade.run");
      cascade_report = e.cascade->run(cascade_config, &executor);
    }
    for (std::size_t t = 0; t < std::min(kCascadeSample, cascade_config.trials); ++t) {
      trace::Span span("cascade.trial");
      const auto trial = e.cascade->run_trial(cascade_config, t);
      // The fixed point is the first round whose dead count is final.
      std::size_t r = 0;
      while (trial.rounds[r].conduits_dead != trial.rounds.back().conduits_dead) ++r;
      rounds.push_back(r);
    }
    {
      std::vector<route::NodeId> sources;
      const auto nodes = world.map().nodes();
      for (std::size_t i = 0; i < std::min(kForestSources, nodes.size()); ++i) {
        sources.push_back(static_cast<route::NodeId>(nodes[i]));
      }
      trace::Span span("route.forest");
      e.conduits->route_forest(sources);
    }
  }
  {
    trace::Span op("campaign.failure");
    {
      trace::Span span("sim.run");
      campaign_report = e.campaign->run(campaign_config, executor);
    }
    for (std::size_t t = 0; t < std::min(kCampaignSample, campaign_config.trials); ++t) {
      trace::Span span("sim.trial");
      e.campaign->run_trial(campaign_config.stressor, campaign_config.seed, t);
    }
  }
  {
    trace::Span op("campaign.dissect");
    {
      trace::Span span("route.rows");
      const auto& nodes = e.dissector->nodes();
      std::vector<route::NodeId> sources(nodes.begin(), nodes.end());
      e.conduits->distance_rows(sources, {}, &executor);
      world.row().path_engine().distance_rows(sources, {}, &executor);
    }
    {
      trace::Span span("dissect.sweep");
      study = e.dissector->dissect(&executor);
    }
  }
  trace::enable(false);
  Digest traced_digest;
  traced_digest.u64(digest_cascade(cascade_report));
  traced_digest.u64(digest_campaign(campaign_report));
  traced_digest.u64(digest_study(study));
  res.check(traced_digest.hex() == first_digest,
            "campaign-10x: traced pass report digest differs from the untraced passes");

  const auto records = trace::collect();
  res.trace_table = trace::self_time_table(records);
  if (!options.trace_out.empty()) {
    res.check(trace::write_chrome(options.trace_out, records),
              "trace: cannot write " + options.trace_out);
  }
  const auto span_median = [&](const char* name) {
    return median(trace::durations(records, name));
  };
  const auto span_total = [&](const char* name) { return sum(trace::durations(records, name)); };
  double rounds_sum = 0.0;
  for (auto r : rounds) rounds_sum += static_cast<double>(r);
  const double traced_s =
      span_total("cascade.run") + span_total("sim.run") + span_total("dissect.sweep");
  const double cascade_trial_s = span_median("cascade.trial");
  const double campaign_trial_s = span_median("sim.trial");
  res.layers = {
      {"setup_s", {"worldgen.generate_s", median(generates), "s"}},
      {"cascade_trials_per_s", {"cascade.trial_ms", cascade_trial_s * 1e3, "ms"}},
      {"cascade_trials_per_s",
       {"cascade.rounds_mean", rounds_sum / static_cast<double>(rounds.size()), "rounds"}},
      {"cascade_trials_per_s", {"route.forest_ms", span_total("route.forest") * 1e3, "ms"}},
      {"cascade_trials_per_s",
       {"sim.cascade_efficiency",
        cascade_trial_s * double(cascade_config.trials) / (threads * span_total("cascade.run")),
        "ratio"}},
      {"campaign_trials_per_s", {"sim.trial_us", campaign_trial_s * 1e6, "us"}},
      {"campaign_trials_per_s",
       {"sim.campaign_efficiency",
        campaign_trial_s * double(campaign_config.trials) / (threads * span_total("sim.run")),
        "ratio"}},
      {"dissect_s", {"route.rows_s", span_total("route.rows"), "s"}},
      {"dissect_s",
       {"dissect.decompose_s", span_total("dissect.sweep") - span_total("route.rows"), "s"}},
      {"pass_s", {"trace.overhead_s", traced_s - median(total_s), "s"}},
      {"pass_s", {"trace.overhead_pct", 100.0 * (traced_s / median(total_s) - 1.0), "%"}},
  };
  return res;
}

}  // namespace perfbench
