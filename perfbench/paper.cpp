// Workload `paper`: the paper world at the seed, built by the §2 four-step
// pipeline, published with the §4.3 traceroute overlay, then the §5
// toolkit over every ISP.  Single-threaded.
//
// kWorldSeed drives the transport network and ground truth, the seed the
// published maps and the records corpus.  Set-up generates the world's
// inputs (transport bundle, ROW registry, ground truth, published maps,
// records corpus); it is repeated before every pass, and the pass runs on
// the last inputs.  A pass then times three stages: build (MapBuilder
// index + steps 1-4, i.e. core::Scenario minus its inputs), publish
// (serve::Snapshot::build with a 200 000-probe overlay) and plan
// (robustness, peering, k=5 expansion, latency study).
//
// The traced run repeats one pass with every stage split into its public
// pieces, and checks that the pieces compose to the same outputs: the
// step-by-step map serializes to the same dataset bytes as core::Scenario,
// and run_campaign + overlay_campaign give the overlay publish's overlay.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/dataset_io.hpp"
#include "core/fidelity.hpp"
#include "core/scenario.hpp"
#include "optimize/expansion.hpp"
#include "optimize/latency.hpp"
#include "optimize/robustness.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"
#include "traceroute/campaign.hpp"
#include "traceroute/overlay.hpp"

namespace perfbench {

namespace {

using namespace intertubes;

constexpr std::uint64_t kOverlayProbes = 200000;
constexpr std::size_t kPlanTargets = 12;
constexpr std::size_t kExpansionK = 5;
/// A set-up takes ~50 ms, and the VM's speed shifts within a second, so a
/// run repeats it before every pass and reports the median.
constexpr int kSetupsPerPass = 5;
constexpr std::size_t kMinPasses = 4;

/// The world's inputs; pinned in place because the map builder and the
/// snapshot view keep references into it.
struct Inputs {
  core::ScenarioParams params;
  transport::TransportBundle bundle;
  transport::RightOfWayRegistry row;
  isp::GroundTruth truth;
  std::vector<isp::PublishedMap> published;
  records::Corpus corpus;
  core::FiberMap map{0};  ///< filled by the build stage

  explicit Inputs(const core::ScenarioParams& p)
      : params(p),
        bundle(transport::generate_bundle(core::Scenario::cities(), p.network)),
        row(bundle),
        truth(isp::generate_ground_truth(core::Scenario::cities(), row, isp::default_profiles(),
                                         p.ground_truth)),
        published(isp::render_all_published_maps(truth, row, p.publish)),
        corpus(records::generate_corpus(core::Scenario::cities(), row, truth, p.corpus)) {}
};

core::WorldView view_of(const std::shared_ptr<Inputs>& in) {
  core::WorldView view;
  view.cities = &core::Scenario::cities();
  view.row = &in->row;
  view.truth = &in->truth;
  view.map = &in->map;
  view.owner = in;
  return view;
}

std::string dataset_of(const core::FiberMap& map, const Inputs& in) {
  return core::serialize_dataset(map, core::Scenario::cities(), in.row, in.truth.profiles());
}

void digest_overlay(Digest& d, const traceroute::OverlayResult& overlay) {
  d.u64(overlay.mapped_segments);
  d.u64(overlay.unmapped_segments);
  for (const auto& usage : overlay.usage) {
    d.u64(usage.probes_west_east);
    d.u64(usage.probes_east_west);
    for (isp::IspId isp : usage.observed_isps) d.u64(isp);
  }
}

struct PlanOutput {
  std::vector<optimize::IspRobustnessSummary> robustness;
  std::vector<optimize::PeeringSuggestion> peering;
  std::vector<optimize::ExpansionResult> expansion;
  optimize::LatencyStudy latency;
};

void digest_plan(Digest& d, const PlanOutput& plan) {
  for (const auto& s : plan.robustness) {
    d.u64(s.isp);
    d.u64(s.targets_using);
    for (double v : {s.pi_min, s.pi_max, s.pi_avg, s.srr_min, s.srr_max, s.srr_avg}) d.f64(v);
  }
  d.u64(plan.peering.size());
  for (const auto& p : plan.peering) d.u64(p.isp);
  for (const auto& e : plan.expansion) {
    d.u64(e.isp);
    d.f64(e.baseline_avg_shared_risk);
    d.u64(e.unreachable_demands);
    for (const auto& step : e.steps) {
      d.u64(step.added);
      d.f64(step.avg_shared_risk);
    }
  }
  d.f64(plan.latency.fraction_best_is_row);
  d.u64(plan.latency.row_unreachable);
  for (const auto& p : plan.latency.pairs) {
    d.f64(p.best_ms);
    d.f64(p.row_ms);
  }
}

/// The §5 toolkit over every ISP of the published snapshot.
PlanOutput plan(const serve::Snapshot& snap, const Inputs& in, Result& res) {
  PlanOutput out;
  const auto targets = snap.matrix().most_shared_conduits(kPlanTargets);
  {
    trace::Span span("optimize.robustness");
    out.robustness = optimize::summarize_robustness(snap.map(), snap.matrix(), targets);
  }
  {
    trace::Span span("optimize.peering");
    out.peering = optimize::suggest_peering(snap.map(), snap.matrix(), targets);
  }
  {
    trace::Span span("optimize.expansion");
    for (isp::IspId isp = 0; isp < in.truth.num_isps(); ++isp) {
      out.expansion.push_back(optimize::optimize_expansion(snap.map(), in.row, isp, kExpansionK));
    }
  }
  {
    trace::Span span("optimize.latency");
    out.latency = optimize::latency_study(snap.map(), core::Scenario::cities(), in.row);
  }
  res.attempted += 3 + in.truth.num_isps();
  return out;
}

struct PassTimes {
  double build_s = 0.0;
  double publish_s = 0.0;
  double plan_s = 0.0;
};

}  // namespace

Result run_paper(const Options& options) {
  Result res;
  auto params = core::ScenarioParams::with_seed(kWorldSeed);
  params.publish.seed = options.seed;
  params.corpus.seed = options.seed;

  // Untraced passes until the time budget is spent, and at least kMinPasses:
  // a pass takes seconds, and on a shared VM its stages move by up to 20 %
  // from one pass to the next, so one run reports the median of several.
  std::vector<double> setups;
  std::shared_ptr<Inputs> in;
  std::vector<PassTimes> passes;
  std::string first_digest;
  std::uint64_t plan_digest = 0;
  core::FiberMap built{0};
  std::shared_ptr<serve::Snapshot> published;
  double measured_s = 0.0;
  while (passes.size() < kMinPasses || measured_s < options.seconds) {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      // Tear the previous pass down outside the timed region.
      published.reset();
      in.reset();
      const auto t0 = Clock::now();
      in = std::make_shared<Inputs>(params);
      setups.push_back(seconds_since(t0));
    }
    PassTimes t;
    auto t0 = Clock::now();
    in->map = core::MapBuilder(core::Scenario::cities(), in->row, in->truth.profiles(), in->corpus,
                               params.pipeline)
                  .build(in->published)
                  .map;
    t.build_s = seconds_since(t0);

    t0 = Clock::now();
    published = serve::Snapshot::build(view_of(in), {kOverlayProbes, "paper"});
    t.publish_s = seconds_since(t0);

    t0 = Clock::now();
    const PlanOutput out = plan(*published, *in, res);
    t.plan_s = seconds_since(t0);
    res.attempted += 2;
    passes.push_back(t);
    measured_s += t.build_s + t.publish_s + t.plan_s;

    Digest planned;
    digest_plan(planned, out);
    plan_digest = planned.value();
    Digest d;
    d.str(dataset_of(in->map, *in));
    digest_overlay(d, *published->overlay());
    d.u64(plan_digest);
    if (first_digest.empty()) first_digest = d.hex();
    res.check(d.hex() == first_digest, "paper: pass " + std::to_string(passes.size()) +
                                           " digest differs from pass 1");
    built = in->map;
  }
  res.digest = first_digest;
  res.peak_rss_mb = peak_rss_mb();

  std::vector<double> build, publish, planning, total;
  for (const auto& t : passes) {
    build.push_back(t.build_s);
    publish.push_back(t.publish_s);
    planning.push_back(t.plan_s);
    total.push_back(t.build_s + t.publish_s + t.plan_s);
  }
  const double setup_s = median(setups);
  res.gated = {{"setup_s", setup_s, "s"},
               {"pass_s", median(total), "s"},
               {"stage1_ms", median(build) * 1e3, "ms"},
               {"stage2_ms", median(publish) * 1e3, "ms"},
               {"stage3_ms", median(planning) * 1e3, "ms"}};
  res.figures = {{"setup_s", setup_s, "s"},
                 {"build_s", median(build), "s"},
                 {"publish_s", median(publish), "s"},
                 {"plan_s", median(planning), "s"}};

  // Fidelity and the paper-seed figures (EXPERIMENTS.md E1).
  const auto fidelity = core::score_fidelity(built, in->truth);
  res.context.push_back({"world", "paper world, " +
                                      std::to_string(built.nodes().size()) + " nodes, " +
                                      std::to_string(built.links().size()) + " links, " +
                                      std::to_string(built.conduits().size()) + " conduits"});
  char fid[160];
  std::snprintf(fid, sizeof fid, "conduit precision/recall %.3f/%.3f, tenancy %.3f/%.3f",
                fidelity.conduit_precision, fidelity.conduit_recall, fidelity.tenancy_precision,
                fidelity.tenancy_recall);
  res.context.push_back({"fidelity", fid});
  std::string per_pass;
  for (const auto& t : passes) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.3f/%.3f/%.3f", t.build_s, t.publish_s, t.plan_s);
    per_pass += buf;
  }
  res.context.push_back({"passes", std::to_string(passes.size()) + ", build/publish/plan s:" +
                                       per_pass});
  if (options.seed == kWorldSeed) {
    char figs[32];
    std::snprintf(figs, sizeof figs, "%.3f/%.3f", fidelity.conduit_precision,
                  fidelity.conduit_recall);
    res.check(built.nodes().size() == 172 && built.links().size() == 1078 &&
                  built.conduits().size() == 379,
              "paper: seed 0x1257 map is not 172 nodes / 1078 links / 379 conduits");
    res.check(std::string(figs) == "0.876/0.915",
              std::string("paper: seed 0x1257 conduit precision/recall is ") + figs +
                  ", not 0.876/0.915");
  }

  if (!options.trace) return res;

  // Traced pass: every stage split into its public pieces.
  trace::enable(true);
  std::shared_ptr<Inputs> traced;
  {
    trace::Span op("paper.setup");
    trace::Span span("core.inputs");
    traced = std::make_shared<Inputs>(params);
  }
  core::PipelineResult steps{core::FiberMap(traced->truth.num_isps()), {}, {}, {}, {}};
  PassTimes t;
  {
    trace::Span op("paper.build");
    const auto t0 = Clock::now();
    std::unique_ptr<core::MapBuilder> builder;
    {
      trace::Span span("records.index");
      builder = std::make_unique<core::MapBuilder>(core::Scenario::cities(), traced->row,
                                                   traced->truth.profiles(), traced->corpus,
                                                   params.pipeline);
    }
    {
      trace::Span span("core.step1");
      builder->step1_initial_map(steps.map, traced->published, steps.step1);
    }
    {
      trace::Span span("core.step2");
      builder->step2_check_map(steps.map, steps.step2);
    }
    {
      trace::Span span("core.step3");
      builder->step3_augment(steps.map, traced->published, steps.step3);
    }
    {
      trace::Span span("core.step4");
      builder->step4_validate(steps.map, steps.step4);
    }
    t.build_s = seconds_since(t0);
  }
  traced->map = steps.map;
  const core::Scenario scenario(params);
  const std::string scenario_bytes = dataset_of(scenario.map(), *in);
  res.check(dataset_of(steps.map, *traced) == scenario_bytes,
            "paper: step-by-step map differs from core::Scenario (dataset bytes)");
  res.check(dataset_of(built, *in) == scenario_bytes,
            "paper: MapBuilder::build map differs from core::Scenario (dataset bytes)");

  std::shared_ptr<serve::Snapshot> bare;
  traceroute::OverlayResult overlay;
  std::size_t flows = 0;
  {
    trace::Span op("paper.publish");
    const auto t0 = Clock::now();
    std::unique_ptr<traceroute::L3Topology> l3;
    {
      trace::Span span("traceroute.l3");
      l3 = std::make_unique<traceroute::L3Topology>(traceroute::L3Topology::from_ground_truth(
          traced->truth, core::Scenario::cities()));
    }
    traceroute::Campaign campaign;
    {
      trace::Span span("traceroute.campaign");
      traceroute::CampaignParams cp;
      cp.num_probes = kOverlayProbes;
      campaign = traceroute::run_campaign(*l3, core::Scenario::cities(), cp);
    }
    flows = campaign.flows.size();
    {
      trace::Span span("traceroute.overlay");
      overlay = traceroute::overlay_campaign(traced->map, core::Scenario::cities(), campaign);
    }
    {
      trace::Span span("serve.derive");
      bare = serve::Snapshot::build(view_of(traced), {0, "paper"});
    }
    t.publish_s = seconds_since(t0);
  }
  Digest want, got;
  digest_overlay(want, *published->overlay());
  digest_overlay(got, overlay);
  res.check(want.hex() == got.hex(),
            "paper: run_campaign + overlay_campaign differs from the overlay publish");
  res.check(bare->sharing_table() == published->sharing_table() &&
                bare->soa().conduits_by_tenancy == published->soa().conduits_by_tenancy,
            "paper: no-overlay snapshot tables differ from the overlay publish");
  PlanOutput traced_plan;
  {
    trace::Span op("paper.plan");
    const auto t0 = Clock::now();
    traced_plan = plan(*bare, *traced, res);
    t.plan_s = seconds_since(t0);
  }
  trace::enable(false);
  Digest planned;
  digest_plan(planned, traced_plan);
  res.check(planned.value() == plan_digest,
            "paper: the plan over the step-by-step map differs from the untraced plan");

  const auto records = trace::collect();
  const auto table = trace::self_time_table(records);
  if (!options.trace_out.empty()) {
    res.check(trace::write_chrome(options.trace_out, records),
              "trace: cannot write " + options.trace_out);
  }
  const auto self_s = [&](const char* name) { return trace::self_seconds(table, name); };
  const double mapped = static_cast<double>(overlay.mapped_segments) /
                        static_cast<double>(overlay.mapped_segments + overlay.unmapped_segments);
  res.layers = {
      {"setup_s", {"core.inputs_s", self_s("core.inputs"), "s"}},
      {"build_s", {"records.index_s", self_s("records.index"), "s"}},
      {"build_s", {"core.step1_s", self_s("core.step1"), "s"}},
      {"build_s", {"core.step2_s", self_s("core.step2"), "s"}},
      {"build_s", {"core.step3_s", self_s("core.step3"), "s"}},
      {"build_s", {"core.step4_s", self_s("core.step4"), "s"}},
      {"build_s", {"core.step1_snap_fallbacks", double(steps.step1.snap_fallbacks), "count"}},
      {"build_s", {"core.step2_tenants_inferred", double(steps.step2.tenants_inferred), "count"}},
      {"build_s", {"core.step4_links_rerouted", double(steps.step4.links_rerouted), "count"}},
      {"build_s", {"core.conduits", double(steps.map.conduits().size()), "count"}},
      {"build_s", {"core.links", double(steps.map.links().size()), "count"}},
      {"publish_s", {"traceroute.l3_s", self_s("traceroute.l3"), "s"}},
      {"publish_s", {"traceroute.campaign_s", self_s("traceroute.campaign"), "s"}},
      {"publish_s", {"traceroute.flows", double(flows), "count"}},
      {"publish_s", {"traceroute.overlay_s", self_s("traceroute.overlay"), "s"}},
      {"publish_s", {"traceroute.mapped_ratio", mapped, "ratio"}},
      {"publish_s", {"serve.derive_ms", self_s("serve.derive") * 1e3, "ms"}},
      {"plan_s", {"optimize.robustness_s", self_s("optimize.robustness"), "s"}},
      {"plan_s", {"optimize.peering_s", self_s("optimize.peering"), "s"}},
      {"plan_s", {"optimize.expansion_s", self_s("optimize.expansion"), "s"}},
      {"plan_s", {"optimize.latency_s", self_s("optimize.latency"), "s"}},
  };
  const double untraced = median(total);
  const double traced_s = t.build_s + t.publish_s + t.plan_s;
  res.layers.push_back({"pass_s", {"trace.overhead_s", traced_s - untraced, "s"}});
  res.layers.push_back(
      {"pass_s", {"trace.overhead_pct", 100.0 * (traced_s / untraced - 1.0), "%"}});
  res.trace_table = table;
  return res;
}

}  // namespace perfbench
