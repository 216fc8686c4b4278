#include "script.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

using namespace intertubes;

namespace {

std::vector<core::ConduitId> draw_cuts(Rng& rng, std::size_t below) {
  std::vector<core::ConduitId> cuts(1 + rng.next_below(3));
  for (auto& c : cuts) c = static_cast<core::ConduitId>(rng.next_below(below));
  return cuts;
}

}  // namespace

ServeScript make_serve_script(std::uint64_t seed, const serve::Snapshot& base, std::size_t clients,
                              std::size_t per_client, std::size_t delta_every) {
  constexpr ServeMix mix;
  if (delta_every == 0 || per_client % (2 * delta_every) != 0) {
    throw std::invalid_argument("per_client must be a multiple of 2 * delta_every");
  }
  ServeScript script;
  script.delta_every = delta_every;
  script.zipf_exponent = 0.9;
  const auto& map = base.map();
  const auto& cities = base.cities();
  const auto& profiles = base.truth().profiles();
  Rng rng(seed ^ 0x5e7e11feull);

  // Delta script: cycles of two batches that return to the base state.
  //   odd:  cut a live corridor, add a conduit on a dark corridor, add a
  //         tenant to another live corridor;
  //   even: cut the added conduit and the tenant's corridor, repair both
  //         base corridors (the tenant evidence goes with the cut).
  std::vector<transport::CorridorId> live, dark;
  for (const auto& conduit : map.conduits()) live.push_back(conduit.corridor);
  for (const auto& corridor : base.row().corridors()) {
    if (!map.conduit_for_corridor(corridor.id).has_value()) dark.push_back(corridor.id);
  }
  if (live.size() < 2 || dark.empty() || profiles.size() < 2) {
    throw std::runtime_error("serve script: world too small for the delta script");
  }
  const std::size_t batches = per_client / delta_every;
  const std::size_t conduits = map.conduits().size();
  script.min_conduits = conduits;
  for (std::size_t j = 0; j + 1 < batches; j += 2) {
    const transport::CorridorId a = live[rng.next_below(live.size())];
    transport::CorridorId e = live[rng.next_below(live.size())];
    while (e == a) e = live[rng.next_below(live.size())];
    const transport::CorridorId d = dark[rng.next_below(dark.size())];
    serve::DeltaBatch odd;
    odd.cut = {a};
    odd.add = {{d, {static_cast<isp::IspId>(rng.next_below(profiles.size())),
                    static_cast<isp::IspId>(rng.next_below(profiles.size()))},
                rng.next_below(2) == 0}};
    odd.tenant_adds = {{e, static_cast<isp::IspId>(rng.next_below(profiles.size()))}};
    odd.label = "perfbench delta " + std::to_string(j);
    serve::DeltaBatch even;
    even.cut = {d, e};
    even.repair = {a, e};
    even.label = "perfbench delta " + std::to_string(j + 1);
    // The odd epoch loses the cut conduit and gains the added one; the
    // even epoch is the base state again.
    script.min_conduits =
        std::min(script.min_conduits, conduits - odd.cut.size() + odd.add.size());
    script.deltas.push_back(std::move(odd));
    script.deltas.push_back(std::move(even));
  }

  // Key spaces.  Popularity ranks are a seeded permutation of the keys;
  // Rng::zipf draws the rank.
  std::vector<transport::CityId> nodes = map.nodes();
  std::sort(nodes.begin(), nodes.end());
  std::vector<std::pair<transport::CityId, transport::CityId>> pairs;
  for (auto a : nodes) {
    for (auto b : nodes) {
      if (a != b) pairs.push_back({a, b});
    }
  }
  auto path_pairs = pairs;
  auto dissect_pairs = pairs;
  rng.shuffle(path_pairs);
  rng.shuffle(dissect_pairs);
  std::vector<std::size_t> isp_order(profiles.size());
  for (std::size_t i = 0; i < isp_order.size(); ++i) isp_order[i] = i;
  rng.shuffle(isp_order);
  constexpr std::size_t kTopKeys = 64;
  constexpr std::size_t kHammingK = 8;
  const double s = script.zipf_exponent;
  script.key_space = 2 * pairs.size() + profiles.size() + kTopKeys + profiles.size() * kHammingK;

  const double total =
      mix.path + mix.risk + mix.top + mix.hamming + mix.cut + mix.dissect + mix.cascade;
  const auto name = [&](transport::CityId c) { return cities.city(c).display_name(); };
  script.requests.resize(clients);
  for (auto& stream : script.requests) {
    stream.reserve(per_client);
    for (std::size_t i = 0; i < per_client; ++i) {
      double u = rng.next_double() * total;
      if ((u -= mix.path) < 0) {
        const auto& p = path_pairs[rng.zipf(pairs.size(), s)];
        stream.push_back(serve::CityPathQuery{name(p.first), name(p.second)});
      } else if ((u -= mix.risk) < 0) {
        const std::size_t isp = isp_order[rng.zipf(profiles.size(), s)];
        stream.push_back(serve::SharedRiskQuery{profiles[isp].name});
      } else if ((u -= mix.top) < 0) {
        stream.push_back(serve::TopConduitsQuery{1 + rng.zipf(kTopKeys, s)});
      } else if ((u -= mix.hamming) < 0) {
        const std::size_t key = rng.zipf(profiles.size() * kHammingK, s);
        stream.push_back(serve::HammingNeighborsQuery{profiles[isp_order[key / kHammingK]].name,
                                                      1 + key % kHammingK});
      } else if ((u -= mix.cut) < 0) {
        stream.push_back(serve::WhatIfCutQuery{draw_cuts(rng, script.min_conduits)});
      } else if ((u -= mix.dissect) < 0) {
        const auto& p = dissect_pairs[rng.zipf(pairs.size(), s)];
        stream.push_back(serve::LatencyDissectionQuery{name(p.first), name(p.second)});
      } else {
        stream.push_back(serve::WhatIfCascadeQuery{draw_cuts(rng, script.min_conduits), 0.25, 8});
      }
    }
  }
  return script;
}

}  // namespace perfbench
