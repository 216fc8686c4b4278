#include "serve/engine.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <thread>

#include "geo/latency.hpp"
#include "isp/profiles.hpp"
#include "serve/fastpath.hpp"

namespace intertubes::serve {

namespace {

using Clock = std::chrono::steady_clock;

void fail(Response& response, Status status, std::string message) {
  response.status = status;
  response.error = std::move(message);
}

void execute_shared_risk(const Snapshot& snap, const SharedRiskQuery& query,
                         Response& response) {
  const auto& profiles = snap.truth().profiles();
  const isp::IspId id = isp::find_profile(profiles, query.isp);
  if (id == isp::kNoIsp) {
    fail(response, Status::NotFound, "unknown ISP: " + query.isp);
    return;
  }
  SharedRiskResult result;
  result.isp = profiles[id].name;
  const auto& row = fastpath::fast_shared_risk(snap.soa(), id);
  result.conduits_used = row.conduits_used;
  result.mean_sharing = row.mean_sharing;
  result.standard_error = row.standard_error;
  result.p25 = row.p25;
  result.p75 = row.p75;
  response.body = std::move(result);
}

void execute_top_conduits(const Snapshot& snap, const TopConduitsQuery& query,
                          Response& response) {
  const auto& soa = snap.soa();
  const auto& cities = snap.cities();
  const std::size_t count = fastpath::fast_top_conduits(soa, query.k);
  TopConduitsResult result;
  result.rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const core::ConduitId id = soa.conduits_by_tenancy[i];
    TopConduitRow row;
    row.conduit = id;
    row.a = cities.city(soa.conduit_a[id]).display_name();
    row.b = cities.city(soa.conduit_b[id]).display_name();
    row.tenants = soa.conduit_tenants[id];
    row.validated = soa.conduit_validated[id] != 0;
    result.rows.push_back(std::move(row));
  }
  response.body = std::move(result);
}

void execute_what_if_cut(const Snapshot& snap, const WhatIfCutQuery& query,
                         fastpath::RequestScratch& scratch, Response& response) {
  if (query.cuts.empty()) {
    fail(response, Status::BadRequest, "what-if-cut needs at least one conduit");
    return;
  }
  fastpath::CutImpact impact;
  if (!fastpath::fast_what_if_cut(snap.soa(), query.cuts, scratch, impact)) {
    fail(response, Status::BadRequest,
         "conduit id " + std::to_string(scratch.cut_ids.back()) + " out of range");
    return;
  }
  WhatIfCutResult result;
  result.conduits_cut = impact.conduits_cut;
  result.links_severed = impact.links_severed;
  result.isps_hit = impact.isps_hit;
  result.connected_fraction_before = impact.connected_fraction_before;
  result.connected_fraction_after = impact.connected_fraction_after;
  result.components_after = impact.components_after;
  response.body = std::move(result);
}

void execute_city_path(const Snapshot& snap, const CityPathQuery& query,
                       fastpath::RequestScratch& scratch, Response& response) {
  const auto& cities = snap.cities();
  const auto from = cities.find(query.from);
  const auto to = cities.find(query.to);
  if (!from || !to) {
    fail(response, Status::NotFound,
         "unknown city: " + (from ? query.to : query.from));
    return;
  }
  CityPathResult result;
  if (*from == *to) {
    result.reachable = true;
    response.body = std::move(result);
    return;
  }
  // Min-length route over the snapshot's compiled conduit graph, into
  // scratch-owned workspace and path buffers.
  fastpath::fast_city_path(snap, *from, *to, scratch);
  const auto& path = scratch.path;
  if (!path.reachable) {
    response.body = std::move(result);  // reachable = false is the answer
    return;
  }
  const auto& soa = snap.soa();
  result.reachable = true;
  result.hops.reserve(path.edges.size());
  for (std::size_t i = 0; i < path.edges.size(); ++i) {
    PathHop hop;
    hop.a = cities.city(path.nodes[i]).display_name();
    hop.b = cities.city(path.nodes[i + 1]).display_name();
    hop.km = soa.conduit_km[path.edges[i]];
    result.hops.push_back(std::move(hop));
  }
  result.km = path.cost;
  result.delay_ms = geo::fiber_delay_ms(result.km);
  response.body = std::move(result);
}

void execute_hamming_neighbors(const Snapshot& snap, const HammingNeighborsQuery& query,
                               fastpath::RequestScratch& scratch, Response& response) {
  const auto& profiles = snap.truth().profiles();
  const isp::IspId id = isp::find_profile(profiles, query.isp);
  if (id == isp::kNoIsp) {
    fail(response, Status::NotFound, "unknown ISP: " + query.isp);
    return;
  }
  HammingNeighborsResult result;
  result.isp = profiles[id].name;
  const std::size_t count =
      fastpath::fast_hamming_neighbors(snap.soa(), id, query.k, scratch);
  result.neighbors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    result.neighbors.push_back({profiles[scratch.hamming[i].second].name,
                                static_cast<std::size_t>(scratch.hamming[i].first)});
  }
  response.body = std::move(result);
}

dissect::LatencyDissector make_dissector(const Snapshot& snap) {
  // Alias the snapshot's compiled conduit graph instead of building a
  // duplicate; the snapshot shared_ptr held by the request pins it.
  return dissect::LatencyDissector(snap.shared_path_engine(), snap.map().nodes(),
                                   snap.cities(), snap.row());
}

void execute_latency_dissection(const Snapshot& snap, const LatencyDissectionQuery& query,
                                Response& response) {
  const auto& cities = snap.cities();
  const auto from = cities.find(query.from);
  const auto to = cities.find(query.to);
  if (!from || !to) {
    fail(response, Status::NotFound, "unknown city: " + (from ? query.to : query.from));
    return;
  }
  if (*from == *to) {
    fail(response, Status::BadRequest, "latency dissection needs two distinct cities");
    return;
  }
  LatencyDissectionResult result;
  result.from = cities.city(*from).display_name();
  result.to = cities.city(*to).display_name();
  result.dissection = make_dissector(snap).dissect_pair(*from, *to);
  response.body = std::move(result);
}

void execute_clatency_audit(const Snapshot& snap, const CLatencyAuditQuery& query,
                            Response& response) {
  // top_k == 0 is a valid query: aggregates only, empty pair table.
  if (!std::isfinite(query.target_factor) || query.target_factor < 1.0) {
    fail(response, Status::BadRequest, "audit target factor must be finite and >= 1");
    return;
  }
  const auto& cities = snap.cities();
  // The sweep runs serially inside this worker (no nested parallelism);
  // the epoch-keyed cache makes repeats on the same snapshot free.
  dissect::DissectOptions options;
  options.target_factor = query.target_factor;
  const auto study = make_dissector(snap).dissect(nullptr, options);

  CLatencyAuditResult result;
  result.cities = study.nodes.size();
  result.pairs = study.pairs.size();
  result.fiber_unreachable = study.fiber_unreachable;
  result.median_stretch = study.median_stretch;
  result.p95_stretch = study.p95_stretch;
  result.within_target = study.within_target;
  result.total_achievable_ms = study.total_achievable_ms;

  std::vector<const dissect::PairDissection*> ranked;
  ranked.reserve(study.pairs.size());
  for (const auto& p : study.pairs) {
    if (p.fiber_reachable && p.row_reachable) ranked.push_back(&p);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const dissect::PairDissection* a, const dissect::PairDissection* b) {
                     return a->achievable_ms > b->achievable_ms;
                   });
  if (ranked.size() > query.top_k) ranked.resize(query.top_k);
  for (const auto* p : ranked) {
    result.top.push_back({cities.city(p->a).display_name(), cities.city(p->b).display_name(),
                          p->clat_ms, p->achievable_ms, p->stretch});
  }
  response.body = std::move(result);
}

void execute_what_if_cascade(const Snapshot& snap, const WhatIfCascadeQuery& query,
                             Response& response) {
  if (query.cuts.empty()) {
    fail(response, Status::BadRequest, "what-if-cascade needs at least one conduit");
    return;
  }
  if (!std::isfinite(query.capacity_margin) || query.capacity_margin < 0.0) {
    fail(response, Status::BadRequest, "capacity margin must be finite and non-negative");
    return;
  }
  if (query.max_rounds == 0 || query.max_rounds > 64) {
    fail(response, Status::BadRequest, "max_rounds must be in [1, 64]");
    return;
  }
  const auto& map = snap.map();
  std::vector<core::ConduitId> cuts = query.cuts;
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.back() >= map.conduits().size()) {
    fail(response, Status::BadRequest,
         "conduit id " + std::to_string(cuts.back()) + " out of range");
    return;
  }
  cascade::CascadeParams params;
  params.capacity_margin = query.capacity_margin;
  params.max_rounds = query.max_rounds;
  const auto outcome = snap.cascade_engine().run_cascade(cuts, params);
  const auto& fixed = outcome.rounds.back();

  WhatIfCascadeResult result;
  result.conduits_cut = cuts.size();
  result.rounds = outcome.fixed_point_round;
  result.converged = outcome.converged;
  result.overload_failures = outcome.overload_failures;
  result.conduits_dead = fixed.conduits_dead;
  result.giant_component = fixed.giant_component;
  result.l3_edges_dead = fixed.l3_edges_dead;
  result.l3_reachability = fixed.l3_reachability;
  result.demand_delivered = fixed.demand_delivered;
  result.mean_stretch = fixed.mean_stretch;
  for (std::uint32_t lost : outcome.isp_links_lost) {
    result.links_undeliverable += lost;
    if (lost > 0) ++result.isps_hit;
  }
  response.body = std::move(result);
}

void execute_sleep(const SleepQuery& query, Response& response) {
  if (!std::isfinite(query.ms) || query.ms < 0.0) {
    fail(response, Status::BadRequest, "sleep duration must be finite and non-negative");
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(query.ms));
  response.body = SleepResult{};
}

/// Streams a double in its shortest round-trip form: distinct values get
/// distinct text, and short decimals such as 0.25 stay "0.25".
struct Exact {
  double value;
};

std::ostream& operator<<(std::ostream& out, Exact exact) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, exact.value);
  return out.write(buf, result.ptr - buf);
}

}  // namespace

RequestType request_type(const Request& request) noexcept {
  return static_cast<RequestType>(request.index());
}

std::string canonical_key(const Request& request) {
  std::ostringstream key;
  std::visit(
      [&key](const auto& query) {
        using T = std::decay_t<decltype(query)>;
        if constexpr (std::is_same_v<T, SharedRiskQuery>) {
          key << "risk:" << query.isp;
        } else if constexpr (std::is_same_v<T, TopConduitsQuery>) {
          key << "top:" << query.k;
        } else if constexpr (std::is_same_v<T, WhatIfCutQuery>) {
          auto cuts = query.cuts;
          std::sort(cuts.begin(), cuts.end());
          cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
          key << "cut:";
          for (std::size_t i = 0; i < cuts.size(); ++i) key << (i ? "," : "") << cuts[i];
        } else if constexpr (std::is_same_v<T, CityPathQuery>) {
          key << "path:" << query.from << "|" << query.to;
        } else if constexpr (std::is_same_v<T, HammingNeighborsQuery>) {
          key << "hamming:" << query.isp << ":" << query.k;
        } else if constexpr (std::is_same_v<T, LatencyDissectionQuery>) {
          key << "dissect:" << query.from << "|" << query.to;
        } else if constexpr (std::is_same_v<T, CLatencyAuditQuery>) {
          key << "claudit:" << query.top_k << ":" << Exact{query.target_factor};
        } else if constexpr (std::is_same_v<T, WhatIfCascadeQuery>) {
          auto cuts = query.cuts;
          std::sort(cuts.begin(), cuts.end());
          cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
          key << "cascade:";
          for (std::size_t i = 0; i < cuts.size(); ++i) key << (i ? "," : "") << cuts[i];
          key << ";m=" << Exact{query.capacity_margin} << ";r=" << query.max_rounds;
        } else if constexpr (std::is_same_v<T, SleepQuery>) {
          key << "sleep:" << Exact{query.ms};
        }
      },
      request);
  return key.str();
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::Ok: return "ok";
    case Status::Overloaded: return "overloaded";
    case Status::NotFound: return "not-found";
    case Status::BadRequest: return "bad-request";
    case Status::NoSnapshot: return "no-snapshot";
    case Status::Error: return "error";
  }
  return "unknown";
}

Engine::Engine(SnapshotStore& store, sim::Executor& executor, EngineOptions options)
    : store_(store),
      executor_(executor),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards) {
  IT_CHECK(options.max_pending > 0);
}

Engine::~Engine() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
}

void Engine::execute(const Snapshot& snapshot, const Request& request,
                     Response& response) const {
  std::visit(
      [&](const auto& query) {
        using T = std::decay_t<decltype(query)>;
        if constexpr (std::is_same_v<T, SharedRiskQuery>) {
          execute_shared_risk(snapshot, query, response);
        } else if constexpr (std::is_same_v<T, TopConduitsQuery>) {
          execute_top_conduits(snapshot, query, response);
        } else if constexpr (std::is_same_v<T, WhatIfCutQuery>) {
          const auto scratch = scratch_pool_.acquire();
          execute_what_if_cut(snapshot, query, *scratch, response);
        } else if constexpr (std::is_same_v<T, CityPathQuery>) {
          const auto scratch = scratch_pool_.acquire();
          execute_city_path(snapshot, query, *scratch, response);
        } else if constexpr (std::is_same_v<T, HammingNeighborsQuery>) {
          const auto scratch = scratch_pool_.acquire();
          execute_hamming_neighbors(snapshot, query, *scratch, response);
        } else if constexpr (std::is_same_v<T, LatencyDissectionQuery>) {
          execute_latency_dissection(snapshot, query, response);
        } else if constexpr (std::is_same_v<T, CLatencyAuditQuery>) {
          execute_clatency_audit(snapshot, query, response);
        } else if constexpr (std::is_same_v<T, WhatIfCascadeQuery>) {
          execute_what_if_cascade(snapshot, query, response);
        } else if constexpr (std::is_same_v<T, SleepQuery>) {
          execute_sleep(query, response);
        }
      },
      request);
}

Response Engine::run(Request request, Clock::time_point admitted) {
  const RequestType type = request_type(request);
  Response response;
  try {
    // One wait-free load; holding the shared_ptr pins every artifact for
    // the rest of the request even if a new snapshot is published now.
    const auto snapshot = store_.current();
    if (!snapshot) {
      fail(response, Status::NoSnapshot, "no snapshot published yet");
    } else {
      response.epoch = snapshot->epoch();
      if (type == RequestType::Sleep) {
        execute(*snapshot, request, response);
      } else {
        const CacheKey key{snapshot->epoch(), canonical_key(request)};
        if (const auto cached = cache_.get(key)) {
          response = **cached;
          response.cache_hit = true;
        } else {
          execute(*snapshot, request, response);
          if (response.status == Status::Ok) {
            cache_.put(key, std::make_shared<const Response>(response));
          }
        }
      }
    }
  } catch (const std::exception& e) {
    fail(response, Status::Error, e.what());
  }
  response.latency_us =
      std::chrono::duration<double, std::micro>(Clock::now() - admitted).count();
  metrics_.record(type, response.latency_us, response.cache_hit,
                  response.status != Status::Ok);
  return response;
}

void Engine::finish() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) idle_cv_.notify_all();
}

std::future<Response> Engine::submit(Request request) {
  const auto admitted = Clock::now();
  const RequestType type = request_type(request);
  // Admission control: claim a pending slot or shed.  CAS loop so a burst
  // can never overshoot max_pending.
  std::size_t current = pending_.load(std::memory_order_relaxed);
  for (;;) {
    if (current >= options_.max_pending) {
      metrics_.record_shed(type);
      std::promise<Response> rejected;
      Response response;
      response.status = Status::Overloaded;
      response.error = "engine at max_pending (" + std::to_string(options_.max_pending) + ")";
      rejected.set_value(std::move(response));
      return rejected.get_future();
    }
    if (pending_.compare_exchange_weak(current, current + 1, std::memory_order_acq_rel)) {
      break;
    }
  }
  auto promise = std::make_shared<std::promise<Response>>();
  auto future = promise->get_future();
  executor_.post([this, promise, request = std::move(request), admitted]() mutable {
    promise->set_value(run(std::move(request), admitted));
    finish();
  });
  return future;
}

}  // namespace intertubes::serve
