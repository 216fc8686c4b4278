#include "serve/delta.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace intertubes::serve {

namespace {

[[noreturn]] void reject(const char* what, transport::CorridorId corridor) {
  std::ostringstream msg;
  msg << "delta rejected: " << what << " (corridor " << corridor << ")";
  throw std::invalid_argument(msg.str());
}

}  // namespace

LiveMap::LiveMap(std::shared_ptr<const Snapshot> base) : base_(std::move(base)) {
  IT_CHECK(base_ != nullptr);
}

bool LiveMap::in_base(transport::CorridorId corridor) const {
  return base_->map().conduit_for_corridor(corridor).has_value();
}

std::shared_ptr<Snapshot> LiveMap::apply(const DeltaBatch& batch) {
  // Stage the batch on copies of the cumulative state; commit only once
  // every delta validated, so a thrown rejection leaves *this untouched.
  auto cut = cut_;
  auto added = added_;
  auto extra = extra_tenants_;

  const auto& row = base_->row();
  const std::size_t num_isps = base_->map().num_isps();
  const auto added_at = [&added](transport::CorridorId corridor) {
    return std::find_if(added.begin(), added.end(), [corridor](const NewConduitDelta& d) {
      return d.corridor == corridor;
    });
  };
  const auto live = [&](transport::CorridorId corridor) {
    return (in_base(corridor) && cut.count(corridor) == 0) || added_at(corridor) != added.end();
  };

  for (const transport::CorridorId corridor : batch.cut) {
    if (!live(corridor)) reject("cut of a corridor with no live conduit", corridor);
    const auto it = added_at(corridor);
    if (it != added.end()) {
      // Cutting a delta-added conduit removes it entirely (nothing of it
      // exists in the base to repair later).
      added.erase(it);
    } else {
      cut.insert(corridor);
    }
    // The conduit is gone; tenancy evidence added on top of it goes too —
    // cut-then-repair restores the *base* conduit.
    extra.erase(corridor);
  }
  for (const transport::CorridorId corridor : batch.repair) {
    if (cut.erase(corridor) == 0) reject("repair of a corridor that is not cut", corridor);
  }
  for (const NewConduitDelta& delta : batch.add) {
    if (delta.corridor >= row.corridors().size()) {
      reject("new conduit on an unknown corridor", delta.corridor);
    }
    if (in_base(delta.corridor)) {
      // Occupied or cut: a cut corridor must come back via repair so the
      // base tenancy is restored, never silently replaced.
      reject(cut.count(delta.corridor) ? "new conduit on a cut corridor (repair it instead)"
                                       : "new conduit on an occupied corridor",
             delta.corridor);
    }
    if (added_at(delta.corridor) != added.end()) {
      reject("new conduit on an already-added corridor", delta.corridor);
    }
    NewConduitDelta staged = delta;
    std::sort(staged.tenants.begin(), staged.tenants.end());
    staged.tenants.erase(std::unique(staged.tenants.begin(), staged.tenants.end()),
                         staged.tenants.end());
    for (const isp::IspId tenant : staged.tenants) {
      if (tenant >= num_isps) reject("new conduit with an out-of-range tenant", delta.corridor);
    }
    added.push_back(std::move(staged));
  }
  for (const TenantDelta& delta : batch.tenant_adds) {
    if (delta.tenant >= num_isps) reject("out-of-range tenant", delta.corridor);
    if (!live(delta.corridor)) reject("tenant change on a corridor with no live conduit",
                                      delta.corridor);
    const auto it = added_at(delta.corridor);
    if (it != added.end()) {
      auto& tenants = it->tenants;
      const auto pos = std::lower_bound(tenants.begin(), tenants.end(), delta.tenant);
      if (pos == tenants.end() || *pos != delta.tenant) tenants.insert(pos, delta.tenant);
    } else {
      extra[delta.corridor].insert(delta.tenant);
    }
  }

  cut_ = std::move(cut);
  added_ = std::move(added);
  extra_tenants_ = std::move(extra);
  ++batches_;
  return rebuild(batch.label);
}

std::shared_ptr<Snapshot> LiveMap::rebuild(const std::string& note) const {
  const auto& old_map = base_->map();
  const auto& row = base_->row();
  core::FiberMap map(old_map.num_isps());
  std::size_t links_severed = 0;

  // Base conduits in id order, then delta-added conduits in insertion
  // order: the rebuild order is a pure function of the cumulative state,
  // which is what makes sequential-vs-merged application byte-identical.
  for (const auto& conduit : old_map.conduits()) {
    if (cut_.count(conduit.corridor)) continue;
    const core::ConduitId nid =
        map.ensure_conduit(row.corridor(conduit.corridor), conduit.provenance);
    for (const isp::IspId tenant : conduit.tenants) map.add_tenant(nid, tenant);
    if (conduit.validated) map.mark_validated(nid);
  }
  for (const auto& delta : added_) {
    const core::ConduitId nid =
        map.ensure_conduit(row.corridor(delta.corridor), core::Provenance::PublicRecords);
    for (const isp::IspId tenant : delta.tenants) map.add_tenant(nid, tenant);
    if (delta.validated) map.mark_validated(nid);
  }
  for (const auto& [corridor, tenants] : extra_tenants_) {
    const auto nid = map.conduit_for_corridor(corridor);
    IT_CHECK(nid.has_value());  // live-ness was validated at apply time
    for (const isp::IspId tenant : tenants) map.add_tenant(*nid, tenant);
  }
  // Links: severed when any conduit they ride is cut (the what-if cut,
  // Snapshot::with_conduits_cut, runs through here too); conduit ids
  // remap via corridor identity.
  for (const auto& link : old_map.links()) {
    std::vector<core::ConduitId> remapped;
    remapped.reserve(link.conduits.size());
    bool severed = false;
    for (const core::ConduitId cid : link.conduits) {
      const transport::CorridorId corridor = old_map.conduit(cid).corridor;
      if (cut_.count(corridor)) {
        severed = true;
        break;
      }
      remapped.push_back(*map.conduit_for_corridor(corridor));
    }
    if (severed) {
      ++links_severed;
      continue;
    }
    map.add_link(link.isp, link.a, link.b, remapped, link.geocoded);
  }

  std::ostringstream label;
  label << base_->label() << " @delta " << batches_;
  if (!note.empty()) label << " (" << note << ")";
  return Snapshot::with_map(*base_, std::move(map), label.str(), links_severed);
}

}  // namespace intertubes::serve
