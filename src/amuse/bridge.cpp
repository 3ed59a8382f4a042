#include "amuse/bridge.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>

#include "amuse/faultpoint.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace jungle::amuse {

namespace {

/// A cross-gravity query: which coupling direction it answers, which system
/// the resulting acceleration kicks, and either the reply in flight or the
/// accel the field client already holds for the same inputs.
struct PendingQuery {
  int coupling;
  int dir;      // 0 = accel on a (sources b), 1 = accel on b (sources a)
  int target;   // system index the accel applies to
  int source;   // system index whose particles are the sources
  std::optional<Future> reply;
  const std::vector<Vec3>* cached = nullptr;
};

/// Accumulates one target system's per-coupling accelerations into a
/// single (accel, dt) kick frame. The common single-direction case ships
/// the coupler's accel span as-is with the worker multiplying by dt;
/// multiple directions keep a raw sum while their cadences agree, and
/// pre-scale client-side (dt = 1 on the wire) the moment they differ.
/// Shared by the pipelined and synchronous paths so the trickiest kick
/// arithmetic cannot drift between them.
class KickSum {
 public:
  void add(std::span<const Vec3> accel, double dt,
           const std::string& target) {
    if (directions_ == 0) {
      single_ = accel;
      dt_ = dt;
    } else {
      if (directions_ == 1) sum_.assign(single_.begin(), single_.end());
      if (sum_.size() != accel.size()) {
        throw CodeError("bridge: coupled accel sizes differ for system '" +
                        target + "'");
      }
      if (dt != dt_ && !mixed_) {
        for (Vec3& value : sum_) value = value * dt_;
        mixed_ = true;
        dt_ = 1.0;
      }
      for (std::size_t i = 0; i < sum_.size(); ++i) {
        sum_[i] = sum_[i] + (mixed_ ? accel[i] * dt : accel[i]);
      }
    }
    ++directions_;
  }

  /// Same, keeping an owned accel alive behind the span (the synchronous
  /// path's accel_at returns vectors).
  void add_owned(std::vector<Vec3> accel, double dt,
                 const std::string& target) {
    owned_.push_back(std::move(accel));
    add(owned_.back(), dt, target);
  }

  bool empty() const { return directions_ == 0; }
  std::span<const Vec3> accel() const {
    return directions_ == 1 ? single_ : std::span<const Vec3>(sum_);
  }
  double dt() const { return dt_; }

 private:
  std::span<const Vec3> single_;
  std::vector<Vec3> sum_;
  std::vector<std::vector<Vec3>> owned_;
  double dt_ = 0.0;
  int directions_ = 0;
  bool mixed_ = false;
};

}  // namespace

Bridge::Bridge(std::vector<System> systems, std::vector<Coupling> couplings,
               std::vector<Stellar> stellar, Config config)
    : systems_(std::move(systems)),
      couplings_(std::move(couplings)),
      config_(config),
      time_(config.t_start) {
  if (systems_.empty()) {
    throw CodeError("bridge: no systems to evolve");
  }
  for (const System& system : systems_) {
    if (system.dynamics == nullptr) {
      throw CodeError("bridge: system '" + system.name + "' has no client");
    }
  }
  int n = static_cast<int>(systems_.size());
  for (const Coupling& coupling : couplings_) {
    if (coupling.field == nullptr) {
      throw CodeError("bridge: coupling without a field client");
    }
    if (coupling.a < 0 || coupling.a >= n || coupling.b < 0 ||
        coupling.b >= n || coupling.a == coupling.b) {
      throw CodeError("bridge: coupling references invalid system indices");
    }
    if (coupling.every < 1) {
      throw CodeError("bridge: coupling cadence must be >= 1");
    }
  }
  stellar_.reserve(stellar.size());
  for (Stellar& wiring : stellar) {
    if (wiring.client == nullptr || wiring.into == nullptr) {
      throw CodeError("bridge: stellar link needs a client and a target");
    }
    StellarLink link;
    link.wiring = wiring;
    stellar_.push_back(std::move(link));
  }
}

Bridge::Bridge(GravityClient& stars, HydroClient& gas, FieldClient& coupler,
               StellarClient* stellar, Config config)
    : Bridge(
          {{"stars", &stars}, {"gas", &gas}},
          {Coupling{&coupler, 0, 1, 1}},
          stellar != nullptr
              ? std::vector<Stellar>{Stellar{stellar, &stars, &gas}}
              : std::vector<Stellar>{},
          config) {}

std::vector<int> Bridge::active_couplings(int step_index, bool bottom) const {
  // A coupling with cadence k fires at the boundaries of its k-step window:
  // at the top of step s when s % k == 0 (kick covering the window ahead)
  // and at the bottom when (s + 1) % k == 0 (closing the window), each with
  // dt = k * bridge_dt / 2 — the nested-BRIDGE scheme. k == 1 reduces to
  // the classic kick–evolve–kick of Fig 7.
  std::vector<int> active;
  for (int c = 0; c < static_cast<int>(couplings_.size()); ++c) {
    int every = couplings_[c].every;
    int phase = bottom ? step_index + 1 : step_index;
    if (phase % every == 0) active.push_back(c);
  }
  return active;
}

void Bridge::cross_kick(const std::vector<int>& active) {
  if (config_.synchronous_datapath) {
    cross_kick_synchronous(active);
    return;
  }

  // Which systems participate in this phase, in declaration order.
  std::vector<int> involved;
  for (int i = 0; i < static_cast<int>(systems_.size()); ++i) {
    for (int c : active) {
      if (couplings_[c].a == i || couplings_[c].b == i) {
        involved.push_back(i);
        break;
      }
    }
  }

  // Phase 1 — every involved system's state, fetched concurrently: one
  // round trip, and only the fields the coupling consumes (mass+position)
  // that actually changed since the cached copy. A system whose cached
  // coupling fields are provably current (nothing moved a mass or a
  // position since its last fetch: the post-kick phase, unless stellar
  // evolution changed masses) is not asked at all.
  {
    obs::trace::Span phase = obs::trace::span("state_fetch", "bridge");
    std::vector<std::pair<int, Future>> state_replies;
    state_replies.reserve(involved.size());
    for (int i : involved) {
      DynamicsClient& sys = *systems_[i].dynamics;
      if (sys.coupling_current()) continue;
      state_replies.emplace_back(i,
                                 sys.request_state(state_field::coupling));
    }
    for (auto& [i, reply] : state_replies) {
      systems_[i].dynamics->merge_state(reply, state_field::coupling);
    }
  }

  // Phase 2 — every cross-gravity query in flight together, ordered by
  // target system. Sources and evaluation points ride along only when
  // their content id changed. A query whose inputs match the accel the
  // field client already holds for its tag needs no round trip: the coupler
  // would answer "unchanged" and the held accel would be used.
  obs::trace::Span queries_phase = obs::trace::span("field_queries", "bridge");
  std::vector<PendingQuery> queries;
  for (int target : involved) {
    for (int c : active) {
      const Coupling& coupling = couplings_[c];
      if (coupling.a != target && coupling.b != target) continue;
      int dir = coupling.a == target ? 0 : 1;
      int source = coupling.a == target ? coupling.b : coupling.a;
      DynamicsClient& src = *systems_[source].dynamics;
      DynamicsClient& tgt = *systems_[target].dynamics;
      PendingQuery query{c, dir, target, source, std::nullopt,
                         coupling.field->cached_accel(
                             pair_field_tag(c, dir), src.coupling_sources_id(),
                             tgt.position_id())};
      if (query.cached == nullptr) {
        query.reply = coupling.field->accel_for_async(
            pair_field_tag(c, dir), src.coupling_sources_id(), src.mass(),
            src.position(), tgt.position_id(), tgt.position());
      }
      queries.push_back(std::move(query));
    }
  }

  // Collect each target's accelerations (finish in issue order), then
  // phase 3 — all kicks applied concurrently as accel + dt frames (an
  // unchanged acceleration travels as a 16-byte repeat).
  std::vector<Future> kicks_done;
  std::vector<KickSum> kicks(systems_.size());
  for (int target : involved) {
    KickSum& kick = kicks[static_cast<std::size_t>(target)];
    for (PendingQuery& query : queries) {
      if (query.target != target) continue;
      const Coupling& coupling = couplings_[query.coupling];
      const std::vector<Vec3>& accel =
          query.cached != nullptr
              ? *query.cached
              : coupling.field->finish_accel(
                    pair_field_tag(query.coupling, query.dir), *query.reply);
      kick.add(accel, coupling.every * config_.dt / 2.0,
               systems_[target].name);
      trace_.push_back("kick:" + systems_[query.source].name + "->" +
                       systems_[target].name);
    }
    if (kick.empty()) continue;
    kicks_done.push_back(
        systems_[target].dynamics->kick_async(kick.accel(), kick.dt()));
  }
  queries_phase.end();
  obs::trace::Span kicks_phase = obs::trace::span("kicks", "bridge");
  for (Future& done : kicks_done) done.get();
}

void Bridge::cross_kick_synchronous(const std::vector<int>& active) {
  // The pre-overhaul data path, kept as the measured baseline: full state
  // fetches and strictly serial RPCs (one WAN round trip per call).
  std::vector<int> involved;
  for (int i = 0; i < static_cast<int>(systems_.size()); ++i) {
    for (int c : active) {
      if (couplings_[c].a == i || couplings_[c].b == i) {
        involved.push_back(i);
        break;
      }
    }
  }
  for (int i : involved) {
    DynamicsClient& sys = *systems_[i].dynamics;
    Future reply = sys.request_state(sys.full_mask());
    sys.merge_state(reply, sys.full_mask());
  }

  // One serial field query per coupling direction, ordered by target.
  std::vector<KickSum> kicks(systems_.size());
  for (int target : involved) {
    for (int c : active) {
      const Coupling& coupling = couplings_[c];
      if (coupling.a != target && coupling.b != target) continue;
      int source = coupling.a == target ? coupling.b : coupling.a;
      DynamicsClient& src = *systems_[source].dynamics;
      DynamicsClient& tgt = *systems_[target].dynamics;
      coupling.field->set_sources(src.mass(), src.position());
      kicks[static_cast<std::size_t>(target)].add_owned(
          coupling.field->accel_at(tgt.position()),
          coupling.every * config_.dt / 2.0, systems_[target].name);
      trace_.push_back("kick:" + systems_[source].name + "->" +
                       systems_[target].name);
    }
  }
  for (int target : involved) {
    KickSum& kick = kicks[static_cast<std::size_t>(target)];
    if (kick.empty()) continue;
    systems_[target].dynamics->kick_async(kick.accel(), kick.dt()).get();
  }
}

void Bridge::step() {
  double dt = config_.dt;
  int step_index = config_.step_offset + steps_;

  faultpoint::reach(faultpoint::Point::step_top_kick, step_index);
  std::vector<int> top = active_couplings(step_index, /*bottom=*/false);
  if (!top.empty()) {
    obs::trace::Span phase = obs::trace::span("cross_kick:top", "bridge");
    cross_kick(top);
  }

  // Parallel evolve: all systems advance concurrently; total wall time is
  // max over the systems' evolves + messaging — the Jungle payoff.
  faultpoint::reach(faultpoint::Point::step_evolve, step_index);
  {
    obs::trace::Span phase = obs::trace::span("evolve", "bridge");
    std::vector<Future> evolving;
    evolving.reserve(systems_.size());
    for (System& system : systems_) {
      evolving.push_back(system.dynamics->evolve_async(time_ + dt));
    }
    trace_.push_back("evolve:parallel");
    for (Future& future : evolving) future.get();
  }

  faultpoint::reach(faultpoint::Point::step_bottom_kick, step_index);
  std::vector<int> bottom = active_couplings(step_index, /*bottom=*/true);
  if (!bottom.empty()) {
    obs::trace::Span phase = obs::trace::span("cross_kick:bottom", "bridge");
    cross_kick(bottom);
  }

  time_ += dt;
  ++steps_;

  if (!stellar_.empty() &&
      (config_.step_offset + steps_) % config_.se_every == 0) {
    faultpoint::reach(faultpoint::Point::step_stellar, step_index);
    obs::trace::Span phase = obs::trace::span("stellar_update", "bridge");
    stellar_update();
  }
}

std::pair<std::vector<double>, std::vector<double>> Bridge::se_mapping(
    std::size_t link) const {
  if (link >= stellar_.size()) return {};
  return {stellar_[link].zams_se, stellar_[link].zams_dynamical};
}

void Bridge::set_se_mapping(std::vector<double> zams_se,
                            std::vector<double> zams_dynamical,
                            std::size_t link) {
  if (link >= stellar_.size()) {
    throw CodeError("bridge: no stellar link " + std::to_string(link));
  }
  stellar_[link].zams_se = std::move(zams_se);
  stellar_[link].zams_dynamical = std::move(zams_dynamical);
}

void Bridge::stellar_update() {
  for (StellarLink& link : stellar_) stellar_update_one(link);
}

void Bridge::stellar_update_one(StellarLink& link) {
  // Stellar evolution runs at a slower rate, "only exchanging state every
  // n-th time step" (paper §6 / Fig 7).
  GravityClient& stars = *link.wiring.into;
  double age_myr = (config_.t_offset + time_) * config_.myr_per_nbody_time;
  link.wiring.client->evolve_to(age_myr);
  trace_.push_back("se:evolve");

  // Mass update channel: SSE masses (MSun) -> gravity code. The masses
  // must be rescaled into N-body units: the SSE side provides masses in
  // MSun, and the gravity code started from the same stars, so the ratio
  // current/zams per star is applied to the dynamical masses. The fetch is
  // delta-compressed: only stars whose mass changed since the previous
  // exchange travel.
  const std::vector<double>& se_masses = link.wiring.client->masses();
  // The baseline path fetches full states here, as before the overhaul; the
  // pipelined path only moves what the update consumes (mass + position).
  std::uint64_t grav_mask = config_.synchronous_datapath
                                ? state_field::gravity_all
                                : state_field::coupling;
  Future stars_reply = stars.request_state(grav_mask);
  const GravityState& stars_state = stars.finish_state(stars_reply, grav_mask);
  if (se_masses.size() != stars_state.mass.size()) {
    throw CodeError("bridge: SE and gravity particle counts differ");
  }
  if (!link.zams_dynamical.size()) {
    // First update: remember the mapping MSun <-> N-body mass.
    link.zams_se = se_masses;
    link.zams_dynamical = stars_state.mass;
  }
  std::vector<double> new_masses(se_masses.size());
  double wind_mass_nbody = 0.0;
  for (std::size_t i = 0; i < se_masses.size(); ++i) {
    new_masses[i] = link.zams_dynamical[i] * se_masses[i] / link.zams_se[i];
    wind_mass_nbody += std::max(0.0, stars_state.mass[i] - new_masses[i]);
  }
  if (config_.synchronous_datapath) {
    stars.set_masses(new_masses);
  } else {
    // Delta-compressed mass channel: ship only the masses that differ from
    // what the integrator holds. The (possibly empty) sparse update always
    // travels so the worker keeps the full channel's force-refresh side
    // effect — quiet SE steps cost a header, not the whole array.
    std::vector<std::int32_t> changed;
    std::vector<double> values;
    for (std::size_t i = 0; i < new_masses.size(); ++i) {
      if (new_masses[i] != stars_state.mass[i]) {
        changed.push_back(static_cast<std::int32_t>(i));
        values.push_back(new_masses[i]);
      }
    }
    stars.set_masses_sparse(changed, values);
  }
  trace_.push_back("se:masses->gravity");

  if (config_.feedback_efficiency <= 0.0) return;
  if (link.wiring.feedback == nullptr) return;
  HydroClient& gas = *link.wiring.feedback;

  // Thermal feedback into the gas: winds (continuous) and supernovae
  // (discrete). Energy goes to the gas particle nearest each massive star.
  std::uint64_t gas_mask = config_.synchronous_datapath
                               ? state_field::hydro_all
                               : state_field::coupling;
  Future gas_reply = gas.request_state(gas_mask);
  const HydroState& gas_state = gas.finish_state(gas_reply, gas_mask);
  std::vector<std::int32_t> indices;
  std::vector<double> delta_u;
  auto nearest_gas = [&](const Vec3& where) {
    std::size_t best = 0;
    double best_r2 = std::numeric_limits<double>::max();
    for (std::size_t g = 0; g < gas_state.position.size(); ++g) {
      double r2 = (gas_state.position[g] - where).norm2();
      if (r2 < best_r2) {
        best_r2 = r2;
        best = g;
      }
    }
    return static_cast<std::int32_t>(best);
  };
  if (wind_mass_nbody > 0.0 && config_.wind_specific_energy > 0.0) {
    // Deposit wind energy at the most massive star's location (the winds
    // of the cluster's O stars dominate).
    std::size_t heaviest =
        std::distance(link.zams_se.begin(),
                      std::max_element(link.zams_se.begin(),
                                       link.zams_se.end()));
    double energy = config_.feedback_efficiency * wind_mass_nbody *
                    config_.wind_specific_energy;
    std::int32_t target = nearest_gas(stars_state.position[heaviest]);
    indices.push_back(target);
    delta_u.push_back(energy / gas_state.mass[target]);
  }
  for (std::int32_t star : link.wiring.client->supernovae()) {
    double energy = config_.feedback_efficiency * config_.supernova_energy;
    std::int32_t target = nearest_gas(stars_state.position[star]);
    indices.push_back(target);
    delta_u.push_back(energy / gas_state.mass[target]);
    log::info("amuse") << "supernova of star " << star << " at t=" << time_
                       << " heats gas particle " << target;
  }
  if (!indices.empty()) {
    gas.inject(indices, delta_u);
    trace_.push_back("se:feedback->gas");
  }
}

}  // namespace jungle::amuse
