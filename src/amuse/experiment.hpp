#pragma once

#include <memory>
#include <string>
#include <vector>

#include "amuse/bridge.hpp"
#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/diagnostics.hpp"
#include "deploy/deploy.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/config.hpp"

namespace jungle::amuse::experiment {

using kernels::Vec3;

/// The composable Experiment API: a declarative *model graph* — N models
/// (gravity / hydro / field / stellar), M pairwise couplings and the run's
/// global knobs — replaces the hard-coded scenario kinds. A spec can be
/// built in C++ or parsed from the `[experiment]` / `[model ...]` /
/// `[coupling ...]` sections of a deploy INI, is validated as a graph
/// (dangling references, unused field models, ... are errors, not silent
/// no-ops), placed by the scheduler as a full role set, deployed through
/// the daemon and run by the generalized Bridge. The six classic paper
/// configurations are canned specs flowing through this one path
/// (scenario::classic_spec).

/// Which client<->worker data path the coupling script runs.
///   pipelined   — concurrent per-phase RPCs, delta state exchange, striped
///                 bulk transfers (the wide-area data path overhaul).
///   synchronous — the pre-overhaul serial path with full state fetches;
///                 kept as the measured baseline (bit-identical physics).
enum class Datapath { pipelined, synchronous };

/// One model of the graph.
struct ModelSpec {
  std::string name;
  sched::Role role = sched::Role::gravity;
  /// Worker code ("phigrape", "phigrape-gpu", "fi", "octgrav", "gadget",
  /// "sse") or "auto" to let the scheduler pick the kernel variant.
  std::string kernel = "auto";
  std::size_t n = 0;       // particles (gravity/hydro) or stars (stellar)
  int nranks = 0;          // hydro MPI width (0 = scheduler-sized)
  int nodes = 1;           // nodes a pinned deployment occupies
  /// Domain decomposition (gravity only): shard across this many workers,
  /// each integrating a contiguous Morton range of the particle set with
  /// per-step ghost exchanges. 1 = the classic single-worker model; the
  /// bridge, couplings and fault machinery see one logical model either
  /// way (ShardedGravityClient).
  int workers = 1;
  double eps2 = 1e-4;
  double eta = 0.02;       // phigrape accuracy
  double theta = 0.6;      // tree opening angle

  // --- IC recipe ("plummer" for gravity, "gas-sphere" for hydro,
  // "salpeter" for stellar; "" = the role default). All models draw from
  // one seeded stream in declaration order, so a spec is a reproducible
  // experiment definition. ---
  std::string ic;
  double total_mass = 1.0;   // mass scale (N-body units)
  /// Length scale: gas-sphere radius / plummer scale. 0 = the role default
  /// (1.0 for a standard N-body-units plummer, 1.5 for the natal cloud).
  double radius = 0.0;
  double u_frac = 0.05;      // gas: internal energy fraction
  Vec3 offset{};             // bulk position shift (galaxy mergers)
  Vec3 bulk_velocity{};      // bulk velocity shift
  /// Stellar: force the first ZAMS mass (MSun); 0 = leave the draw alone.
  /// The classic embedded cluster guarantees one star that will go off.
  double ensure_massive = 0.0;

  // --- wiring (stellar role only) ---
  std::string of;        // gravity model SSE masses flow into
  std::string feedback;  // hydro model wind/SN energy heats ("" = none)

  /// Placement pin: "" = scheduler's choice, "local" = the client machine,
  /// "resource" or "resource/host" = that deployment target.
  std::string place;
};

/// One pairwise coupling of the graph.
struct CouplingSpec {
  std::string name;
  std::string field;  // field-role model evaluating the cross-gravity
  std::string a;      // two dynamic (gravity/hydro) models
  std::string b;
  int every = 1;      // cross-kick cadence in bridge steps
};

struct ExperimentSpec {
  std::string name = "experiment";
  std::vector<ModelSpec> models;
  std::vector<CouplingSpec> couplings;

  double dt = 1.0 / 32.0;
  int iterations = 2;
  int se_every = 4;
  std::uint64_t seed = 20120301;
  Datapath datapath = Datapath::pipelined;
  double myr_per_nbody_time = 0.47;
  double feedback_efficiency = 0.1;
  double wind_specific_energy = 5.0;
  double supernova_energy = 40.0;

  /// Fault policy: checkpoint every model after each step and re-place /
  /// roll back on worker death. Faults themselves come from outside the
  /// spec — a faultpoint::ScopedHook (the explorer's ScheduleInjector, or
  /// a test's own hook) crashes hosts, kills processes or cuts links.
  bool checkpointing = false;

  /// Per-call RPC reply deadline (virtual seconds; 0 disables). A worker
  /// that stops answering — hung process, silently black-holed route —
  /// surfaces as WorkerDiedError(cause=timeout) instead of deadlocking the
  /// bridge. The default is far above any modeled call, far below forever.
  double rpc_timeout = 3600.0;

  /// Host the coupling script runs on ("" = the testbed's client host).
  std::string client;

  /// Graph validation: throws ConfigError naming the offending model or
  /// coupling. Checks (among others) that coupling endpoints resolve to
  /// dynamic models, field references resolve to field models, no field
  /// model dangles unused and stellar wiring resolves.
  void validate() const;

  /// The spec's graph in the scheduler's units.
  sched::Workload workload() const;

  int find(const std::string& model_name) const;  // index, -1 if absent

  /// Parse the [experiment] / [model ...] / [coupling ...] sections.
  /// Throws ConfigError naming the section and key of any key they do not
  /// accept.
  static ExperimentSpec from_config(const util::Config& config);
};

/// True when the INI declares an experiment graph (any `[model ...]`
/// section) rather than being a bare topology file.
bool config_declares_experiment(const util::Config& config);

/// Final state and energies of one model after a run.
struct ModelResult {
  std::string name;
  sched::Role role = sched::Role::gravity;
  GravityState gravity;  // gravity models
  HydroState hydro;      // hydro models
  double kinetic = 0.0;
  double potential = 0.0;
  double thermal = 0.0;  // hydro only
};

struct Result {
  std::string experiment;
  int iterations = 0;
  double seconds_per_iteration = 0.0;   // virtual
  double wan_bytes = 0.0;               // bytes that crossed any WAN link
  double wan_ipl_bytes = 0.0;
  /// Coupling traffic (IPL class) that crossed a WAN link, per bridge step
  /// — the wire cost the delta exchange minimizes (bench_datapath's gate).
  double wan_ipl_bytes_per_step = 0.0;
  double bound_gas_fraction = 1.0;      // after the run (1.0 when no gas)
  std::string dashboard;                // Figs 10/11 text analog
  std::string placement;                // model->host map that actually ran
  double modeled_seconds_per_iteration = 0.0;  // scheduler's prediction
  int restarts = 0;                     // fault-path re-placements performed
  std::vector<ModelResult> models;      // final states, declaration order

  // --- observability: the modeled-vs-measured loop ---
  /// Per-iteration metric/traffic deltas; replayed steps marked distinctly.
  std::vector<diagnostics::IterationReport> iteration_log;
  /// Worst per-role measured/modeled compute ratio (max of r, 1/r) before
  /// calibration — how wrong the static cost model was on this run.
  double precalibration_drift = 0.0;
  /// The same ratio after the first measured iteration calibrated the
  /// per-model flop charges (0 when no iteration completed cleanly).
  double compute_drift = 0.0;
  /// Modeled s/iter of the running placement re-scored with the calibrated
  /// cost model (modeled_seconds_per_iteration stays uncalibrated).
  double calibrated_seconds_per_iteration = 0.0;
};

/// The Jungle of Figs 9/12: Seattle laptop, VU desktop + DAS-4 VU cluster,
/// DAS-4 UvA node, DAS-4 Delft GPU nodes, LGM in Leiden; lightpaths
/// between them. Owned by the caller via this handle.
class JungleTestbed {
 public:
  explicit JungleTestbed(bool verbose = false);
  /// Build the testbed from a deploy INI instead (sites/hosts/links and
  /// [resource ...] sections, plus an optional `[scenario] client = HOST`).
  /// This is what makes any topology file a runnable experiment.
  explicit JungleTestbed(const util::Config& config, bool verbose = false);
  /// Unwind all simulated processes before the network/sockets they touch.
  ~JungleTestbed() {
    obs::trace::unbind_clock(this);
    sim_.shutdown();
  }
  JungleTestbed(const JungleTestbed&) = delete;
  JungleTestbed& operator=(const JungleTestbed&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }
  sim::Network& network() noexcept { return net_; }
  smartsockets::SmartSockets& sockets() noexcept { return sockets_; }
  deploy::Deployer& deployer() noexcept { return *deployer_; }
  IbisDaemon& daemon(sim::Host& client);

  sim::Host& desktop() { return net_.host("desktop"); }
  sim::Host& laptop() { return net_.host("laptop"); }
  /// The machine the coupling script runs on: the INI's `[scenario]`
  /// client, or the desktop on the built-in testbed.
  sim::Host& client_host();

 private:
  sim::Simulation sim_;
  sim::Network net_{sim_};
  smartsockets::SmartSockets sockets_{net_};
  std::unique_ptr<deploy::Deployer> deployer_;
  std::unique_ptr<IbisDaemon> daemon_;
  sim::Host* client_ = nullptr;
};

/// The placement an experiment runs: pinned models verbatim (scored), free
/// models planned by the scheduler — the full role set in one decision.
sched::Placement plan_experiment(JungleTestbed& bed,
                                 const ExperimentSpec& spec);

/// Validate, place, deploy and run the experiment graph; report the
/// per-iteration timings + traffic. Deterministic for a fixed spec.
Result run_experiment(JungleTestbed& bed, const ExperimentSpec& spec);
/// Same, on the built-in Fig-9/12 jungle testbed.
Result run_experiment(const ExperimentSpec& spec);
/// One INI, whole run: topology + resources + experiment graph.
Result run_experiment_config(const util::Config& config);

}  // namespace jungle::amuse::experiment
