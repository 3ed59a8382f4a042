// The jungle benchmark program: runs one workload for a time budget through
// the simulator's public API and prints, as its last stdout line, one JSON
// object with the run's end-to-end metrics (--trace 0) or its per-layer
// ledger (--trace 1), the failure accounting, and the per-model energy and
// state fingerprints that perfbench/run.py compares against
// perfbench/reference.json.
//
//   jungle_bench --workload fig12-jungle --seed 7 --seconds 20 --trace 0
//
// Every workload runs R pinned initial-condition realizations (IC seed
// derived from --seed and the realization index). Each runs twice: a
// one-step reference run, whose final energies are the start of the
// energy-drift measurement, and the measured run of I steps. Further
// realizations run only their measured run while the budget lasts, adding
// host-time samples. perfbench/METRICS.md documents every metric.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/scenario.hpp"
#include "explore/explore.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

using namespace jungle;
using amuse::experiment::ExperimentSpec;
using amuse::experiment::JungleTestbed;
using amuse::experiment::ModelSpec;
using amuse::experiment::Result;
namespace faultpoint = amuse::faultpoint;
namespace metrics = obs::metrics;

namespace {

/// The seed whose fingerprints perfbench/reference.json pins, and whose
/// first measured run every run repeats (the golden check).
constexpr std::uint64_t kDefaultSeed = 1;

/// Largest relative energy change over a measured run (worst model) that
/// still counts as a correct run. The embedded cluster's subsystems
/// exchange energy through the cross-kicks and the gas is heated by
/// winds, so this bounds accuracy loss, not exact conservation.
constexpr double kDriftTolerance = 0.05;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string read_text(const std::string& relative) {
  std::string path = std::string(JUNGLE_ROOT_DIR) + "/" + relative;
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  int iterations = 0;    // steps of a measured run
  int realizations = 0;  // IC realizations per cycle
  std::string topology;  // INI text ("" = the built-in Fig-12 jungle)
  std::function<ExperimentSpec(std::uint64_t ic_seed, int iterations)> spec;
  int sweep_schedules = 0;  // > 0: also run the fault-schedule explorer
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fig12-jungle") {
    // The paper's headline run with its pinned four-site placement.
    w.iterations = 4;
    w.realizations = 3;
    w.spec = [](std::uint64_t seed, int iterations) {
      amuse::scenario::Options options;
      options.seed = seed;
      options.iterations = iterations;
      return amuse::scenario::classic_spec(amuse::scenario::Kind::jungle,
                                           options);
    };
  } else if (name == "sharded-gravity") {
    // One Plummer model sharded over four co-placed phiGRAPE workers.
    w.iterations = 4;
    w.realizations = 10;
    w.topology = read_text("examples/topologies/sharded-lan.ini");
    w.spec = [](std::uint64_t seed, int iterations) {
      ExperimentSpec spec;
      spec.name = "sharded-gravity";
      spec.iterations = iterations;
      spec.seed = seed;
      ModelSpec gravity;
      gravity.name = "gravity";
      gravity.role = sched::Role::gravity;
      gravity.kernel = "phigrape";
      gravity.n = 1024;
      gravity.workers = 4;
      spec.models.push_back(gravity);
      return spec;
    };
  } else if (name == "deepwan-coupling") {
    // The embedded cluster, scaled down, autoplaced three WAN hops out.
    w.iterations = 5;
    w.realizations = 8;
    w.topology = read_text("examples/topologies/deep-wan-3hop.ini");
    w.spec = [](std::uint64_t seed, int iterations) {
      amuse::scenario::Options options;
      options.n_stars = 400;
      options.n_gas = 3000;
      options.seed = seed;
      options.iterations = iterations;
      return amuse::scenario::classic_spec(amuse::scenario::Kind::autoplace,
                                           options);
    };
  } else if (name == "fault-sweep") {
    // triple-plummer: fault-free runs plus a depth-2 explorer sweep.
    w.iterations = 4;
    w.realizations = 12;
    w.sweep_schedules = 24;
    w.topology = read_text("examples/experiments/triple-plummer.ini");
    std::string text = w.topology;
    w.spec = [text](std::uint64_t seed, int iterations) {
      ExperimentSpec spec =
          ExperimentSpec::from_config(util::Config::parse(text));
      spec.seed = seed;
      spec.iterations = iterations;
      return spec;
    };
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t ic_seed(std::uint64_t seed, int realization) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(realization);
}

// --------------------------------------------------------------- one run

/// Everything one experiment run tells the benchmark.
struct Run {
  Result result;
  /// Testbed constructor to the first bridge step: testbed, placement,
  /// deploy and initial conditions, in wall and process-CPU seconds.
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  double testbed_s = 0.0;  // the JungleTestbed constructor alone
  double wall_s = 0.0;     // whole run, set-up included
  double cpu_s = 0.0;
  /// Host time of each step after the first, from one bottom cross-kick
  /// to the next (a full cycle of bridge phases that skips the first
  /// evolve, which primes every kernel's forces).
  std::vector<double> step_wall;
  std::vector<double> step_cpu;
  /// Registry snapshots at the first and the last bottom cross-kick.
  std::optional<metrics::Snapshot> window_begin;
  std::optional<metrics::Snapshot> window_end;
  std::vector<obs::trace::SpanRecord> spans;  // traced runs only
};

std::vector<double> energies(const Result& result) {
  std::vector<double> out;
  for (const auto& model : result.models) {
    out.push_back(model.kinetic + model.potential + model.thermal);
  }
  return out;
}

/// What the reference pins per model: its total energy and its
/// mass-weighted second moment sum(m |x|^2). Energy is conserved to high
/// order, so a change to the integration shows in it only at roundoff
/// level after one step; the moment follows the trajectory itself.
std::vector<double> fingerprint(const Result& result) {
  std::vector<double> out;
  for (const auto& model : result.models) {
    const bool gravity = !model.gravity.mass.empty();
    const auto& mass = gravity ? model.gravity.mass : model.hydro.mass;
    const auto& position =
        gravity ? model.gravity.position : model.hydro.position;
    double moment = 0.0;
    for (std::size_t i = 0; i < mass.size() && i < position.size(); ++i) {
      moment += mass[i] * position[i].norm2();
    }
    out.push_back(model.kinetic + model.potential + model.thermal);
    out.push_back(moment);
  }
  return out;
}

std::unique_ptr<JungleTestbed> make_testbed(const Workload& w) {
  if (w.topology.empty()) return std::make_unique<JungleTestbed>();
  return std::make_unique<JungleTestbed>(util::Config::parse(w.topology));
}

Run run_experiment_once(const Workload& w, std::uint64_t seed, int iterations,
                        bool traced) {
  ExperimentSpec spec = w.spec(seed, iterations);
  obs::trace::reset();
  obs::trace::set_enabled(traced);
  Run run;
  double first_step = 0.0;
  double first_step_cpu = 0.0;
  double last_wall = 0.0;
  double last_cpu = 0.0;
  int bottom_kicks = 0;
  double t0 = wall_now();
  double c0 = cpu_now();
  std::unique_ptr<JungleTestbed> bed = make_testbed(w);
  run.testbed_s = wall_now() - t0;
  {
    faultpoint::ScopedHook hook([&](const faultpoint::Context& at) {
      if (at.point == faultpoint::Point::step_top_kick) {
        if (first_step == 0.0) {
          first_step = wall_now();
          first_step_cpu = cpu_now();
        }
      } else if (at.point == faultpoint::Point::step_bottom_kick) {
        double wall = wall_now();
        double cpu = cpu_now();
        if (bottom_kicks > 0) {
          run.step_wall.push_back(wall - last_wall);
          run.step_cpu.push_back(cpu - last_cpu);
        }
        last_wall = wall;
        last_cpu = cpu;
        ++bottom_kicks;
        if (traced && bottom_kicks == 1) {
          run.window_begin = metrics::snapshot();
        } else if (traced && bottom_kicks == iterations) {
          run.window_end = metrics::snapshot();
        }
      }
    });
    run.result = amuse::experiment::run_experiment(*bed, spec);
  }
  bed.reset();
  run.wall_s = wall_now() - t0;
  run.cpu_s = cpu_now() - c0;
  run.setup_s = first_step - t0;
  run.setup_cpu_s = first_step_cpu - c0;
  if (traced) run.spans = obs::trace::snapshot();
  obs::trace::set_enabled(false);
  obs::trace::reset();
  return run;
}

// ------------------------------------------------------------ the sweep

struct Sweep {
  int schedules = 0;
  int pruned = 0;
  std::vector<std::string> violations;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  metrics::Snapshot before;
  metrics::Snapshot after;
};

Sweep run_sweep(const Workload& w, std::uint64_t seed) {
  util::Config config = util::Config::parse(w.topology);
  config.set("experiment", "seed", std::to_string(seed));
  explore::Options options;
  options.max_faults = 2;
  options.max_schedules = w.sweep_schedules;
  Sweep sweep;
  sweep.before = metrics::snapshot();
  double t0 = wall_now();
  double c0 = cpu_now();
  explore::Explorer explorer(config, options);
  explore::Explorer::Summary summary = explorer.explore();
  sweep.wall_s = wall_now() - t0;
  sweep.cpu_s = cpu_now() - c0;
  sweep.after = metrics::snapshot();
  sweep.schedules = summary.schedules;
  sweep.pruned = summary.pruned;
  for (const auto& v : summary.violations) {
    sweep.violations.push_back(v.schedule + ": " + v.what);
  }
  return sweep;
}

// -------------------------------------------------------------- helpers

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Sum over counters named prefix*suffix of their growth from a to b.
double counter_delta(const metrics::Snapshot& a, const metrics::Snapshot& b,
                     const std::string& prefix, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : b.counters) {
    if (!starts_with(name, prefix) || !ends_with(name, suffix)) continue;
    if (name.size() < prefix.size() + suffix.size()) continue;
    auto before = a.counters.find(name);
    total += value - (before == a.counters.end() ? 0.0 : before->second);
  }
  return total;
}

double histogram_sum_delta(const metrics::Snapshot& a,
                           const metrics::Snapshot& b,
                           const std::string& name) {
  auto after = b.histograms.find(name);
  if (after == b.histograms.end()) return 0.0;
  auto before = a.histograms.find(name);
  return after->second.sum -
         (before == a.histograms.end() ? 0.0 : before->second.sum);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every experiment run and explorer schedule is attempted; a failure is
/// an exception, a drift beyond tolerance, a traced repeat that does not
/// reproduce its untraced run, or an explorer invariant violation.
/// (run.py adds the fingerprint checks against reference.json.)
struct Accounting {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

bool same_physics(const Result& a, const Result& b) {
  return a.seconds_per_iteration == b.seconds_per_iteration &&
         fingerprint(a) == fingerprint(b) && a.wan_bytes == b.wan_bytes;
}

/// Decimal digits of energy conservation, -log10 of the worst model's
/// relative drift, averaged over realizations (a geometric mean of the
/// drifts). Drift spans orders of magnitude between initial conditions
/// of one workload, so its log is what averages to a steady figure.
double energy_digits(const std::vector<double>& drifts) {
  std::vector<double> digits;
  for (double drift : drifts) {
    digits.push_back(-std::log10(std::max(drift, 1e-17)));
  }
  return mean(digits);
}

double worst_drift(const std::vector<double>& start,
                   const std::vector<double>& end) {
  double worst = 0.0;
  for (std::size_t m = 0; m < start.size() && m < end.size(); ++m) {
    worst = std::max(worst, std::fabs(end[m] - start[m]) / std::fabs(start[m]));
  }
  return worst;
}

/// Host time of the untraced measured runs. The wall-clock figures are
/// reported but not gated: on a shared 4-vCPU host their run-to-run
/// spread reaches the largest admissible bound, while CPU time holds.
struct HostTimes {
  double step_wall = 0.0;  // median wall s per steady step
  double step_cpu = 0.0;   // median CPU s per steady step
  double schedules_per_s = 0.0;     // sweep schedules (or runs) per wall s
  double cpu_s_per_schedule = 0.0;  // CPU s per sweep schedule (or run)
  double run_wall = 0.0;            // median wall s per measured run
};

// ------------------------------------------------------ the traced ledger

/// Per-layer metrics of the traced runs (see ledger.hpp for the span
/// rules). Registry figures come from the window between the first and
/// the last bottom cross-kick of each run, so they cover the same steady
/// steps as the span ledger, which skips each run's first iteration.
std::vector<Metric> layer_metrics(const Workload& w, std::uint64_t seed,
                                  const std::vector<Run>& traced,
                                  const std::vector<Sweep>& sweeps,
                                  const HostTimes& host,
                                  const std::vector<double>& testbeds,
                                  const std::vector<double>& drifts) {
  double steps = 0.0;
  double flops = 0.0, substeps = 0.0, rpc_calls = 0.0, rpc_bytes = 0.0,
         rpc_retries = 0.0, ckpt_virt = 0.0;
  double modeled = 0.0, pre_drift = 0.0, drift = 0.0, ipl = 0.0;
  double degraded = 0.0;
  std::map<std::string, double> flops_by_kernel;
  std::vector<double> traced_step_wall;
  std::vector<obs::trace::SpanRecord> spans;  // span ids are process-unique
  const ExperimentSpec spec = w.spec(seed, w.iterations);
  for (const Run& run : traced) {
    spans.insert(spans.end(), run.spans.begin(), run.spans.end());
    traced_step_wall.insert(traced_step_wall.end(), run.step_wall.begin(),
                            run.step_wall.end());
    if (run.window_begin && run.window_end) {
      const metrics::Snapshot& a = *run.window_begin;
      const metrics::Snapshot& b = *run.window_end;
      steps += w.iterations - 1;
      flops += counter_delta(a, b, "worker.", ".flops");
      substeps += counter_delta(a, b, "worker.", ".substeps");
      rpc_calls += counter_delta(a, b, "rpc.", ".calls");
      rpc_bytes += counter_delta(a, b, "rpc.", ".bytes_in") +
                   counter_delta(a, b, "rpc.", ".bytes_out");
      rpc_retries += counter_delta(a, b, "rpc.retries", "");
      ckpt_virt += histogram_sum_delta(a, b, "fault.checkpoint_s");
      for (const ModelSpec& model : spec.models) {
        const char* kernel = model.role == sched::Role::gravity ? "hermite"
                             : model.role == sched::Role::coupler ? "tree"
                             : model.role == sched::Role::hydro   ? "sph"
                                                                  : nullptr;
        if (kernel == nullptr) continue;
        flops_by_kernel[kernel] +=
            counter_delta(a, b, "worker." + model.name + ".flops", "");
      }
    }
    modeled += run.result.modeled_seconds_per_iteration;
    pre_drift += run.result.precalibration_drift;
    drift += run.result.compute_drift;
    ipl += run.result.wan_ipl_bytes_per_step;
    for (const auto& row : run.result.iteration_log) {
      if (row.degraded) degraded += 1.0;
    }
  }
  perfbench::Ledger ledger = perfbench::build_ledger(spans);
  const std::vector<double>& latencies = ledger.rpc_latency_virt;
  const double runs = static_cast<double>(traced.size());
  const double iters = std::max(1, ledger.iterations);
  steps = std::max(1.0, steps);

  // Host flop rate over the kernels whose host wall is attributed; the
  // flops of a kernel with no attributed wall (MPI SPH) are left out.
  double rated_flops = 0.0;
  for (const auto& [kernel, kernel_flops] : flops_by_kernel) {
    if (ledger.kernel_wall[kernel] > 0.0) rated_flops += kernel_flops;
  }
  const double kernel_wall = ledger.kernel_wall_total();

  // Fault and explorer layers: the sweep when there is one, else the
  // checkpoints of the traced runs' windows.
  double rollbacks = 0.0, restarts = 0.0, replayed = 0.0, recover = 0.0;
  double explore_wall = host.run_wall;
  double pruned_ratio = 0.0;
  ckpt_virt /= steps;
  if (!sweeps.empty()) {
    const Sweep& s = sweeps.front();
    double sweep_steps = std::max(
        1.0, counter_delta(s.before, s.after, "fault.point.step.top_kick", ""));
    auto per_step = [&](const char* name) {
      return counter_delta(s.before, s.after, name, "") / sweep_steps;
    };
    rollbacks = per_step("fault.rollbacks");
    restarts = per_step("fault.supervisor_restarts");
    replayed = per_step("fault.replayed_steps");
    degraded += counter_delta(s.before, s.after, "fault.degraded_iterations",
                              "");
    ckpt_virt =
        histogram_sum_delta(s.before, s.after, "fault.checkpoint_s") /
        sweep_steps;
    recover = histogram_sum_delta(s.before, s.after, "fault.recover_s") /
              sweep_steps;
    explore_wall = s.wall_s / std::max(1, s.schedules);
    pruned_ratio = static_cast<double>(s.pruned) /
                   std::max(1.0, static_cast<double>(s.schedules + s.pruned));
  }

  // Planner wall: plan_experiment on a fresh testbed, R times.
  std::vector<double> plans;
  for (int r = 0; r < w.realizations; ++r) {
    std::unique_ptr<JungleTestbed> bed = make_testbed(w);
    double t = wall_now();
    amuse::experiment::plan_experiment(*bed, spec);
    plans.push_back(wall_now() - t);
  }

  return {
      {"kernels.energy_drift",
       drifts.empty() ? 0.0 : perfbench::median(drifts), "ratio"},
      {"kernels.hermite.wall_s", ledger.kernel_wall["hermite"] / iters, "s"},
      {"kernels.tree.wall_s", ledger.kernel_wall["tree"] / iters, "s"},
      {"kernels.sph.wall_s", ledger.kernel_wall["sph"] / iters, "s"},
      {"kernels.flops", flops / steps, "flop"},
      {"kernels.substeps", substeps / steps, "count"},
      {"kernels.gflops_host",
       kernel_wall > 0.0 ? rated_flops / steps / (kernel_wall / iters) / 1e9
                         : 0.0,
       "GFLOP/s"},
      {"host.nonkernel.wall_s", ledger.nonkernel_wall() / iters, "s"},
      {"bridge.evolve.virt_s", ledger.evolve_virt / iters, "virt_s"},
      {"bridge.cross_kick.virt_s", ledger.cross_kick_virt / iters, "virt_s"},
      {"bridge.stellar.virt_s", ledger.stellar_virt / iters, "virt_s"},
      {"rpc.calls", rpc_calls / steps, "count"},
      {"rpc.bytes", rpc_bytes / steps, "B"},
      {"rpc.latency.p50_virt_s",
       latencies.empty() ? 0.0 : perfbench::median(latencies), "virt_s"},
      {"rpc.retries", rpc_retries / steps, "count"},
      {"rpc.wire.virt_s", ledger.rpc_wire_virt / iters, "virt_s"},
      {"net.wan_ipl_bytes_per_step", ipl / runs, "B"},
      {"net.degraded_iterations", degraded, "count"},
      {"sched.plan.wall_s", perfbench::median(plans), "s"},
      {"sched.modeled_s_per_iter", modeled / runs, "virt_s"},
      {"sched.precalibration_drift", pre_drift / runs, "ratio"},
      {"sched.compute_drift", drift / runs, "ratio"},
      {"deploy.testbed.wall_s", perfbench::median(testbeds), "s"},
      {"deploy.spawn.virt_s", ledger.spawn_virt / runs, "virt_s"},
      {"fault.checkpoint.virt_s", ckpt_virt, "virt_s"},
      {"fault.recover.virt_s", recover, "virt_s"},
      {"fault.rollbacks", rollbacks, "count"},
      {"fault.supervisor_restarts", restarts, "count"},
      {"fault.replayed_steps", replayed, "count"},
      {"explore.run.wall_s", explore_wall, "s"},
      {"explore.pruned_ratio", pruned_ratio, "ratio"},
      {"host.wall_s_per_iter", host.step_wall, "s"},
      {"host.schedules_per_s", host.schedules_per_s, "1/s"},
      {"obs.trace_overhead",
       perfbench::median(traced_step_wall) / host.step_wall - 1.0, "ratio"},
  };
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) throw ConfigError("missing value after " + key);
    std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw ConfigError("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw ConfigError("--workload is required");
  return args;
}

int bench_main(const Args& args) {
  const Workload w = make_workload(args.workload);
  const double start = wall_now();
  const double deadline = start + args.seconds;
  Accounting acct;

  auto attempt = [&](std::uint64_t seed, int iterations,
                     bool traced) -> std::optional<Run> {
    ++acct.attempted;
    try {
      return run_experiment_once(w, seed, iterations, traced);
    } catch (const std::exception& error) {
      acct.fail(w.name + " seed " + std::to_string(seed) + ": " +
                error.what());
      return std::nullopt;
    }
  };

  std::vector<double> virt, wan;  // per pinned realization
  std::vector<Run> untraced;  // every measured run without tracing
  std::vector<Run> traced;
  std::vector<Sweep> sweeps;
  std::vector<double> setups, setup_walls, testbeds, drifts;
  double rss_mb = 0.0;
  auto note_setup = [&](const Run& run) {
    setups.push_back(run.setup_cpu_s);
    setup_walls.push_back(run.setup_s);
    testbeds.push_back(run.testbed_s);
  };
  auto sweep_once = [&](std::uint64_t seed) {
    try {
      Sweep sweep = run_sweep(w, seed);
      acct.attempted += sweep.schedules;
      for (const std::string& text : sweep.violations) {
        acct.fail(w.name + " schedule " + text);
      }
      sweeps.push_back(std::move(sweep));
    } catch (const std::exception& error) {
      ++acct.attempted;
      acct.fail(w.name + " sweep: " + error.what());
    }
  };

  // --- realizations. Each of the first R runs a one-step reference and
  // the measured run (plus a sweep on fault-sweep); they fix the
  // deterministic metrics and the energy drift. Further realizations run
  // only the measured run (and sweep) while the budget lasts, adding
  // host-time samples over more initial conditions. With --trace 1 only
  // the R pinned realizations run, each measured run followed by its
  // traced repeat. ---
  std::string fingerprints_json = "[";
  double slowest_run = 0.0;    // longest measured run so far
  double slowest_sweep = 0.0;  // longest sweep so far
  auto fits = [&](double cost) { return wall_now() + cost <= deadline; };
  for (int r = 0;; ++r) {
    const bool pinned = r < w.realizations;
    if (!pinned && (args.trace || !fits(slowest_run + slowest_sweep))) break;
    std::uint64_t seed = ic_seed(args.seed, r);
    std::optional<Run> reference;
    if (pinned) reference = attempt(seed, 1, false);
    double t_measured = wall_now();
    std::optional<Run> measured = attempt(seed, w.iterations, false);
    if (r == 0) rss_mb = peak_rss_mb();
    std::vector<double> start_e, end_e;
    if (reference) {
      note_setup(*reference);
      start_e = energies(reference->result);
    }
    if (measured) {
      note_setup(*measured);
      end_e = energies(measured->result);
      untraced.push_back(*measured);
    }
    if (reference && measured) {
      double drift = worst_drift(start_e, end_e);
      drifts.push_back(drift);
      if (!(drift <= kDriftTolerance)) {
        acct.fail(w.name + " seed " + std::to_string(seed) +
                  ": energy drift " + json_number(drift) +
                  " exceeds tolerance " + json_number(kDriftTolerance));
      }
    }
    slowest_run = std::max(slowest_run, wall_now() - t_measured);
    if (args.trace && measured) {
      // The traced repeat runs right after its untraced twin, under the
      // same host load, and must reproduce its physics bit for bit.
      if (std::optional<Run> again = attempt(seed, w.iterations, true)) {
        note_setup(*again);
        if (!same_physics(measured->result, again->result)) {
          acct.fail(w.name + " seed " + std::to_string(seed) +
                    ": traced run did not reproduce the untraced one");
        }
        traced.push_back(std::move(*again));
      }
    }
    if (w.sweep_schedules > 0 &&
        (r == 0 || (!args.trace && fits(slowest_sweep)))) {
      double t_sweep = wall_now();
      sweep_once(seed);
      slowest_sweep = std::max(slowest_sweep, wall_now() - t_sweep);
    }
    if (pinned) {
      auto pinned_json = [](const std::optional<Run>& run) {
        return json_numbers(run ? fingerprint(run->result)
                                : std::vector<double>{});
      };
      fingerprints_json += std::string(r > 0 ? ", " : "") +
                           "{\"start\": " + pinned_json(reference) +
                           ", \"end\": " + pinned_json(measured) + "}";
      if (measured) {
        const Result& result = measured->result;
        double bytes = 0.0;
        for (const auto& row : result.iteration_log) bytes += row.wan_bytes;
        virt.push_back(result.seconds_per_iteration);
        wan.push_back(bytes /
                      static_cast<double>(result.iteration_log.size()));
      }
    }
  }
  fingerprints_json += "]";

  // --- golden check: the default seed's first realization, measured ---
  std::string golden_json = "[]";
  if (auto golden = attempt(ic_seed(kDefaultSeed, 0), w.iterations, false)) {
    golden_json = json_numbers(fingerprint(golden->result));
  }

  // --- metrics ---
  std::vector<double> step_wall, step_cpu, run_wall, run_cpu;
  for (const Run& run : untraced) {
    step_wall.insert(step_wall.end(), run.step_wall.begin(),
                     run.step_wall.end());
    step_cpu.insert(step_cpu.end(), run.step_cpu.begin(), run.step_cpu.end());
    run_wall.push_back(run.wall_s);
    run_cpu.push_back(run.cpu_s);
  }
  if (step_wall.empty() || virt.empty() || (args.trace && traced.empty())) {
    std::printf("workload %s: no completed measured run\n", w.name.c_str());
    for (const std::string& why : acct.failures) {
      std::printf("  %s\n", why.c_str());
    }
    return 1;
  }

  HostTimes host;
  host.step_wall = perfbench::median(step_wall);
  host.step_cpu = perfbench::median(step_cpu);
  host.run_wall = perfbench::median(run_wall);
  host.schedules_per_s = 1.0 / host.run_wall;
  host.cpu_s_per_schedule = perfbench::median(run_cpu);
  if (!sweeps.empty()) {
    std::vector<double> rates, cpus;
    for (const Sweep& s : sweeps) {
      rates.push_back(s.schedules / s.wall_s);
      cpus.push_back(s.cpu_s / s.schedules);
    }
    host.schedules_per_s = perfbench::median(rates);
    host.cpu_s_per_schedule = perfbench::median(cpus);
  }

  std::vector<Metric> out;
  if (args.trace) {
    out = layer_metrics(w, ic_seed(args.seed, 0), traced, sweeps, host,
                        testbeds, drifts);
  } else {
    out = {
        {"virt_s_per_iter", mean(virt), "virt_s"},
        {"wan_bytes_per_step", mean(wan), "B"},
        {"energy_digits", energy_digits(drifts), "digits"},
        {"cpu_s_per_iter", host.step_cpu, "s"},
        {"setup_s", perfbench::median(setups), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"cpu_s_per_schedule", host.cpu_s_per_schedule, "s"},
    };
  }

  std::printf("workload %s seed %llu: %u kernel lanes, %zu measured runs "
              "(%zu step samples), %zu traced, %zu sweeps, %.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              util::ThreadPool::default_lanes(), untraced.size(),
              step_wall.size(), traced.size(), sweeps.size(),
              wall_now() - start);
  if (step_wall.size() >= 2) {
    auto q = perfbench::quartiles(step_wall);
    std::printf("  wall clock, not gated: wall_s_per_iter %.4f s (q1 %.4f, "
                "q3 %.4f, %zu samples), schedules_per_s %.4f 1/s, set-up "
                "%.4f s\n",
                q.q2, q.q1, q.q3, step_wall.size(), host.schedules_per_s,
                perfbench::median(setup_walls));
  }
  std::string json =
      "{\"workload\": " + json_string(w.name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"default_seed\": " + std::to_string(kDefaultSeed) +
      ", \"lanes\": " + std::to_string(util::ThreadPool::default_lanes()) +
      ", \"step_samples\": " + std::to_string(step_wall.size()) +
      ", \"drift_tolerance\": " + json_number(kDriftTolerance) +
      ", \"attempted\": " + std::to_string(acct.attempted) +
      ", \"failed\": " + std::to_string(acct.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < acct.failures.size(); ++i) {
    json += (i > 0 ? ", " : "") + json_string(acct.failures[i]);
  }
  json += "], \"pinned\": " + fingerprints_json + ", \"golden\": " + golden_json +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i > 0 ? ", " : "") + json_string(out[i].name) +
            ": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": " + json_string(out[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return bench_main(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jungle_bench: %s\n", error.what());
    return 2;
  }
}
