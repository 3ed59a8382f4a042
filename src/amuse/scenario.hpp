#pragma once

#include <string>

#include "amuse/experiment.hpp"

namespace jungle::amuse::scenario {

/// The classic paper configurations, kept as thin wrappers over the
/// composable Experiment API: each Kind is a canned ExperimentSpec
/// (classic_spec) flowing through the one experiment path — declarative
/// model graph, graph validation, scheduler placement of the full role set,
/// generalized bridge. New multi-model runs should use
/// experiment::ExperimentSpec (or an INI with [model ...] / [coupling ...]
/// sections) directly instead of adding kinds here.

using experiment::Datapath;
using experiment::JungleTestbed;
using experiment::Result;

/// The evaluation configurations of §6 (Figs 9 and 12):
///   local_cpu  — desktop only, Fi + phiGRAPE(CPU)           (353 s/iter)
///   local_gpu  — desktop GPU, Octgrav + phiGRAPE(GPU)       ( 89 s/iter)
///   remote_gpu — Octgrav moved to an LGM Tesla, 30 km away  ( 84 s/iter)
///   jungle     — all four models on four sites (Fig 12)     (62.4 s/iter)
///   sc11       — jungle placement, coupler in Seattle (Fig 9)
///   autoplace  — the placement scheduler maps the kernels itself (§7's
///                "transparently find a replacement machine", generalized:
///                transparently find *the* machines), checkpointing each
///                step and re-placing dead workers mid-run.
enum class Kind { local_cpu, local_gpu, remote_gpu, jungle, sc11, autoplace };

const char* kind_name(Kind kind) noexcept;
double paper_seconds_per_iteration(Kind kind) noexcept;  // NaN where untimed

struct Options {
  std::size_t n_stars = 1000;   // the embedded cluster of [11]
  std::size_t n_gas = 10000;
  int iterations = 2;
  double dt = 1.0 / 32.0;
  bool with_stellar_evolution = true;
  int se_every = 4;
  std::uint64_t seed = 20120301;
  Datapath datapath = Datapath::pipelined;
};

/// The embedded-cluster experiment of one paper configuration, as a spec:
/// four models (stars / tides / gas / se), one coupling, the kind's
/// placement pins. This is what run_scenario executes.
experiment::ExperimentSpec classic_spec(Kind kind, const Options& options);

/// The modeled placement a configuration runs: the paper tables (as spec
/// pins) for the classic kinds, the scheduler's plan for autoplace. Costs
/// are filled through the scheduler's model either way, which is how the
/// dashboard shows modeled-vs-measured and how tests check that autoplace
/// never does worse (on the model) than the Fig-12 map.
sched::Placement placement_for(JungleTestbed& bed, Kind kind,
                               const Options& options);

/// Run the embedded-cluster simulation in one configuration and report the
/// per-iteration timings + traffic. Deterministic for fixed options.
Result run_scenario(Kind kind, const Options& options);

/// Autoplace on an arbitrary INI topology: build the jungle from `config`,
/// let the scheduler place the kernels, run. When the INI declares its own
/// experiment graph ([model ...] sections) that graph runs instead of the
/// classic embedded cluster. No new C++ per topology or per experiment.
Result run_scenario_config(const util::Config& config, const Options& options);

}  // namespace jungle::amuse::scenario
