#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "explore/explore.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"

using namespace jungle;
using namespace jungle::amuse;
using namespace jungle::amuse::experiment;

// Standalone regression cases for interleavings the fault-schedule explorer
// (src/explore/) found. Each test replays a one-line schedule through
// explore::ScheduleInjector — no DFS involved — so the cases stay runnable
// and debuggable as ordinary unit tests (and each schedule is also an
// `explore --replay` repro). The invariant throughout: whatever the
// schedule breaks, recovery must land the physics bit-for-bit back on the
// fault-free trajectory (same checkpoint-digest hash family as the
// protocol itself) without leaking simulated processes.

namespace {

std::string example_ini(const std::string& name) {
  std::string path =
      std::string(JUNGLE_SOURCE_DIR) + "/examples/experiments/" + name;
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Outcome {
  bool completed = false;
  std::string error;
  int restarts = 0;
  int fired = 0;
  std::uint64_t digest = 0;
  double energy = 0.0;
  std::size_t live = 0;
  std::string placement;
  // Deltas of the process-global fault/RPC counters across this run.
  double rollbacks = 0.0;
  double rpc_retries = 0.0;
  double supervisor_restarts = 0.0;
  double degraded_iterations = 0.0;
};

/// Runs triple-plummer under `schedule` (explore's replay format). A
/// `network_fault` outside the injector's kinds — a link flap that heals,
/// a partial stream failure — fires once, as the run reaches
/// step.top_kick@1 (iteration 1 just completed).
Outcome run_triple_plummer(
    const std::string& schedule,
    const std::function<void(ExperimentSpec&)>& mutate = {},
    const std::function<void(sim::Network&)>& network_fault = {}) {
  util::Config config = util::Config::parse(example_ini("triple-plummer.ini"));
  ExperimentSpec spec = ExperimentSpec::from_config(config);
  spec.checkpointing = true;
  if (mutate) mutate(spec);

  double rollbacks0 = obs::metrics::counter_value("fault.rollbacks");
  double retries0 = obs::metrics::counter_value("rpc.retries");
  double restarts0 = obs::metrics::counter_value("fault.supervisor_restarts");
  double degraded0 = obs::metrics::counter_value("fault.degraded_iterations");

  JungleTestbed bed(config);
  Outcome out;
  explore::ScheduleInjector injector(bed.network(),
                                    explore::parse_schedule(schedule));
  {
    faultpoint::Hook inject = injector.hook();
    bool network_faulted = false;
    faultpoint::ScopedHook guard([&](const faultpoint::Context& ctx) {
      if (network_fault && !network_faulted &&
          ctx.point == faultpoint::Point::step_top_kick &&
          ctx.iteration == 1) {
        network_faulted = true;
        network_fault(bed.network());
      }
      inject(ctx);
    });
    try {
      Result result = run_experiment(bed, spec);
      out.completed = true;
      out.restarts = result.restarts;
      out.placement = result.placement;
      // Digest the final states through the checkpoint layer's own hash so
      // "matches the fault-free run" means bit-for-bit, not approximately.
      GraphCheckpoint fin;
      fin.epoch = result.iterations;
      fin.resize(result.models.size());
      for (std::size_t i = 0; i < result.models.size(); ++i) {
        const ModelResult& model = result.models[i];
        if (model.role == sched::Role::gravity)
          fin.gravity[i].state = model.gravity;
        else if (model.role == sched::Role::hydro)
          fin.hydro[i].state = model.hydro;
        out.energy += model.kinetic + model.potential + model.thermal;
      }
      out.digest = digest(fin);
    } catch (const std::exception& error) {
      out.error = error.what();
    }
  }
  out.fired = injector.fired();
  out.live = bed.simulation().live_processes();
  out.rollbacks = obs::metrics::counter_value("fault.rollbacks") - rollbacks0;
  out.rpc_retries = obs::metrics::counter_value("rpc.retries") - retries0;
  out.supervisor_restarts =
      obs::metrics::counter_value("fault.supervisor_restarts") - restarts0;
  out.degraded_iterations =
      obs::metrics::counter_value("fault.degraded_iterations") - degraded0;
  return out;
}

const Outcome& golden() {
  static Outcome gold = run_triple_plummer("");
  return gold;
}

void expect_recovered_on_golden(const Outcome& out,
                                const Outcome& gold = golden()) {
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.digest, gold.digest);
  EXPECT_NEAR(out.energy, gold.energy,
              1e-8 * std::max(1.0, std::fabs(gold.energy)));
  // Crashed hosts take their own processes down, so fewer survivors than
  // the golden run is fine; more means recovery leaked one.
  EXPECT_LE(out.live, gold.live);
}

}  // namespace

TEST(Faults, FaultFreeBaselineIsHealthy) {
  const Outcome& gold = golden();
  ASSERT_TRUE(gold.completed) << gold.error;
  EXPECT_EQ(gold.restarts, 0);
  EXPECT_NE(gold.digest, 0u);
  EXPECT_LT(gold.energy, 0.0);  // three bound clusters
}

TEST(Faults, CrashDuringCommitRollsBackAtomically) {
  // Explorer schedule "ckpt.commit@0#0=crash:node0": the field worker's
  // host dies inside the per-model commit loop of epoch 1, with a bridge
  // step still to run. The graph-wide atomic commit must not leave a
  // half-staged snapshot behind: the next step's death notice triggers a
  // re-place and a rollback onto a *consistent* epoch, landing the replay
  // on the golden trajectory — a partial commit would leave mixed-epoch
  // checkpoints and a diverged final digest.
  Outcome out = run_triple_plummer("ckpt.commit@0#0=crash:node0");
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashDuringCaptureReplaysBitExact) {
  // Explorer schedule "ckpt.capture@0#0=crash:node0": death while the very
  // first checkpoint is being captured forces a rollback to the initial
  // conditions. This is the interleaving that exposed the corrector-force
  // hole: a restored integrator that re-evaluates forces instead of
  // carrying the checkpointed ones diverges by roundoff in its first step.
  Outcome out = run_triple_plummer("ckpt.capture@0#0=crash:node0");
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashWhileCapturesInFlightReplaysBitExact) {
  // A checkpoint issues every model's capture calls before it reads any
  // reply. Pin alpha onto node0 (with the field kernel, whose capture is
  // client-side, last in model order) and crash node0 at the last
  // ckpt.capture of epoch 1 (#3): alpha's state and dynamics fetches are
  // still in flight when its host dies. Nothing may commit; recovery rolls
  // back to the initial conditions and replays onto the golden bits (the
  // physics does not depend on placement).
  auto alpha_on_node0 = [](ExperimentSpec& spec) {
    spec.models[static_cast<std::size_t>(spec.find("alpha"))].place =
        "cluster/node0";
  };
  Outcome out =
      run_triple_plummer("ckpt.capture@0#3=crash:node0", alpha_on_node0);
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  EXPECT_EQ(out.rollbacks, 1.0);
  expect_recovered_on_golden(out);
}

TEST(Faults, DoubleFaultDuringReplaceRecovers) {
  // Explorer schedule "step.evolve@1#0=crash:node0;
  // recover.replace@-1#0=crash:node1": the second cluster node dies while
  // recovery is still re-placing the victims of the first crash. The
  // replace loop must fold the new death into its exclusions and keep
  // going, not wedge on a worker it was about to start.
  Outcome out = run_triple_plummer(
      "step.evolve@1#0=crash:node0;recover.replace@-1#0=crash:node1");
  EXPECT_EQ(out.fired, 2);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, WanCutMidStepBreaksIdleConnectionsToo) {
  // Explorer schedule "step.evolve@0#0=link:metro-wan": cutting the only
  // WAN link strands the cluster-side workers. Connections with a frame in
  // flight notice via retry exhaustion, but *idle* pipes (and receive-port
  // readers parked behind them) used to block forever — the leaked-process
  // hole. The link watcher's keepalive timeout must break them so every
  // stranded reader unwinds with a ConnectError and recovery proceeds.
  Outcome out = run_triple_plummer("step.evolve@0#0=link:metro-wan");
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashDuringReplaceSpawnRetries) {
  // Explorer schedule "spawn.worker@-1#0=crash:node1" layered after a
  // first crash: the daemon's bounded spawn retry must absorb a resource
  // dying at the worst moment — exactly when a replacement is being
  // started on it — and fall back to another node.
  // Startup reaches spawn.worker@-1 once (#0), so #1 is the first spawn
  // after the crash. At 128 bodies per cluster the field kernel lost with
  // node0 is re-placed onto the client, which spawns nothing; at 512 the
  // tree evaluation is worth the WAN hop and the re-place spawns on node1,
  // so the second crash lands mid-spawn. The start fails, the cluster is
  // excluded, and the field kernel is re-placed once more, onto the client.
  auto big_clusters = [](ExperimentSpec& spec) {
    for (ModelSpec& model : spec.models) {
      if (model.role == sched::Role::gravity) model.n = 512;
    }
  };
  static const Outcome gold = run_triple_plummer("", big_clusters);
  Outcome out = run_triple_plummer(
      "step.top_kick@1#0=crash:node0;spawn.worker@-1#1=crash:node1",
      big_clusters);
  EXPECT_EQ(out.fired, 2);
  EXPECT_GE(out.restarts, 1);
  EXPECT_NE(out.placement.find("ringfield=fi@local"), std::string::npos)
      << out.placement;
  expect_recovered_on_golden(out, gold);
}

TEST(Faults, CrashDuringInitialSpawnReplaces) {
  // "spawn.worker@-1#0=crash:<host>" before any step has run: the first
  // worker start kills the GPU node (the field kernel's planned home) or
  // the cluster frontend every submit goes through. Either way the daemon
  // cannot start the field kernel on the cluster, so initial deployment
  // takes its startup-failure branch: exclude the resource, re-place the
  // model once (onto the client) and run on the golden trajectory.
  for (const char* victim : {"node0", "fs0"}) {
    SCOPED_TRACE(victim);
    Outcome out = run_triple_plummer(std::string("spawn.worker@-1#0=crash:") +
                                     victim);
    EXPECT_EQ(out.fired, 1);
    EXPECT_EQ(out.restarts, 1);
    EXPECT_NE(golden().placement.find("ringfield=octgrav@cluster/node0"),
              std::string::npos);
    EXPECT_NE(out.placement.find("ringfield=fi@local"), std::string::npos)
        << out.placement;
    expect_recovered_on_golden(out);
  }
}

// ---------------------------------------------------------------------------
// PR 8: the process-fault tier. Victims are single processes (daemon
// accept loop, worker proxy, native worker) killed while their host stays
// up; the supervisors must recover *in place* — same hosts, same placement,
// no exclusions — and land the run back on the golden bits.
// ---------------------------------------------------------------------------

TEST(Faults, DaemonKillRestartsInPlace) {
  // Kill the daemon's accept loop mid-run. Nothing is listening while the
  // supervisor's backoff runs, but connect() backlogs into the server
  // socket's mailbox, so the restart is invisible to everyone — no
  // rollback, no re-placement, identical physics.
  Outcome out = run_triple_plummer("step.evolve@0#0=daemon:edge");
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.restarts, 0);  // host not excluded, nothing re-placed
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, DaemonDoubleKillWithReplacementTraffic) {
  // The double-fault case from the issue: the daemon is killed once per
  // iteration (the second kill lands just after the first supervised
  // restart, doubling the backoff), and then a node crash forces a
  // re-place *through* the daemon while its second restart is still
  // pending. start_worker's connect backlogs in the accept queue until
  // the next accept-loop generation picks it up.
  Outcome out = run_triple_plummer(
      "step.top_kick@0#0=daemon:edge;step.top_kick@1#0=daemon:edge;"
      "step.evolve@1#0=crash:node0");
  EXPECT_GE(out.fired, 2);
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.supervisor_restarts, 2.0);
  expect_recovered_on_golden(out);
}

TEST(Faults, ProxyKillRecoversInPlaceWithoutReplacement) {
  // Kill the worker proxy (the gat job process) on the GPU node. The
  // daemon's per-channel supervisor redeploys it on the *same* node and
  // reports process_crash on the still-open relay; the script revives the
  // client, restores the committed state into the blank replacement and
  // replays — no exclusion, no re-placement.
  Outcome out = run_triple_plummer("step.evolve@1#0=proxy:node0");
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);  // a rollback+replay, but in place
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, WorkerKillEscalatesToSupervisedRestart) {
  // Kill the *native worker* process, not its proxy. The proxy's loopback
  // pump sees the abnormal break, escalates (aborts its registry
  // connection and unwinds the relay), the registry broadcasts died, and
  // from there recovery is the same supervised in-place path.
  Outcome out = run_triple_plummer("step.evolve@1#0=worker:node0");
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, LinkFlapCompletesThroughRetriesWithoutRollback) {
  // Flap the WAN link for less than the outage grace budget. Safe calls
  // ride out the outage through hop retries plus idempotent resends; no
  // worker is declared dead, nothing rolls back, and the physics is
  // untouched — only the clock stretches.
  Outcome out = run_triple_plummer("", {}, [](sim::Network& net) {
    net.flap_link("metro-wan", /*down_s=*/2.0);
  });
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.restarts, 0);
  EXPECT_EQ(out.rollbacks, 0.0);
  EXPECT_GE(out.rpc_retries, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
}

TEST(Faults, ProxyKillMidStripedTransferDegradesAndRecovers) {
  // Large model: its state crosses the WAN striped over parallel streams.
  // After iteration 1, most of the link's streams fail (they stay failed),
  // so every later bulk transfer runs degraded on the survivors — and in
  // the middle of the degraded checkpoint capture the proxy is killed.
  // Both machineries must compose: degraded stripes for the bytes, the
  // supervised in-place restart for the process.
  auto enlarge = [](ExperimentSpec& spec) {
    spec.models[0].n = 1400;  // 7 doubles/particle: ~78 KiB, > the 64 KiB stripe threshold
  };
  Outcome baseline = run_triple_plummer("", enlarge);
  ASSERT_TRUE(baseline.completed) << baseline.error;
  Outcome out = run_triple_plummer(
      "ckpt.capture@1#0=proxy:node0", enlarge, [](sim::Network& net) {
        net.fail_streams("metro-wan", 6, /*heal_s=*/0.0);  // stay failed
      });
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.degraded_iterations, 1.0);
  EXPECT_EQ(out.digest, baseline.digest);
  EXPECT_LE(out.live, baseline.live);
}
