#include <gtest/gtest.h>

#include "amuse/scenario.hpp"
#include "sched/scheduler.hpp"

using namespace jungle;
using namespace jungle::sched;
using jungle::amuse::scenario::JungleTestbed;
using jungle::amuse::scenario::Kind;

namespace {

/// The classic embedded-cluster quadruple: gravity, hydro, the coupler
/// bridging them and stellar evolution on the stars, in that slot order.
Workload classic_load(std::size_t n_stars, std::size_t n_gas) {
  Workload load;
  load.models.push_back({"gravity", Role::gravity, n_stars, -1, "", 0});
  load.models.push_back({"hydro", Role::hydro, n_gas, -1, "", 0});
  load.models.push_back({"coupler", Role::coupler, 0, -1, "", 0});
  load.models.push_back({"stellar", Role::stellar, n_stars, 0, "", 0});
  load.couplings.push_back({2, 0, 1, 1});
  return load;
}

Workload small_load() {
  Workload load = classic_load(200, 800);
  load.iterations = 4;
  return load;
}

/// The paper's production size: at this scale compute dominates messaging
/// and the remote placements win (the Figs 9/12 regime).
Workload production_load() { return classic_load(1000, 10000); }

/// A one-machine world: desktop only, optionally without its GPU — the
/// paper's local-CPU configuration as a topology.
struct LocalWorld {
  sim::Simulation sim;
  sim::Network net{sim};
  std::vector<gat::Resource> resources;  // none: only the client machine
  sim::Host* desktop;

  explicit LocalWorld(bool with_gpu) {
    net.add_site("vu");
    desktop = &net.add_host("desktop", "vu", 4, 0.15);
    if (with_gpu) desktop->set_gpu(sim::GpuSpec{"geforce", 1.2});
  }
};

/// Client plus one single-node remote resource whose WAN latency and queue
/// delay are configurable — the knobs the monotonicity invariants turn.
struct RemoteWorld {
  sim::Simulation sim;
  sim::Network net{sim};
  std::vector<gat::Resource> resources;
  sim::Host* desktop;
  sim::Host* node;

  explicit RemoteWorld(double latency_s, double queue_delay = 0.0,
                       double node_gpu_gflops = 6.0) {
    net.add_site("vu", 0.1e-3, 1e9 / 8);
    net.add_site("far", 0.1e-3, 1e9 / 8);
    desktop = &net.add_host("desktop", "vu", 4, 0.15);
    node = &net.add_host("node", "far", 8, 0.3);
    if (node_gpu_gflops > 0) {
      node->set_gpu(sim::GpuSpec{"tesla", node_gpu_gflops});
    }
    net.add_link("vu", "far", latency_s, 1e9 / 8, "wan");
    gat::Resource remote;
    remote.name = "far";
    remote.middleware = "sge";
    remote.frontend = node;
    remote.queue_base_delay = queue_delay;
    resources.push_back(remote);
  }

  Placement remote_everything() {
    Scheduler scheduler(net, *desktop, resources);
    Placement p = scheduler.plan(small_load());
    return p;
  }
};

}  // namespace

TEST(Sched, LocalCpuTopologyReproducesLocalCpuPlacement) {
  // Given only a GPU-less desktop, the scheduler must rediscover the
  // paper's local-CPU configuration: Fi + phiGRAPE(CPU), everything local.
  LocalWorld world(/*with_gpu=*/false);
  Scheduler scheduler(world.net, *world.desktop, world.resources);
  Placement p = scheduler.plan(small_load());
  EXPECT_EQ(p.role(Role::gravity).spec.code, "phigrape");
  EXPECT_EQ(p.role(Role::coupler).spec.code, "fi");
  EXPECT_EQ(p.role(Role::hydro).spec.code, "gadget");
  EXPECT_EQ(p.role(Role::stellar).spec.code, "sse");
  for (const Assignment& a : p.roles) EXPECT_TRUE(a.local());
}

TEST(Sched, LocalGpuTopologyPrefersGpuKernels) {
  // Same machine with its GPU back: the tree kernels must move onto it
  // (the paper's local-GPU configuration, 353 -> 89 s/iter).
  LocalWorld world(/*with_gpu=*/true);
  Scheduler scheduler(world.net, *world.desktop, world.resources);
  Placement p = scheduler.plan(small_load());
  EXPECT_EQ(p.role(Role::gravity).spec.code, "phigrape-gpu");
  EXPECT_EQ(p.role(Role::coupler).spec.code, "octgrav");
}

TEST(Sched, CostModelMonotoneInLatency) {
  RemoteWorld near_world(0.5e-3);
  RemoteWorld far_world(45e-3);
  Placement near_p = near_world.remote_everything();
  Placement far_p = far_world.remote_everything();
  // Same candidate space, only the WAN latency differs: pin the same
  // (remote) assignment on both and compare modeled costs directly.
  Scheduler near_s(near_world.net, *near_world.desktop, near_world.resources);
  Scheduler far_s(far_world.net, *far_world.desktop, far_world.resources);
  Placement pinned = near_p;
  double cost_near = near_s.score(small_load(), pinned);
  // Rebuild the same placement against the far world's hosts.
  Placement pinned_far = pinned;
  for (Assignment& a : pinned_far.roles) {
    if (!a.local()) a.host = far_world.node;
    if (a.local()) a.host = far_world.desktop;
  }
  double cost_far = far_s.score(small_load(), pinned_far);
  EXPECT_GT(cost_far, cost_near);
}

TEST(Sched, CostModelMonotoneInQueueDelay) {
  RemoteWorld cheap(0.5e-3, /*queue_delay=*/0.0);
  RemoteWorld queued(0.5e-3, /*queue_delay=*/30.0);
  Scheduler cheap_s(cheap.net, *cheap.desktop, cheap.resources);
  Scheduler queued_s(queued.net, *queued.desktop, queued.resources);
  Placement p = cheap.remote_everything();
  Placement p_cheap = p;
  double base = cheap_s.score(small_load(), p_cheap);
  Placement p_queued = p;
  for (Assignment& a : p_queued.roles) {
    a.host = a.local() ? queued.desktop : queued.node;
  }
  double delayed = queued_s.score(small_load(), p_queued);
  EXPECT_GT(delayed, base);
}

TEST(Sched, PrefersGpuForTreeKernelsWhenGpuDominates) {
  // Enough stars that gravity dominates the evolve phase: a remote Tesla
  // across a fast link beats the 0.15 GF/core desktop.
  Workload load = classic_load(2000, 500);
  RemoteWorld world(0.5e-3, 0.0, /*node_gpu_gflops=*/6.0);
  Scheduler scheduler(world.net, *world.desktop, world.resources);
  Placement p = scheduler.plan(load);
  EXPECT_EQ(p.role(Role::gravity).spec.code, "phigrape-gpu");
  EXPECT_EQ(p.role(Role::gravity).resource, "far");
  // ... and when the "GPU" is slower than the desktop's cores, it is left
  // alone (the kernels stay CPU-side).
  RemoteWorld weak(0.5e-3, 0.0, /*node_gpu_gflops=*/0.01);
  Scheduler weak_s(weak.net, *weak.desktop, weak.resources);
  Placement q = weak_s.plan(load);
  EXPECT_NE(q.role(Role::gravity).spec.code, "phigrape-gpu");
}

TEST(Sched, JungleRediscoversPaperPlacementShape) {
  JungleTestbed bed;
  amuse::scenario::Options options;
  options.n_stars = 1000;
  options.n_gas = 10000;
  Placement plan =
      amuse::scenario::placement_for(bed, Kind::autoplace, options);
  // Gravity belongs on a remote GPU (the LGM Tesla is the fastest device).
  EXPECT_EQ(plan.role(Role::gravity).spec.code, "phigrape-gpu");
  EXPECT_EQ(plan.role(Role::gravity).resource, "lgm");
  // The gas code belongs on the 8-node DAS-4 VU cluster.
  EXPECT_EQ(plan.role(Role::hydro).resource, "das4-vu");
  EXPECT_EQ(plan.role(Role::hydro).spec.nranks, 8);
  // The coupler belongs on a GPU too.
  EXPECT_TRUE(plan.role(Role::coupler).spec.needs_gpu());
}

TEST(Sched, AutoplaceModeledCostNeverWorseThanJungleTable) {
  // plan() is an exhaustive argmin over a space that contains the Fig-12
  // assignment, so it can only tie or beat it. This is the PR's acceptance
  // inequality, checked at both test and production sizes.
  for (std::size_t scale : {1UL, 5UL}) {
    JungleTestbed bed;
    amuse::scenario::Options options;
    options.n_stars = 200 * scale;
    options.n_gas = 2000 * scale;
    Placement autoplaced =
        amuse::scenario::placement_for(bed, Kind::autoplace, options);
    Placement table =
        amuse::scenario::placement_for(bed, Kind::jungle, options);
    EXPECT_LE(autoplaced.modeled_seconds_per_iteration,
              table.modeled_seconds_per_iteration);
  }
}

TEST(Sched, ExcludedHostNeverAppearsInPlanOrReplacement) {
  JungleTestbed bed;
  amuse::scenario::Options options;
  Scheduler scheduler(bed.network(), bed.desktop(),
                      bed.deployer().resources());
  Workload load = production_load();
  Placement before = scheduler.plan(load);
  ASSERT_NE(before.role(Role::gravity).host, nullptr);
  std::string grav_host = before.role(Role::gravity).host->name();

  scheduler.exclude_host(grav_host);
  Assignment replacement = scheduler.replace(load, before, Role::gravity);
  ASSERT_NE(replacement.host, nullptr);
  EXPECT_NE(replacement.host->name(), grav_host);

  Placement after = scheduler.plan(load);
  for (const Assignment& a : after.roles) {
    ASSERT_NE(a.host, nullptr);
    EXPECT_NE(a.host->name(), grav_host);
  }
}

TEST(Sched, LinkFaultExcludesWholeResource) {
  JungleTestbed bed;
  Scheduler scheduler(bed.network(), bed.desktop(),
                      bed.deployer().resources());
  Workload load = production_load();
  Placement before = scheduler.plan(load);
  std::string grav_resource = before.role(Role::gravity).resource;
  ASSERT_FALSE(grav_resource.empty());
  scheduler.exclude_resource(grav_resource);
  Placement after = scheduler.plan(load);
  for (const Assignment& a : after.roles) {
    EXPECT_NE(a.resource, grav_resource);
  }
}

TEST(Sched, DeadFrontendStrandsItsResource) {
  // Jobs submit through the frontend: once it is excluded, the resource's
  // surviving compute nodes are unreachable and must not be planned onto.
  JungleTestbed bed;
  Scheduler scheduler(bed.network(), bed.desktop(),
                      bed.deployer().resources());
  Workload load = production_load();
  Placement before = scheduler.plan(load);
  std::string grav_resource = before.role(Role::gravity).resource;
  ASSERT_FALSE(grav_resource.empty());
  std::string frontend =
      bed.deployer().resource(grav_resource).frontend->name();
  scheduler.exclude_host(frontend);
  Placement after = scheduler.plan(load);
  for (const Assignment& a : after.roles) {
    EXPECT_NE(a.resource, grav_resource);
  }
}

TEST(Sched, ResourceOfMapsHostsToResources) {
  JungleTestbed bed;
  Scheduler scheduler(bed.network(), bed.desktop(),
                      bed.deployer().resources());
  EXPECT_EQ(scheduler.resource_of("lgm-node"), "lgm");
  EXPECT_EQ(scheduler.resource_of("fs-lgm"), "lgm");
  EXPECT_EQ(scheduler.resource_of("dasvu3"), "das4-vu");
  EXPECT_EQ(scheduler.resource_of("desktop"), "");
}

// ------------------------------ communication term (data-path overhaul)

TEST(Sched, CommTermMatchesMeasuredSteadyStateWanBytes) {
  // The model's per-iteration wire volume is fed from what the pipelined
  // data path actually ships. Measure the steady-state bytes per step on a
  // remote-coupler run by differencing two run lengths (cancels the cold
  // start), and require the model to land within 25%.
  using jungle::amuse::scenario::Datapath;
  using jungle::amuse::scenario::Options;
  using jungle::amuse::scenario::Result;
  using jungle::amuse::scenario::run_scenario;
  Options options;
  options.n_stars = 300;
  options.n_gas = 1500;
  options.with_stellar_evolution = false;
  options.iterations = 2;
  Result short_run = run_scenario(Kind::remote_gpu, options);
  options.iterations = 4;
  Result long_run = run_scenario(Kind::remote_gpu, options);
  double measured_per_step =
      (long_run.wan_ipl_bytes - short_run.wan_ipl_bytes) / 2.0;

  DatapathBytes wire = datapath_bytes(options.n_stars, options.n_gas);
  // Only the coupler is remote in the remote_gpu configuration: one fresh
  // exchange + one all-cache-hit exchange per step.
  double modeled_per_step = wire.coupler_upload + wire.coupler_reply +
                            2.0 * wire.idle_call;
  EXPECT_GT(measured_per_step, 0.75 * modeled_per_step);
  EXPECT_LT(measured_per_step, 1.25 * modeled_per_step);
}

TEST(Sched, ModeledKindOrderingsMatchThePaper) {
  // Re-pricing communication from the new data path must not reorder the
  // paper's configuration table (E1's shape, on the model side).
  using jungle::amuse::scenario::placement_for;
  jungle::amuse::scenario::Options options;
  options.n_stars = 1000;
  options.n_gas = 10000;
  JungleTestbed bed;
  double local_cpu =
      placement_for(bed, Kind::local_cpu, options).modeled_seconds_per_iteration;
  double local_gpu =
      placement_for(bed, Kind::local_gpu, options).modeled_seconds_per_iteration;
  double jungle =
      placement_for(bed, Kind::jungle, options).modeled_seconds_per_iteration;
  double autoplace =
      placement_for(bed, Kind::autoplace, options).modeled_seconds_per_iteration;
  EXPECT_GT(local_cpu, 2.0 * local_gpu);  // the CPU->GPU cliff
  EXPECT_GT(local_gpu, jungle);           // the jungle wins
  EXPECT_LE(autoplace, jungle);           // argmin can only improve on it
}

TEST(Sched, NoFeasiblePlacementThrows) {
  // A client that is excluded and no resources: nowhere to run anything.
  LocalWorld world(false);
  Scheduler scheduler(world.net, *world.desktop, world.resources);
  scheduler.exclude_host("desktop");
  EXPECT_THROW(scheduler.plan(small_load()), CodeError);
}
