#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "amuse/bridge.hpp"
#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "amuse/ic.hpp"
#include "amuse/workers.hpp"
#include "obs/metrics.hpp"
#include "zorilla/zorilla.hpp"

using namespace jungle;
using namespace jungle::amuse;

namespace {

/// Fig-12-like lab: desktop client at VU, LGM GPU cluster in Leiden,
/// DAS-4 CPU cluster in Amsterdam.
struct Lab {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  sim::Host* desktop;
  sim::Host* lgm_frontend;
  sim::Host* lgm_node;
  std::vector<sim::Host*> das_nodes;
  std::unique_ptr<deploy::Deployer> deployer;
  std::unique_ptr<IbisDaemon> daemon;

  Lab() {
    net.add_site("vu", 0.1e-3, 1e9 / 8);
    net.add_site("leiden", 0.1e-3, 1e9 / 8);
    net.add_site("uva", 2e-6, 32e9 / 8);
    desktop = &net.add_host("desktop", "vu", 4, 10);
    lgm_frontend = &net.add_host("fs-lgm", "leiden", 8, 10);
    lgm_frontend->firewall().allow_inbound = false;  // ssh only
    lgm_node = &net.add_host("lgm-node", "leiden", 8, 10);
    lgm_node->set_gpu(sim::GpuSpec{"tesla-c2050", 500});
    for (int i = 0; i < 8; ++i) {
      das_nodes.push_back(
          &net.add_host("das" + std::to_string(i), "uva", 8, 10));
    }
    net.add_link("vu", "leiden", 0.5e-3, 1e9 / 8, "vu-leiden");
    net.add_link("vu", "uva", 0.2e-3, 10e9 / 8, "vu-uva");

    deployer = std::make_unique<deploy::Deployer>(net, sockets, *desktop);
    gat::Resource local;
    local.name = "local";
    local.middleware = "local";
    local.frontend = desktop;
    deployer->add_resource(local);

    gat::Resource lgm;
    lgm.name = "lgm";
    lgm.middleware = "sge";
    lgm.frontend = lgm_frontend;
    lgm.nodes = {lgm_node};
    lgm.queue_base_delay = 0.5;
    lgm.queue = std::make_shared<gat::ClusterQueue>(sim);
    lgm.queue->set_nodes(lgm.nodes);
    deployer->add_resource(lgm);

    gat::Resource das;
    das.name = "das4";
    das.middleware = "sge";
    das.frontend = das_nodes[0];
    das.nodes = das_nodes;
    das.queue_base_delay = 0.5;
    das.queue = std::make_shared<gat::ClusterQueue>(sim);
    das.queue->set_nodes(das.nodes);
    deployer->add_resource(das);

    daemon = std::make_unique<IbisDaemon>(*deployer, net, sockets, *desktop);
  }

  ~Lab() { sim.shutdown(); }

  void run(std::function<void()> script) {
    desktop->spawn("script", std::move(script));
    sim.run();
  }
};

}  // namespace

TEST(Distributed, RemoteGravityWorkerViaDaemon) {
  Lab lab;
  double drift = 1.0;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(64, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    auto [k0, p0] = gravity.energies();
    gravity.evolve(0.25);
    auto [k1, p1] = gravity.energies();
    drift = std::abs((k1 + p1) - (k0 + p0)) / std::abs(k0 + p0);
    gravity.close();
  });
  EXPECT_LT(drift, 1e-2);
  // The worker ran on the GPU node, remotely.
  EXPECT_GT(lab.lgm_node->gpu_busy_seconds(), 0.0);
  // RPC frames crossed the WAN as IPL traffic.
  double wan_ipl = 0;
  for (const auto& link : lab.net.traffic_report()) {
    if (link.name == "vu-leiden") {
      wan_ipl = link.bytes_by_class[static_cast<int>(sim::TrafficClass::ipl)];
    }
  }
  EXPECT_GT(wan_ipl, 1000.0);
}

TEST(Distributed, WorkerStartupFailureReportsError) {
  Lab lab;
  bool threw = false;
  std::string message;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "octgrav";  // needs a GPU
    try {
      client.start_worker(spec, "das4");  // CPU-only cluster
    } catch (const CodeError& failure) {
      threw = true;
      message = failure.what();
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_NE(message.find("GPU"), std::string::npos);
}

TEST(Distributed, ParallelGadgetOverIbisChannel) {
  Lab lab;
  double thermal = -1;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "gadget";
    spec.nranks = 8;
    HydroClient hydro(client.start_worker(spec, "das4", /*nodes=*/8));
    util::Rng rng(2);
    auto gas = ic::gas_sphere(240, rng, 1.0, 1.0, 0.5);
    hydro.add_gas(gas.mass, gas.position, gas.velocity, gas.internal_energy);
    hydro.evolve(0.01);
    auto [kin, therm, pot] = hydro.energies();
    (void)kin;
    (void)pot;
    thermal = therm;
    hydro.close();
  });
  EXPECT_GT(thermal, 0.0);
  // MPI traffic stayed inside the cluster LAN.
  for (const auto& link : lab.net.traffic_report()) {
    if (link.name == "lan:uva") {
      EXPECT_GT(link.bytes_by_class[static_cast<int>(sim::TrafficClass::mpi)],
                0.0);
    }
    if (link.name == "vu-uva") {
      EXPECT_DOUBLE_EQ(
          link.bytes_by_class[static_cast<int>(sim::TrafficClass::mpi)], 0.0);
    }
  }
}

namespace {

/// A small embedded-cluster setup with all four models on local workers.
struct BridgeRig {
  std::unique_ptr<GravityClient> stars;
  std::unique_ptr<HydroClient> gas;
  std::unique_ptr<FieldClient> coupler;
  std::unique_ptr<StellarClient> se;

  BridgeRig(Lab& lab, int n_stars = 32, int n_gas = 96) {
    WorkerSpec grav{.code = "phigrape", .ncores = 2};
    WorkerSpec hydro{.code = "gadget"};
    WorkerSpec field{.code = "fi"};
    WorkerSpec sse{.code = "sse"};
    stars = std::make_unique<GravityClient>(
        start_local_worker(lab.sockets, lab.net, *lab.desktop, *lab.desktop,
                           grav, ChannelKind::mpi));
    gas = std::make_unique<HydroClient>(
        start_local_worker(lab.sockets, lab.net, *lab.desktop, *lab.desktop,
                           hydro, ChannelKind::mpi));
    coupler = std::make_unique<FieldClient>(
        start_local_worker(lab.sockets, lab.net, *lab.desktop, *lab.desktop,
                           field, ChannelKind::mpi));
    se = std::make_unique<StellarClient>(
        start_local_worker(lab.sockets, lab.net, *lab.desktop, *lab.desktop,
                           sse, ChannelKind::mpi));

    util::Rng rng(5);
    auto model = ic::plummer_sphere(n_stars, rng);
    stars->add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(n_gas, rng, 2.0, 1.5);
    gas->add_gas(cloud.mass, cloud.position, cloud.velocity,
                 cloud.internal_energy);
    std::vector<double> zams = ic::salpeter_masses(n_stars, rng);
    zams[0] = 20.0;  // guarantee one massive star
    se->add_stars(zams);
  }

  void close() {
    stars->close();
    gas->close();
    coupler->close();
    se->close();
  }
};

}  // namespace

TEST(Distributed, BridgeFollowsFig7Schedule) {
  Lab lab;
  std::vector<std::string> trace;
  lab.run([&] {
    BridgeRig rig(lab);
    Bridge::Config config;
    config.dt = 1.0 / 128.0;
    config.se_every = 2;
    config.myr_per_nbody_time = 1.0;
    Bridge bridge(*rig.stars, *rig.gas, *rig.coupler, rig.se.get(), config);
    bridge.step();
    bridge.step();
    trace = bridge.trace();
    rig.close();
  });
  // One step: kick pair, parallel evolve, kick pair. SE joins every 2nd.
  std::vector<std::string> expected_step1{
      "kick:gas->stars", "kick:stars->gas", "evolve:parallel",
      "kick:gas->stars", "kick:stars->gas"};
  ASSERT_GE(trace.size(), 10u);
  for (std::size_t i = 0; i < expected_step1.size(); ++i) {
    EXPECT_EQ(trace[i], expected_step1[i]) << "position " << i;
  }
  // Step 2 ends with the stellar-evolution exchange (Fig 7: "performed at a
  // slower rate, only exchanging state every n-th time step").
  auto se_count = std::count(trace.begin(), trace.end(), "se:evolve");
  EXPECT_EQ(se_count, 1);
  EXPECT_NE(std::find(trace.begin(), trace.end(), "se:masses->gravity"),
            trace.end());
}

TEST(Distributed, BridgeParallelEvolveOverlapsAcrossResources) {
  // Gravity on the remote GPU, gas locally: the two evolve calls overlap in
  // virtual time (the Jungle payoff the paper demonstrates).
  Lab lab;
  double overlapped = -1, sequential = -1;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec grav{.code = "phigrape-gpu"};
    GravityClient stars(client.start_worker(grav, "lgm"));
    WorkerSpec hydro{.code = "gadget", .ncores = 2};
    HydroClient gas(start_local_worker(lab.sockets, lab.net, *lab.desktop,
                                       *lab.desktop, hydro,
                                       ChannelKind::mpi));
    util::Rng rng(5);
    auto model = ic::plummer_sphere(128, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(256, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);

    double t0 = lab.sim.now();
    Future fs = stars.evolve_async(0.05);
    Future fg = gas.evolve_async(0.05);
    fs.get();
    fg.get();
    overlapped = lab.sim.now() - t0;

    double t1 = lab.sim.now();
    stars.evolve(0.1);
    gas.evolve(0.1);
    sequential = lab.sim.now() - t1;
    stars.close();
    gas.close();
  });
  EXPECT_GT(overlapped, 0.0);
  EXPECT_LT(overlapped, 0.9 * sequential);
}

TEST(Distributed, WorkerHostCrashPoisonsFutures) {
  Lab lab;
  bool threw = false;
  std::string dead_worker, dead_host;
  auto cause = WorkerDiedError::Cause::unknown;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(256, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    Future future = gravity.evolve_async(5.0);  // long-running
    lab.sim.sleep(0.01);
    lab.lgm_node->crash();
    try {
      future.get();
    } catch (const WorkerDiedError& failure) {
      threw = true;
      dead_worker = failure.worker();
      dead_host = failure.host();
      cause = failure.cause();
    }
  });
  EXPECT_TRUE(threw);
  // The error identifies the worker *and* the machine that died, and tells
  // a host crash from a link fault — what the scheduler's fault path keys
  // its exclusions on.
  EXPECT_EQ(dead_worker, "phigrape-gpu@lgm");
  EXPECT_EQ(dead_host, "lgm-node");
  EXPECT_EQ(cause, WorkerDiedError::Cause::host_crash);
}

TEST(Distributed, FaultPolicyRestartsOnReplacementResource) {
  // The paper's §7 wish, implemented: checkpoint, detect death, restart on
  // another resource, continue.
  Lab lab;
  double final_time = -1;
  bool restarted = false;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape";  // CPU: can run on das4 too
    auto gravity = std::make_unique<GravityClient>(
        client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(64, rng);
    gravity->add_particles(model.mass, model.position, model.velocity);
    gravity->evolve(0.05);
    GravityCheckpoint save = checkpoint_gravity(*gravity);

    lab.lgm_node->crash();
    try {
      gravity->evolve(0.1);
      // Depending on message timing the evolve call may appear to succeed
      // (reply sent before the crash); the next call then fails.
      gravity->get_state();
    } catch (const CodeError&) {
      gravity = std::make_unique<GravityClient>(
          client.start_worker(spec, "das4"));
      restore_gravity(*gravity, save);
      restarted = true;
    }
    // Continue the run on the replacement: it resumes on the absolute
    // clock (model time = the checkpoint's), so the next target is simply
    // the original end time.
    gravity->evolve(0.1);
    final_time = gravity->model_time();
    gravity->close();
  });
  EXPECT_TRUE(restarted);
  EXPECT_NEAR(final_time, 0.1, 1e-9);
}

TEST(Distributed, DeathNoticePoisonsInFlightBatch) {
  // The pipelined cross-kick keeps several futures in flight at once; a
  // death notice arriving mid-batch must fail every one of them with the
  // host and cause intact (the fault path keys its exclusions on those).
  Lab lab;
  int failed = 0;
  std::vector<std::string> hosts;
  std::vector<WorkerDiedError::Cause> causes;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(256, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    // A long evolve plus a pipelined batch queued behind it.
    Future evolving = gravity.evolve_async(5.0);
    Future state = gravity.request_state(jungle::amuse::state_field::coupling);
    std::vector<Vec3> kicks(model.mass.size(), Vec3{1e-3, 0, 0});
    Future kicked = gravity.kick_async(kicks);
    lab.sim.sleep(0.01);
    lab.lgm_node->crash();
    for (Future* future : {&evolving, &state, &kicked}) {
      try {
        future->get();
      } catch (const WorkerDiedError& death) {
        ++failed;
        hosts.push_back(death.host());
        causes.push_back(death.cause());
      }
    }
  });
  EXPECT_EQ(failed, 3);
  for (const std::string& host : hosts) EXPECT_EQ(host, "lgm-node");
  for (auto cause : causes) {
    EXPECT_EQ(cause, WorkerDiedError::Cause::host_crash);
  }
}

TEST(Distributed, DeltaExchangeTracksChangesAndKickRepeats) {
  Lab lab;
  lab.run([&] {
    WorkerSpec spec{.code = "phigrape", .ncores = 2};
    GravityClient gravity(start_local_worker(lab.sockets, lab.net,
                                             *lab.desktop, *lab.desktop, spec,
                                             ChannelKind::mpi));
    util::Rng rng(9);
    auto model = ic::plummer_sphere(32, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    GravityState before = gravity.get_state();
    auto id_before = gravity.coupling_sources_id();
    gravity.evolve(0.125);
    GravityState after = gravity.get_state();
    // Positions moved and the delta cache tracked them.
    EXPECT_NE(before.position[0].x, after.position[0].x);
    EXPECT_NE(gravity.coupling_sources_id(), id_before);
    EXPECT_EQ(after.mass, before.mass);  // masses unchanged, still correct

    // An identical kick sent twice: the second rides the repeat path and
    // must still be applied (velocities advance twice).
    std::vector<Vec3> kicks(model.mass.size(), Vec3{0.5, 0, 0});
    gravity.kick(kicks);
    double vx_once = gravity.get_state().velocity[0].x;
    gravity.kick(kicks);
    double vx_twice = gravity.get_state().velocity[0].x;
    EXPECT_DOUBLE_EQ(vx_twice - vx_once, 0.5);
    gravity.close();
  });
}

TEST(Distributed, FieldAccelForCachesUnchangedInputs) {
  using jungle::amuse::FieldTag;
  using jungle::amuse::make_state_id;
  Lab lab;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec{.code = "octgrav"};
    FieldClient field(client.start_worker(spec, "lgm"));
    util::Rng rng(3);
    auto model = ic::plummer_sphere(2000, rng);
    std::vector<Vec3> points{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}};
    auto sources_id = make_state_id(7, 1);
    auto points_id = make_state_id(8, 1);

    double t0 = lab.sim.now();
    Future first = field.accel_for_async(FieldTag::gas_on_stars, sources_id,
                                         model.mass, model.position,
                                         points_id, points);
    std::vector<Vec3> accel_first =
        field.finish_accel(FieldTag::gas_on_stars, first);
    double first_cost = lab.sim.now() - t0;

    // Same content ids: nothing is uploaded, nothing recomputed, and the
    // cached accelerations come back bit-identical.
    double t1 = lab.sim.now();
    Future second = field.accel_for_async(FieldTag::gas_on_stars, sources_id,
                                          model.mass, model.position,
                                          points_id, points);
    const std::vector<Vec3>& accel_second =
        field.finish_accel(FieldTag::gas_on_stars, second);
    double second_cost = lab.sim.now() - t1;
    ASSERT_EQ(accel_second.size(), accel_first.size());
    for (std::size_t i = 0; i < accel_first.size(); ++i) {
      EXPECT_EQ(accel_second[i].x, accel_first[i].x);
    }
    EXPECT_LT(second_cost, 0.5 * first_cost);

    // Changed sources (new id): recompute with the fresh upload.
    std::vector<double> doubled = model.mass;
    for (double& m : doubled) m *= 2.0;
    Future third = field.accel_for_async(
        FieldTag::gas_on_stars, make_state_id(7, 2), doubled, model.position,
        points_id, points);
    const std::vector<Vec3>& accel_third =
        field.finish_accel(FieldTag::gas_on_stars, third);
    EXPECT_NEAR(accel_third[0].x, 2.0 * accel_first[0].x,
                1e-9 * std::abs(accel_first[0].x));
    field.close();
  });
}

TEST(Distributed, RestartedWorkerMintsFreshStateIds) {
  // The rollback/replay invalidation story: content ids carry a worker
  // instance nonce, so a replacement worker serving the very same particle
  // data can never alias the dead worker's entries in downstream caches
  // (the coupler's source/point/accel tags).
  Lab lab;
  lab.run([&] {
    WorkerSpec spec{.code = "phigrape", .ncores = 2};
    util::Rng rng(4);
    auto model = ic::plummer_sphere(16, rng);
    GravityClient first(start_local_worker(lab.sockets, lab.net, *lab.desktop,
                                           *lab.desktop, spec,
                                           ChannelKind::mpi));
    first.add_particles(model.mass, model.position, model.velocity);
    first.get_state();
    GravityClient second(start_local_worker(lab.sockets, lab.net,
                                            *lab.desktop, *lab.desktop, spec,
                                            ChannelKind::mpi));
    second.add_particles(model.mass, model.position, model.velocity);
    second.get_state();
    EXPECT_NE(first.coupling_sources_id(), second.coupling_sources_id());
    first.close();
    second.close();
  });
}

/// RPCs each client issued during the top cross-kick of every bridge step
/// (from step_top_kick to step_evolve), read off the per-client meters.
struct TopKickCalls {
  std::vector<double> stars, gas, coupler;
};

TEST(Distributed, PipelinedBridgeMatchesSynchronousBitExact) {
  // Acceptance: the pipelined/delta data path must be a pure wire
  // optimization — the physics trajectory is bit-identical to the serial
  // full-fetch baseline, stellar feedback and all.
  auto run_bridge = [](bool synchronous, TopKickCalls& calls) {
    Lab lab;
    GravityState stars;
    HydroState gas;
    const std::string meter = synchronous ? "bitexact.sync." : "bitexact.pipe.";
    auto count = [&](const char* client) {
      return obs::metrics::counter_value("rpc." + meter + client + ".calls");
    };
    std::array<double, 3> at_top{};
    faultpoint::ScopedHook hook([&](const faultpoint::Context& ctx) {
      std::array<double, 3> now{count("stars"), count("gas"), count("coupler")};
      if (ctx.point == faultpoint::Point::step_top_kick) at_top = now;
      if (ctx.point != faultpoint::Point::step_evolve) return;
      calls.stars.push_back(now[0] - at_top[0]);
      calls.gas.push_back(now[1] - at_top[1]);
      calls.coupler.push_back(now[2] - at_top[2]);
    });
    lab.run([&] {
      BridgeRig rig(lab);
      rig.stars->rpc().set_meter(meter + "stars");
      rig.gas->rpc().set_meter(meter + "gas");
      rig.coupler->rpc().set_meter(meter + "coupler");
      Bridge::Config config;
      config.dt = 1.0 / 64.0;
      config.se_every = 2;
      config.myr_per_nbody_time = 4.0;
      config.feedback_efficiency = 0.5;
      config.wind_specific_energy = 50.0;
      config.supernova_energy = 50.0;
      config.synchronous_datapath = synchronous;
      rig.stars->set_delta_exchange(!synchronous);
      rig.gas->set_delta_exchange(!synchronous);
      rig.coupler->set_delta_exchange(!synchronous);
      Bridge bridge(*rig.stars, *rig.gas, *rig.coupler, rig.se.get(), config);
      for (int i = 0; i < 8; ++i) bridge.step();
      stars = rig.stars->get_state();
      gas = rig.gas->get_state();
      rig.close();
    });
    return std::pair{stars, gas};
  };
  TopKickCalls sync_calls, pipe_calls;
  auto [stars_sync, gas_sync] = run_bridge(true, sync_calls);
  auto [stars_pipe, gas_pipe] = run_bridge(false, pipe_calls);
  ASSERT_EQ(stars_sync.position.size(), stars_pipe.position.size());
  ASSERT_EQ(gas_sync.position.size(), gas_pipe.position.size());
  for (std::size_t i = 0; i < stars_sync.position.size(); ++i) {
    EXPECT_EQ(stars_sync.mass[i], stars_pipe.mass[i]);
    EXPECT_EQ(stars_sync.position[i].x, stars_pipe.position[i].x);
    EXPECT_EQ(stars_sync.position[i].y, stars_pipe.position[i].y);
    EXPECT_EQ(stars_sync.position[i].z, stars_pipe.position[i].z);
    EXPECT_EQ(stars_sync.velocity[i].x, stars_pipe.velocity[i].x);
  }
  for (std::size_t i = 0; i < gas_sync.position.size(); ++i) {
    EXPECT_EQ(gas_sync.position[i].x, gas_pipe.position[i].x);
    EXPECT_EQ(gas_sync.velocity[i].x, gas_pipe.velocity[i].x);
    EXPECT_EQ(gas_sync.internal_energy[i], gas_pipe.internal_energy[i]);
    EXPECT_EQ(gas_sync.density[i], gas_pipe.density[i]);
  }

  // The top kick of step 0 fetches both states and queries both
  // directions. After that, nothing between a bottom kick and the next top
  // kick moves a position, so the pipelined top kick is kick-only: no state
  // fetch, no field query, one (repeat) kick per system. The exception is
  // a step right after a stellar update that changed star masses (SE runs
  // after steps 1, 3, 5 and 7; those after steps 3 and 5 change masses):
  // the stars are fetched again, and the one direction whose sources are
  // the stars is queried.
  ASSERT_EQ(pipe_calls.stars.size(), 8u);
  EXPECT_EQ(pipe_calls.stars[0], 2.0);
  EXPECT_EQ(pipe_calls.gas[0], 2.0);
  EXPECT_EQ(pipe_calls.coupler[0], 2.0);
  for (int step = 1; step < 8; ++step) {
    SCOPED_TRACE(step);
    bool masses_moved = step == 4 || step == 6;
    EXPECT_EQ(pipe_calls.stars[step], masses_moved ? 2.0 : 1.0);
    EXPECT_EQ(pipe_calls.gas[step], 1.0);
    EXPECT_EQ(pipe_calls.coupler[step], masses_moved ? 1.0 : 0.0);
  }
  // The synchronous baseline keeps every round trip: a full fetch and a
  // kick per system, set_sources + accel_at per direction.
  ASSERT_EQ(sync_calls.stars.size(), 8u);
  for (int step = 0; step < 8; ++step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(sync_calls.stars[step], 2.0);
    EXPECT_EQ(sync_calls.gas[step], 2.0);
    EXPECT_EQ(sync_calls.coupler[step], 4.0);
  }
}

TEST(Distributed, CouplingCurrentOnlyWhenWorkerAgrees) {
  // The staleness rule the pipelined bridge relies on to skip state
  // fetches: whenever a client claims its cached coupling fields are
  // current, a real fetch must find the worker's mass and position
  // unchanged (same content ids, same bits).
  Lab lab;
  int claims = 0;
  std::vector<std::string> stale_after;
  lab.run([&] {
    BridgeRig rig(lab);
    auto check = [&](DynamicsClient& client, const std::string& after) {
      if (!client.coupling_current()) {
        stale_after.push_back(after);
        return;
      }
      ++claims;
      StateId sources = client.coupling_sources_id();
      StateId points = client.position_id();
      std::vector<double> mass(client.mass().begin(), client.mass().end());
      std::vector<Vec3> position(client.position().begin(),
                                 client.position().end());
      Future reply = client.request_state(state_field::coupling);
      client.merge_state(reply, state_field::coupling);
      EXPECT_EQ(client.coupling_sources_id(), sources) << after;
      EXPECT_EQ(client.position_id(), points) << after;
      ASSERT_EQ(client.mass().size(), mass.size()) << after;
      ASSERT_EQ(client.position().size(), position.size()) << after;
      EXPECT_EQ(std::memcmp(client.mass().data(), mass.data(),
                            mass.size() * sizeof(double)),
                0)
          << after;
      EXPECT_EQ(std::memcmp(client.position().data(), position.data(),
                            position.size() * sizeof(Vec3)),
                0)
          << after;
    };
    auto fetch = [](DynamicsClient& client, std::uint64_t mask) {
      Future reply = client.request_state(mask);
      client.merge_state(reply, mask);
    };

    GravityClient& stars = *rig.stars;
    check(stars, "stars: load");
    fetch(stars, state_field::coupling);
    check(stars, "stars: fetch");
    std::vector<Vec3> star_accel(stars.mass().size(), Vec3{1e-3, 0.0, 0.0});
    stars.kick_async(star_accel, 0.5).get();
    check(stars, "stars: kick");
    stars.kick_async(star_accel, 0.25).get();  // repeat frame
    check(stars, "stars: repeat kick");
    stars.evolve(1.0 / 64.0);
    check(stars, "stars: evolve");
    fetch(stars, state_field::position);  // does not cover mass
    check(stars, "stars: position-only fetch");
    fetch(stars, state_field::gravity_all);
    check(stars, "stars: full fetch");
    stars.set_masses_sparse({}, {});
    check(stars, "stars: empty sparse masses");
    std::vector<std::int32_t> index{3};
    std::vector<double> value{stars.mass()[3] * 0.5};
    stars.set_masses_sparse(index, value);
    check(stars, "stars: sparse masses");
    fetch(stars, state_field::coupling);
    Future racing = stars.request_state(state_field::coupling);
    Future evolving = stars.evolve_async(2.0 / 64.0);
    stars.merge_state(racing, state_field::coupling);
    evolving.get();
    check(stars, "stars: evolve issued behind a fetch");
    fetch(stars, state_field::coupling);
    stars.reset_delta_caches();
    check(stars, "stars: reset_delta_caches");

    HydroClient& gas = *rig.gas;
    check(gas, "gas: load");
    fetch(gas, state_field::coupling);
    check(gas, "gas: fetch");
    std::vector<Vec3> gas_accel(gas.mass().size(), Vec3{0.0, 1e-3, 0.0});
    gas.kick_async(gas_accel, 0.5).get();
    check(gas, "gas: kick");
    std::vector<std::int32_t> heated{0, 5};
    std::vector<double> delta_u{0.1, 0.2};
    gas.inject(heated, delta_u);
    check(gas, "gas: inject");
    gas.evolve(1.0 / 64.0);
    check(gas, "gas: evolve");
    fetch(gas, state_field::hydro_all);
    check(gas, "gas: full fetch");
    gas.reset_delta_caches();
    check(gas, "gas: reset_delta_caches");
    rig.close();
  });
  // The rule claims exactly what it may: current after fetches covering
  // mass+position, kicks, empty mass updates and injection; stale after
  // every call that can move a mass or a position.
  EXPECT_EQ(claims, 9);
  EXPECT_EQ(stale_after,
            (std::vector<std::string>{
                "stars: load", "stars: evolve", "stars: position-only fetch",
                "stars: sparse masses", "stars: evolve issued behind a fetch",
                "stars: reset_delta_caches", "gas: load", "gas: evolve",
                "gas: reset_delta_caches"}));
}

TEST(Distributed, ResourceSelectorFindsReplacement) {
  Lab lab;
  zorilla::Overlay overlay(lab.net, 7);
  auto& origin = overlay.add_node(*lab.desktop);
  overlay.add_node(*lab.lgm_node, &origin);
  overlay.add_node(*lab.das_nodes[0], &origin);
  overlay.gossip_until_converged();
  zorilla::ResourceSelector selector(overlay);
  zorilla::Requirements req;
  req.needs_gpu = true;
  auto* gpu_node = selector.select(req);
  ASSERT_NE(gpu_node, nullptr);
  EXPECT_EQ(gpu_node->host().name(), "lgm-node");
  // After that node dies, selection falls back to nothing (no other GPU).
  lab.lgm_node->crash();
  EXPECT_EQ(selector.select(req), nullptr);
}

TEST(Distributed, DashboardReflectsWorkerJobs) {
  Lab lab;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "sse";
    StellarClient stellar(client.start_worker(spec, "lgm"));
    std::vector<double> zams{1.0};
    stellar.add_stars(zams);
    stellar.evolve_to(1.0);
    std::string dashboard = lab.deployer->dashboard();
    EXPECT_NE(dashboard.find("sse-"), std::string::npos);
    EXPECT_NE(dashboard.find("RUNNING"), std::string::npos);
    stellar.close();
  });
}
