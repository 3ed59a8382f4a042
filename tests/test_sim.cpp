#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

using namespace jungle;
using namespace jungle::sim;

// ------------------------------------------------------------- scheduling

TEST(Simulation, CallbacksFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ProcessSleepAdvancesVirtualTime) {
  Simulation sim;
  double woke_at = -1;
  sim.spawn("sleeper", [&] {
    sim.sleep(5.5);
    woke_at = sim.now();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(woke_at, 5.5);
}

TEST(Simulation, RunUntilStopsEarly) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedSpawnFromProcess) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&] {
    log.push_back("parent@" + std::to_string(sim.now()));
    sim.spawn("child", [&] {
      sim.sleep(1.0);
      log.push_back("child@" + std::to_string(sim.now()));
    });
    sim.sleep(2.0);
    log.push_back("parent-done@" + std::to_string(sim.now()));
  });
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], "child@1.000000");
  EXPECT_EQ(log[2], "parent-done@2.000000");
}

TEST(Simulation, DeterministicInterleaving) {
  // Two identical runs must produce identical traces (the basis for every
  // reproducibility claim in the benches).
  auto run_once = [] {
    Simulation sim;
    std::vector<std::string> trace;
    for (int p = 0; p < 4; ++p) {
      sim.spawn("p" + std::to_string(p), [&, p] {
        for (int i = 0; i < 3; ++i) {
          sim.sleep(0.5 + 0.1 * p);
          trace.push_back(std::to_string(p) + "@" + std::to_string(sim.now()));
        }
      });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, ProcessExceptionPropagatesFromRun) {
  Simulation sim;
  sim.spawn("bad", [] { throw Error("boom"); });
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulation, KillRaisesProcessKilled) {
  Simulation sim;
  bool reached_end = false;
  bool cleanup_ran = false;
  ProcessId victim = sim.spawn("victim", [&] {
    struct Cleanup {
      bool* flag;
      ~Cleanup() { *flag = true; }
    } cleanup{&cleanup_ran};
    sim.sleep(100.0);
    reached_end = true;
  });
  sim.at(1.0, [&] { sim.kill(victim); });
  sim.run();
  EXPECT_FALSE(reached_end);
  EXPECT_TRUE(cleanup_ran);  // RAII unwound
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Simulation, YieldNowKeepsTimeButReorders) {
  Simulation sim;
  std::vector<int> order;
  sim.spawn("a", [&] {
    sim.yield_now();
    order.push_back(1);
  });
  sim.spawn("b", [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, EachProcessRethrowsItsOwnCaughtException) {
  // Processes share one thread, and with it the C++ runtime's chain of
  // caught exceptions: a hand-off must swap it, or `throw;` after a yield
  // rethrows whichever exception another process caught last.
  Simulation sim;
  std::vector<std::string> rethrown;
  auto body = [&sim, &rethrown](std::string tag, int yields) {
    return [&sim, &rethrown, tag, yields] {
      try {
        try {
          throw std::runtime_error(tag);
        } catch (...) {
          for (int i = 0; i < yields; ++i) sim.yield_now();
          throw;
        }
      } catch (const std::runtime_error& error) {
        rethrown.push_back(tag + ":" + error.what());
      }
    };
  };
  sim.spawn("a", body("a", 1));
  sim.spawn("b", body("b", 2));
  sim.run();
  EXPECT_EQ(rethrown, (std::vector<std::string>{"a:a", "b:b"}));
}

TEST(Simulation, UncaughtExceptionCountIsPerProcess) {
  // C yields from a destructor while an exception unwinds it; D, which runs
  // meanwhile, has no exception in flight.
  Simulation sim;
  int seen_by_d = -1;
  sim.spawn("c", [&sim] {
    struct YieldOnUnwind {
      Simulation& sim;
      ~YieldOnUnwind() { sim.yield_now(); }
    };
    try {
      YieldOnUnwind guard{sim};
      throw std::runtime_error("unwinding");
    } catch (const std::runtime_error&) {
    }
  });
  sim.spawn("d", [&seen_by_d] { seen_by_d = std::uncaught_exceptions(); });
  sim.run();
  EXPECT_EQ(seen_by_d, 0);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(Simulation, BlockedProcessesAreKilledAtDestruction) {
  // A process waiting forever must not hang the destructor.
  auto sim = std::make_unique<Simulation>();
  auto signal = std::make_unique<Signal>(*sim);
  sim->spawn("stuck", [&] { signal->wait(); });
  sim->run();  // returns: no events pending
  EXPECT_EQ(sim->live_processes(), 1u);
  sim.reset();  // must not deadlock
  SUCCEED();
}

// ----------------------------------------------------------------- signal

TEST(Signal, NotifyOneWakesSingleWaiter) {
  Simulation sim;
  Signal signal(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn("waiter", [&] {
      signal.wait();
      ++woken;
    });
  }
  sim.at(1.0, [&] { signal.notify_one(); });
  sim.run();
  EXPECT_EQ(woken, 1);
}

TEST(Signal, NotifyAllWakesEveryone) {
  Simulation sim;
  Signal signal(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn("waiter", [&] {
      signal.wait();
      ++woken;
    });
  }
  sim.at(1.0, [&] { signal.notify_all(); });
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Signal, WaitForTimesOut) {
  Simulation sim;
  Signal signal(sim);
  bool notified = true;
  sim.spawn("waiter", [&] { notified = signal.wait_for(2.0); });
  sim.run();
  EXPECT_FALSE(notified);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Signal, WaitForNotifiedBeforeTimeout) {
  Simulation sim;
  Signal signal(sim);
  bool notified = false;
  double at = -1;
  sim.spawn("waiter", [&] {
    notified = signal.wait_for(10.0);
    at = sim.now();
  });
  sim.at(1.0, [&] { signal.notify_one(); });
  sim.run();
  EXPECT_TRUE(notified);
  EXPECT_DOUBLE_EQ(at, 1.0);
}

// ---------------------------------------------------------------- mailbox

TEST(Mailbox, BlockingGetReceivesInOrder) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> received;
  sim.spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) received.push_back(box.get());
  });
  sim.at(1.0, [&] { box.put(10); });
  sim.at(2.0, [&] {
    box.put(20);
    box.put(30);
  });
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, GetForTimesOut) {
  Simulation sim;
  Mailbox<int> box(sim);
  bool got = true;
  sim.spawn("consumer", [&] { got = box.get_for(3.0).has_value(); });
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Mailbox, TryGetNonBlocking) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::optional<int> first, second;
  sim.spawn("consumer", [&] {
    first = box.try_get();
    box.put(5);
    second = box.try_get();
  });
  sim.run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 5);
}

// ------------------------------------------------------------------- host

TEST(Host, ComputeAdvancesTimeByFlopsOverRate) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("desktop", "vu", 4, 10.0);  // 10 GF/s per core
  double elapsed = -1;
  host.spawn("worker", [&] {
    double start = sim.now();
    host.compute(20e9, DeviceKind::cpu, 1);  // 20 GF on 1 core = 2 s
    elapsed = sim.now() - start;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 2.0);
  EXPECT_DOUBLE_EQ(host.busy_core_seconds(), 2.0);
}

TEST(Host, MultiCoreComputeScalesDown) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("desktop", "vu", 4, 10.0);
  double elapsed = -1;
  host.spawn("worker", [&] {
    double start = sim.now();
    host.compute(40e9, DeviceKind::cpu, 4);  // 4 cores: 1 s
    elapsed = sim.now() - start;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 1.0);
  // busy time counts all used cores
  EXPECT_DOUBLE_EQ(host.busy_core_seconds(), 4.0);
}

TEST(Host, CoreRequestIsCappedAtHostCores) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("desktop", "vu", 2, 10.0);
  EXPECT_DOUBLE_EQ(host.compute_time(40e9, DeviceKind::cpu, 16), 2.0);
}

TEST(Host, GpuComputeUsesGpuRate) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("lgm", "leiden", 4, 10.0);
  host.set_gpu(GpuSpec{"tesla-c2050", 500.0});
  EXPECT_DOUBLE_EQ(host.compute_time(500e9, DeviceKind::gpu), 1.0);
}

TEST(Host, GpuComputeWithoutGpuThrows) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("plain", "vu", 4, 10.0);
  EXPECT_THROW(host.compute_time(1e9, DeviceKind::gpu), CodeError);
}

TEST(Host, CrashKillsProcessesAndFiresCallbacks) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("node0", "das4", 8, 10.0);
  bool finished = false;
  bool observed = false;
  host.on_crash([&] { observed = true; });
  host.spawn("longjob", [&] {
    sim.sleep(100.0);
    finished = true;
  });
  sim.at(1.0, [&] { host.crash(); });
  sim.run();
  EXPECT_FALSE(finished);
  EXPECT_TRUE(observed);
  EXPECT_FALSE(host.is_up());
}

TEST(Host, SpawnOnDownHostThrows) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("node0", "das4", 8, 10.0);
  host.crash();
  EXPECT_THROW(host.spawn("job", [] {}), CodeError);
}

TEST(Host, SelfCrashUnwindsCurrentProcess) {
  Simulation sim;
  Network net(sim);
  Host& host = net.add_host("node0", "das4", 8, 10.0);
  bool after_crash = false;
  host.spawn("suicidal", [&] {
    host.crash();
    after_crash = true;  // unreachable
  });
  sim.run();
  EXPECT_FALSE(after_crash);
  EXPECT_FALSE(host.is_up());
}

// ---------------------------------------------------------------- network

namespace {
struct Topology {
  Simulation sim;
  Network net{sim};
  Topology() {
    net.add_site("vu", 0.1 * net::ms, 1.0 * net::gbit);
    net.add_site("leiden", 0.1 * net::ms, 1.0 * net::gbit);
    net.add_site("seattle", 0.1 * net::ms, 1.0 * net::gbit);
    net.add_host("desktop", "vu", 4, 10.0);
    net.add_host("lgm", "leiden", 8, 10.0);
    net.add_host("laptop", "seattle", 2, 5.0);
    net.add_link("vu", "leiden", 0.5 * net::ms, 1.0 * net::gbit, "starplane");
    net.add_link("seattle", "vu", 45.0 * net::ms, 1.0 * net::gbit,
                 "transatlantic");
  }
};
}  // namespace

TEST(Network, LoopbackDeliveryTime) {
  Topology t;
  t.net.set_loopback(5 * net::us, 10.0 * net::gbit);
  Host& host = t.net.host("desktop");
  auto arrival = t.net.send(host, host, 1.25e9, TrafficClass::control);
  ASSERT_TRUE(arrival.has_value());
  // 1.25 GB at 10 Gbit/s (=1.25 GB/s) -> 1 s + 5 us latency
  EXPECT_NEAR(*arrival, 1.0 + 5e-6, 1e-9);
}

TEST(Network, SameSiteUsesLan) {
  Topology t;
  t.net.add_host("desktop2", "vu", 4, 10.0);
  auto arrival = t.net.send(t.net.host("desktop"), t.net.host("desktop2"),
                            125e6, TrafficClass::control);
  ASSERT_TRUE(arrival.has_value());
  // 125 MB at 1 Gbit/s (=125 MB/s) -> 1 s + 0.1 ms
  EXPECT_NEAR(*arrival, 1.0 + 1e-4, 1e-9);
}

TEST(Network, WanPathSumsLatenciesAcrossHops) {
  Topology t;
  // seattle -> leiden routes through vu: lan + transatlantic + starplane + lan
  double rtt = t.net.rtt(t.net.host("laptop"), t.net.host("lgm"));
  double one_way = 1e-4 + 45e-3 + 0.5e-3 + 1e-4;
  EXPECT_NEAR(rtt, 2 * one_way, 1e-12);
}

TEST(Network, LinkOccupancyQueuesBackToBackTransfers) {
  Topology t;
  Host& a = t.net.host("desktop");
  Host& b = t.net.host("lgm");
  // Two 125 MB messages over the same 1 Gbit path: the second queues behind
  // the first on every link.
  auto first = t.net.send(a, b, 125e6, TrafficClass::mpi);
  auto second = t.net.send(a, b, 125e6, TrafficClass::mpi);
  ASSERT_TRUE(first && second);
  EXPECT_GT(*second, *first);
  EXPECT_NEAR(*second - *first, 1.0, 1e-6);  // one extra serialization
}

TEST(Network, StreamCapAggregatesAcrossStripes) {
  Topology t;
  // A long fat pipe: 1 Gbit capacity, one stream tops out at 12.5 MB/s.
  t.net.add_site("far", 0.1 * net::ms, 1.0 * net::gbit);
  t.net.add_host("farbox", "far", 4, 10.0);
  t.net.add_link("vu", "far", 40.0 * net::ms, 1.0 * net::gbit, "longfat",
                 100.0 * net::mbit);
  Host& a = t.net.host("desktop");
  Host& b = t.net.host("farbox");
  auto single = t.net.send(a, b, 125e6, TrafficClass::ipl);
  double single_cost = *single;
  // 8 parallel streams fill the link: 8x12.5 MB/s = the full gigabit.
  Topology u;  // fresh occupancy
  u.net.add_site("far", 0.1 * net::ms, 1.0 * net::gbit);
  u.net.add_host("farbox", "far", 4, 10.0);
  u.net.add_link("vu", "far", 40.0 * net::ms, 1.0 * net::gbit, "longfat",
                 100.0 * net::mbit);
  auto striped = u.net.send(u.net.host("desktop"), u.net.host("farbox"),
                            125e6, TrafficClass::ipl, {}, 8);
  ASSERT_TRUE(single && striped);
  // Single stream: 125 MB at 12.5 MB/s = 10 s on the capped hop; 8 stripes
  // aggregate to 100 MB/s = 1.25 s. The rest of the path is identical.
  EXPECT_NEAR(single_cost - *striped, 10.0 - 1.25, 1e-3);
  EXPECT_NEAR(u.net.path_bandwidth(u.net.host("desktop"),
                                   u.net.host("farbox"), 8),
              800.0 * net::mbit, 1.0);
  EXPECT_NEAR(u.net.path_bandwidth(u.net.host("desktop"),
                                   u.net.host("farbox"), 1),
              100.0 * net::mbit, 1.0);
}

TEST(Network, TrafficAccountingPerClass) {
  Topology t;
  Host& a = t.net.host("desktop");
  Host& b = t.net.host("lgm");
  t.net.send(a, b, 1000, TrafficClass::ipl);
  t.net.send(a, b, 500, TrafficClass::mpi);
  bool found = false;
  for (const auto& report : t.net.traffic_report()) {
    if (report.name == "starplane") {
      found = true;
      EXPECT_DOUBLE_EQ(report.bytes_by_class[static_cast<int>(TrafficClass::ipl)],
                       1000);
      EXPECT_DOUBLE_EQ(report.bytes_by_class[static_cast<int>(TrafficClass::mpi)],
                       500);
      EXPECT_EQ(report.messages, 2u);
    }
  }
  EXPECT_TRUE(found);
  t.net.reset_traffic();
  for (const auto& report : t.net.traffic_report()) {
    EXPECT_EQ(report.messages, 0u);
  }
}

TEST(Network, DownLinkLosesMessages) {
  Topology t;
  t.net.set_link_down("starplane", true);
  auto arrival = t.net.send(t.net.host("desktop"), t.net.host("lgm"), 100,
                            TrafficClass::control);
  EXPECT_FALSE(arrival.has_value());
  t.net.set_link_down("starplane", false);
  arrival = t.net.send(t.net.host("desktop"), t.net.host("lgm"), 100,
                       TrafficClass::control);
  EXPECT_TRUE(arrival.has_value());
}

TEST(Network, UnknownLinkThrows) {
  Topology t;
  EXPECT_THROW(t.net.set_link_down("nonexistent", true), ConfigError);
}

TEST(Network, FirewallBlocksInboundAcrossSites) {
  Topology t;
  Host& open_host = t.net.host("desktop");
  Host& fw = t.net.host("lgm");
  fw.firewall().allow_inbound = false;
  EXPECT_FALSE(t.net.can_connect(open_host, fw));
  // outbound from the firewalled host still works
  EXPECT_TRUE(t.net.can_connect(fw, open_host));
}

TEST(Network, NatBlocksInboundEvenWhenOpen) {
  Topology t;
  Host& natted = t.net.host("laptop");
  natted.firewall().nat = true;
  natted.firewall().allow_inbound = true;
  EXPECT_FALSE(t.net.can_connect(t.net.host("desktop"), natted));
}

TEST(Network, SameSiteIgnoresFirewall) {
  Topology t;
  t.net.add_host("desktop2", "vu", 4, 10.0);
  Host& a = t.net.host("desktop");
  Host& b = t.net.host("desktop2");
  b.firewall().allow_inbound = false;
  EXPECT_TRUE(t.net.can_connect(a, b));
}

TEST(Network, DisconnectedSitesUnreachable) {
  Topology t;
  t.net.add_host("island", "nowhere", 1, 1.0);
  EXPECT_FALSE(t.net.can_connect(t.net.host("desktop"), t.net.host("island")));
  EXPECT_THROW(
      t.net.send(t.net.host("desktop"), t.net.host("island"), 1,
                 TrafficClass::control),
      ConnectError);
}

TEST(Network, DeliveryCallbackFiresAtArrival) {
  Topology t;
  double delivered_at = -1;
  t.sim.spawn("sender", [&] {
    t.sim.sleep(1.0);
    t.net.send(t.net.host("desktop"), t.net.host("lgm"), 1000,
               TrafficClass::control, [&] { delivered_at = t.sim.now(); });
  });
  t.sim.run();
  EXPECT_GT(delivered_at, 1.0);
}

TEST(Network, DuplicateHostThrows) {
  Topology t;
  EXPECT_THROW(t.net.add_host("desktop", "vu", 1, 1.0), ConfigError);
}
