#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "smartsockets/smartsockets.hpp"

using namespace jungle;
using namespace jungle::sim;
using namespace jungle::smartsockets;

namespace {

/// Three-site jungle: an open cluster (amsterdam), a firewalled GPU machine
/// (leiden), and a NAT'ed laptop (seattle) — the paper's connectivity zoo.
struct World {
  Simulation sim;
  Network net{sim};
  SmartSockets sockets{net};

  World() {
    net.add_site("amsterdam", 0.1e-3, 1e9 / 8);
    net.add_site("leiden", 0.1e-3, 1e9 / 8);
    net.add_site("seattle", 0.1e-3, 1e9 / 8);
    net.add_host("fs0", "amsterdam", 8, 10);
    net.add_host("node0", "amsterdam", 8, 10);
    net.add_host("lgm", "leiden", 8, 10);
    net.add_host("laptop", "seattle", 2, 5);
    net.add_link("amsterdam", "leiden", 0.5e-3, 1e9 / 8, "starplane");
    net.add_link("seattle", "amsterdam", 45e-3, 1e9 / 8, "transatlantic");
  }

  ~World() { sim.shutdown(); }

  std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
    return std::vector<std::uint8_t>(values.begin(), values.end());
  }
};

}  // namespace

TEST(SmartSockets, DirectEndToEnd) {
  World w;
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "echo");
  std::string received;
  ConnectionKind server_kind{};
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    server_kind = conn->kind();
    auto data = conn->recv();
    ASSERT_TRUE(data.has_value());
    received.assign(data->begin(), data->end());
    conn->send(std::vector<std::uint8_t>{'o', 'k'});
    conn->close();
  });
  std::string reply;
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"),
                                  "echo", TrafficClass::control);
    EXPECT_EQ(conn->kind(), ConnectionKind::direct);
    conn->send(std::vector<std::uint8_t>{'h', 'i'});
    auto data = conn->recv();
    ASSERT_TRUE(data.has_value());
    reply.assign(data->begin(), data->end());
    auto eof = conn->recv();
    EXPECT_FALSE(eof.has_value());
  });
  w.sim.run();
  EXPECT_EQ(received, "hi");
  EXPECT_EQ(reply, "ok");
  EXPECT_EQ(server_kind, ConnectionKind::direct);
  EXPECT_EQ(w.sockets.setup_stats().direct, 1);
}

TEST(SmartSockets, DroppedEndsAreFreedAfterInFlightFramesLand) {
  // The ends own the pipe, not the reverse: once both users drop their
  // ends, nothing keeps them alive. A sender may drop its end right after
  // close(); its frames still in flight reach the peer.
  World w;
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "sink");
  std::weak_ptr<ConnectionEnd> client_end, server_end;
  std::string received;
  bool eof = false;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    server_end = conn;
    auto data = conn->recv();
    ASSERT_TRUE(data.has_value());
    received.assign(data->begin(), data->end());
    eof = !conn->recv().has_value();
  });
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"),
                                  "sink", TrafficClass::control);
    client_end = conn;
    conn->send(std::vector<std::uint8_t>{'h', 'i'});
    conn->close();
  });
  w.sim.run();
  EXPECT_EQ(received, "hi");
  EXPECT_TRUE(eof);
  EXPECT_TRUE(client_end.expired());
  EXPECT_TRUE(server_end.expired());
}

TEST(SmartSockets, ReverseConnectionThroughFirewall) {
  World w;
  // lgm blocks inbound; hubs exist at both sites (hubs pair via reverse
  // setups among themselves, so a one-way-reachable hub still overlays).
  w.net.host("lgm").firewall().allow_inbound = false;
  w.sockets.start_hub(w.net.host("fs0"));
  w.sockets.start_hub(w.net.host("lgm"));
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "svc");
  bool connected = false;
  bool accepted = false;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    accepted = true;
    EXPECT_EQ(conn->kind(), ConnectionKind::reverse);
  });
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "svc",
                                  TrafficClass::control);
    EXPECT_EQ(conn->kind(), ConnectionKind::reverse);
    connected = true;
  });
  w.sim.run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(w.sockets.setup_stats().reverse, 1);
}

TEST(SmartSockets, RelayEndToEnd) {
  World w;
  w.net.host("lgm").firewall().allow_inbound = false;
  w.net.host("laptop").firewall().nat = true;
  w.sockets.start_hub(w.net.host("fs0"));
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "svc");
  std::string received;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    auto data = conn->recv();
    ASSERT_TRUE(data.has_value());
    received.assign(data->begin(), data->end());
  });
  w.net.host("laptop").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("laptop"), w.net.host("lgm"),
                                  "svc", TrafficClass::control);
    EXPECT_EQ(conn->kind(), ConnectionKind::relayed);
    conn->send(std::vector<std::uint8_t>{'x', 'y', 'z'});
  });
  w.sim.run();
  EXPECT_EQ(received, "xyz");
  EXPECT_EQ(w.sockets.setup_stats().relayed, 1);
  // Relayed traffic crosses both WAN links (via the fs0 hub).
  bool starplane_used = false, transatlantic_used = false;
  for (const auto& link : w.net.traffic_report()) {
    if (link.name == "starplane" && link.messages > 0) starplane_used = true;
    if (link.name == "transatlantic" && link.messages > 0) {
      transatlantic_used = true;
    }
  }
  EXPECT_TRUE(starplane_used);
  EXPECT_TRUE(transatlantic_used);
}

TEST(SmartSockets, ConnectionRefusedWithoutListener) {
  World w;
  bool threw = false;
  w.net.host("fs0").spawn("client", [&] {
    try {
      w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "nothing",
                        TrafficClass::control);
    } catch (const ConnectError&) {
      threw = true;
    }
  });
  w.sim.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(w.sockets.setup_stats().failed, 1);
}

TEST(SmartSockets, NoOverlayRouteFails) {
  World w;
  w.net.host("lgm").firewall().allow_inbound = false;
  // No hubs at all: neither reverse nor relay possible.
  w.sockets.listen(w.net.host("lgm"), "svc");
  bool threw = false;
  w.net.host("fs0").spawn("client", [&] {
    try {
      w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "svc",
                        TrafficClass::control);
    } catch (const ConnectError&) {
      threw = true;
    }
  });
  w.sim.run();
  EXPECT_TRUE(threw);
}

TEST(SmartSockets, MessagesSurviveTransientLinkFailure) {
  World w;
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "svc");
  std::vector<std::string> received;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    while (auto data = conn->recv()) {
      received.emplace_back(data->begin(), data->end());
    }
  });
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "svc",
                                  TrafficClass::control);
    conn->send(std::vector<std::uint8_t>{'1'});
    w.net.set_link_down("starplane", true);
    conn->send(std::vector<std::uint8_t>{'2'});  // lost, then retried
    conn->send(std::vector<std::uint8_t>{'3'});
    w.sim.sleep(0.2);
    w.net.set_link_down("starplane", false);
    conn->send(std::vector<std::uint8_t>{'4'});
    conn->close();
  });
  w.sim.run();
  // All four arrive, in order, despite the outage.
  ASSERT_EQ(received.size(), 4u);
  EXPECT_EQ(received[0], "1");
  EXPECT_EQ(received[1], "2");
  EXPECT_EQ(received[2], "3");
  EXPECT_EQ(received[3], "4");
}

TEST(SmartSockets, HostCrashBreaksConnection) {
  World w;
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "svc");
  bool server_saw_break = false;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    try {
      while (conn->recv()) {
      }
    } catch (const ConnectError&) {
      server_saw_break = true;
    }
  });
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "svc",
                                  TrafficClass::control);
    w.sim.sleep(1.0);
    w.net.host("fs0").crash();  // kills this process too
  });
  w.sim.run();
  EXPECT_TRUE(server_saw_break);
}

TEST(SmartSockets, OverlayMapMarksTunnelsAndOneWays) {
  World w;
  w.net.host("lgm").firewall().allow_inbound = false;  // one-way edge
  w.sockets.start_hub(w.net.host("fs0"));
  w.sockets.start_hub(w.net.host("lgm"));
  w.sockets.start_hub(w.net.host("laptop"), /*tunneled=*/true);
  auto edges = w.sockets.overlay_map();
  int tunnels = 0, oneways = 0, open = 0;
  for (const auto& edge : edges) {
    switch (edge.kind) {
      case OverlayEdge::Kind::tunnel: ++tunnels; break;
      case OverlayEdge::Kind::oneway: ++oneways; break;
      case OverlayEdge::Kind::open: ++open; break;
    }
  }
  EXPECT_EQ(tunnels, 2);  // laptop pairs with both others
  EXPECT_EQ(oneways, 1);  // fs0 -> lgm only
  EXPECT_EQ(open, 0);
}

TEST(SmartSockets, SetupChargesRtt) {
  World w;
  w.sockets.listen(w.net.host("lgm"), "svc");
  double setup_time = -1;
  w.net.host("fs0").spawn("client", [&] {
    double start = w.sim.now();
    w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"), "svc",
                      TrafficClass::control);
    setup_time = w.sim.now() - start;
  });
  w.sim.run();
  EXPECT_NEAR(setup_time, w.net.rtt(w.net.host("fs0"), w.net.host("lgm")),
              1e-9);
}

TEST(SmartSockets, DuplicateListenThrows) {
  World w;
  w.sockets.listen(w.net.host("lgm"), "svc");
  EXPECT_THROW(w.sockets.listen(w.net.host("lgm"), "svc"), ConnectError);
  w.sockets.unlisten(w.net.host("lgm"), "svc");
  EXPECT_NO_THROW(w.sockets.listen(w.net.host("lgm"), "svc"));
}

TEST(SmartSockets, BulkFramesStripeAcrossStreamCappedLinks) {
  // A window-limited lightpath: one stream gets 1/8th of the capacity. A
  // bulk frame (above the stripe threshold) is carried over parallel
  // streams and aggregates most of the link back; a small frame is not.
  auto run_transfer = [](double payload_bytes) {
    World w;
    w.net.add_site("far", 0.1e-3, 1e9 / 8);
    w.net.add_host("farbox", "far", 4, 10);
    w.net.add_link("amsterdam", "far", 40e-3, 1e9 / 8, "longfat",
                   (1e9 / 8) / 8.0);
    ServerSocket& server = w.sockets.listen(w.net.host("farbox"), "bulk");
    double received_at = -1;
    std::uint64_t striped = 0;
    w.net.host("farbox").spawn("server", [&] {
      auto conn = server.accept();
      conn->recv();
      received_at = w.sim.now();
    });
    w.net.host("fs0").spawn("client", [&] {
      auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("farbox"),
                                    "bulk", TrafficClass::ipl);
      conn->send(std::vector<std::uint8_t>(
          static_cast<std::size_t>(payload_bytes), 0));
      striped = conn->striped_sends();
    });
    w.sim.run();
    return std::pair{received_at, striped};
  };
  auto [bulk_time, bulk_striped] = run_transfer(12.5e6);  // 12.5 MB
  auto [small_time, small_striped] = run_transfer(32e3);  // under threshold
  EXPECT_EQ(bulk_striped, 1u);
  EXPECT_EQ(small_striped, 0u);
  // Unstriped, the capped hop alone would cost 12.5 MB / (125/8 MB/s) =
  // 0.8 s (plus ~0.35 s of LAN crossings, latency and setup); with 8
  // stripes the hop shrinks to ~0.1 s.
  EXPECT_LT(bulk_time, 0.6);
  EXPECT_GT(bulk_time, 0.15);
  EXPECT_LT(small_time, 0.2);
}

TEST(SmartSockets, LargeTransferRespectsBandwidth) {
  World w;
  ServerSocket& server = w.sockets.listen(w.net.host("lgm"), "bulk");
  double received_at = -1;
  w.net.host("lgm").spawn("server", [&] {
    auto conn = server.accept();
    conn->recv();
    received_at = w.sim.now();
  });
  w.net.host("fs0").spawn("client", [&] {
    auto conn = w.sockets.connect(w.net.host("fs0"), w.net.host("lgm"),
                                  "bulk", TrafficClass::control);
    conn->send(std::vector<std::uint8_t>(125'000'000, 0));  // 125 MB
  });
  w.sim.run();
  // 125 MB over 1 Gbit/s ~ 1 s per link crossing; three links on the path.
  EXPECT_GT(received_at, 1.0);
  EXPECT_LT(received_at, 5.0);
}
