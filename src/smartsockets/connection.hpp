#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sim/fault_tunables.hpp"
#include "sim/mailbox.hpp"
#include "sim/network.hpp"

namespace jungle::smartsockets {

/// How a connection was established (paper §3 / Fig 10: plain lines, one-way
/// arrows for reverse setups, and relays through the hub overlay).
enum class ConnectionKind { direct, reverse, relayed };

const char* connection_kind_name(ConnectionKind kind) noexcept;

/// Striped bulk transfers (the SmartSockets/Ibis WAN-throughput trick the
/// paper's runs rely on): frames above the threshold are carried over
/// parallel streams, one per chunk up to the cap, so stream-capped
/// long-fat links aggregate bandwidth (sim::Link::effective_bandwidth).
inline constexpr double kStripeThresholdBytes = 64.0 * 1024.0;
inline constexpr double kStripeChunkBytes = 64.0 * 1024.0;
inline constexpr int kMaxStripes = 8;

/// Streams a payload of `bytes` is carried over.
int stripe_count(double bytes) noexcept;

class Pipe;

/// One endpoint of an established SmartSockets connection. Messages are
/// framed, FIFO-ordered (a per-frame sequence number reorders retried frames)
/// and survive transient link failures by retrying lost frames.
///
/// recv() returns nullopt on clean close by the peer and throws ConnectError
/// if the connection broke (host crash).
class ConnectionEnd {
 public:
  ConnectionEnd(sim::Simulation& sim, sim::Host* local);

  void send(std::vector<std::uint8_t> bytes);
  std::optional<std::vector<std::uint8_t>> recv();
  std::optional<std::vector<std::uint8_t>> recv_for(double timeout_s);

  /// Graceful shutdown; the peer's recv() returns nullopt after draining.
  void close();

  /// Abnormal shutdown (connection reset): both ends break immediately, the
  /// peer's recv() throws ConnectError. What a killed process's peers see.
  void abort();

  bool broken() const noexcept { return broken_; }
  ConnectionKind kind() const noexcept { return kind_; }
  sim::Host& local_host() noexcept { return *local_; }
  sim::Host& remote_host() noexcept;

  /// Total payload bytes sent from this end (monitoring).
  double bytes_sent() const noexcept { return bytes_sent_; }
  /// Frames that went out striped over parallel streams (monitoring).
  std::uint64_t striped_sends() const noexcept { return striped_sends_; }

 private:
  friend class Pipe;
  friend class SmartSockets;

  struct Frame {
    std::uint64_t seq;
    std::vector<std::uint8_t> bytes;
    bool eof = false;
    /// Down-link retries already spent on this frame. Retrying survives
    /// transient outages; a frame that exhausts its budget declares the
    /// connection dead (the TCP-reset analog) — see Pipe::hop.
    int retries = 0;
  };

  void deliver(Frame frame);  // called at the receiving side, in order seq
  void mark_broken();

  sim::Simulation& sim_;
  sim::Host* local_;
  sim::Host* remote_ = nullptr;
  std::shared_ptr<Pipe> pipe_;  // shared between both ends
  bool initiator_ = false;
  ConnectionKind kind_ = ConnectionKind::direct;
  sim::Mailbox<Frame> incoming_;
  std::map<std::uint64_t, Frame> reorder_;
  std::uint64_t next_recv_seq_ = 0;
  std::uint64_t next_send_seq_ = 0;
  bool broken_ = false;
  bool closed_ = false;
  double bytes_sent_ = 0;
  std::uint64_t striped_sends_ = 0;
  /// The process last blocked in recv() on this end — the one holding the
  /// "socket". When it is killed (process-level fault injection) the pipe
  /// breaks, so peers observe a connection reset instead of blocking
  /// forever on an end nobody will ever read again.
  std::optional<sim::ProcessId> last_user_;
};

/// Shared state of a connection: the two ends plus the hop path the frames
/// travel (direct: [a, b]; relayed: [a, hub1, ..., b]). The ends own the
/// pipe, and so do the events carrying its frames; the pipe only observes
/// the ends. An end its users dropped is gone: frames still in flight to it
/// are discarded on arrival, and the crash, kill and link hooks skip it.
class Pipe : public std::enable_shared_from_this<Pipe> {
 public:
  Pipe(sim::Network& net, sim::TrafficClass cls, std::vector<sim::Host*> hops,
       ConnectionKind kind);

  /// Create both ends wired to this pipe. `a` is the initiator side.
  static std::pair<std::shared_ptr<ConnectionEnd>, std::shared_ptr<ConnectionEnd>>
  make(sim::Network& net, sim::TrafficClass cls, std::vector<sim::Host*> hops,
       ConnectionKind kind);

  /// Route a frame from `from_end` to the other end along the hop path,
  /// retrying hops whose link is down. Non-blocking (events do the work).
  void route(const ConnectionEnd& from_end, ConnectionEnd::Frame frame);

  void break_both();

  /// True while every hop of the route still has its links up. Consulted by
  /// the link watcher: a route that stays dead past the keepalive timeout
  /// breaks the pipe even with no frame in flight.
  bool route_alive() const;

  std::weak_ptr<ConnectionEnd> a;  // initiator
  std::weak_ptr<ConnectionEnd> b;  // acceptor

 private:
  void hop(bool forward, std::size_t hop_index, ConnectionEnd::Frame frame);

  sim::Network& net_;
  sim::TrafficClass cls_;
  std::vector<sim::Host*> hops_;
  ConnectionKind kind_;
};

}  // namespace jungle::smartsockets
