#include "smartsockets/connection.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace jungle::smartsockets {

namespace {
// Flat per-frame overhead: sequence number, length, connection id (models
// the SmartSockets wire framing).
constexpr double kFrameOverheadBytes = 32.0;
// The outage budget is shared with every other failure detector
// (sim/fault_tunables.hpp): a frame stuck on a down link retries every
// kHopRetryDelay up to kMaxHopRetries times, and idle connections (no frame
// in flight to exhaust that budget) learn of a dead route from the
// network's link watcher and break after the same total grace
// (kOutageGraceSeconds) — both detection paths declare death on the same
// outage length.
constexpr double kRetryDelay = sim::tunables::kHopRetryDelay;
constexpr int kMaxHopRetries = sim::tunables::kMaxHopRetries;
constexpr double kLinkDetectTimeout = sim::tunables::kOutageGraceSeconds;
}  // namespace

int stripe_count(double bytes) noexcept {
  if (bytes <= kStripeThresholdBytes) return 1;
  int chunks = static_cast<int>(std::ceil(bytes / kStripeChunkBytes));
  return std::min(chunks, kMaxStripes);
}

const char* connection_kind_name(ConnectionKind kind) noexcept {
  switch (kind) {
    case ConnectionKind::direct: return "direct";
    case ConnectionKind::reverse: return "reverse";
    case ConnectionKind::relayed: return "relayed";
  }
  return "?";
}

ConnectionEnd::ConnectionEnd(sim::Simulation& sim, sim::Host* local)
    : sim_(sim), local_(local), incoming_(sim) {}

sim::Host& ConnectionEnd::remote_host() noexcept { return *remote_; }

void ConnectionEnd::send(std::vector<std::uint8_t> bytes) {
  if (broken_) throw ConnectError("send on broken connection");
  if (closed_) throw ConnectError("send on closed connection");
  bytes_sent_ += static_cast<double>(bytes.size());
  if (stripe_count(static_cast<double>(bytes.size())) > 1) ++striped_sends_;
  pipe_->route(*this, Frame{next_send_seq_++, std::move(bytes), false});
}

void ConnectionEnd::close() {
  if (closed_ || broken_) return;
  closed_ = true;
  pipe_->route(*this, Frame{next_send_seq_++, {}, true});
}

void ConnectionEnd::abort() {
  if (broken_) return;
  pipe_->break_both();
}

std::optional<std::vector<std::uint8_t>> ConnectionEnd::recv() {
  if (sim::Simulation::in_process()) last_user_ = sim_.current_pid();
  if (broken_ && incoming_.empty()) {
    throw ConnectError("connection to " + remote_host().name() + " broke");
  }
  Frame frame = incoming_.get();
  if (frame.eof) {
    if (broken_) {
      throw ConnectError("connection to " + remote_host().name() + " broke");
    }
    return std::nullopt;
  }
  return std::move(frame.bytes);
}

std::optional<std::vector<std::uint8_t>> ConnectionEnd::recv_for(
    double timeout_s) {
  if (sim::Simulation::in_process()) last_user_ = sim_.current_pid();
  if (broken_ && incoming_.empty()) {
    throw ConnectError("connection to " + remote_host().name() + " broke");
  }
  auto frame = incoming_.get_for(timeout_s);
  if (!frame) return std::nullopt;  // timeout
  if (frame->eof) {
    if (broken_) throw ConnectError("connection broke");
    return std::nullopt;
  }
  return std::move(frame->bytes);
}

void ConnectionEnd::deliver(Frame frame) {
  // Frames can overtake each other when an earlier one is retried across a
  // down link; reassemble FIFO order here.
  reorder_[frame.seq] = std::move(frame);
  while (true) {
    auto it = reorder_.find(next_recv_seq_);
    if (it == reorder_.end()) break;
    ++next_recv_seq_;
    incoming_.put(std::move(it->second));
    reorder_.erase(it);
  }
}

void ConnectionEnd::mark_broken() {
  if (broken_) return;
  broken_ = true;
  // Wake any blocked reader with a poisoned eof frame.
  incoming_.put(Frame{~0ULL, {}, true});
}

Pipe::Pipe(sim::Network& net, sim::TrafficClass cls,
           std::vector<sim::Host*> hops, ConnectionKind kind)
    : net_(net), cls_(cls), hops_(std::move(hops)), kind_(kind) {}

std::pair<std::shared_ptr<ConnectionEnd>, std::shared_ptr<ConnectionEnd>>
Pipe::make(sim::Network& net, sim::TrafficClass cls,
           std::vector<sim::Host*> hops, ConnectionKind kind) {
  auto pipe = std::make_shared<Pipe>(net, cls, hops, kind);
  auto a = std::make_shared<ConnectionEnd>(net.simulation(), hops.front());
  auto b = std::make_shared<ConnectionEnd>(net.simulation(), hops.back());
  a->pipe_ = pipe;
  b->pipe_ = pipe;
  a->remote_ = hops.back();
  b->remote_ = hops.front();
  a->initiator_ = true;
  a->kind_ = kind;
  b->kind_ = kind;
  pipe->a = a;
  pipe->b = b;
  // A crash of either endpoint host breaks the connection (the IPL registry
  // turns this into a "died" event upstream).
  sim::Host* host_a = hops.front();
  sim::Host* host_b = hops.back();
  std::weak_ptr<Pipe> weak = pipe;
  auto breaker = [weak] {
    if (auto alive = weak.lock()) alive->break_both();
  };
  host_a->on_crash(breaker);
  host_b->on_crash(breaker);
  // A killed *process* (process-level fault injection, not a host crash)
  // takes its sockets down with it: when the last reader of either end is
  // killed, the pipe breaks and the peer sees a connection reset. Ends that
  // already closed are exempt — an orderly close followed by a teardown
  // kill (the normal pump-shutdown sequence) must stay a clean EOF.
  net.simulation().on_kill([weak](sim::ProcessId pid) {
    auto alive = weak.lock();
    if (!alive) return false;  // pipe gone: unregister
    auto ea = alive->a.lock();
    auto eb = alive->b.lock();
    if (ea == nullptr || eb == nullptr) return true;
    if (ea->closed_ || eb->closed_ || ea->broken_ || eb->broken_) return true;
    if ((ea->last_user_ && *ea->last_user_ == pid) ||
        (eb->last_user_ && *eb->last_user_ == pid)) {
      alive->break_both();
    }
    return true;
  });
  // A dead *route* must also break the connection, even when no frame is in
  // flight to exhaust the hop-retry budget — otherwise the far side of a cut
  // WAN link blocks in recv() forever (the leaked-worker hole the fault
  // explorer flags). On a link-down event, any pipe whose route lost
  // connectivity re-checks after the keepalive timeout and breaks if the
  // outage persists.
  if (host_a != host_b) {
    sim::Network* net_ptr = &net;
    net.watch_links([weak, net_ptr](const std::string&, bool down) {
      if (!down) return;
      auto alive = weak.lock();
      if (!alive || alive->route_alive()) return;
      net_ptr->simulation().after(kLinkDetectTimeout, [weak] {
        if (auto still = weak.lock()) {
          if (!still->route_alive()) still->break_both();
        }
      });
    });
  }
  return {a, b};
}

bool Pipe::route_alive() const {
  for (std::size_t i = 0; i + 1 < hops_.size(); ++i) {
    if (!net_.route_up(*hops_[i], *hops_[i + 1])) return false;
  }
  return true;
}

void Pipe::route(const ConnectionEnd& from_end, ConnectionEnd::Frame frame) {
  hop(from_end.initiator_, 0, std::move(frame));
}

void Pipe::hop(bool forward, std::size_t hop_index,
               ConnectionEnd::Frame frame) {
  // hops_ is initiator->acceptor order; walk it backwards for b->a frames.
  std::size_t hop_count = hops_.size() - 1;
  if (hop_index >= hop_count) {
    auto destination = (forward ? b : a).lock();
    if (destination != nullptr && !destination->broken_) {
      destination->deliver(std::move(frame));
    }
    return;
  }
  sim::Host* from = forward ? hops_[hop_index] : hops_[hop_count - hop_index];
  sim::Host* to =
      forward ? hops_[hop_index + 1] : hops_[hop_count - hop_index - 1];
  // Bulk frames split across parallel streams: each stream pays its own
  // framing, and stream-capped links aggregate bandwidth across them.
  int streams = stripe_count(static_cast<double>(frame.bytes.size()));
  double wire_bytes = static_cast<double>(frame.bytes.size()) +
                      kFrameOverheadBytes * streams;
  auto self = shared_from_this();
  auto frame_ptr = std::make_shared<ConnectionEnd::Frame>(std::move(frame));
  auto arrival = net_.send(*from, *to, wire_bytes, cls_,
                           [self, forward, hop_index, frame_ptr]() mutable {
                             self->hop(forward, hop_index + 1,
                                       std::move(*frame_ptr));
                           },
                           streams);
  if (!arrival) {
    // Transient failure: retry this hop after a pause (paper §5: "our
    // communication library can handle transient network failures"). A
    // *persistent* outage must not retry forever — after the budget runs
    // out the connection is declared broken (the TCP-reset analog), so
    // readers wake with a ConnectError and the layers above can recover
    // instead of silently hanging behind an endless retry loop.
    if (++frame_ptr->retries > kMaxHopRetries) {
      break_both();
      return;
    }
    net_.simulation().after(kRetryDelay,
                            [self, forward, hop_index, frame_ptr]() mutable {
                              self->hop(forward, hop_index,
                                        std::move(*frame_ptr));
                            });
  }
}

void Pipe::break_both() {
  if (auto end = a.lock()) end->mark_broken();
  if (auto end = b.lock()) end->mark_broken();
}

}  // namespace jungle::smartsockets
