#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace jungle::sim {

/// Thrown *into* a simulated process when it is killed (host crash or
/// simulation shutdown). Unwinds the process body; never escapes run().
/// Deliberately not derived from jungle::Error so that subsystem catch
/// blocks (`catch (const Error&)`) do not swallow a kill.
struct ProcessKilled {};

class Simulation;

/// Identifies a spawned process. Index into the simulation's table.
using ProcessId = std::uint32_t;

/// A virtual-time condition variable. Processes block on it with wait();
/// any code (process or event callback) wakes them with notify_one/all.
/// Follows CP.42: every wait has an explicit condition at the call site.
class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(&sim) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Block the calling process until notified. Only valid inside a process.
  void wait();

  /// Block until notified or until `timeout_s` of virtual time passes.
  /// Returns true if notified, false on timeout.
  bool wait_for(double timeout_s);

  void notify_one();
  void notify_all();

 private:
  Simulation* sim_;
  std::vector<ProcessId> waiters_;
};

/// Deterministic discrete-event simulator with cooperative processes.
///
/// Exactly one simulated process (or event callback) executes at any moment;
/// the scheduler resumes the process owning the earliest event.
/// Events at equal times fire in scheduling order, so runs are replayable.
/// Processes are fibers with their own stacks, run on the thread that calls
/// run(), which lets protocol code (RPC, MPI, sockets) be written as
/// straight-line blocking code (CP.4: think in tasks).
class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time in seconds.
  double now() const noexcept { return now_; }

  /// Create a process; it becomes runnable at the current time (or at
  /// `start_at` if given). The body runs on its own stack, one at a time.
  ProcessId spawn(std::string name, std::function<void()> body);
  ProcessId spawn_at(double start_at, std::string name,
                     std::function<void()> body);

  /// Schedule a non-blocking callback (timers, message delivery). Callbacks
  /// run on the scheduler thread and must not call blocking primitives.
  void at(double time, std::function<void()> callback);
  void after(double delay, std::function<void()> callback);

  /// Drive the simulation until no events remain (or `until` is reached).
  /// Rethrows the first uncaught exception from any process.
  void run();
  void run_until(double until);

  /// Block the calling process for `seconds` of virtual time.
  void sleep(double seconds);

  /// Yield to the scheduler, becoming runnable again at the same timestamp
  /// (after already-scheduled same-time events).
  void yield_now();

  /// Kill a process: ProcessKilled is raised at its next (or current)
  /// blocking point. Killing a finished process is a no-op.
  void kill(ProcessId pid);

  /// Kill the first live process whose name is `prefix` + `segment`, or
  /// `prefix` + `segment` + ":...". Segment matching (rather than substring)
  /// keeps victims crisp: "amuse-daemon" never matches
  /// "amuse-daemon-client", while "worker" matches "worker:phigrape".
  /// Returns false when nothing matched (the process-level analog of a
  /// crash injection against an already-dead host).
  bool kill_matching(const std::string& prefix, const std::string& segment);

  /// True when the *calling* process has been killed and is (or should be)
  /// unwinding. Protocol teardown consults this to pick the abnormal path:
  /// a killed process gets no goodbye frames — its peers must find out the
  /// hard way, exactly like a SIGKILLed daemon on a real machine.
  bool kill_pending() const noexcept;

  /// Observe kills injected with kill()/kill_matching() (not the mass
  /// teardown of shutdown(), which owners sequence explicitly). Fired after
  /// the kill is marked, before a self-kill unwinds. Return false to
  /// unregister (defunct watchers prune themselves).
  void on_kill(std::function<bool(ProcessId)> observer);

  /// Run `callback` (as a scheduled event) when `pid` finishes — the
  /// supervision primitive: no polling, so an idle simulation still drains.
  /// Fires immediately (well: at the current timestamp) if `pid` already
  /// finished.
  void watch_exit(ProcessId pid, std::function<void()> callback);

  /// Kill and fully unwind every live process *now*. Owners of a
  /// Simulation must call this before destroying objects that process
  /// unwind paths may still touch (sockets, networks, daemons): the
  /// destructor also unwinds, but by then sibling members are gone.
  void shutdown();

  /// True while called from inside a simulated process.
  static bool in_process() noexcept;

  /// Name of the currently running process ("" outside processes).
  std::string current_name() const;
  ProcessId current_pid() const;

  bool finished(ProcessId pid) const;

  /// Number of processes that have not finished.
  std::size_t live_processes() const;
  /// Names of the unfinished processes — the resource-leak diagnostics the
  /// fault explorer prints when a recovery leaves orphans behind.
  std::vector<std::string> live_process_names() const;

 private:
  friend class Signal;

  struct Fiber;  // a stack and saved registers; defined in the .cpp

  struct Pcb {
    std::string name;
    std::unique_ptr<Fiber> fiber;  // released once the process finished
    bool kill = false;             // raise ProcessKilled at next wait
    bool finished = false;
    std::uint64_t wake_gen = 0;  // invalidates stale wake events
    std::function<void()> body;
    std::exception_ptr error;
    std::vector<std::function<void()>> exit_watchers;
  };

  struct Event {
    double time;
    std::uint64_t seq;
    // Either a callback, or a process wake (callback empty).
    std::function<void()> callback;
    ProcessId pid = 0;
    std::uint64_t wake_gen = 0;
    bool is_wake = false;
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Schedule a wake event for `pid` at `time` under its current wake
  // generation; resuming bumps the generation, so other pending wakes of
  // the same block go stale.
  void schedule_wake(double time, ProcessId pid);

  // Block the current process until its wake generation fires.
  void block_current();

  // Scheduler side: run `pid` until it blocks or finishes.
  void resume(ProcessId pid);
  // Process side: hand control back to the scheduler; returns once resumed.
  void suspend();
  static void trampoline();
  void notify_kill_observers(ProcessId pid);

  std::unique_ptr<Fiber> scheduler_;  // the context suspend() returns to

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  std::vector<std::unique_ptr<Pcb>> processes_;
  std::vector<std::function<bool(ProcessId)>> kill_observers_;
  bool shutting_down_ = false;
};

}  // namespace jungle::sim
