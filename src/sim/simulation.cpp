#include "sim/simulation.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include "obs/trace.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace jungle::sim {

namespace {
// Which process (if any) this thread is executing; resume() sets them for
// the length of one hand-off. Lets blocking primitives find their context
// without passing handles everywhere.
thread_local Simulation* t_sim = nullptr;
thread_local ProcessId t_pid = 0;
thread_local bool t_in_process = false;

// Every process stack, reserved lazily (MAP_NORESERVE) above a PROT_NONE
// guard page; the deepest one measured (suite, examples, sweeps) is 16 KiB.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
const auto kGuardBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

// Layout of the C++ runtime's per-thread exception state (__cxa_eh_globals):
// the caught-exception chain and the uncaught count. All fibers share the
// thread's copy, so every hand-off swaps it.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

void exchange_eh_globals(EhGlobals& state) {
  void* live = abi::__cxa_get_globals();
  EhGlobals previous;
  std::memcpy(&previous, live, sizeof previous);
  std::memcpy(live, &state, sizeof state);
  state = previous;
}
}  // namespace

struct Simulation::Fiber {
  ucontext_t context{};
  void* region = nullptr;  // guard page + stack; none for the scheduler
  // While switched out: the process's exception state and current span.
  EhGlobals eh;
  obs::trace::SpanId span = 0;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  const void* bottom = nullptr;  // the scheduler's stack, learned on entry
  std::size_t size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan = nullptr;
#endif

  Fiber() = default;
  explicit Fiber(void (*entry)()) {
    region = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                  -1, 0);
    if (region == MAP_FAILED) throw std::bad_alloc();
    if (mprotect(region, kGuardBytes, PROT_NONE) != 0 ||
        getcontext(&context) != 0) {
      munmap(region, kGuardBytes + kStackBytes);
      throw std::bad_alloc();
    }
    context.uc_stack.ss_sp = stack();
    context.uc_stack.ss_size = kStackBytes;
    makecontext(&context, entry, 0);  // no uc_link: entry switches out
#if defined(__SANITIZE_THREAD__)
    tsan = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
    if (region == nullptr) return;
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan);
#endif
    munmap(region, kGuardBytes + kStackBytes);
  }

  void* stack() const { return static_cast<char*>(region) + kGuardBytes; }
};

Simulation::Simulation() : scheduler_(std::make_unique<Fiber>()) {}

Simulation::~Simulation() {
  shutdown();
  shutting_down_ = true;
}

void Simulation::shutdown() {
  if (t_in_process) {
    throw Error("Simulation::shutdown() called from inside a process");
  }
  // Index loop: a dying process's destructors may spawn further entries.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Pcb& pcb = *processes_[i];
    if (pcb.finished) continue;
    pcb.kill = true;
    resume(static_cast<ProcessId>(i));
  }
}

bool Simulation::in_process() noexcept { return t_in_process; }

std::string Simulation::current_name() const {
  if (!t_in_process || t_sim != this) return "";
  return processes_.at(t_pid)->name;
}

ProcessId Simulation::current_pid() const {
  assert(t_in_process && t_sim == this);
  return t_pid;
}

bool Simulation::finished(ProcessId pid) const {
  return processes_.at(pid)->finished;
}

std::size_t Simulation::live_processes() const {
  std::size_t live = 0;
  for (const auto& pcb : processes_) {
    if (!pcb->finished) ++live;
  }
  return live;
}

std::vector<std::string> Simulation::live_process_names() const {
  std::vector<std::string> names;
  for (const auto& pcb : processes_) {
    if (!pcb->finished) names.push_back(pcb->name);
  }
  return names;
}

ProcessId Simulation::spawn(std::string name, std::function<void()> body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

ProcessId Simulation::spawn_at(double start_at, std::string name,
                               std::function<void()> body) {
  auto pcb = std::make_unique<Pcb>();
  pcb->name = std::move(name);
  pcb->body = std::move(body);
  auto pid = static_cast<ProcessId>(processes_.size());
  if (shutting_down_) {
    pcb->finished = true;  // too late to run anything
    processes_.push_back(std::move(pcb));
    return pid;
  }
  pcb->fiber = std::make_unique<Fiber>(&Simulation::trampoline);
  events_.push(Event{std::max(start_at, now_), next_seq_++, {}, pid,
                     pcb->wake_gen, true});
  processes_.push_back(std::move(pcb));
  return pid;
}

void Simulation::at(double time, std::function<void()> callback) {
  if (shutting_down_) return;
  events_.push(
      Event{std::max(time, now_), next_seq_++, std::move(callback), 0, 0, false});
}

void Simulation::after(double delay, std::function<void()> callback) {
  at(now_ + delay, std::move(callback));
}

void Simulation::schedule_wake(double time, ProcessId pid) {
  if (shutting_down_) return;
  Pcb& pcb = *processes_.at(pid);
  events_.push(
      Event{std::max(time, now_), next_seq_++, {}, pid, pcb.wake_gen, true});
}

void Simulation::run() { run_until(std::numeric_limits<double>::infinity()); }

void Simulation::run_until(double until) {
  if (t_in_process) {
    throw Error("Simulation::run() called from inside a process");
  }
  while (!events_.empty()) {
    Event ev = events_.top();
    if (ev.time > until) {
      now_ = until;
      return;
    }
    events_.pop();
    now_ = ev.time;
    if (!ev.is_wake) {
      ev.callback();
      continue;
    }
    Pcb& pcb = *processes_.at(ev.pid);
    if (pcb.finished || ev.wake_gen != pcb.wake_gen) {
      continue;  // stale wake (process already resumed via another event)
    }
    resume(ev.pid);
    if (pcb.finished && pcb.error) {
      std::rethrow_exception(std::exchange(pcb.error, nullptr));
    }
  }
  if (until != std::numeric_limits<double>::infinity()) now_ = until;
}

void Simulation::resume(ProcessId pid) {
  Pcb& pcb = *processes_[pid];
  Fiber& fiber = *pcb.fiber;
  ++pcb.wake_gen;  // invalidate any other pending wake events
  t_sim = this;
  t_pid = pid;
  t_in_process = true;
  exchange_eh_globals(fiber.eh);
  fiber.span = obs::trace::exchange_current_span(fiber.span);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&scheduler_->fake_stack, fiber.stack(),
                                 kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  scheduler_->tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(fiber.tsan, 0);
#endif
  swapcontext(&scheduler_->context, &fiber.context);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(scheduler_->fake_stack, nullptr, nullptr);
#endif
  fiber.span = obs::trace::exchange_current_span(fiber.span);
  exchange_eh_globals(fiber.eh);
  t_in_process = false;  // t_sim and t_pid are read only behind this flag
  if (pcb.finished) pcb.fiber.reset();  // stack fully unwound: release it
}

void Simulation::suspend() {
  Fiber& fiber = *processes_[t_pid]->fiber;
#if defined(__SANITIZE_ADDRESS__)
  // A finished process never comes back: let ASan drop its fake stack.
  __sanitizer_start_switch_fiber(
      processes_[t_pid]->finished ? nullptr : &fiber.fake_stack,
      scheduler_->bottom, scheduler_->size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(scheduler_->tsan, 0);
#endif
  swapcontext(&fiber.context, &scheduler_->context);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fiber.fake_stack, &scheduler_->bottom,
                                  &scheduler_->size);
#endif
}

void Simulation::block_current() {
  assert(t_in_process && t_sim == this);
  Pcb& pcb = *processes_.at(t_pid);
  if (pcb.kill) return;  // unwinding after a kill: do not block again
  suspend();
  if (pcb.kill) throw ProcessKilled{};
}

void Simulation::sleep(double seconds) {
  if (!t_in_process || t_sim != this) {
    throw Error("sleep() outside a simulated process");
  }
  if (kill_pending()) return;
  schedule_wake(now_ + seconds, t_pid);
  block_current();
}

void Simulation::yield_now() {
  if (!t_in_process || t_sim != this) {
    throw Error("yield_now() outside a simulated process");
  }
  if (kill_pending()) return;
  schedule_wake(now_, t_pid);
  block_current();
}

void Simulation::kill(ProcessId pid) {
  bool self = t_in_process && t_sim == this && pid == t_pid;
  Pcb& pcb = *processes_.at(pid);
  if (pcb.finished) return;
  // Marked even for a self-kill, so blocking primitives reached during the
  // unwind return immediately instead of re-blocking, and kill_pending()
  // tells teardown code to take the abnormal (no-goodbye) path.
  pcb.kill = true;
  if (!self && !shutting_down_) {
    events_.push(Event{now_, next_seq_++, {}, pid, pcb.wake_gen, true});
  }
  notify_kill_observers(pid);
  if (self) throw ProcessKilled{};  // killing yourself: unwind right here
}

void Simulation::notify_kill_observers(ProcessId pid) {
  // Index loop: observers call back into the simulation (breaking pipes
  // schedules wake events) and may register further observers. Defunct
  // ones (returning false) are compacted afterwards.
  for (std::size_t i = 0; i < kill_observers_.size(); ++i) {
    if (!kill_observers_[i]) continue;
    if (!kill_observers_[i](pid)) kill_observers_[i] = nullptr;
  }
  std::erase_if(kill_observers_,
                [](const std::function<bool(ProcessId)>& observer) {
                  return observer == nullptr;
                });
}

void Simulation::on_kill(std::function<bool(ProcessId)> observer) {
  kill_observers_.push_back(std::move(observer));
}

bool Simulation::kill_matching(const std::string& prefix,
                               const std::string& segment) {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const Pcb& pcb = *processes_[i];
    if (pcb.finished) continue;
    const std::string& name = pcb.name;
    if (name.size() < prefix.size() + segment.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(prefix.size(), segment.size(), segment) != 0) continue;
    std::size_t end = prefix.size() + segment.size();
    if (end != name.size() && name[end] != ':') continue;
    kill(static_cast<ProcessId>(i));
    return true;
  }
  return false;
}

bool Simulation::kill_pending() const noexcept {
  if (!t_in_process || t_sim != this) return false;
  return processes_[t_pid]->kill;
}

void Simulation::watch_exit(ProcessId pid, std::function<void()> callback) {
  if (shutting_down_) return;
  Pcb& pcb = *processes_.at(pid);
  if (pcb.finished) {
    events_.push(Event{now_, next_seq_++, std::move(callback), 0, 0, false});
    return;
  }
  pcb.exit_watchers.push_back(std::move(callback));
}

void Simulation::trampoline() {
  Simulation& sim = *t_sim;
  Pcb& pcb = *sim.processes_[t_pid];
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &sim.scheduler_->bottom,
                                  &sim.scheduler_->size);
#endif
  if (!pcb.kill) {
    try {
      pcb.body();
    } catch (const ProcessKilled&) {
      // normal teardown path
    } catch (...) {
      pcb.error = std::current_exception();
    }
  }
  pcb.finished = true;
  // Exit watchers (supervision) fire as ordinary events at the death
  // timestamp — never during shutdown, when supervisors must not respawn.
  if (!sim.shutting_down_) {
    for (auto& watcher : pcb.exit_watchers) {
      sim.events_.push(
          Event{sim.now_, sim.next_seq_++, std::move(watcher), 0, 0, false});
    }
  }
  pcb.exit_watchers.clear();
  sim.suspend();  // never resumed: resume() releases this stack
}

void Signal::wait() {
  if (!Simulation::in_process() || t_sim != sim_) {
    throw Error("Signal::wait() outside a simulated process");
  }
  ProcessId self = sim_->current_pid();
  if (sim_->kill_pending()) return;
  waiters_.push_back(self);
  sim_->block_current();
  // notify_* removes the pid before scheduling the wake; erase is a no-op on
  // the normal path but cleans up after a kill-driven resume.
  std::erase(waiters_, self);
}

bool Signal::wait_for(double timeout_s) {
  if (!Simulation::in_process() || t_sim != sim_) {
    throw Error("Signal::wait_for() outside a simulated process");
  }
  ProcessId self = sim_->current_pid();
  if (sim_->kill_pending()) return false;
  waiters_.push_back(self);
  sim_->schedule_wake(sim_->now() + timeout_s, self);
  sim_->block_current();
  // notify_* removes us from waiters_ before waking us; if we are still
  // registered, the timeout fired first.
  auto it = std::find(waiters_.begin(), waiters_.end(), self);
  if (it != waiters_.end()) {
    waiters_.erase(it);
    return false;
  }
  return true;
}

void Signal::notify_one() {
  if (waiters_.empty()) return;
  ProcessId pid = waiters_.front();
  waiters_.erase(waiters_.begin());
  sim_->schedule_wake(sim_->now(), pid);
}

void Signal::notify_all() {
  std::vector<ProcessId> pids = std::move(waiters_);
  waiters_.clear();
  for (ProcessId pid : pids) sim_->schedule_wake(sim_->now(), pid);
}

}  // namespace jungle::sim
