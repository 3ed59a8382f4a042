#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace jungle::obs::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<SpanId> g_next_id{1};

thread_local SpanId t_current = 0;

struct ClockSource {
  const void* owner = nullptr;
  std::function<double()> now;
  std::function<std::string()> process;
};

std::mutex g_clock_mutex;
std::shared_ptr<const ClockSource> g_clock;

std::mutex g_records_mutex;
std::vector<SpanRecord> g_records;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::shared_ptr<const ClockSource> clock_source() {
  std::lock_guard lock(g_clock_mutex);
  return g_clock;
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void bind_clock(const void* owner, std::function<double()> now,
                std::function<std::string()> process) {
  auto source = std::make_shared<ClockSource>();
  source->owner = owner;
  source->now = std::move(now);
  source->process = std::move(process);
  std::lock_guard lock(g_clock_mutex);
  g_clock = std::move(source);
}

void unbind_clock(const void* owner) {
  std::lock_guard lock(g_clock_mutex);
  if (g_clock && g_clock->owner == owner) g_clock.reset();
}

SpanId current_span() noexcept { return t_current; }

SpanId exchange_current_span(SpanId span) noexcept {
  return std::exchange(t_current, span);
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    rec_ = std::move(other.rec_);
    scoped_ = other.scoped_;
    saved_ = other.saved_;
    other.scoped_ = false;
    other.saved_ = 0;
  }
  return *this;
}

SpanId Span::id() const noexcept { return rec_ ? rec_->id : 0; }

void Span::note_remote(SpanId remote) noexcept {
  if (rec_) rec_->remote = remote;
}

void Span::end() {
  if (!rec_) return;
  if (scoped_) t_current = saved_;
  rec_->wall_end_ns = wall_ns();
  if (auto clock = clock_source(); clock && clock->now) {
    rec_->sim_end = clock->now();
  }
  if (rec_->sim_end < rec_->sim_begin) rec_->sim_end = rec_->sim_begin;
  {
    std::lock_guard lock(g_records_mutex);
    g_records.push_back(std::move(*rec_));
  }
  rec_.reset();
}

Span begin(std::string_view name, std::string_view category, SpanId parent,
           bool scoped) {
  Span span;
  span.rec_ = std::make_unique<SpanRecord>();
  span.rec_->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.rec_->parent = parent;
  span.rec_->name.assign(name);
  span.rec_->category.assign(category);
  span.rec_->wall_begin_ns = wall_ns();
  if (auto clock = clock_source(); clock) {
    if (clock->now) span.rec_->sim_begin = clock->now();
    if (clock->process) span.rec_->process = clock->process();
  }
  if (scoped) {
    span.scoped_ = true;
    span.saved_ = t_current;
    t_current = span.rec_->id;
  }
  return span;
}

Span span(std::string_view name, std::string_view category) {
  if (!enabled()) return Span();
  return begin(name, category, t_current, /*scoped=*/true);
}

Span server_span(std::string_view name, std::string_view category,
                 SpanId parent) {
  if (!enabled()) return Span();
  return begin(name, category, parent, /*scoped=*/true);
}

Span async_span(std::string_view name, std::string_view category) {
  if (!enabled()) return Span();
  return begin(name, category, t_current, /*scoped=*/false);
}

std::vector<SpanRecord> snapshot() {
  std::lock_guard lock(g_records_mutex);
  return g_records;
}

std::size_t recorded() noexcept {
  std::lock_guard lock(g_records_mutex);
  return g_records.size();
}

void reset() {
  std::lock_guard lock(g_records_mutex);
  g_records.clear();
}

namespace {

void json_escape(std::ostream& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

/// "host/process" -> host part; names with no '/' (e.g. the experiment
/// script spawned directly on the Simulation) count as their own host.
std::string host_of(const std::string& process) {
  auto slash = process.find('/');
  return slash == std::string::npos ? process : process.substr(0, slash);
}

}  // namespace

std::string chrome_trace_json() {
  std::vector<SpanRecord> records = snapshot();

  // Stable pid/tid assignment in first-appearance order.
  std::unordered_map<std::string, int> pid_of;
  std::unordered_map<std::string, int> tid_of;
  auto pid = [&](const SpanRecord& rec) {
    std::string host = host_of(rec.process);
    auto [it, fresh] = pid_of.try_emplace(host, static_cast<int>(pid_of.size()));
    (void)fresh;
    return it->second;
  };
  auto tid = [&](const SpanRecord& rec) {
    auto [it, fresh] =
        tid_of.try_emplace(rec.process, static_cast<int>(tid_of.size()));
    (void)fresh;
    return it->second;
  };

  std::ostringstream out;
  out.setf(std::ios::fmtflags(0), std::ios::floatfield);
  out.precision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };

  for (const SpanRecord& rec : records) {
    double ts_us = rec.sim_begin * 1e6;
    double dur_us = (rec.sim_end - rec.sim_begin) * 1e6;
    comma();
    out << "{\"ph\":\"X\",\"name\":\"";
    json_escape(out, rec.name);
    out << "\",\"cat\":\"";
    json_escape(out, rec.category.empty() ? std::string("span") : rec.category);
    out << "\",\"pid\":" << pid(rec) << ",\"tid\":" << tid(rec)
        << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us
        << ",\"args\":{\"span\":" << rec.id << ",\"parent\":" << rec.parent
        << ",\"wall_us\":"
        << static_cast<double>(rec.wall_end_ns - rec.wall_begin_ns) / 1e3
        << "}}";
    if (rec.remote != 0) {
      // Flow arrow: client RPC span -> the worker-side span that served it.
      comma();
      out << "{\"ph\":\"s\",\"id\":" << rec.remote
          << ",\"name\":\"rpc\",\"cat\":\"rpc-flow\",\"pid\":" << pid(rec)
          << ",\"tid\":" << tid(rec) << ",\"ts\":" << ts_us << "}";
    }
  }
  for (const SpanRecord& rec : records) {
    // Bind the flow arrow at every span a client pointed at.
    bool targeted = false;
    for (const SpanRecord& other : records) {
      if (other.remote == rec.id) targeted = true;
    }
    if (!targeted) continue;
    comma();
    out << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << rec.id
        << ",\"name\":\"rpc\",\"cat\":\"rpc-flow\",\"pid\":" << pid(rec)
        << ",\"tid\":" << tid(rec) << ",\"ts\":" << rec.sim_begin * 1e6 << "}";
  }

  // Metadata: name the simulated hosts (pids) and processes (tids).
  for (const auto& [host, id] : pid_of) {
    comma();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << id
        << ",\"tid\":0,\"args\":{\"name\":\"";
    json_escape(out, host);
    out << "\"}}";
  }
  for (const auto& [process, id] : tid_of) {
    comma();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
        << pid_of[host_of(process)] << ",\"tid\":" << id
        << ",\"args\":{\"name\":\"";
    json_escape(out, process);
    out << "\"}}";
  }
  out << "]}";
  return out.str();
}

void write_chrome_trace(const std::string& path) {
  std::string json = chrome_trace_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("trace: cannot write " + path);
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

}  // namespace jungle::obs::trace
