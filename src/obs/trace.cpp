#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  // Captured once at first use; fork() children inherit the static, so
  // worker span timestamps are directly comparable to the coordinator's.
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

void json_escape_into(std::ostringstream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
}

}  // namespace

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - trace_epoch())
                                        .count());
}

std::uint64_t trace_thread_id() noexcept {
  static std::atomic<std::uint64_t> next{0};
  thread_local std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

// The thread-name table is immortal, like TraceBuffer::global()'s buffer:
// the atexit trace export reads it, and a function-local static built
// after global() registered that export would be destroyed before it runs.
std::mutex& thread_names_mutex() {
  static auto* m = new std::mutex;
  return *m;
}

std::vector<std::pair<std::uint64_t, std::string>>& thread_names_storage() {
  static auto* names = new std::vector<std::pair<std::uint64_t, std::string>>;
  return *names;
}

}  // namespace

void set_trace_thread_name(std::string_view name) {
  const std::uint64_t tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(thread_names_mutex());
  auto& names = thread_names_storage();
  for (auto& [id, label] : names) {
    if (id == tid) {
      label = std::string(name);
      return;
    }
  }
  names.emplace_back(tid, std::string(name));
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity), slots_(std::make_unique<Slot[]>(capacity)) {
  RISKAN_REQUIRE(capacity > 0, "trace buffer capacity must be positive");
}

std::uint32_t TraceBuffer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void TraceBuffer::record(std::uint32_t name_id, std::uint32_t lane, std::uint64_t tid,
                         std::uint64_t start_ns, std::uint64_t dur_ns) noexcept {
  if (!active()) {
    return;
  }
  const std::size_t slot_index = head_.fetch_add(1, std::memory_order_relaxed);
  if (slot_index >= capacity_) {
    // Full: drop rather than wrap — a truncated-at-the-end trace is far
    // easier to reason about than one with a silently overwritten prefix.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[slot_index];
  slot.event.name_id = name_id;
  slot.event.lane = lane;
  slot.event.tid = tid;
  slot.event.start_ns = start_ns;
  slot.event.dur_ns = dur_ns;
  slot.ready.store(1, std::memory_order_release);
}

void TraceBuffer::record_collected(const CollectedSpan& span) {
  record(intern(span.name), span.lane, span.tid, span.start_ns, span.dur_ns);
}

std::vector<CollectedSpan> TraceBuffer::collect(std::size_t from_index,
                                                std::size_t* next_index) const {
  const std::size_t end =
      std::min(head_.load(std::memory_order_relaxed), capacity_);
  std::vector<CollectedSpan> out;
  if (from_index < end) {
    out.reserve(end - from_index);
  }
  std::lock_guard<std::mutex> lock(names_mutex_);
  for (std::size_t i = from_index; i < end; ++i) {
    const Slot& slot = slots_[i];
    if (slot.ready.load(std::memory_order_acquire) == 0) {
      continue;  // reserved but not yet finished — skip, don't block
    }
    const TraceEvent& e = slot.event;
    CollectedSpan span;
    span.name = e.name_id < names_.size() ? names_[e.name_id] : "?";
    span.lane = e.lane;
    span.tid = e.tid;
    span.start_ns = e.start_ns;
    span.dur_ns = e.dur_ns;
    span.instant = e.dur_ns == 0;
    out.push_back(std::move(span));
  }
  if (next_index != nullptr) {
    *next_index = end;
  }
  return out;
}

std::size_t TraceBuffer::size() const noexcept {
  return std::min(head_.load(std::memory_order_relaxed), capacity_);
}

void TraceBuffer::reset() {
  const std::size_t used = std::min(head_.load(std::memory_order_relaxed), capacity_);
  for (std::size_t i = 0; i < used; ++i) {
    slots_[i].ready.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer* buffer = [] {
    auto* b = new TraceBuffer();
    if (const char* path = std::getenv("RISKAN_TRACE"); path != nullptr && path[0] != '\0') {
      b->set_active(true);
      static std::string export_path;
      export_path = path;
      std::atexit([] {
        try {
          export_global_trace(export_path);
        } catch (...) {
          // atexit must not throw; a failed trace export is not worth a
          // terminate at shutdown.
        }
      });
    }
    return b;
  }();
  return *buffer;
}

Span::Span(std::uint32_t name_id) noexcept {
  TraceBuffer& buffer = TraceBuffer::global();
  if (!buffer.active()) {
    return;
  }
  name_id_ = name_id;
  start_ns_ = trace_now_ns();
  live_ = true;
}

void Span::stop() noexcept {
  if (!live_) {
    return;
  }
  live_ = false;
  std::uint64_t dur = trace_now_ns() - start_ns_;
  if (dur == 0) {
    dur = 1;  // keep it a complete event, not an instant
  }
  TraceBuffer::global().record(name_id_, /*lane=*/0, trace_thread_id(), start_ns_, dur);
}

void trace_instant(std::uint32_t name_id) noexcept {
  trace_instant(name_id, /*lane=*/0, trace_thread_id());
}

void trace_instant(std::uint32_t name_id, std::uint32_t lane, std::uint64_t tid) noexcept {
  TraceBuffer& buffer = TraceBuffer::global();
  if (!buffer.active()) {
    return;
  }
  buffer.record(name_id, lane, tid, trace_now_ns(), /*dur_ns=*/0);
}

std::uint32_t span_id(std::string_view name) { return TraceBuffer::global().intern(name); }

std::string chrome_trace_json(
    const std::vector<CollectedSpan>& spans,
    const std::vector<std::pair<std::uint64_t, std::string>>& thread_names) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  const auto emit_comma = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };

  // Process-name metadata: pid 0 is the engine process, pid 1+k a worker
  // lane (chrome renders each pid as its own swimlane group).
  std::vector<std::uint32_t> lanes;
  for (const auto& s : spans) {
    bool seen = false;
    for (std::uint32_t lane : lanes) {
      if (lane == s.lane) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      lanes.push_back(s.lane);
    }
  }
  if (lanes.empty()) {
    lanes.push_back(0);
  }
  for (std::uint32_t lane : lanes) {
    emit_comma();
    out << R"({"name":"process_name","ph":"M","pid":)" << lane
        << R"(,"tid":0,"args":{"name":")";
    if (lane == 0) {
      out << "engine";
    } else {
      out << "worker " << (lane - 1);
    }
    out << R"("}})";
  }
  for (const auto& [tid, label] : thread_names) {
    emit_comma();
    out << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << tid
        << R"(,"args":{"name":")";
    json_escape_into(out, label);
    out << R"("}})";
  }

  for (const auto& s : spans) {
    emit_comma();
    // chrome trace ts/dur are microseconds (fractional allowed).
    const double ts_us = static_cast<double>(s.start_ns) / 1000.0;
    out << R"({"name":")";
    json_escape_into(out, s.name);
    out << R"(","pid":)" << s.lane << R"(,"tid":)" << s.tid;
    out.precision(3);
    out << std::fixed;
    if (s.instant) {
      out << R"(,"ph":"i","s":"t","ts":)" << ts_us << "}";
    } else {
      const double dur_us = static_cast<double>(s.dur_ns) / 1000.0;
      out << R"(,"ph":"X","ts":)" << ts_us << R"(,"dur":)" << dur_us << "}";
    }
    out.unsetf(std::ios_base::fixed);
  }
  out << "]\n";
  return out.str();
}

void export_global_trace(const std::string& path) {
  TraceBuffer& buffer = TraceBuffer::global();
  const std::vector<CollectedSpan> spans = buffer.collect();
  std::vector<std::pair<std::uint64_t, std::string>> names;
  {
    std::lock_guard<std::mutex> lock(thread_names_mutex());
    names = thread_names_storage();
  }
  const std::string json = chrome_trace_json(spans, names);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw IoError("cannot open trace output file: " + path);
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    throw IoError("short write exporting trace to: " + path);
  }
}

void start_global_trace() {
  TraceBuffer& buffer = TraceBuffer::global();
  buffer.reset();
  buffer.set_active(true);
}

}  // namespace riskan::obs
