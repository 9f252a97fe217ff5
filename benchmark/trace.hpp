// trace.hpp — spans the benchmark records around its own calls into the
// stack's public API.
//
// Nothing under src/ is instrumented: a span opens before the benchmark
// calls Flow::write, Network::run_for, build_link_dif, ... and closes
// when the call returns. Spans nest through callbacks — a Flow::read
// issued from an on_readable hook runs inside the run_for slice that
// fired it — so a span's self time (its duration minus the child spans
// it covers) isolates the layer below the call. The self time of
// run_for is the stack under the API: EFCP, RMT, links and the
// scheduler. The benchmark's own bookkeeping runs inside "bench.*"
// spans so it is never charged to the stack.
//
// Per-name totals are kept for every span; the first kKeep span records
// are also kept in memory (bounded) and written as JSON lines when the
// run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace rina::bench {

enum class SpanName : std::uint8_t {
  build_link_dif,
  build_overlay_dif,
  register_app,
  unregister_app,
  allocate,
  deallocate,
  converge,
  run_for,
  flow_write,
  flow_read,
  set_link_state,
  cap_trial,
  bench_source,
  bench_sink,
  kCount,
};

inline const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "build_link_dif", "build_overlay_dif", "register_app", "unregister_app",
      "allocate",       "deallocate",        "converge",     "run_for",
      "flow.write",     "flow.read",         "set_link_state", "cap.trial",
      "bench.source",   "bench.sink",
  };
  return kNames[static_cast<int>(n)];
}

class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Record {
    SpanName name;
    std::uint32_t parent;  // index into records, kNoParent when none/dropped
    std::uint32_t flow;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

  static constexpr std::size_t kKeep = 200000;  // span records written out

  Tracer() { records_.reserve(1024); }

  /// Only toggled between calls, never while a span is open.
  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] const Stat& stat(SpanName n) const {
    return stats_[static_cast<int>(n)];
  }

  /// RAII span; a no-op unless the tracer was enabled when it opened.
  class Span {
   public:
    Span(Tracer& t, SpanName name, std::uint32_t flow = 0)
        : t_(t.enabled_ ? &t : nullptr) {
      if (t_ != nullptr) t_->open(name, flow);
    }
    ~Span() {
      if (t_ != nullptr) t_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
  };

  /// Write the kept records, one JSON object per line. False on I/O error.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld", i,
                   span_name(r.name), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      if (r.parent != kNoParent) std::fprintf(f, ",\"parent\":%u", r.parent);
      if (r.flow != 0) std::fprintf(f, ",\"flow\":%u", r.flow);
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    SpanName name;
    std::uint32_t rec;
    std::int64_t start;
    std::int64_t child_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void open(SpanName name, std::uint32_t flow) {
    std::uint32_t rec = kNoParent;
    if (records_.size() < kKeep) {
      rec = static_cast<std::uint32_t>(records_.size());
      std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().rec;
      records_.push_back(Record{name, parent, flow, 0, 0});
    }
    std::int64_t t = now_ns();
    if (rec != kNoParent) records_[rec].start_ns = t;
    stack_.push_back(Frame{name, rec, t, 0});
  }

  void close() {
    std::int64_t t = now_ns();
    Frame f = stack_.back();
    stack_.pop_back();
    std::int64_t dur = t - f.start;
    Stat& s = stats_[static_cast<int>(f.name)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.rec != kNoParent) records_[f.rec].end_ns = t;
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  bool enabled_ = false;
  Stat stats_[static_cast<int>(SpanName::kCount)];
  std::vector<Frame> stack_;
  std::vector<Record> records_;
};

}  // namespace rina::bench
