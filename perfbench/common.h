// Shared plumbing for the benchmark runner: host clocks, process memory,
// flat JSON records, the simulated-field digest, and the span
// recorder used by the traced mode.
//
// Everything here lives on the benchmark side of the API boundary: spans
// wrap calls into the simulator's public interfaces, so the program under
// test is never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident set (VmHWM) or current resident set (VmRSS) of this
// process, in KiB, from /proc/self/status. 0 when unavailable.
std::uint64_t ProcStatusKiB(const char* field);

// SplitMix64 finalizer: derives decorrelated sub-seeds from the one
// command-line seed, so each workload knob gets its own stream.
inline std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Ordered key/value pairs rendered as one flat JSON object. Doubles print
// with %.17g so simulated values survive the round trip exactly.
class Record {
 public:
  Record& Add(const std::string& key, double v);
  Record& Add(const std::string& key, std::uint64_t v);
  Record& Add(const std::string& key, std::int64_t v) {
    return AddRaw(key, std::to_string(v));
  }
  Record& AddString(const std::string& key, const std::string& v);
  Record& AddRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  std::string Json() const;
  // FNV-1a over the rendered fields: two runs agree on the digest iff
  // every field reads identically.
  std::string Digest() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// In-memory span recorder. Disabled (the default) it records nothing and
// costs one branch per span; enabled, spans accumulate in a vector and are
// written once, as Chrome trace-event JSON, by WriteChromeTrace.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;             // index into spans, -1 for a root
    std::int64_t op;        // operation id, -1 when the span is not an op
  };

  void Enable() { enabled_ = true; }

  int Begin(const char* name, std::int64_t op = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowUs(), 0.0, open_, op});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  // Returns false if the file could not be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  int open_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// RAII span: Begin on construction, End on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t op = -1)
      : t_(t), id_(t.Begin(name, op)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// Machine and build description stamped onto every output record.
Record MachineInfo();

// Sizes: "full" is what the benchmark measures; "tiny" is the smoke run,
// which exercises every code path and metric in well under a second each.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  Size size = Size::kFull;
  bool corrupt_digest = false;  // smoke test: perturb one simulated field
  Tracer* tracer = nullptr;
};

// Each returns a process exit code and prints one JSON record to stdout.
int RunWorkloadRep(const Options& opt);
int RunLayerProbes(const Options& opt);

}  // namespace perfbench
