// Benchmark runner binary. perfbench/run.py drives it; each invocation is
// one fresh process doing one unit of work, so peak RSS and allocator
// state never leak between reps or workloads:
//
//   perfbench rep    --workload NAME --seed N [--size full|tiny]
//                    [--spans FILE] [--corrupt-digest]
//   perfbench layers --seed N [--size full|tiny] [--spans FILE]
//
// `rep` runs one workload once and prints one JSON record: host timings
// of its setup and run phases (workloads.cc), every simulated field, and
// the digest of the simulated fields. `layers` times each layer through
// its public API (layers.cc). With --spans, benchmark-side spans are recorded and
// written to FILE as Chrome trace-event JSON when the process exits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

std::uint64_t ProcStatusKiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

Record& Record::Add(const std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return AddRaw(key, buf);
}

Record& Record::Add(const std::string& key, std::uint64_t v) {
  return AddRaw(key, std::to_string(v));
}

Record& Record::AddString(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  return AddRaw(key, quoted + "\"");
}

std::string Record::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  return out + "}";
}

std::string Record::Digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const auto& [k, v] : fields_) {
    mix(k);
    mix(v);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld}}",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                 i, s.parent, static_cast<long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Record MachineInfo() {
  Record r;
  r.Add("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .AddString("compiler", PERFBENCH_COMPILER)
      .AddString("build_type", PERFBENCH_BUILD_TYPE)
      .Add("lto", static_cast<std::uint64_t>(PERFBENCH_LTO));
  return r;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench rep --workload NAME --seed N [--size full|tiny]"
               " [--spans FILE] [--corrupt-digest]\n"
               "       perfbench layers --seed N [--size full|tiny]"
               " [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Options opt;
  std::string spans_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--size" && has_val) {
      const std::string s = argv[++i];
      if (s != "full" && s != "tiny") return Usage();
      opt.size = s == "tiny" ? Size::kTiny : Size::kFull;
    } else if (a == "--spans" && has_val) {
      spans_path = argv[++i];
    } else if (a == "--corrupt-digest") {
      opt.corrupt_digest = true;
    } else {
      return Usage();
    }
  }
  Tracer tracer;
  if (!spans_path.empty()) tracer.Enable();
  opt.tracer = &tracer;

  int rc = 2;
  try {
    if (mode == "rep") {
      rc = RunWorkloadRep(opt);
    } else if (mode == "layers") {
      rc = RunLayerProbes(opt);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!spans_path.empty() && !tracer.WriteChromeTrace(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return rc;
}
