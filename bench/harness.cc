#include "bench/harness.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

namespace actop {
namespace {

std::string VFormat(const char* fmt, va_list args) {
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  return buf;
}

std::string Number(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

// The header: everything before the scenarios array.
std::string_view Header(const std::string& text) {
  return std::string_view(text).substr(0, text.find("\"scenarios\":"));
}

// Top-level `"key": "<string>"`; empty when absent.
std::string HeaderString(const std::string& text, const std::string& key) {
  const std::string_view header = Header(text);
  const std::string tag = "\"" + key + "\": \"";
  const size_t at = header.find(tag);
  if (at == std::string_view::npos) {
    return "";
  }
  const size_t begin = at + tag.size();
  return std::string(header.substr(begin, header.find('"', begin) - begin));
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::strtoull(line.c_str() + 6, nullptr, 10)) * 1024;
    }
  }
  return 0;
}

bool LookupRef(const std::string& text, const std::string& name, const std::string& key,
               double* value) {
  std::istringstream in(text);
  std::string line;
  const std::string name_tag = "\"name\": \"" + name + "\"";
  const std::string key_tag = "\"" + key + "\": ";
  while (std::getline(in, line)) {
    if (line.find(name_tag) == std::string::npos) {
      continue;
    }
    const size_t at = line.find(key_tag);
    if (at == std::string::npos) {
      return false;
    }
    *value = std::strtod(line.c_str() + at + key_tag.size(), nullptr);
    return true;
  }
  return false;
}

bool LookupHeader(const std::string& text, const std::string& key, double* value) {
  const std::string key_tag = "\"" + key + "\": ";
  const size_t at = Header(text).find(key_tag);
  if (at == std::string_view::npos) {
    return false;
  }
  *value = std::strtod(text.c_str() + at + key_tag.size(), nullptr);
  return true;
}

JsonFields& JsonFields::Num(const std::string& key, const char* fmt, double value) {
  return Raw(key, Number(fmt, value));
}

JsonFields& JsonFields::Raw(const std::string& key, const std::string& value) {
  text_ += ", \"" + key + "\": " + value;
  return *this;
}

BenchHarness::BenchHarness(std::string bench, int argc, char** argv, Flags flags)
    : bench_(std::move(bench)), flags_(std::move(flags)) {
  flags_.DefineString("json", "", "also write the JSON result to this file");
  flags_.DefineString("compare", "", "reference JSON; adds speedup_vs_ref per scenario");
  flags_.DefineBool("gate", false,
                    "exit 1 on a regression beyond --threshold, a scenario missing from "
                    "--compare, or a failed in-binary floor");
  flags_.DefineDouble("threshold", 0.10, "allowed events_per_sec drop vs the reference");
  flags_.DefineDouble("scale", 1.0, "workload size multiplier");
  flags_.Parse(argc, argv);
  json_path_ = flags_.GetString("json");
  compare_path_ = flags_.GetString("compare");
  gate_ = flags_.GetBool("gate");
  threshold_ = flags_.GetDouble("threshold");
  scale_ = flags_.GetDouble("scale");
  if (compare_path_.empty()) {
    return;
  }

  std::ifstream in(compare_path_);
  if (!in) {
    std::fprintf(stderr, "bench_%s: cannot read reference %s\n", bench_.c_str(),
                 compare_path_.c_str());
    std::exit(2);
  }
  std::ostringstream os;
  os << in.rdbuf();
  ref_text_ = os.str();
  // Scenario names of different benches rarely match, so comparing against
  // another bench's result would check nothing and pass.
  const std::string ref_bench = HeaderString(ref_text_, "bench");
  if (ref_bench.empty()) {
    RefuseReference("has no \"bench\" header field; it is not a bench result");
  }
  if (ref_bench != bench_) {
    RefuseReference("was written by bench_%s, not bench_%s", ref_bench.c_str(), bench_.c_str());
  }
}

unsigned BenchHarness::RecordHostThreads() {
  const unsigned threads = std::thread::hardware_concurrency();
  threads_ = threads;
  if (compare_path_.empty()) {
    return threads;
  }
  // Wall-clock results at different host parallelism are not comparable:
  // more cores legitimately raise every parallel point.
  double ref_threads = 0.0;
  if (!LookupHeader(ref_text_, "threads", &ref_threads)) {
    RefuseReference("has no \"threads\" header field; refusing to compare against an "
                    "unknown host parallelism");
  }
  if (static_cast<unsigned>(ref_threads) != threads) {
    RefuseReference("was recorded with threads=%u but this host has %u hardware threads; "
                    "re-record the baseline on this host",
                    static_cast<unsigned>(ref_threads), threads);
  }
  return threads;
}

void BenchHarness::RefuseReference(const char* fmt, ...) const {
  va_list args;
  va_start(args, fmt);
  const std::string message = VFormat(fmt, args);
  va_end(args);
  std::fprintf(stderr, "bench_%s: reference %s %s\n", bench_.c_str(), compare_path_.c_str(),
               message.c_str());
  std::exit(2);
}

std::optional<double> BenchHarness::AddScenario(const std::string& name, double events_per_sec,
                                                const JsonFields& fields) {
  std::optional<double> speedup;
  double ref_eps = 0.0;
  if (!compare_path_.empty()) {
    if (LookupRef(ref_text_, name, "events_per_sec", &ref_eps) && ref_eps > 0.0) {
      speedup = events_per_sec / ref_eps;
      if (*speedup < 1.0 - threshold_) {
        regressions_++;
        std::fprintf(stderr, "PERF REGRESSION: %s %.1f events/s vs ref %.1f (x%.3f < %.3f)\n",
                     name.c_str(), events_per_sec, ref_eps, *speedup, 1.0 - threshold_);
      }
    } else {
      missing_++;
      std::fprintf(stderr, "bench_%s: reference %s has no events_per_sec for %s\n",
                   bench_.c_str(), compare_path_.c_str(), name.c_str());
    }
  }
  std::string line = "    {\"name\": \"" + name + "\"" + fields.str();
  if (speedup) {
    line += JsonFields().Num("speedup_vs_ref", "%.3f", *speedup).str();
  }
  scenarios_.push_back(line + "}");
  return speedup;
}

void BenchHarness::AddField(const std::string& key, const std::string& value) {
  fields_.push_back("\"" + key + "\": " + value);
}

void BenchHarness::AddField(const std::string& key, const char* fmt, double value) {
  AddField(key, Number(fmt, value));
}

void BenchHarness::GateFailure(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  failures_.push_back(VFormat(fmt, args));
  va_end(args);
}

int BenchHarness::Finish() {
  std::ostringstream doc;
  doc << "{\n  \"bench\": \"" << bench_ << "\",\n  \"schema_version\": 1,\n";
#ifdef NDEBUG
  doc << "  \"assertions\": false,\n";
#else
  doc << "  \"assertions\": true,\n";
#endif
  if (threads_) {
    doc << "  \"threads\": " << *threads_ << ",\n";
  }
  doc << "  \"scale\": " << scale_ << ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < scenarios_.size(); i++) {
    doc << scenarios_[i] << (i + 1 < scenarios_.size() ? ",\n" : "\n");
  }
  doc << "  ]";
  for (const std::string& field : fields_) {
    doc << ",\n  " << field;
  }
  doc << "\n}\n";

  const std::string text = doc.str();
  std::fputs(text.c_str(), stdout);
  if (!json_path_.empty()) {
    std::ofstream out(json_path_);
    out << text;
    if (!out) {
      std::fprintf(stderr, "bench_%s: cannot write %s\n", bench_.c_str(), json_path_.c_str());
      return 2;
    }
  }
  if (!gate_) {
    return 0;
  }
  if (regressions_ > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) regressed beyond %.0f%%\n", regressions_,
                 threshold_ * 100.0);
  }
  if (missing_ > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) have no entry in reference %s\n", missing_,
                 compare_path_.c_str());
  }
  for (const std::string& failure : failures_) {
    std::fprintf(stderr, "perf gate: %s\n", failure.c_str());
  }
  return regressions_ + missing_ + static_cast<int>(failures_.size()) > 0 ? 1 : 0;
}

}  // namespace actop
