#include "perfbench/src/bench_util.h"

#include <dirent.h>
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM belongs to this process image. ru_maxrss is not used: Linux
  // carries it across execve, so it would report the launching process's
  // footprint whenever that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t TcpBytesReceived() {
  uint64_t total = 0;
  DIR* fds = opendir("/proc/self/fd");
  if (fds == nullptr) return 0;
  while (const dirent* entry = readdir(fds)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0' || fd == dirfd(fds)) continue;
    int type = 0;
    socklen_t len = sizeof(type);
    if (getsockopt(static_cast<int>(fd), SOL_SOCKET, SO_TYPE, &type, &len) !=
            0 ||
        type != SOCK_STREAM) {
      continue;
    }
    tcp_info info{};
    len = sizeof(info);
    if (getsockopt(static_cast<int>(fd), IPPROTO_TCP, TCP_INFO, &info, &len) !=
            0 ||
        len < offsetof(tcp_info, tcpi_bytes_received) +
                  sizeof(info.tcpi_bytes_received)) {
      continue;  // not TCP, or a kernel without the byte counter
    }
    total += info.tcpi_bytes_received;
  }
  closedir(fds);
  return total;
}

namespace {

// The CPUs this process may run on, read once before any pinning.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

size_t CpuSlots() { return std::max<size_t>(1, AllowedCpus().size()); }

size_t RotateCpu(uint64_t round) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return 0;
  const size_t slot = round % cpus.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot], &one);
  sched_setaffinity(0, sizeof(one), &one);
  return slot;
}

size_t RotateProcessCpu(uint64_t round) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return 0;
  const size_t slot = round % cpus.size();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot], &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return RotateCpu(round);
  while (const dirent* entry = readdir(tasks)) {
    char* end = nullptr;
    const long tid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    sched_setaffinity(static_cast<pid_t>(tid), sizeof(one), &one);
  }
  closedir(tasks);
  return slot;
}

double CoreAveraged(const std::vector<double>& values,
                    const std::vector<size_t>& slots, double p) {
  std::map<size_t, std::vector<double>> by_slot;
  for (size_t i = 0; i < values.size() && i < slots.size(); ++i) {
    by_slot[slots[i]].push_back(values[i]);
  }
  double sum = 0.0;
  for (auto& [slot, samples] : by_slot) sum += Percentile(samples, p);
  return by_slot.empty() ? 0.0 : sum / static_cast<double>(by_slot.size());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double OverheadPercent(const std::vector<double>& traced,
                       const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0.0 ? 100.0 * (Median(traced) / base - 1.0) : 0.0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream in_a(a, std::ios::binary), in_b(b, std::ios::binary);
  if (!in_a || !in_b) return false;
  char buf_a[4096], buf_b[4096];
  while (true) {
    in_a.read(buf_a, sizeof(buf_a));
    in_b.read(buf_b, sizeof(buf_b));
    const std::streamsize n = in_a.gcount();
    if (n != in_b.gcount() || std::memcmp(buf_a, buf_b, n) != 0) return false;
    if (n == 0) return in_a.eof() && in_b.eof();
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string NumberText(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string JsonObject::str() const {
  std::string out = "{";
  out += body_;
  out += '}';
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\": ";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += NumberText(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  Key(key);
  body_ += value.str();
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += NumberText(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key,
                            const std::vector<std::string>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += '"';
    body_ += JsonEscape(values[i]);
    body_ += '"';
  }
  body_ += "]";
  return *this;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.recording()) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  tracer_.spans_.back().start_s = WallSeconds();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<size_t>(index_)].end_s = WallSeconds();
  tracer_.open_.pop_back();
}

int64_t Tracer::Record(const char* name, uint64_t request, double start_s,
                       double end_s, int64_t parent) {
  if (!recording()) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent != kOpenParent ? parent
                : open_.empty()        ? -1
                                       : open_.back();
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<uint64_t, double> Tracer::SumMsByRequest(
    const std::string& name) const {
  std::map<uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out[s.request] += s.ms();
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::string out = "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject o;
    o.Add("id", static_cast<uint64_t>(i))
        .Add("name", s.name)
        .Add("request", s.request)
        .Add("parent", static_cast<int64_t>(s.parent))
        .Add("start_s", s.start_s)
        .Add("end_s", s.end_s);
    out += o.str();
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return WriteFile(path, out);
}

void Report::FailCheck(const std::string& message) {
  correct = false;
  if (errors.size() < 8) errors.push_back(message);
}

void Report::FailOp(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

std::string Report::ToJson() const {
  JsonObject o;
  o.Add("correct", correct)
      .Add("attempted", attempted)
      .Add("failed", failed)
      .Add("metrics", metrics)
      .Add("layers", layers)
      .Add("info", info)
      .Add("errors", errors);
  return o.str();
}

}  // namespace perfbench
