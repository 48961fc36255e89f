// Shared plumbing for the perfbench binary: clocks, order statistics, a
// one-line JSON writer, file helpers, an in-memory span tracer, and the
// report every workload fills in.

#ifndef PERFBENCH_SRC_BENCH_UTIL_H_
#define PERFBENCH_SRC_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, in seconds.
double WallSeconds();
// CPU time of the whole process (all threads), in seconds. Single-threaded
// compute (set-up, summarize passes) is timed on this clock: on the
// reference host the hypervisor takes a vCPU away for up to a fifth of
// wall time in busy phases, which wall time would count and CPU time does
// not.
double ProcessCpuSeconds();
// Peak resident set of this process image so far, in MB (VmHWM).
double PeakRssMb();

// Payload bytes received so far on every TCP socket of this process, as
// the kernel counts them (TCP_INFO tcpi_bytes_received). When both ends of
// a loopback connection live in this process, the delta over an interval
// is every byte sent over those connections in it, framing included.
uint64_t TcpBytesReceived();

// Pins the calling thread to the `round`-th allowed CPU, round robin, and
// returns that CPU's slot (0 when only one CPU is allowed). Cores here
// differ by tens of percent in how much their neighbours slow them, and a
// process stays on whichever core the scheduler picked; rotating makes a
// single-threaded run sample every core equally.
size_t RotateCpu(uint64_t round);
// RotateCpu for every thread of the process at once: the whole process
// runs on the `round`-th allowed CPU. A multi-threaded loop pinned this
// way depends on one vCPU being available, not on several at the same
// moment.
size_t RotateProcessCpu(uint64_t round);
// Number of CPU slots RotateCpu cycles through (at least 1).
size_t CpuSlots();

// The p-th percentile of the samples taken in each CPU slot, averaged over
// the slots. Under rotation the samples are a mixture of per-core levels,
// and a plain percentile of a mixture jumps between them.
double CoreAveraged(const std::vector<double>& values,
                    const std::vector<size_t>& slots, double p);

// Arithmetic mean of `values`; 0 for an empty vector.
double Mean(const std::vector<double>& values);
// Median of `values` (mean of the two middle ones for an even count);
// 0 for an empty vector.
double Median(std::vector<double> values);
// Nearest-rank percentile, `p` in [0, 100]; 0 for an empty vector.
double Percentile(std::vector<double> values, double p);

// Traced runs alternate traced and untraced rounds; this is the relative
// cost of tracing, 100 * (median traced / median untraced - 1).
double OverheadPercent(const std::vector<double>& traced,
                       const std::vector<double>& untraced);

// Whole-file helpers. ReadFile returns false when the file cannot be
// opened.
bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& bytes);
// True when both files open and hold the same bytes. Compares in small
// chunks, so it adds next to nothing to the process's peak RSS.
bool SameFileBytes(const std::string& a, const std::string& b);

// An ordered JSON object, written as one line. Doubles keep every digit
// (%.17g); non-finite doubles are written as null.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, const JsonObject& value);
  JsonObject& Add(const std::string& key, const std::vector<double>& values);
  JsonObject& Add(const std::string& key,
                  const std::vector<std::string>& values);
  std::string str() const;

 private:
  void Key(const std::string& key);
  std::string body_;
};

// In-memory span recorder. Spans nest by call order (the client is one
// thread), so each span's parent is the span open when it began; spans of
// one request (a batch or a summarizer pass) share `request`. Disabled
// tracers record nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;
    double ms() const { return (end_s - start_s) * 1e3; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  // Turns recording on and off between requests (the traced run
  // alternates traced and untraced rounds to measure its own overhead).
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return enabled_ && recording_; }

  // RAII span: records [construction, destruction) under `name`.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int64_t index_ = -1;
  };

  // Records an already-timed span (used where the time is measured
  // anyway, e.g. around the end-to-end batch) and returns its index, or
  // -1 when not recording. `parent` defaults to the open span.
  static constexpr int64_t kOpenParent = -2;
  int64_t Record(const char* name, uint64_t request, double start_s,
                 double end_s, int64_t parent = kOpenParent);

  // Per-request sum of the durations (ms) of spans named `name`.
  std::map<uint64_t, double> SumMsByRequest(const std::string& name) const;

  // Writes every span as a JSON array (one object per line).
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

// What one workload invocation reports back to run.py.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // False when a run-wide check (determinism, brute-force agreement, the
  // identity-summary anchor, ...) fails; per-operation check failures are
  // counted in `failed` instead.
  bool correct = true;
  std::vector<std::string> errors;  // first few failure messages
  JsonObject metrics;               // end-to-end metrics
  JsonObject layers;                // per-layer metrics (traced runs)
  JsonObject info;                  // context: sizes, counts, run facts

  // Records a run-wide check failure.
  void FailCheck(const std::string& message);
  // Records one failed operation.
  void FailOp(const std::string& message);
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_UTIL_H_
