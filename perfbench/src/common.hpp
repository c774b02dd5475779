// Shared plumbing for the benchmark's workloads: arguments, clocks,
// sample statistics, the benchmark's own span recorder, deltas of the
// program's public obs metrics, and the result document.
//
// Everything here belongs to the benchmark, not to the program: the span
// recorder deliberately does not use obs::ScopedSpan/SpanCollector, so a
// change to the program's observability layer cannot change the instrument.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "drbac/credential.hpp"
#include "obs/metrics.hpp"
#include "switchboard/channel.hpp"

namespace perfbench {

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span dumps of traced runs
};

// -------------------------------------------------------------------- time

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double us_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns >= start_ns ? static_cast<double>(end_ns - start_ns) / 1000.0
                            : 0.0;
}

// --------------------------------------------------------------- statistics

/// Value at percentile `p` (nearest rank) of `samples`; sorts in place.
double percentile(std::vector<double>& samples, double p);
double median(std::vector<double> samples);

/// The tail percentile the sample supports: `p` when at least ten samples
/// lie beyond it, otherwise the highest percentile that still has ten
/// beyond it (or the median when the sample is smaller than twenty).
double tail_percentile(std::vector<double>& samples, double p);

/// The median over `windows` consecutive slices (samples in time order) of
/// each slice's tail_percentile: a scheduler stall of the shared machine
/// moves one slice's percentile, not the run's.
double windowed_percentile(const std::vector<double>& samples, double p,
                           std::size_t windows = 5);

// ------------------------------------------------------------- process info

/// CPU seconds used so far by the calling thread and by the whole process.
/// CPU time leaves out time a virtualised host stole from the machine, so a
/// rate per CPU second is steady where a rate per wall second is not.
double thread_cpu_s();
double process_cpu_s();

/// Seconds the virtualised host has stolen from this machine's CPUs since
/// boot, summed over CPUs (the `steal` column of /proc/stat); -1 where the
/// kernel does not report it.
double host_steal_s();

/// Peak resident set (VmHWM) and current resident set (VmRSS), in KiB.
std::int64_t peak_rss_kb();
std::int64_t current_rss_kb();

/// The thread budget (at most nproc OS threads) is checked against the
/// largest count seen: workloads sample at every set-up, chunk, phase and
/// round boundary, and main() once more at the end.
void sample_threads();
int peak_threads();

// --------------------------------------------------------------- obs deltas

/// A snapshot of every registered obs metric, for before/after deltas.
class ObsSnapshot {
 public:
  static ObsSnapshot take();

  std::int64_t counter(const std::string& name) const;
  const psf::obs::Histogram::Snapshot* histogram(const std::string& name) const;

  /// `after - before` for one counter.
  static std::int64_t counter_delta(const ObsSnapshot& before,
                                    const ObsSnapshot& after,
                                    const std::string& name);
  /// Sum of the observations made between the two snapshots.
  static std::int64_t hist_sum_delta(const ObsSnapshot& before,
                                     const ObsSnapshot& after,
                                     const std::string& name);
  /// Percentile of only the observations made between the two snapshots.
  static double hist_percentile_delta(const ObsSnapshot& before,
                                      const ObsSnapshot& after,
                                      const std::string& name, double p);
  /// Sum of the deltas of every histogram named prefix*suffix.
  static std::int64_t hist_sum_delta_matching(const ObsSnapshot& before,
                                              const ObsSnapshot& after,
                                              const std::string& prefix,
                                              const std::string& suffix);

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, psf::obs::Histogram::Snapshot> histograms_;
};

// ------------------------------------------------------------- span recorder

/// The benchmark's in-memory span recorder. Each thread appends to its own
/// buffer (no locks on the recording path); buffers are merged when the
/// run ends. Spans of one op share `op`; `parent` names the enclosing span
/// of the same op (empty for the op's root).
struct SpanRecord {
  std::uint64_t op = 0;
  std::uint32_t name = 0;    // index into SpanRecorder::names()
  std::uint32_t parent = 0;  // name index of the parent; kNoParent for roots
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// `capacity_per_thread` bounds memory: spans beyond it are dropped and
  /// counted.
  explicit SpanRecorder(bool enabled, std::size_t capacity_per_thread);

  bool enabled() const { return enabled_; }

  /// Intern a span name (call before recording starts; not thread-safe
  /// against concurrent record()).
  std::uint32_t intern(const std::string& name);

  void record(std::uint64_t op, std::uint32_t name, std::uint32_t parent,
              std::uint64_t start_ns, std::uint64_t end_ns);

  /// Every recorded span, merged across threads.
  std::vector<SpanRecord> collect() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  /// Write the spans as JSON lines to `path`; returns false on I/O error.
  /// Beyond kMaxDumpSpans, whole ops are sampled by a hash of their id, so
  /// the dump stays a few megabytes while every written op keeps all its
  /// spans. Metrics are computed from every span in memory.
  bool write_jsonl(const std::string& path) const;
  static constexpr std::size_t kMaxDumpSpans = 100'000;

  /// Per-op self time of spans named `root`: duration minus the union of
  /// the intervals of its direct children, in microseconds.
  std::vector<double> root_self_us(std::uint32_t root) const;
  /// Durations (us) of every span named `name`.
  std::vector<double> durations_us(std::uint32_t name) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  bool enabled_;
  std::size_t capacity_;
  std::vector<std::string> names_;
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
  const std::uint64_t id_;
};

// ------------------------------------------------------------------- result

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics of the requested
/// kind (end-to-end or per-layer), the op accounting, and the output-check
/// verdict with a reason per failed check.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;   // outputs that were wrong
  std::vector<std::string> invalid_reasons;  // not the default program
  std::vector<std::string> disturbed;  // the machine upset the measurement
  std::map<std::string, std::string> info;   // free-form, for the record

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok && check_failures.size() < 32) check_failures.push_back(what);
  }
};

std::string json_escape(const std::string& s);
std::string to_json(const Result& result, const Options& options);

/// Deterministic per-purpose seed derivation (splitmix64 of seed ^ salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// How a closed-loop run spends its --seconds: a short warm-up (outputs
/// checked, timings discarded), then the measured window. An untraced run
/// measures one window. A traced run alternates untraced and traced chunks,
/// so the tracing overhead compares chunks that saw the same machine.
enum class Chunk { kWarmup, kUntraced, kTraced };

/// A traced run also installs the program's lock-contention profiler, the
/// only source of the psf.lock.*.wait_us histograms; untraced runs measure
/// the program without it.
void install_trace_hooks(const Options& options);

template <typename RunChunk>
void run_schedule(const Options& options, RunChunk run_chunk) {
  constexpr double kWarmupShare = 0.05;
  constexpr int kTraceChunks = 10;
  run_chunk(Chunk::kWarmup, kWarmupShare * options.seconds, 1);
  sample_threads();
  const double measured = (1 - kWarmupShare) * options.seconds;
  if (!options.trace) {
    run_chunk(Chunk::kUntraced, measured, 2);
    sample_threads();
    return;
  }
  for (int c = 0; c < kTraceChunks; ++c) {
    run_chunk(c % 2 ? Chunk::kTraced : Chunk::kUntraced,
              measured / kTraceChunks, 2 + static_cast<std::uint64_t>(c));
    sample_threads();
  }
}

/// A credential from the workload's own material and the entity that
/// signed it.
struct SignedSample {
  psf::drbac::DelegationPtr credential;
  const psf::drbac::Entity* issuer = nullptr;
};

/// Standalone timings of the program's primitives on the workload's own
/// material, taken by every traced run so each workload prints measured
/// values: crypto.verify_us / sign_us / dh_us over `samples` (DH against each
/// issuer's public key); switchboard.session.seal_unseal_min_us / _max_us,
/// SessionCrypto seal + unseal of 16 B and 16 KiB frames under keys derived
/// from `connection`; obs.counter_inc_ns_1t / _par and obs.span_ns_1t / _par,
/// ns per op per thread at 1 thread and at `threads`. Medians of many.
void measure_primitives(Result& result,
                        const std::vector<SignedSample>& samples,
                        const psf::switchboard::Connection& connection,
                        int threads, std::uint64_t seed);

// Workload entry points.
Result run_mail_event(const Options& options);
Result run_cold_connect(const Options& options);
Result run_view_session(const Options& options);

}  // namespace perfbench
