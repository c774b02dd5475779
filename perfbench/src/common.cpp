#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <time.h>
#include <unistd.h>

#include "crypto/dh.hpp"
#include "crypto/sign.hpp"
#include "obs/contention.hpp"
#include "obs/trace.hpp"
#include "switchboard/reactor.hpp"

namespace perfbench {

// --------------------------------------------------------------- statistics

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  return samples[index];
}

double median(std::vector<double> samples) { return percentile(samples, 50); }

double tail_percentile(std::vector<double>& samples, double p) {
  const double n = static_cast<double>(samples.size());
  if (n < 20) return percentile(samples, 50);
  // Ten samples must lie strictly beyond the reported rank.
  const double supported = 100.0 * (1.0 - 10.0 / n);
  return percentile(samples, std::min(p, supported));
}

double windowed_percentile(const std::vector<double>& samples, double p,
                           std::size_t windows) {
  const std::size_t per = samples.size() / windows;
  if (per < 20) {
    std::vector<double> all = samples;
    return tail_percentile(all, p);
  }
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> slice(
        samples.begin() + static_cast<std::ptrdiff_t>(w * per),
        samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * per));
    tails.push_back(tail_percentile(slice, p));
  }
  return median(tails);
}

// ------------------------------------------------------------- process info

namespace {
std::int64_t status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::string(key).size();
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoll(line.c_str() + key_len, nullptr, 10);
    }
  }
  return -1;
}
}  // namespace

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal, in clock ticks.
  long long ticks[8] = {};
  stat >> cpu;
  for (long long& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") return -1;
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::int64_t peak_rss_kb() { return status_kb("VmHWM:"); }
std::int64_t current_rss_kb() { return status_kb("VmRSS:"); }
namespace {
std::atomic<int> g_peak_threads{0};
}  // namespace

void sample_threads() {
  const int now = static_cast<int>(status_kb("Threads:"));
  int peak = g_peak_threads.load();
  while (now > peak && !g_peak_threads.compare_exchange_weak(peak, now)) {
  }
}
int peak_threads() { return g_peak_threads.load(); }

// --------------------------------------------------------------- obs deltas

ObsSnapshot ObsSnapshot::take() {
  ObsSnapshot snap;
  const auto all = psf::obs::Registry::instance().snapshot();
  for (const auto& entry : all.entries) {
    using Kind = psf::obs::MetricsSnapshot::Entry::Kind;
    if (entry.kind == Kind::kCounter) {
      snap.counters_[entry.name] = entry.value;
    } else if (entry.kind == Kind::kHistogram) {
      snap.histograms_[entry.name] = entry.histogram;
    }
  }
  return snap;
}

std::int64_t ObsSnapshot::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const psf::obs::Histogram::Snapshot* ObsSnapshot::histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::int64_t ObsSnapshot::counter_delta(const ObsSnapshot& before,
                                        const ObsSnapshot& after,
                                        const std::string& name) {
  return after.counter(name) - before.counter(name);
}

std::int64_t ObsSnapshot::hist_sum_delta(const ObsSnapshot& before,
                                         const ObsSnapshot& after,
                                         const std::string& name) {
  const auto* a = after.histogram(name);
  if (a == nullptr) return 0;
  const auto* b = before.histogram(name);
  return a->sum - (b ? b->sum : 0);
}

double ObsSnapshot::hist_percentile_delta(const ObsSnapshot& before,
                                          const ObsSnapshot& after,
                                          const std::string& name, double p) {
  const auto* a = after.histogram(name);
  if (a == nullptr) return 0;
  psf::obs::Histogram::Snapshot delta = *a;
  if (const auto* b = before.histogram(name)) {
    delta.count -= b->count;
    delta.sum -= b->sum;
    for (std::size_t i = 0; i < delta.bucket_counts.size() &&
                            i < b->bucket_counts.size();
         ++i) {
      delta.bucket_counts[i] -= b->bucket_counts[i];
    }
  }
  if (delta.count == 0) return 0;
  return static_cast<double>(delta.percentile(p));
}

std::int64_t ObsSnapshot::hist_sum_delta_matching(const ObsSnapshot& before,
                                                  const ObsSnapshot& after,
                                                  const std::string& prefix,
                                                  const std::string& suffix) {
  std::int64_t total = 0;
  for (const auto& [name, snap] : after.histograms_) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total += hist_sum_delta(before, after, name);
  }
  return total;
}

// ------------------------------------------------------------- span recorder

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};
}

SpanRecorder::SpanRecorder(bool enabled, std::size_t capacity_per_thread)
    : enabled_(enabled),
      capacity_(capacity_per_thread),
      id_(g_next_recorder_id.fetch_add(1)) {}

std::uint32_t SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::Buffer& SpanRecorder::local() {
  struct Cache {
    std::uint64_t recorder = 0;
    Buffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.recorder != id_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(std::min<std::size_t>(capacity_, 1 << 16));
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::move(buffer));
    cache.recorder = id_;
    cache.buffer = buffers_.back().get();
  }
  return *cache.buffer;
}

void SpanRecorder::record(std::uint64_t op, std::uint32_t name,
                          std::uint32_t parent, std::uint64_t start_ns,
                          std::uint64_t end_ns) {
  if (!enabled_) return;
  Buffer& buffer = local();
  if (buffer.spans.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(SpanRecord{op, name, parent, start_ns, end_ns});
}

std::vector<SpanRecord> SpanRecorder::collect() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRecord> spans = collect();
  const std::uint64_t stride = spans.size() / kMaxDumpSpans + 1;
  for (const SpanRecord& s : spans) {
    if (derive_seed(s.op, 1) % stride != 0) continue;
    out << "{\"op\":" << s.op << ",\"name\":\"" << names_[s.name]
        << "\",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : "\"" + names_[s.parent] + "\"")
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> SpanRecorder::root_self_us(std::uint32_t root) const {
  std::vector<SpanRecord> spans = collect();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
            });
  std::vector<double> out;
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    while (j < spans.size() && spans[j].op == spans[i].op) ++j;
    const SpanRecord* root_span = nullptr;
    for (std::size_t k = i; k < j; ++k) {
      if (spans[k].name == root && spans[k].parent == kNoParent) {
        root_span = &spans[k];
      }
    }
    if (root_span != nullptr) {
      // Union of the direct children's intervals, clipped to the root
      // (children are sorted by start).
      std::uint64_t covered = 0;
      std::uint64_t cursor = root_span->start_ns;
      for (std::size_t k = i; k < j; ++k) {
        const SpanRecord& c = spans[k];
        if (c.parent != root) continue;
        const std::uint64_t start = std::max(c.start_ns, cursor);
        const std::uint64_t end = std::min(c.end_ns, root_span->end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      const std::uint64_t total = root_span->end_ns - root_span->start_ns;
      out.push_back(static_cast<double>(total - std::min(total, covered)) /
                    1000.0);
    }
    i = j;
  }
  return out;
}

std::vector<double> SpanRecorder::durations_us(std::uint32_t name) const {
  std::vector<double> out;
  for (const SpanRecord& s : collect()) {
    if (s.name == name) out.push_back(us_between(s.start_ns, s.end_ns));
  }
  return out;
}

// ------------------------------------------------------------------- result

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(items[i]) + "\"";
  }
  return out + "]";
}
}  // namespace

std::string to_json(const Result& result, const Options& options) {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(options.workload) << "\""
     << ",\"seed\":" << options.seed << ",\"trace\":"
     << (options.trace ? "true" : "false")
     << ",\"attempted\":" << result.attempted
     << ",\"failed\":" << result.failed
     << ",\"check_failures\":" << string_list(result.check_failures)
     << ",\"invalid_reasons\":" << string_list(result.invalid_reasons)
     << ",\"disturbed\":" << string_list(result.disturbed)
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"value\":" << number(metric.value)
       << ",\"unit\":\"" << json_escape(metric.unit) << "\"}";
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : result.info) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  os << "}}";
  return os.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void install_trace_hooks(const Options& options) {
  if (options.trace) psf::obs::install_lock_contention_profiler();
}

// --------------------------------------------------- standalone obs timing

namespace {

// ns per op per thread of `body` run `iters` times on each of `threads`
// threads started together; the calling thread is one of them.
template <typename Body>
double per_op_ns(int threads, std::uint64_t iters, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> elapsed(static_cast<std::size_t>(threads), 0.0);
  auto worker = [&](int index) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    const std::uint64_t start = now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) body(i);
    elapsed[static_cast<std::size_t>(index)] =
        static_cast<double>(now_ns() - start) / static_cast<double>(iters);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  while (ready.load() < threads - 1) {
  }
  sample_threads();
  go.store(true, std::memory_order_release);
  worker(0);
  for (auto& t : pool) t.join();
  double total = 0;
  for (double e : elapsed) total += e;
  return total / threads;
}

void measure_obs(Result& result, int threads) {
  psf::obs::Counter& counter = psf::obs::counter("perfbench.obs_probe");
  constexpr int kPasses = 5;
  auto best = [&](int n, std::uint64_t iters, auto body) {
    std::vector<double> passes;
    for (int pass = 0; pass < kPasses; ++pass) {
      passes.push_back(per_op_ns(n, iters, body));
    }
    return median(passes);
  };
  auto inc = [&](std::uint64_t) { counter.inc(); };
  auto span = [](std::uint64_t) {
    psf::obs::ScopedSpan s("perfbench.obs_probe");
  };
  result.set("obs.counter_inc_ns_1t", best(1, 2'000'000, inc), "ns");
  result.set("obs.counter_inc_ns_par", best(threads, 2'000'000, inc), "ns");
  result.set("obs.span_ns_1t", best(1, 100'000, span), "ns");
  result.set("obs.span_ns_par", best(threads, 100'000, span), "ns");
}

double seal_unseal_us(const psf::switchboard::Connection& connection,
                      std::size_t size, Result& result) {
  const auto keys = connection.derive_session_keys(0xfeedULL);
  psf::switchboard::SessionCrypto sender(keys), receiver(keys);
  psf::util::Bytes plain(size, 0x5a), frame, out;
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t0 = now_ns();
    sender.seal_into(0, plain.data(), plain.size(), frame);
    const auto opened = receiver.unseal_into(0, frame.data(), frame.size(), out);
    const std::uint64_t t1 = now_ns();
    result.check(opened.ok() && out == plain,
                 "standalone SessionCrypto round trip changed the frame");
    samples.push_back(us_between(t0, t1));
  }
  return median(samples);
}

void measure_crypto(Result& result, const std::vector<SignedSample>& samples,
                    std::uint64_t seed) {
  constexpr std::size_t kRounds = 32;
  std::vector<double> verify_us, sign_us, dh_us;
  psf::util::Rng rng(derive_seed(seed, 99));
  for (std::size_t i = 0; i < kRounds && !samples.empty(); ++i) {
    const SignedSample& sample = samples[i % samples.size()];
    const psf::drbac::Delegation& credential = *sample.credential;
    const psf::util::Bytes payload = credential.payload();
    std::uint64_t t0 = now_ns();
    const bool valid = psf::crypto::verify(credential.issuer_key, payload,
                                           credential.signature);
    std::uint64_t t1 = now_ns();
    verify_us.push_back(us_between(t0, t1));
    result.check(valid, "standalone verify rejected a credential");
    t0 = now_ns();
    const auto signature = psf::crypto::sign(sample.issuer->keys, payload);
    t1 = now_ns();
    sign_us.push_back(us_between(t0, t1));
    result.check(signature == credential.signature,
                 "standalone sign differs from the credential's signature");
    t0 = now_ns();
    const auto ours = psf::crypto::dh_generate(rng);
    psf::util::Bytes secret;
    const bool agreed = psf::crypto::dh_shared_secret(
        ours, sample.issuer->keys.public_key.encoded, secret);
    t1 = now_ns();
    dh_us.push_back(us_between(t0, t1));
    result.check(agreed, "standalone DH failed on an issuer key");
  }
  result.set("crypto.verify_us", median(verify_us), "us");
  result.set("crypto.sign_us", median(sign_us), "us");
  result.set("crypto.dh_us", median(dh_us), "us");
}

}  // namespace

void measure_primitives(Result& result,
                        const std::vector<SignedSample>& samples,
                        const psf::switchboard::Connection& connection,
                        int threads, std::uint64_t seed) {
  measure_crypto(result, samples, seed);
  result.set("switchboard.session.seal_unseal_min_us",
             seal_unseal_us(connection, 16, result), "us");
  result.set("switchboard.session.seal_unseal_max_us",
             seal_unseal_us(connection, 16 * 1024, result), "us");
  measure_obs(result, threads);
}

}  // namespace perfbench
