#include "switchboard/event_loop.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <poll.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/log.hpp"

namespace psf::switchboard {

// ------------------------------------------------------------------ pollers

bool poller_available(PollerKind kind) {
#ifdef __linux__
  (void)kind;
  return true;
#else
  return kind == PollerKind::kPoll;
#endif
}

namespace {

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  bool add(int fd, std::uint64_t token, bool want_read,
           bool want_write) override {
    epoll_event ev{};
    ev.events = events_of(want_read, want_write);
    ev.data.u64 = token;
    return epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  bool mod(int fd, std::uint64_t token, bool want_read,
           bool want_write) override {
    epoll_event ev{};
    ev.events = events_of(want_read, want_write);
    ev.data.u64 = token;
    return epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }

  bool del(int fd) override {
    return epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0;
  }

  int wait(int timeout_ms, std::vector<PollerEvent>& out) override {
    epoll_event events[kMaxEvents];
    const int n = epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      PollerEvent e;
      e.token = events[i].data.u64;
      e.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
    return n > 0 ? n : 0;
  }

  PollerKind kind() const override { return PollerKind::kEpoll; }

 private:
  static constexpr int kMaxEvents = 128;
  static std::uint32_t events_of(bool want_read, bool want_write) {
    std::uint32_t ev = 0;
    if (want_read) ev |= EPOLLIN;
    if (want_write) ev |= EPOLLOUT;
    return ev;
  }
  int epfd_;
};
#endif  // __linux__

class PollPoller final : public Poller {
 public:
  bool add(int fd, std::uint64_t token, bool want_read,
           bool want_write) override {
    if (index_.count(fd) != 0) return false;
    index_[fd] = fds_.size();
    fds_.push_back({fd, events_of(want_read, want_write), 0});
    tokens_.push_back(token);
    return true;
  }

  bool mod(int fd, std::uint64_t token, bool want_read,
           bool want_write) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return false;
    fds_[it->second].events = events_of(want_read, want_write);
    tokens_[it->second] = token;
    return true;
  }

  bool del(int fd) override {
    auto it = index_.find(fd);
    if (it == index_.end()) return false;
    const std::size_t i = it->second;
    const std::size_t last = fds_.size() - 1;
    if (i != last) {
      fds_[i] = fds_[last];
      tokens_[i] = tokens_[last];
      index_[fds_[i].fd] = i;
    }
    fds_.pop_back();
    tokens_.pop_back();
    index_.erase(it);
    return true;
  }

  int wait(int timeout_ms, std::vector<PollerEvent>& out) override {
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return 0;
    int appended = 0;
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      const short re = fds_[i].revents;
      if (re == 0) continue;
      PollerEvent e;
      e.token = tokens_[i];
      e.readable = (re & (POLLIN | POLLHUP)) != 0;
      e.writable = (re & POLLOUT) != 0;
      e.error = (re & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
      ++appended;
    }
    return appended;
  }

  PollerKind kind() const override { return PollerKind::kPoll; }

 private:
  static short events_of(bool want_read, bool want_write) {
    short ev = 0;
    if (want_read) ev |= POLLIN;
    if (want_write) ev |= POLLOUT;
    return ev;
  }
  std::vector<pollfd> fds_;
  std::vector<std::uint64_t> tokens_;  // parallel to fds_
  std::map<int, std::size_t> index_;
};

// Loop instrumentation (psf.switchboard.loop.*): process-wide, shared by
// every worker — the per-loop split lives in EventLoop::stats().
struct LoopMetrics {
  obs::Counter& iterations = obs::counter("psf.switchboard.loop.iterations");
  obs::Counter& tasks = obs::counter("psf.switchboard.loop.tasks");
  obs::Counter& timers = obs::counter("psf.switchboard.loop.timers_fired");
  obs::Counter& fd_dispatches =
      obs::counter("psf.switchboard.loop.fd_dispatches");
  static LoopMetrics& get() {
    static LoopMetrics m;
    return m;
  }
};

// Latency anatomy of one loop iteration (ISSUE 9): where wall time goes,
// section by section, across every worker. psf.loop.poll_wait_us is
// observed every iteration (idle loops show their sleep); the work-section
// histograms only when that section did work, so an idle loop does not
// flood them with zeros. Queue sojourn and timer slip are observed at the
// drain/advance sites below.
struct LoopAnatomy {
  obs::Histogram& poll_wait_us = obs::histogram("psf.loop.poll_wait_us");
  obs::Histogram& fd_dispatch_us = obs::histogram("psf.loop.fd_dispatch_us");
  obs::Histogram& task_run_us = obs::histogram("psf.loop.task_run_us");
  obs::Histogram& timer_fire_us = obs::histogram("psf.loop.timer_fire_us");
  static LoopAnatomy& get() {
    static LoopAnatomy m;
    return m;
  }
};

// Per-worker Stats export (psf.loop.<n>.*): resolved once per run() for
// indexed loops, refreshed with relaxed stores each iteration.
struct WorkerGauges {
  obs::Gauge* iterations = nullptr;
  obs::Gauge* wakeups = nullptr;
  obs::Gauge* tasks_run = nullptr;
  obs::Gauge* timers_fired = nullptr;
  obs::Gauge* fd_dispatches = nullptr;

  static WorkerGauges resolve(int worker_index) {
    WorkerGauges g;
    if (worker_index < 0) return g;
    const std::string prefix = "psf.loop." + std::to_string(worker_index);
    g.iterations = &obs::gauge(prefix + ".iterations");
    g.wakeups = &obs::gauge(prefix + ".wakeups");
    g.tasks_run = &obs::gauge(prefix + ".tasks_run");
    g.timers_fired = &obs::gauge(prefix + ".timers_fired");
    g.fd_dispatches = &obs::gauge(prefix + ".fd_dispatches");
    return g;
  }
};

inline std::int64_t ns_to_us(std::uint64_t ns) {
  return static_cast<std::int64_t>(ns / 1000);
}

}  // namespace

std::unique_ptr<Poller> Poller::create(PollerKind kind) {
#ifdef __linux__
  if (kind == PollerKind::kEpoll) return std::make_unique<EpollPoller>();
#endif
  (void)kind;
  return std::make_unique<PollPoller>();
}

// -------------------------------------------------------------- timer wheel

TimerWheel::TimerWheel(std::uint64_t tick_ns, std::size_t slots)
    : tick_ns_(tick_ns == 0 ? 1 : tick_ns),
      slots_(slots == 0 ? 1 : slots) {}

TimerWheel::TimerId TimerWheel::schedule(std::uint64_t now_ns,
                                         std::uint64_t delay_ns,
                                         std::function<void()> fn) {
  const std::uint64_t deadline = now_ns + delay_ns;
  const TimerId id = next_id_++;
  slots_[slot_of(deadline)].push_back({id, deadline, std::move(fn)});
  deadlines_.push(deadline);
  ++armed_;
  if (last_tick_ == 0) last_tick_ = now_ns / tick_ns_;
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  for (auto& slot : slots_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --armed_;
        return true;
      }
    }
  }
  return false;
}

std::size_t TimerWheel::advance(std::uint64_t now_ns) {
  if (armed_ == 0) {
    last_tick_ = now_ns / tick_ns_;
    return 0;
  }
  const std::uint64_t now_tick = now_ns / tick_ns_;
  // Collect everything due across the ticks we passed, then fire in
  // (deadline, id) order so expiry order is deterministic even when several
  // slots come due in one sweep. A full lap means every slot is visited once.
  std::vector<Entry> due;
  const std::uint64_t span =
      std::min<std::uint64_t>(now_tick - last_tick_ + 1, slots_.size());
  for (std::uint64_t t = 0; t < span; ++t) {
    auto& slot = slots_[static_cast<std::size_t>((last_tick_ + t) %
                                                 slots_.size())];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->deadline_ns / tick_ns_ <= now_tick) {
        due.push_back(std::move(*it));
        it = slot.erase(it);
      } else {
        ++it;
      }
    }
  }
  last_tick_ = now_tick;
  if (due.empty()) return 0;
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.deadline_ns != b.deadline_ns ? a.deadline_ns < b.deadline_ns
                                          : a.id < b.id;
  });
  armed_ -= due.size();
  fired_ += due.size();
  // Timer slip (deadline→fire): how late the wheel actually ran each timer.
  // Within-tick early fires clamp to zero — the wheel's contract is tick
  // resolution, so only whole-tick lateness is slip.
  static obs::Histogram& slip_us = obs::histogram("psf.loop.timer_slip_us");
  for (const auto& entry : due) {
    slip_us.observe(now_ns > entry.deadline_ns
                        ? ns_to_us(now_ns - entry.deadline_ns)
                        : 0);
  }
  for (auto& entry : due) entry.fn();
  return due.size();
}

std::optional<std::uint64_t> TimerWheel::next_delay(std::uint64_t now_ns) {
  if (armed_ == 0) {
    // Nothing armed: stale heap entries (cancelled/fired) are worthless.
    while (!deadlines_.empty()) deadlines_.pop();
    return std::nullopt;
  }
  // Drop heap tops already behind the processed tick frontier — their
  // timers fired (or were cancelled) in an earlier advance().
  while (!deadlines_.empty() &&
         deadlines_.top() / tick_ns_ < last_tick_) {
    deadlines_.pop();
  }
  if (deadlines_.empty()) return 0;  // armed timer due this very tick
  const std::uint64_t best = deadlines_.top();
  return best <= now_ns ? 0 : best - now_ns;
}

// --------------------------------------------------------------- event loop

EventLoop::EventLoop(PollerKind kind, std::uint64_t timer_tick_ns)
    : poller_(Poller::create(kind)), wheel_(timer_tick_ns) {
#ifdef __linux__
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  wake_fd_write_ = wake_fd_;
#else
  int pipe_fds[2];
  if (::pipe(pipe_fds) == 0) {
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
    wake_fd_ = pipe_fds[0];
    wake_fd_write_ = pipe_fds[1];
  }
#endif
  if (wake_fd_ >= 0) poller_->add(wake_fd_, /*token=*/0, true, false);
}

EventLoop::~EventLoop() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (wake_fd_write_ >= 0 && wake_fd_write_ != wake_fd_) {
    ::close(wake_fd_write_);
  }
}

std::uint64_t EventLoop::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EventLoop::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

void EventLoop::post(std::function<void()> fn) {
  const std::uint64_t post_ns = now_ns();
  {
    std::lock_guard lock(tasks_mutex_);
    tasks_.push_back({std::move(fn), post_ns});
  }
  wake();
}

void EventLoop::run_on_loop(std::function<void()> fn) {
  if (in_loop_thread()) {
    fn();
  } else {
    post(std::move(fn));
  }
}

void EventLoop::wake() {
  if (wake_fd_write_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter / pipe already guarantees a pending wakeup, so a
  // short or failed write is fine.
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_write_, &one, sizeof(one));
  wakeups_.fetch_add(1, std::memory_order_relaxed);
}

bool EventLoop::add_fd(int fd, bool want_read, bool want_write,
                       FdHandler handler) {
  assert_in_loop();
  const std::uint64_t token = next_token_++;
  if (!poller_->add(fd, token, want_read, want_write)) return false;
  fds_[token] = {fd, std::move(handler)};
  fd_tokens_[fd] = token;
  return true;
}

bool EventLoop::mod_fd(int fd, bool want_read, bool want_write) {
  assert_in_loop();
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return false;
  return poller_->mod(fd, it->second, want_read, want_write);
}

bool EventLoop::del_fd(int fd) {
  assert_in_loop();
  auto it = fd_tokens_.find(fd);
  if (it == fd_tokens_.end()) return false;
  poller_->del(fd);
  fds_.erase(it->second);
  fd_tokens_.erase(it);
  return true;
}

TimerWheel::TimerId EventLoop::schedule(std::uint64_t delay_ns,
                                        std::function<void()> fn) {
  assert_in_loop();
  return wheel_.schedule(now_ns(), delay_ns, std::move(fn));
}

bool EventLoop::cancel_timer(TimerWheel::TimerId id) {
  assert_in_loop();
  return wheel_.cancel(id);
}

std::size_t EventLoop::drain_tasks() {
  std::vector<PostedTask> batch;
  {
    std::lock_guard lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  if (batch.empty()) return 0;
  // Queue sojourn (post→run), one observation per task against the batch's
  // drain time: the signal the loop.lag SLO watches. Batch-granular on the
  // run side — a task is "late" because it waited for the loop, not because
  // an earlier task in the same drain ran first.
  static obs::Histogram& sojourn_us =
      obs::histogram("psf.loop.task_sojourn_us");
  const std::uint64_t run_ns = now_ns();
  for (auto& task : batch) {
    sojourn_us.observe(run_ns > task.post_ns
                           ? ns_to_us(run_ns - task.post_ns)
                           : 0);
    task.fn();
  }
  const auto n = static_cast<std::uint64_t>(batch.size());
  tasks_run_.fetch_add(n, std::memory_order_relaxed);
  LoopMetrics::get().tasks.inc(static_cast<std::int64_t>(n));
  return batch.size();
}

void EventLoop::run() {
  thread_id_.store(std::this_thread::get_id());

  // Make this worker visible to the sampling profiler: its folded stacks
  // root at "loop.<n>" and its samples carry the phase published below.
  char profile_name[24];
  if (worker_index_ >= 0) {
    std::snprintf(profile_name, sizeof(profile_name), "loop.%d",
                  worker_index_);
  } else {
    std::snprintf(profile_name, sizeof(profile_name), "loop");
  }
  obs::profile::register_thread(profile_name);

  LoopAnatomy& anatomy = LoopAnatomy::get();
  const WorkerGauges gauges = WorkerGauges::resolve(worker_index_);

  using obs::profile::LoopPhase;
  std::vector<PollerEvent> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    iterations_.fetch_add(1, std::memory_order_relaxed);
    LoopMetrics::get().iterations.inc();

    // Bound the sleep by the nearest timer deadline (cap 100 ms so a stop()
    // racing the deadline computation is still honored promptly).
    int timeout_ms = 100;
    if (auto delay = wheel_.next_delay(now_ns()); delay.has_value()) {
      timeout_ms = static_cast<int>(
          std::min<std::uint64_t>(*delay / 1'000'000, 100));
    }
    {
      // Tasks posted since the last drain must run now, not after a sleep.
      std::lock_guard lock(tasks_mutex_);
      if (!tasks_.empty()) timeout_ms = 0;
    }

    const std::uint64_t t_poll = now_ns();
    obs::profile::set_thread_phase(LoopPhase::kPollWait);
    events.clear();
    poller_->wait(timeout_ms, events);
    const std::uint64_t t_dispatch = now_ns();
    anatomy.poll_wait_us.observe(ns_to_us(t_dispatch - t_poll));

    obs::profile::set_thread_phase(LoopPhase::kFdDispatch);
    for (const auto& event : events) {
      if (event.token == 0) {
        // Wake fd: swallow the counter; the work is in the task queue.
        std::uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = fds_.find(event.token);
      if (it == fds_.end()) continue;  // unregistered by an earlier handler
      fd_dispatches_.fetch_add(1, std::memory_order_relaxed);
      LoopMetrics::get().fd_dispatches.inc();
      it->second.handler(event.readable, event.writable, event.error);
    }
    const std::uint64_t t_tasks = now_ns();
    if (!events.empty()) {
      anatomy.fd_dispatch_us.observe(ns_to_us(t_tasks - t_dispatch));
    }

    obs::profile::set_thread_phase(LoopPhase::kTaskRun);
    const std::size_t ran = drain_tasks();
    const std::uint64_t t_timers = now_ns();
    if (ran != 0) anatomy.task_run_us.observe(ns_to_us(t_timers - t_tasks));

    obs::profile::set_thread_phase(LoopPhase::kTimerFire);
    const std::size_t fired = wheel_.advance(t_timers);
    if (fired != 0) {
      timers_fired_.fetch_add(fired, std::memory_order_relaxed);
      LoopMetrics::get().timers.inc(static_cast<std::int64_t>(fired));
      anatomy.timer_fire_us.observe(ns_to_us(now_ns() - t_timers));
    }
    obs::profile::set_thread_phase(LoopPhase::kNone);

    if (gauges.iterations != nullptr) {
      gauges.iterations->set(static_cast<std::int64_t>(
          iterations_.load(std::memory_order_relaxed)));
      gauges.wakeups->set(static_cast<std::int64_t>(
          wakeups_.load(std::memory_order_relaxed)));
      gauges.tasks_run->set(static_cast<std::int64_t>(
          tasks_run_.load(std::memory_order_relaxed)));
      gauges.timers_fired->set(static_cast<std::int64_t>(
          timers_fired_.load(std::memory_order_relaxed)));
      gauges.fd_dispatches->set(static_cast<std::int64_t>(
          fd_dispatches_.load(std::memory_order_relaxed)));
    }
  }
  // Final drain so stop() never strands a posted task.
  drain_tasks();
  if (gauges.tasks_run != nullptr) {
    gauges.tasks_run->set(static_cast<std::int64_t>(
        tasks_run_.load(std::memory_order_relaxed)));
  }
  obs::profile::set_thread_phase(LoopPhase::kNone);
  obs::profile::unregister_thread();
  thread_id_.store(std::thread::id());
}

EventLoop::Stats EventLoop::stats() const {
  Stats s;
  s.iterations = iterations_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.fd_dispatches = fd_dispatches_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace psf::switchboard
