// EventLoop / TimerWheel / Poller unit tests (ISSUE 7): readiness dispatch,
// timer-wheel expiry order, cross-thread posting, and poller fallback. These
// run in the ASan/UBSan/TSan matrix — every wait is a bounded poll, never a
// bare sleep assertion, so slow sanitized runs stay green.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "switchboard/event_loop.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

namespace psf::switchboard {
namespace {

using namespace std::chrono_literals;

/// Spin (with short sleeps) until `pred` holds or ~5s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ------------------------------------------------------------------ Poller

TEST(Poller, CreateHonorsAvailability) {
  auto poller = Poller::create(kDefaultPoller);
  ASSERT_NE(poller, nullptr);
  EXPECT_TRUE(poller_available(poller->kind()));
  // poll(2) must exist everywhere: it is the portable floor.
  EXPECT_TRUE(poller_available(PollerKind::kPoll));
  auto fallback = Poller::create(PollerKind::kPoll);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->kind(), PollerKind::kPoll);
}

#ifdef __linux__
TEST(Poller, ReportsReadinessForBothKinds) {
  for (const PollerKind kind : {PollerKind::kEpoll, PollerKind::kPoll}) {
    auto poller = Poller::create(kind);
    ASSERT_NE(poller, nullptr);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(poller->add(fds[0], /*token=*/7, /*want_read=*/true,
                            /*want_write=*/false));
    std::vector<PollerEvent> events;
    EXPECT_EQ(poller->wait(0, events), 0) << "no data yet";

    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    events.clear();
    ASSERT_EQ(poller->wait(1000, events), 1);
    EXPECT_EQ(events[0].token, 7u);
    EXPECT_TRUE(events[0].readable);

    ASSERT_TRUE(poller->del(fds[0]));
    events.clear();
    EXPECT_EQ(poller->wait(0, events), 0) << "deregistered fd still reported";
    ::close(fds[0]);
    ::close(fds[1]);
  }
}
#endif

// -------------------------------------------------------------- TimerWheel

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel(/*tick_ns=*/1'000'000, /*slots=*/256);
  std::vector<int> order;
  const std::uint64_t now = 0;
  // Scheduled out of order; same-deadline ties break by id (schedule order).
  wheel.schedule(now, 30'000'000, [&] { order.push_back(3); });
  wheel.schedule(now, 10'000'000, [&] { order.push_back(1); });
  wheel.schedule(now, 20'000'000, [&] { order.push_back(2); });
  wheel.schedule(now, 10'000'000, [&] { order.push_back(11); });
  EXPECT_EQ(wheel.armed(), 4u);

  EXPECT_EQ(wheel.advance(now + 9'000'000), 0u) << "nothing due yet";
  EXPECT_EQ(wheel.advance(now + 15'000'000), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 11}));
  EXPECT_EQ(wheel.advance(now + 40'000'000), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
  EXPECT_EQ(wheel.armed(), 0u);
  EXPECT_EQ(wheel.fired(), 4u);
}

TEST(TimerWheel, WrapsAroundTheWheel) {
  // Deadlines several laps out must not fire early when their slot passes.
  TimerWheel wheel(/*tick_ns=*/1'000'000, /*slots=*/16);
  int fired = 0;
  wheel.schedule(0, 100'000'000, [&] { ++fired; });  // ~6 laps on 16 slots
  std::uint64_t now = 0;
  for (int i = 0; i < 99; ++i) {
    now += 1'000'000;
    wheel.advance(now);
  }
  EXPECT_EQ(fired, 0) << "fired a lap early";
  wheel.advance(101'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  const auto id = wheel.schedule(0, 5'000'000, [&] { ++fired; });
  wheel.schedule(0, 5'000'000, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id)) << "double cancel";
  EXPECT_FALSE(wheel.cancel(9999)) << "unknown id";
  wheel.advance(10'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, NextDelayTracksNearestDeadline) {
  TimerWheel wheel(/*tick_ns=*/1'000'000);
  EXPECT_FALSE(wheel.next_delay(0).has_value());
  const auto far = wheel.schedule(0, 50'000'000, [] {});
  wheel.schedule(0, 20'000'000, [] {});
  auto delay = wheel.next_delay(0);
  ASSERT_TRUE(delay.has_value());
  EXPECT_LE(*delay, 20'000'000u);
  // A cancelled timer may leave a stale heap entry: the reported delay must
  // never be LATER than a real armed deadline (early wakeups are benign).
  EXPECT_TRUE(wheel.cancel(far));
  wheel.advance(25'000'000);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, RescheduleFromCallbackDoesNotSpin) {
  TimerWheel wheel(/*tick_ns=*/1'000'000);
  int fired = 0;
  std::function<void()> again = [&] {
    ++fired;
    if (fired < 3) wheel.schedule(10'000'000, 0, again);  // due immediately
  };
  wheel.schedule(0, 10'000'000, again);
  // A timer re-armed for the current advance must wait for the next one.
  EXPECT_EQ(wheel.advance(10'000'000), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.advance(11'000'000), 1u);
  EXPECT_EQ(fired, 2);
}

// --------------------------------------------------------------- EventLoop

TEST(EventLoop, RunsPostedTasksInOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    loop.post([&, i] {
      order.push_back(i);  // single consumer: the loop thread
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(eventually([&] { return done.load() == 100; }));
  loop.stop();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_GE(loop.stats().tasks_run, 100u);
}

TEST(EventLoop, RunOnLoopExecutesInlineOnLoopThread) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> inline_ran{false};
  std::atomic<bool> posted_ran{false};
  loop.post([&] {
    // Already on the loop thread: run_on_loop must not self-deadlock.
    loop.run_on_loop([&] { inline_ran.store(true); });
    EXPECT_TRUE(inline_ran.load());
  });
  loop.run_on_loop([&] { posted_ran.store(true); });  // from outside: posts
  ASSERT_TRUE(eventually([&] { return inline_ran.load() && posted_ran.load(); }));
  loop.stop();
}

TEST(EventLoop, StopDrainsPendingTasks) {
  EventLoop loop;
  loop.start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) loop.post([&] { ran.fetch_add(1); });
  loop.stop();
  EXPECT_EQ(ran.load(), 50);
}

TEST(EventLoop, TimersFireAndCancelOnTheLoop) {
  EventLoop loop;
  loop.start();
  std::atomic<int> fired{0};
  loop.run_on_loop([&] {
    loop.schedule(1'000'000, [&] { fired.fetch_add(1); });
    const auto doomed = loop.schedule(2'000'000, [&] { fired.fetch_add(100); });
    loop.cancel_timer(doomed);
  });
  ASSERT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(10ms);  // give the cancelled timer a chance
  EXPECT_EQ(fired.load(), 1);
  loop.stop();
  EXPECT_GE(loop.stats().timers_fired, 1u);
}

TEST(EventLoop, PeriodicTimerReschedulesItself) {
  EventLoop loop;
  loop.start();
  std::atomic<int> beats{0};
  std::function<void()> beat = [&] {
    if (beats.fetch_add(1) + 1 < 5) loop.schedule(1'000'000, beat);
  };
  loop.run_on_loop([&] { loop.schedule(1'000'000, beat); });
  ASSERT_TRUE(eventually([&] { return beats.load() >= 5; }));
  loop.stop();
}

#ifdef __linux__
TEST(EventLoop, DispatchesFdReadiness) {
  for (const PollerKind kind : {PollerKind::kEpoll, PollerKind::kPoll}) {
    EventLoop loop(kind);
    loop.start();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::atomic<int> reads{0};
    loop.run_on_loop([&] {
      ASSERT_TRUE(loop.add_fd(fds[0], true, false,
                              [&](bool readable, bool, bool) {
                                if (!readable) return;
                                char buf[8];
                                ASSERT_GT(::read(fds[0], buf, sizeof buf), 0);
                                reads.fetch_add(1);
                              }));
    });
    ASSERT_EQ(::write(fds[1], "a", 1), 1);
    ASSERT_TRUE(eventually([&] { return reads.load() == 1; }));
    ASSERT_EQ(::write(fds[1], "b", 1), 1);
    ASSERT_TRUE(eventually([&] { return reads.load() == 2; }));
    loop.run_on_loop([&] { loop.del_fd(fds[0]); });
    loop.stop();
    EXPECT_GE(loop.stats().fd_dispatches, 2u);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}
#endif

TEST(EventLoop, StatsCountIterationsAndWakeups) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  ASSERT_TRUE(eventually([&] { return ran.load(); }));
  loop.stop();
  const auto stats = loop.stats();
  EXPECT_GE(stats.iterations, 1u);
  EXPECT_GE(stats.wakeups, 1u);
  EXPECT_GE(stats.tasks_run, 1u);
}

TEST(EventLoop, AnatomyHistogramsRecordIterationPhases) {
  // Iteration anatomy (ISSUE 9): every loop pass times its poll wait; task
  // batches record run time and per-task post->run sojourn (the loop.lag SLO
  // input); fired timers record deadline->fire slip. Process-wide metrics,
  // so assert deltas.
  auto& poll_wait = obs::histogram("psf.loop.poll_wait_us");
  auto& task_run = obs::histogram("psf.loop.task_run_us");
  auto& sojourn = obs::histogram("psf.loop.task_sojourn_us");
  auto& slip = obs::histogram("psf.loop.timer_slip_us");
  const std::uint64_t poll_wait_before = poll_wait.count();
  const std::uint64_t task_run_before = task_run.count();
  const std::uint64_t sojourn_before = sojourn.count();
  const std::uint64_t slip_before = slip.count();

  EventLoop loop;
  loop.start();
  std::atomic<int> tasks{0};
  loop.post([&] { tasks.fetch_add(1); });
  loop.post([&] { tasks.fetch_add(1); });
  std::atomic<bool> fired{false};
  loop.post(
      [&] { loop.schedule(1'000'000, [&] { fired.store(true); }); });
  ASSERT_TRUE(eventually([&] { return tasks.load() == 2 && fired.load(); }));
  loop.stop();

  EXPECT_GT(poll_wait.count(), poll_wait_before);
  EXPECT_GT(task_run.count(), task_run_before);
  // One sojourn observation per task, not per batch.
  EXPECT_GE(sojourn.count(), sojourn_before + 3);
  EXPECT_GE(slip.count(), slip_before + 1);
}

TEST(EventLoop, WorkerIndexedLoopExportsPerWorkerGauges) {
  // A loop given a worker index (Reactor numbers its pool) exports its Stats
  // as psf.loop.<n>.* gauges, refreshed every iteration.
  EventLoop loop;
  loop.set_worker_index(42);
  EXPECT_EQ(loop.worker_index(), 42);
  loop.start();
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  ASSERT_TRUE(eventually([&] { return ran.load(); }));
  loop.stop();

  const auto stats = loop.stats();
  EXPECT_GE(obs::gauge("psf.loop.42.iterations").value(),
            static_cast<std::int64_t>(1));
  EXPECT_EQ(obs::gauge("psf.loop.42.tasks_run").value(),
            static_cast<std::int64_t>(stats.tasks_run));
  EXPECT_GE(obs::gauge("psf.loop.42.wakeups").value(),
            static_cast<std::int64_t>(1));
}

TEST(EventLoop, UnindexedLoopExportsNoPerWorkerGauges) {
  // Ad-hoc loops (worker_index < 0) must not mint gauge families; the name
  // would collide across every unindexed loop in the process.
  EventLoop loop;
  EXPECT_EQ(loop.worker_index(), -1);
  loop.start();
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  ASSERT_TRUE(eventually([&] { return ran.load(); }));
  loop.stop();
  // No "psf.loop.-1.*" family appeared in the registry snapshot.
  const auto snapshot = obs::Registry::instance().snapshot();
  for (const auto& entry : snapshot.entries) {
    EXPECT_EQ(entry.name.find("psf.loop.-1."), std::string::npos)
        << entry.name;
  }
}

TEST(EventLoop, EnvSelectsPoller) {
  // The environment does not select the poller: a loop built without an
  // explicit kind gets the platform default, which must exist.
  EXPECT_TRUE(poller_available(kDefaultPoller));
  EventLoop loop;
  EXPECT_EQ(loop.poller_kind(), kDefaultPoller);
}

}  // namespace
}  // namespace psf::switchboard
