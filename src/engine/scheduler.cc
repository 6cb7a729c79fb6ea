#include "engine/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/session_store.h"
#include "util/macros.h"

namespace mpn {

Scheduler::Scheduler(ThreadPool* pool, SessionTable* table)
    : pool_(pool), table_(table) {
  MPN_ASSERT(pool_ != nullptr && table_ != nullptr);
}

void Scheduler::Start() {
  MPN_ASSERT_MSG(!started(), "Scheduler::Start called twice");
  started_.store(true, std::memory_order_release);
  table_->ForEachOrdered([this](SessionRecord* r) {
    std::lock_guard<std::mutex> lock(r->mu);
    ScheduleNextLocked(r);
  });
}

void Scheduler::Admit(SessionRecord* r) {
  if (!started()) return;  // Start() schedules pre-start admissions
  std::lock_guard<std::mutex> lock(r->mu);
  ScheduleNextLocked(r);
}

void Scheduler::WaitIdle(bool ignore_holds) {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this, ignore_holds]() {
    return outstanding_ == 0 && (ignore_holds || holds_ == 0);
  });
}

void Scheduler::Hold() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  ++holds_;
}

void Scheduler::Release() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  MPN_ASSERT(holds_ > 0);
  if (--holds_ == 0 && outstanding_ == 0) idle_cv_.notify_all();
}

void Scheduler::FailLocked(SessionRecord* r, std::exception_ptr error) {
  if (r->failed) return;  // one entry per session
  r->failed = true;
  std::lock_guard<std::mutex> lock(stats_mu_);
  failed_ids_.push_back(r->id);
  if (!first_error_) first_error_ = error;
}

void Scheduler::RethrowFailure() const {
  std::vector<uint32_t> ids;
  std::exception_ptr first;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ids = failed_ids_;
    first = first_error_;
  }
  if (ids.empty()) return;
  std::sort(ids.begin(), ids.end());
  std::string msg = "engine: " + std::to_string(ids.size()) +
                    " session(s) failed (ids";
  constexpr size_t kListed = 16;
  for (size_t i = 0; i < ids.size() && i < kListed; ++i) {
    msg += " " + std::to_string(ids[i]);
  }
  if (ids.size() > kListed) msg += " ...";
  msg += "): ";
  try {
    std::rethrow_exception(first);
  } catch (const std::exception& e) {
    msg += e.what();
  } catch (...) {
    msg += "non-standard exception";
  }
  throw std::runtime_error(msg);
}

std::vector<Scheduler::Slot> Scheduler::SnapshotSlots() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return slots_;
}

void Scheduler::AddOutstanding() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  ++outstanding_;
}

void Scheduler::SubOutstanding() {
  std::lock_guard<std::mutex> lock(idle_mu_);
  MPN_ASSERT(outstanding_ > 0);
  if (--outstanding_ == 0 && holds_ == 0) idle_cv_.notify_all();
}

void Scheduler::ScheduleEventLocked(SessionRecord* r, uint64_t priority) {
  r->event_queued = true;
  AddOutstanding();
  pool_->Post([this, r]() { RunEvent(r); }, priority);
}

void Scheduler::ScheduleNextLocked(SessionRecord* r) {
  if (!started()) return;
  if (r->failed || r->finalized || r->event_queued || r->event_running) {
    return;
  }
  if (r->spilled) {
    // A spilled session is idle by construction (no job in flight, no
    // pending result, not done — spill eligibility): arm its next tick
    // from the cached clock without rehydrating; RunEvent rehydrates.
    ScheduleEventLocked(r, EventPriority(r->cached_next_t, r->id));
    return;
  }
  GroupSession* s = r->session.get();
  if (r->result_ready) {
    // Install + replay, at the violating timestamp's priority: a lagging
    // session's catch-up beats other sessions' future ticks.
    ScheduleEventLocked(r, EventPriority(r->outcome.t, r->id));
    return;
  }
  if (r->job_running) {
    // Recompute in flight: keep draining location updates into the
    // mailbox while it has room; otherwise the job's completion callback
    // re-arms the session.
    if (s->CanBuffer()) {
      ScheduleEventLocked(r, EventPriority(s->next_timestamp(), r->id));
    }
    return;
  }
  if (!s->done()) {
    ScheduleEventLocked(r, EventPriority(s->next_timestamp(), r->id));
    return;
  }
  FinalizeLocked(r);
}

void Scheduler::FinalizeLocked(SessionRecord* r) {
  MPN_ASSERT(!r->job_running && !r->result_ready && !r->finalized);
  GroupSession* s = r->session.get();
  s->Finish();
  r->finalized = true;
  const size_t n = s->next_timestamp();  // timestamps actually advanced
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (slots_.size() < n) slots_.resize(n);
    for (size_t t = 0; t < n; ++t) {
      slots_[t].messages += s->messages_at()[t];
      slots_[t].recomputes += s->violated_at()[t];
      slots_[t].seconds += s->work_seconds_at()[t];
      ++slots_[t].sessions;
    }
  }
  // Compact: the state machine collapses to its SessionFinalResult.
  if (store_ != nullptr) store_->CompactFinalizedLocked(r);
}

void Scheduler::RunEvent(SessionRecord* r) {
  events_processed_.fetch_add(1, std::memory_order_relaxed);
  bool ran = false;
  try {
    ran = RunSteps(r);
  } catch (...) {
    std::lock_guard<std::mutex> lock(r->mu);
    r->event_running = false;
    FailLocked(r, std::current_exception());
  }
  // Re-account the (grown) session and spill whatever the budget no
  // longer covers. After the flags settle, outside every lock. The
  // session's next event may already be running, so a failure here only
  // marks the session; that event's own flags are left alone.
  if (ran && store_ != nullptr) {
    try {
      store_->OnEventDone(r);
    } catch (...) {
      std::lock_guard<std::mutex> lock(r->mu);
      FailLocked(r, std::current_exception());
    }
  }
  SubOutstanding();
}

bool Scheduler::RunSteps(SessionRecord* r) {
  bool do_install = false;
  bool awaiting = false;
  GroupSession::RecomputeOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->event_queued = false;
    if (r->failed) return false;
    r->event_running = true;
    // The event may belong to a spilled session — bring it back first.
    if (store_ != nullptr) store_->EnsureResidentLocked(r);
    if (r->result_ready) {
      do_install = true;
      outcome = std::move(r->outcome);
      r->result_ready = false;
    } else {
      awaiting = r->job_running;
    }
  }
  GroupSession* s = r->session.get();
  // Crash injection (see set_crash_at_timestamp): die without unwinding —
  // the kernel closes the IPC pipe, which is exactly the failure signal a
  // real worker crash produces. next_timestamp() only grows and is capped
  // by the (finite) horizon, so the SIZE_MAX default can never trigger.
  if (s->next_timestamp() >= crash_at_timestamp_ && !s->AdvancesExhausted()) {
    std::_Exit(134);
  }

  bool post_job = false;
  GroupSession::Snapshot snap;
  if (do_install) {
    s->InstallResult(std::move(outcome));
    GroupSession::Replay rr;
    do {
      rr = s->ReplayOne(&snap);
    } while (rr == GroupSession::Replay::kClean);
    post_job = rr == GroupSession::Replay::kViolation;
    // A clean replay leaves the session on the fast path: its next tick
    // would be queued at (next_t, id), so it competes for the turn.
    if (!post_job && KeepsTurn(*s, r->id)) {
      post_job = AdvanceWhileFirst(r, s, &snap);
    }
  } else if (awaiting) {
    BufferWhileFirst(r, s);
  } else {
    post_job = AdvanceWhileFirst(r, s, &snap);
  }

  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->PublishLocked();  // while this event still owns the session
    r->event_running = false;
    if (post_job) r->job_running = true;
    ScheduleNextLocked(r);
  }
  if (post_job) PostJob(r, std::move(snap));
  return true;
}

bool Scheduler::AdvanceWhileFirst(SessionRecord* r, GroupSession* s,
                                  GroupSession::Snapshot* snap) {
  // Retirement is atomic and may truncate the horizon mid-batch, so
  // AdvancesExhausted is re-read before every tick.
  while (!s->AdvancesExhausted()) {
    if (s->AdvanceAndCheck(snap)) return true;
    if (!KeepsTurn(*s, r->id)) return false;
  }
  return false;
}

void Scheduler::BufferWhileFirst(SessionRecord* r, GroupSession* s) {
  // CanBuffer is checked before the first tick too: room may have vanished
  // if a retirement truncated the horizon while the event waited.
  while (s->CanBuffer()) {
    s->BufferAdvance();
    if (!KeepsTurn(*s, r->id)) return;
    // The landed result's install would be queued below every tick.
    std::lock_guard<std::mutex> lock(r->mu);
    if (r->result_ready) return;
  }
}

void Scheduler::PostJob(SessionRecord* r, GroupSession::Snapshot snap) {
  AddOutstanding();
  const uint64_t priority = EventPriority(snap.t, r->id);
  // shared_ptr because std::function requires copyable callables.
  auto shared = std::make_shared<GroupSession::Snapshot>(std::move(snap));
  pool_->Post(
      [this, r, shared]() {
        try {
          GroupSession::RecomputeOutcome outcome =
              r->session->Recompute(*shared);
          std::lock_guard<std::mutex> lock(r->mu);
          r->outcome = std::move(outcome);
        } catch (...) {
          std::lock_guard<std::mutex> lock(r->mu);
          FailLocked(r, std::current_exception());
        }
      },
      priority,
      /*on_complete=*/[this, r]() { OnJobDone(r); });
}

void Scheduler::OnJobDone(SessionRecord* r) {
  {
    std::lock_guard<std::mutex> lock(r->mu);
    r->job_running = false;
    r->result_ready = !r->failed;
    ScheduleNextLocked(r);
  }
  SubOutstanding();
}

}  // namespace mpn
