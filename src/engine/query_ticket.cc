#include "engine/query_ticket.h"

#include <utility>

namespace osd {

namespace {

bool IsTerminal(QueryStatus s) {
  return s != QueryStatus::kPending && s != QueryStatus::kRunning;
}

}  // namespace

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kPending: return "PENDING";
    case QueryStatus::kRunning: return "RUNNING";
    case QueryStatus::kOk: return "OK";
    case QueryStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case QueryStatus::kCancelled: return "CANCELLED";
    case QueryStatus::kError: return "ERROR";
    case QueryStatus::kOkDegraded: return "OK_DEGRADED";
    case QueryStatus::kRejected: return "REJECTED";
  }
  return "UNKNOWN";
}

QueryStatus QueryTicket::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

bool QueryTicket::done() const { return IsTerminal(status()); }

QueryStatus QueryTicket::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return IsTerminal(status_); });
  return status_;
}

bool QueryTicket::WaitFor(std::chrono::steady_clock::duration timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] { return IsTerminal(status_); });
}

const NncResult& QueryTicket::result() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_;
}

const std::string& QueryTicket::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

double QueryTicket::latency_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_seconds_;
}

void QueryTicket::MarkRunning() {
  std::lock_guard<std::mutex> lock(mu_);
  if (status_ == QueryStatus::kPending) status_ = QueryStatus::kRunning;
}

void QueryTicket::Finish(QueryStatus status, NncResult result,
                         std::string error, double latency_seconds) {
  std::function<void(const QueryTicket&)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsTerminal(status_)) return;  // first terminal transition wins
    status_ = status;
    result_ = std::move(result);
    error_ = std::move(error);
    latency_seconds_ = latency_seconds;
    hook = std::move(on_finish_);  // winning transition consumes the hook
  }
  cv_.notify_all();
  // Outside the lock: the hook may read any ticket member (all terminal
  // state is published above) and must be free to block or call back into
  // the engine without deadlocking waiters.
  if (hook) hook(*this);
}

}  // namespace osd
