// Lightweight Status / StatusOr value types for fallible APIs.
//
// The communication library and runtime never throw across module
// boundaries; fallible operations return Status (or StatusOr<T>) instead.
// Programmer errors (violated preconditions) use DEAR_CHECK from logging.h.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace dear {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kUnavailable,
  kAborted,
  kNotFound,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code) noexcept;

/// Value-semantic error carrier. Cheap to copy when OK (no allocation).
class Status {
 public:
  Status() noexcept = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status{}; }
  static Status InvalidArgument(std::string msg) {
    return {StatusCode::kInvalidArgument, std::move(msg)};
  }
  static Status FailedPrecondition(std::string msg) {
    return {StatusCode::kFailedPrecondition, std::move(msg)};
  }
  static Status OutOfRange(std::string msg) {
    return {StatusCode::kOutOfRange, std::move(msg)};
  }
  static Status Internal(std::string msg) {
    return {StatusCode::kInternal, std::move(msg)};
  }
  static Status Unavailable(std::string msg) {
    return {StatusCode::kUnavailable, std::move(msg)};
  }
  static Status Aborted(std::string msg) {
    return {StatusCode::kAborted, std::move(msg)};
  }
  static Status NotFound(std::string msg) {
    return {StatusCode::kNotFound, std::move(msg)};
  }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  [[nodiscard]] std::string ToString() const {
    if (ok()) return "OK";
    std::string s{StatusCodeName(code_)};
    s += ": ";
    s += message_;
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_{StatusCode::kOk};
  std::string message_;
};

/// Either a value of T or a non-OK Status. T must be movable.
template <typename T>
class StatusOr {
 public:
  /// Value construction must not touch the heap beyond T itself: the
  /// transport's Recv returns StatusOr<Message> per message, and the
  /// perf-lab row transport.alloc_per_msg bars that path at 0
  /// steady-state allocations.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT implicit
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT implicit

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T&& value() && { return *std::move(value_); }

  [[nodiscard]] T& operator*() & { return *value_; }
  [[nodiscard]] const T& operator*() const& { return *value_; }
  [[nodiscard]] T* operator->() { return &*value_; }
  [[nodiscard]] const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;  // OK unless constructed from a non-OK Status
};

#define DEAR_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::dear::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace dear
