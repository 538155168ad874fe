// Result<T>: value-or-Status, the companion of Status for fallible
// operations that produce a value (Arrow's arrow::Result, absl::StatusOr).

#ifndef ECM_UTIL_RESULT_H_
#define ECM_UTIL_RESULT_H_

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/util/status.h"

namespace ecm {

/// Holds either a value of type T or a non-OK Status explaining why the
/// value could not be produced.
///
/// Usage:
/// \code
///   Result<EcmEh> merged = EcmEh::Merge({&a, &b}, eps_sw);
///   if (!merged.ok()) return merged.status();
///   UseSketch(*merged);
/// \endcode
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, like arrow::Result).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Asserts the status is not OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  /// True iff a value is held.
  bool ok() const { return value_.has_value(); }

  /// The error status; Status::OK() when a value is held.
  const Status& status() const { return status_; }

  /// Accesses the held value. Must only be called when ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Moves the value out of the Result. Must only be called when ok().
  T MoveValue() {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Unwraps a Result that is guaranteed to hold a value by construction
/// (e.g. comparing a sketch with itself, which is always compatible).
/// Debug builds assert with `context` when the guarantee is violated;
/// release builds abort instead of dereferencing an empty Result.
template <typename T>
T UnwrapCompatible(Result<T> r, const char* context) {
  assert(r.ok() && context != nullptr);
  if (!r.ok()) {
    std::fprintf(stderr, "UnwrapCompatible(%s): %s\n", context,
                 r.status().ToString().c_str());
    std::abort();
  }
  return r.MoveValue();
}

#define ECM_CONCAT_INNER(a, b) a##b
#define ECM_CONCAT(a, b) ECM_CONCAT_INNER(a, b)

/// Propagates the error of a Result expression, or assigns its value.
/// The temporary is named per line, so one scope may use it repeatedly.
#define ECM_ASSIGN_OR_RETURN(lhs, expr) \
  ECM_ASSIGN_OR_RETURN_IMPL(ECM_CONCAT(_res_, __LINE__), lhs, expr)
#define ECM_ASSIGN_OR_RETURN_IMPL(res, lhs, expr) \
  auto res = (expr);                              \
  if (!res.ok()) return res.status();             \
  lhs = std::move(*res)

}  // namespace ecm

#endif  // ECM_UTIL_RESULT_H_
