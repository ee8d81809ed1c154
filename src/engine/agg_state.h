// Aggregate accumulator shared by the batch engine and the reference row
// engine (tests/reference), so the two cannot drift on SUM's int/double
// promotion, AVG's divisor, or COUNT(DISTINCT) semantics — the differential
// oracle holds them equal.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "catalog/value.h"
#include "common/status.h"
#include "engine/plan.h"

namespace pse {

/// Accumulator for one aggregate within one group.
struct AggState {
  int64_t count = 0;  ///< rows seen (non-null for arg-based functions)
  int64_t sum_int = 0;
  double sum_double = 0.0;
  bool any_double = false;
  Value min, max;  ///< NULL until first value
  bool has_value = false;
  std::unordered_set<Value, ValueHash, ValueEq> distinct;  ///< COUNT(DISTINCT)
};

/// Folds one non-COUNT(*) argument value into the accumulator (NULL args
/// must be skipped by the caller; COUNT(*) just increments `count`).
inline void AggAccumulate(AggFunc func, const Value& v, AggState* st) {
  ++st->count;
  st->has_value = true;
  if (func == AggFunc::kCountDistinct) {
    st->distinct.insert(v);
    return;
  }
  if (v.type() == TypeId::kDouble) st->any_double = true;
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    if (v.type() == TypeId::kInt64) st->sum_int += v.AsInt();
    st->sum_double += v.AsDouble();
  }
  if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
  if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
}

/// Finalizes one aggregate into its output value.
inline Result<Value> AggFinalize(AggFunc func, const AggState& st) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(st.count);
    case AggFunc::kCountDistinct:
      return Value::Int(static_cast<int64_t>(st.distinct.size()));
    case AggFunc::kSum:
      if (!st.has_value) return Value::Null(TypeId::kDouble);
      if (st.any_double) return Value::Double(st.sum_double);
      return Value::Int(st.sum_int);
    case AggFunc::kAvg:
      return st.has_value ? Value::Double(st.sum_double / static_cast<double>(st.count))
                          : Value::Null(TypeId::kDouble);
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
    case AggFunc::kNone:
      break;
  }
  return Status::Internal("kNone aggregate in plan");
}

}  // namespace pse
