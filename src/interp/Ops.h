//===- Ops.h - Primitive operations and coercions ----------------*- C++ -*-==//
///
/// \file
/// The semantics of MiniJS primitive operators (the paper's `J ⊙ K` partial
/// functions) and the ECMAScript-style coercions they rely on. Shared by the
/// concrete and instrumented interpreters so the two evaluators cannot
/// disagree on value semantics. Implicit `toString`/`valueOf` conversion of
/// objects is not modeled, matching the paper's implementation (Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef DDA_INTERP_OPS_H
#define DDA_INTERP_OPS_H

#include "ast/AST.h"
#include "interp/Heap.h"
#include "interp/Value.h"

namespace dda {

/// ToBoolean.
bool toBoolean(const Value &V);

/// ToNumber. Objects convert to NaN (no valueOf modeling).
double toNumber(const Value &V);

/// ToString. Needs the heap to render arrays and functions.
std::string toStringValue(const Value &V, const Heap &H);

/// ToString as an interned atom — the property-key fast path. A string value
/// returns its atom with no hashing; integral numbers hit the cached
/// numeric-index atoms; everything else interns the rendered text.
StringId toStringAtom(const Value &V, const Heap &H);

/// The string produced by `typeof`.
std::string typeofString(const Value &V, const Heap &H);

/// `===`.
bool strictEquals(const Value &A, const Value &B);

/// `==` (loose equality, without object-to-primitive coercion).
bool looseEquals(const Value &A, const Value &B);

/// Evaluates an arithmetic/relational/equality binary operator on already
/// evaluated operands. `in` and `instanceof` need heap structure walks and
/// are handled by the interpreters, not here.
Value applyBinaryOp(BinaryOp Op, const Value &A, const Value &B,
                    const Heap &H);

} // namespace dda

#endif // DDA_INTERP_OPS_H
