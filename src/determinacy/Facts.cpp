//===- Facts.cpp ----------------------------------------------------------==//

#include "determinacy/Facts.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace dda;

const char *dda::factKindName(FactKind Kind) {
  switch (Kind) {
  case FactKind::Condition:
    return "cond";
  case FactKind::Callee:
    return "callee";
  case FactKind::PropName:
    return "prop";
  case FactKind::EvalArg:
    return "evalarg";
  case FactKind::CallArg:
    return "arg";
  case FactKind::Assign:
    return "assign";
  case FactKind::TripCount:
    return "trip";
  case FactKind::ForInKey:
    return "forinkey";
  case FactKind::Expression:
    return "expr";
  }
  return "?";
}

FactValue FactValue::fromTagged(const TaggedValue &TV, const Heap &H) {
  FactValue F;
  if (TV.D == Det::Indeterminate)
    return F;
  switch (TV.V.Kind) {
  case ValueKind::Undefined:
    F.K = Undefined;
    break;
  case ValueKind::Null:
    F.K = Null;
    break;
  case ValueKind::Boolean:
    F.K = Boolean;
    F.B = TV.V.Bool;
    break;
  case ValueKind::Number:
    F.K = Number;
    F.Num = TV.V.Num;
    break;
  case ValueKind::String:
    F.K = String;
    F.Str = TV.V.Str;
    break;
  case ValueKind::Object: {
    const JSObject &O = H.get(TV.V.Obj);
    if (O.Class == ObjectClass::Function) {
      F.K = Function;
      F.Node = O.Fn->getID();
    } else if (O.Class == ObjectClass::Native) {
      F.K = Native;
      F.NativeID = O.Native;
    } else {
      F.K = Object;
      F.Node = O.AllocSite;
    }
    break;
  }
  }
  return F;
}

bool FactValue::sameAs(const FactValue &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Indeterminate:
  case Undefined:
  case Null:
    return true;
  case Boolean:
    return B == Other.B;
  case Number:
    // NaN facts compare equal to themselves: a point that always produces
    // NaN is determinate.
    if (Num != Num && Other.Num != Other.Num)
      return true;
    return Num == Other.Num;
  case String:
    return Str == Other.Str;
  case Function:
    return Node == Other.Node;
  case Native:
    return NativeID == Other.NativeID;
  case Object:
    // Objects are compared by allocation site; runtime-created objects
    // (site 0) never compare equal across visits.
    return Node != 0 && Node == Other.Node;
  }
  return false;
}

std::string FactValue::str() const {
  switch (K) {
  case Indeterminate:
    return "?";
  case Undefined:
    return "undefined";
  case Null:
    return "null";
  case Boolean:
    return B ? "true" : "false";
  case Number:
    return numberToString(Num);
  case String: {
    std::string Out = "\"";
    Out += escapeString(Interner::global().str(Str));
    Out += '"';
    return Out;
  }
  case Function: {
    std::string Out = "function@";
    Out += std::to_string(Node);
    return Out;
  }
  case Native:
    return std::string("native:") + nativeInfo(NativeID).Name;
  case Object: {
    std::string Out = "object@";
    Out += std::to_string(Node);
    return Out;
  }
  }
  return "?";
}

void FactDB::record(const FactKey &Key, const FactValue &Value) {
  // Single probe: try_emplace finds-or-inserts in one pass (the hottest
  // map operation on the per-step path).
  auto [It, Inserted] = Facts.try_emplace(Key, Value);
  if (!Inserted && !It->second.sameAs(Value))
    It->second = FactValue::indet();
}

const FactValue *FactDB::query(const FactKey &Key) const {
  auto It = Facts.find(Key);
  return It == Facts.end() ? nullptr : &It->second;
}

UniformFacts::UniformFacts(const FactDB &DB) {
  for (const auto &[Key, Val] : DB.all()) {
    const FactValue *Merged = Val.isDeterminate() ? &Val : nullptr;
    auto [It, Inserted] = Index.try_emplace(key(Key.Kind, Key.Node), Merged);
    // Once null, a point stays null; otherwise the last agreeing value wins.
    if (!Inserted && It->second)
      It->second = Merged && It->second->sameAs(Val) ? Merged : nullptr;
  }
}

void FactDB::merge(const FactDB &Other) {
  for (const auto &[Key, Value] : Other.Facts)
    record(Key, Value);
}

size_t FactDB::countDeterminate() const {
  size_t N = 0;
  for (const auto &[Key, Value] : Facts)
    if (Value.isDeterminate())
      ++N;
  return N;
}

size_t FactDB::countOfKind(FactKind Kind) const {
  size_t N = 0;
  for (const auto &[Key, Value] : Facts)
    if (Key.Kind == Kind)
      ++N;
  return N;
}

std::string FactDB::dump(const ContextTable &Contexts) const {
  // Sort for stable output.
  std::vector<const Map::Entry *> Sorted;
  Sorted.reserve(Facts.size());
  for (const auto &Entry : Facts)
    Sorted.push_back(&Entry);
  std::sort(Sorted.begin(), Sorted.end(), [](const auto *A, const auto *B) {
    if (A->first.Node != B->first.Node)
      return A->first.Node < B->first.Node;
    if (A->first.Ctx != B->first.Ctx)
      return A->first.Ctx < B->first.Ctx;
    if (A->first.Kind != B->first.Kind)
      return A->first.Kind < B->first.Kind;
    return A->first.Index < B->first.Index;
  });
  std::string Out;
  for (const auto *Entry : Sorted) {
    Out += '[';
    Out += factKindName(Entry->first.Kind);
    Out += "] node";
    Out += std::to_string(Entry->first.Node);
    if (Entry->first.Kind == FactKind::CallArg) {
      Out += '#';
      Out += std::to_string(Entry->first.Index);
    }
    Out += " @ ";
    Out += Contexts.str(Entry->first.Ctx);
    Out += " = ";
    Out += Entry->second.str();
    Out += '\n';
  }
  return Out;
}
