//===- Context.cpp --------------------------------------------------------==//

#include "determinacy/Context.h"

#include <algorithm>
#include <cassert>

using namespace dda;

ContextID ContextTable::intern(ContextID Parent, NodeID Site,
                               uint32_t Occurrence, uint32_t Line) {
  Key K{Parent, Site, Occurrence};
  auto It = Interned.find(K);
  if (It != Interned.end())
    return It->second;
  ContextID ID = static_cast<ContextID>(Entries.size());
  Entries.push_back({Parent, Site, Occurrence, Line});
  Interned.emplace(K, ID);
  return ID;
}

const ContextEntry &ContextTable::entry(ContextID ID) const {
  assert(ID < Entries.size() && "invalid context id");
  return Entries[ID];
}

unsigned ContextTable::depth(ContextID ID) const {
  unsigned D = 0;
  while (ID != Root) {
    ID = entry(ID).Parent;
    ++D;
  }
  return D;
}

std::string ContextTable::str(ContextID ID) const {
  if (ID == Root)
    return "\xc2\xb7"; // "·"
  // Collect the chain root-first.
  std::vector<const ContextEntry *> Chain;
  for (ContextID C = ID; C != Root; C = entry(C).Parent)
    Chain.push_back(&entry(C));
  std::reverse(Chain.begin(), Chain.end());
  std::string Out;
  for (size_t I = 0; I < Chain.size(); ++I) {
    if (I)
      Out += "\xe2\x86\x92"; // "→"
    Out += std::to_string(Chain[I]->Line);
    if (Chain[I]->Occurrence != 0) {
      Out += '_';
      Out += std::to_string(Chain[I]->Occurrence);
    }
  }
  return Out;
}

std::vector<ContextID> ContextTable::childrenAt(ContextID Parent,
                                                NodeID Site) const {
  std::vector<ContextID> Result;
  for (ContextID ID = 1; ID < Entries.size(); ++ID)
    if (Entries[ID].Parent == Parent && Entries[ID].Site == Site)
      Result.push_back(ID);
  std::sort(Result.begin(), Result.end(), [this](ContextID A, ContextID B) {
    return Entries[A].Occurrence < Entries[B].Occurrence;
  });
  return Result;
}

std::vector<ContextID> ContextTable::children(ContextID Parent) const {
  std::vector<ContextID> Result;
  for (ContextID ID = 1; ID < Entries.size(); ++ID)
    if (Entries[ID].Parent == Parent)
      Result.push_back(ID);
  return Result;
}
