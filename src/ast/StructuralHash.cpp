//===- StructuralHash.cpp - Content-addressed AST subtree identity --------===//

#include "ast/StructuralHash.h"

#include "ast/AST.h"

#include <cstring>

using namespace dda;

uint64_t dda::hashBytesFnv(const void *Data, size_t Len, uint64_t Seed) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t dda::mixHash(uint64_t A, uint64_t B) {
  // splitmix64-style finalizer over the concatenation; order-dependent.
  uint64_t H = A + 0x9e3779b97f4a7c15ull + (B ^ (B >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

namespace {

/// Incremental hasher for one node: feeds tag bytes, scalars, strings, and
/// child hashes in a fixed per-kind order so the encoding is prefix-free
/// enough in practice (every child slot is preceded by a present/null tag,
/// every string by its length).
class NodeHasher {
public:
  explicit NodeHasher(NodeKind K) : H(0xcbf29ce484222325ull) {
    u8(static_cast<uint8_t>(K));
  }

  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V) { bytes(&V, sizeof(V)); }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  void f64(double V) { bytes(&V, sizeof(V)); } // bit pattern, NaN-exact
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void child(const Node *N); // present/null tag + recursive hash
  uint64_t done() const { return H ? H : 1; } // reserve 0 for "unmemoized"

private:
  void bytes(const void *Data, size_t Len) { H = hashBytesFnv(Data, Len, H); }
  uint64_t H;
};

uint64_t structuralHashUncached(const Node *N);

void NodeHasher::child(const Node *C) {
  if (!C) {
    u8(0);
    return;
  }
  u8(1);
  u64(subtreeHash(C));
}

uint64_t structuralHashUncached(const Node *N) {
  NodeHasher H(N->getKind());
  switch (N->getKind()) {
  case NodeKind::NumberLiteral:
    H.f64(cast<NumberLiteral>(N)->getValue());
    break;
  case NodeKind::StringLiteral:
    H.str(cast<StringLiteral>(N)->getValue());
    break;
  case NodeKind::BooleanLiteral:
    H.u8(cast<BooleanLiteral>(N)->getValue());
    break;
  case NodeKind::NullLiteral:
  case NodeKind::UndefinedLiteral:
  case NodeKind::This:
  case NodeKind::EmptyStmt:
  case NodeKind::BreakStmt:
  case NodeKind::ContinueStmt:
    break;
  case NodeKind::Identifier:
    H.str(cast<Identifier>(N)->getName());
    break;
  case NodeKind::ArrayLiteral: {
    const auto *A = cast<ArrayLiteral>(N);
    H.u64(A->getElements().size());
    for (const Expr *E : A->getElements())
      H.child(E);
    break;
  }
  case NodeKind::ObjectLiteral: {
    const auto *O = cast<ObjectLiteral>(N);
    H.u64(O->getProperties().size());
    for (const auto &P : O->getProperties()) {
      H.str(P.Key);
      H.child(P.Value);
    }
    break;
  }
  case NodeKind::Function: {
    const auto *F = cast<FunctionExpr>(N);
    H.str(F->getName());
    H.u64(F->getParams().size());
    for (const std::string &P : F->getParams())
      H.str(P);
    H.child(F->getBody());
    break;
  }
  case NodeKind::Member: {
    const auto *M = cast<MemberExpr>(N);
    H.u8(M->isComputed());
    H.child(M->getObject());
    if (M->isComputed())
      H.child(M->getIndex());
    else
      H.str(M->getProperty());
    break;
  }
  case NodeKind::Call: {
    const auto *C = cast<CallExpr>(N);
    H.child(C->getCallee());
    H.u64(C->getArgs().size());
    for (const Expr *A : C->getArgs())
      H.child(A);
    break;
  }
  case NodeKind::New: {
    const auto *C = cast<NewExpr>(N);
    H.child(C->getCallee());
    H.u64(C->getArgs().size());
    for (const Expr *A : C->getArgs())
      H.child(A);
    break;
  }
  case NodeKind::Unary: {
    const auto *U = cast<UnaryExpr>(N);
    H.u8(static_cast<uint8_t>(U->getOp()));
    H.child(U->getOperand());
    break;
  }
  case NodeKind::Update: {
    const auto *U = cast<UpdateExpr>(N);
    H.u8(U->isIncrement());
    H.u8(U->isPrefix());
    H.child(U->getOperand());
    break;
  }
  case NodeKind::Binary: {
    const auto *B = cast<BinaryExpr>(N);
    H.u8(static_cast<uint8_t>(B->getOp()));
    H.child(B->getLHS());
    H.child(B->getRHS());
    break;
  }
  case NodeKind::Logical: {
    const auto *L = cast<LogicalExpr>(N);
    H.u8(L->isAnd());
    H.child(L->getLHS());
    H.child(L->getRHS());
    break;
  }
  case NodeKind::Assign: {
    const auto *A = cast<AssignExpr>(N);
    H.u8(static_cast<uint8_t>(A->getOp()));
    H.child(A->getTarget());
    H.child(A->getValue());
    break;
  }
  case NodeKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(N);
    H.child(C->getCond());
    H.child(C->getThen());
    H.child(C->getElse());
    break;
  }
  case NodeKind::ExpressionStmt:
    H.child(cast<ExpressionStmt>(N)->getExpr());
    break;
  case NodeKind::VarDeclStmt: {
    const auto *V = cast<VarDeclStmt>(N);
    H.u64(V->getDeclarators().size());
    for (const auto &D : V->getDeclarators()) {
      H.str(D.Name);
      H.child(D.Init);
    }
    break;
  }
  case NodeKind::FunctionDeclStmt:
    H.child(cast<FunctionDeclStmt>(N)->getFunction());
    break;
  case NodeKind::BlockStmt: {
    const auto *B = cast<BlockStmt>(N);
    H.u64(B->getBody().size());
    for (const Stmt *S : B->getBody())
      H.child(S);
    break;
  }
  case NodeKind::IfStmt: {
    const auto *I = cast<IfStmt>(N);
    H.child(I->getCond());
    H.child(I->getThen());
    H.child(I->getElse());
    break;
  }
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(N);
    H.child(W->getCond());
    H.child(W->getBody());
    break;
  }
  case NodeKind::DoWhileStmt: {
    const auto *W = cast<DoWhileStmt>(N);
    H.child(W->getCond());
    H.child(W->getBody());
    break;
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(N);
    H.child(F->getInit());
    H.child(F->getCond());
    H.child(F->getUpdate());
    H.child(F->getBody());
    break;
  }
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(N);
    H.str(F->getVar());
    H.u8(F->declaresVar());
    H.child(F->getObject());
    H.child(F->getBody());
    break;
  }
  case NodeKind::ReturnStmt:
    H.child(cast<ReturnStmt>(N)->getArg());
    break;
  case NodeKind::ThrowStmt:
    H.child(cast<ThrowStmt>(N)->getArg());
    break;
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(N);
    H.child(T->getBlock());
    H.str(T->getCatchParam());
    H.child(T->getCatchBlock());
    H.child(T->getFinallyBlock());
    break;
  }
  case NodeKind::SwitchStmt: {
    const auto *S = cast<SwitchStmt>(N);
    H.child(S->getDisc());
    H.u64(S->getClauses().size());
    for (const auto &C : S->getClauses()) {
      H.child(C.Test);
      H.u64(C.Body.size());
      for (const Stmt *B : C.Body)
        H.child(B);
    }
    break;
  }
  }
  return H.done();
}

/// Positional layout hasher: folds (NodeID, line, column) of every node in
/// the subtree, pre-order, with child-slot present/null tags so the shape
/// is encoded too.
uint64_t positionHashRec(const Node *N, uint64_t H);

uint64_t positionChild(const Node *C, uint64_t H) {
  uint8_t Tag = C != nullptr;
  H = hashBytesFnv(&Tag, 1, H);
  return C ? positionHashRec(C, H) : H;
}

} // namespace

uint64_t dda::subtreeHash(const Node *N) {
  if (uint64_t Memo = N->structuralHashMemo())
    return Memo;
  uint64_t H = structuralHashUncached(N);
  N->setStructuralHashMemo(H);
  return H;
}

namespace {

uint64_t positionHashRec(const Node *N, uint64_t H) {
  struct {
    uint32_t ID, Line, Col;
  } P = {N->getID(), N->getLoc().Line, N->getLoc().Column};
  H = hashBytesFnv(&P, sizeof(P), H);
  switch (N->getKind()) {
  case NodeKind::NumberLiteral:
  case NodeKind::StringLiteral:
  case NodeKind::BooleanLiteral:
  case NodeKind::NullLiteral:
  case NodeKind::UndefinedLiteral:
  case NodeKind::Identifier:
  case NodeKind::This:
  case NodeKind::EmptyStmt:
  case NodeKind::BreakStmt:
  case NodeKind::ContinueStmt:
    break;
  case NodeKind::ArrayLiteral:
    for (const Expr *E : cast<ArrayLiteral>(N)->getElements())
      H = positionChild(E, H);
    break;
  case NodeKind::ObjectLiteral:
    for (const auto &P2 : cast<ObjectLiteral>(N)->getProperties())
      H = positionChild(P2.Value, H);
    break;
  case NodeKind::Function:
    H = positionChild(cast<FunctionExpr>(N)->getBody(), H);
    break;
  case NodeKind::Member: {
    const auto *M = cast<MemberExpr>(N);
    H = positionChild(M->getObject(), H);
    if (M->isComputed())
      H = positionChild(M->getIndex(), H);
    break;
  }
  case NodeKind::Call: {
    const auto *C = cast<CallExpr>(N);
    H = positionChild(C->getCallee(), H);
    for (const Expr *A : C->getArgs())
      H = positionChild(A, H);
    break;
  }
  case NodeKind::New: {
    const auto *C = cast<NewExpr>(N);
    H = positionChild(C->getCallee(), H);
    for (const Expr *A : C->getArgs())
      H = positionChild(A, H);
    break;
  }
  case NodeKind::Unary:
    H = positionChild(cast<UnaryExpr>(N)->getOperand(), H);
    break;
  case NodeKind::Update:
    H = positionChild(cast<UpdateExpr>(N)->getOperand(), H);
    break;
  case NodeKind::Binary: {
    const auto *B = cast<BinaryExpr>(N);
    H = positionChild(B->getLHS(), H);
    H = positionChild(B->getRHS(), H);
    break;
  }
  case NodeKind::Logical: {
    const auto *L = cast<LogicalExpr>(N);
    H = positionChild(L->getLHS(), H);
    H = positionChild(L->getRHS(), H);
    break;
  }
  case NodeKind::Assign: {
    const auto *A = cast<AssignExpr>(N);
    H = positionChild(A->getTarget(), H);
    H = positionChild(A->getValue(), H);
    break;
  }
  case NodeKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(N);
    H = positionChild(C->getCond(), H);
    H = positionChild(C->getThen(), H);
    H = positionChild(C->getElse(), H);
    break;
  }
  case NodeKind::ExpressionStmt:
    H = positionChild(cast<ExpressionStmt>(N)->getExpr(), H);
    break;
  case NodeKind::VarDeclStmt:
    for (const auto &D : cast<VarDeclStmt>(N)->getDeclarators())
      H = positionChild(D.Init, H);
    break;
  case NodeKind::FunctionDeclStmt:
    H = positionChild(cast<FunctionDeclStmt>(N)->getFunction(), H);
    break;
  case NodeKind::BlockStmt:
    for (const Stmt *S : cast<BlockStmt>(N)->getBody())
      H = positionChild(S, H);
    break;
  case NodeKind::IfStmt: {
    const auto *I = cast<IfStmt>(N);
    H = positionChild(I->getCond(), H);
    H = positionChild(I->getThen(), H);
    H = positionChild(I->getElse(), H);
    break;
  }
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(N);
    H = positionChild(W->getCond(), H);
    H = positionChild(W->getBody(), H);
    break;
  }
  case NodeKind::DoWhileStmt: {
    const auto *W = cast<DoWhileStmt>(N);
    H = positionChild(W->getCond(), H);
    H = positionChild(W->getBody(), H);
    break;
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(N);
    H = positionChild(F->getInit(), H);
    H = positionChild(F->getCond(), H);
    H = positionChild(F->getUpdate(), H);
    H = positionChild(F->getBody(), H);
    break;
  }
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(N);
    H = positionChild(F->getObject(), H);
    H = positionChild(F->getBody(), H);
    break;
  }
  case NodeKind::ReturnStmt:
    H = positionChild(cast<ReturnStmt>(N)->getArg(), H);
    break;
  case NodeKind::ThrowStmt:
    H = positionChild(cast<ThrowStmt>(N)->getArg(), H);
    break;
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(N);
    H = positionChild(T->getBlock(), H);
    H = positionChild(T->getCatchBlock(), H);
    H = positionChild(T->getFinallyBlock(), H);
    break;
  }
  case NodeKind::SwitchStmt: {
    const auto *S = cast<SwitchStmt>(N);
    H = positionChild(S->getDisc(), H);
    for (const auto &C : S->getClauses()) {
      H = positionChild(C.Test, H);
      for (const Stmt *B : C.Body)
        H = positionChild(B, H);
    }
    break;
  }
  }
  return H;
}

} // namespace

uint64_t dda::subtreePositionHash(const Node *N) {
  return positionHashRec(N, 0xcbf29ce484222325ull);
}

void dda::warmStructuralHashes(const Program &P) {
  for (const Stmt *S : P.Body)
    (void)subtreeHash(S);
}
