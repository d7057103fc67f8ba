//===- AST.h - MiniJS abstract syntax tree -----------------------*- C++ -*-==//
///
/// \file
/// AST node hierarchy for MiniJS. Nodes use LLVM-style kind tags (no RTTI)
/// and are owned by an ASTContext arena; child links are raw non-owning
/// pointers. Every node carries a stable NodeID which serves as the *program
/// point* identifier used by the determinacy analysis (the paper qualifies
/// facts by program point plus calling context), and a SourceRange so that
/// facts can be printed with line numbers as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_AST_AST_H
#define DDA_AST_AST_H

#include "support/Interner.h"
#include "support/SourceLocation.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace dda {

class Stmt;
class Expr;
class FunctionExpr;

/// Stable identifier of an AST node; doubles as the program-point id.
using NodeID = uint32_t;

/// Discriminator for the node hierarchy.
enum class NodeKind : uint8_t {
  // Expressions.
  NumberLiteral,
  StringLiteral,
  BooleanLiteral,
  NullLiteral,
  UndefinedLiteral,
  Identifier,
  This,
  ArrayLiteral,
  ObjectLiteral,
  Function,
  Member,
  Call,
  New,
  Unary,
  Update,
  Binary,
  Logical,
  Assign,
  Conditional,
  // Statements.
  ExpressionStmt,
  VarDeclStmt,
  FunctionDeclStmt,
  BlockStmt,
  IfStmt,
  WhileStmt,
  DoWhileStmt,
  ForStmt,
  ForInStmt,
  ReturnStmt,
  BreakStmt,
  ContinueStmt,
  ThrowStmt,
  TryStmt,
  EmptyStmt,
  SwitchStmt,
};

/// Returns the mnemonic name of a node kind ("Call", "IfStmt", ...).
const char *nodeKindName(NodeKind Kind);

/// Common base of expressions and statements.
class Node {
public:
  NodeKind getKind() const { return Kind; }
  NodeID getID() const { return ID; }
  SourceRange getRange() const { return Range; }
  SourceLoc getLoc() const { return Range.Begin; }
  uint32_t getLine() const { return Range.Begin.Line; }

  void setRange(SourceRange R) { Range = R; }

  /// Memoized structural Merkle hash (see ast/StructuralHash.h); 0 means
  /// "not yet computed" — subtreeHash() fills it lazily. The hash covers
  /// kinds, atoms, literals, and children only — never NodeIDs or source
  /// positions — so byte-identical subtrees at different positions (or in
  /// different programs) hash equal. Mutable because hashing is a pure
  /// derived attribute over an otherwise-immutable tree.
  uint64_t structuralHashMemo() const { return StructHash; }
  void setStructuralHashMemo(uint64_t H) const { StructHash = H; }

protected:
  Node(NodeKind Kind, NodeID ID, SourceRange Range)
      : Kind(Kind), ID(ID), Range(Range) {}
  ~Node() = default;

private:
  NodeKind Kind;
  NodeID ID;
  SourceRange Range;
  mutable uint64_t StructHash = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions.
class Expr : public Node {
protected:
  using Node::Node;

public:
  static bool classof(const Node *N) {
    return N->getKind() <= NodeKind::Conditional;
  }
};

/// Numeric literal, e.g. `23`, `0x1f`, `31.4`.
class NumberLiteral : public Expr {
public:
  NumberLiteral(NodeID ID, SourceRange R, double Value)
      : Expr(NodeKind::NumberLiteral, ID, R), Value(Value) {}
  double getValue() const { return Value; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::NumberLiteral;
  }

private:
  double Value;
};

/// String literal, e.g. `"width"`. The spelling is interned once at
/// construction so evaluation never re-hashes the characters.
class StringLiteral : public Expr {
public:
  StringLiteral(NodeID ID, SourceRange R, std::string Value)
      : Expr(NodeKind::StringLiteral, ID, R), Value(std::move(Value)),
        Atom(intern(this->Value)) {}
  const std::string &getValue() const { return Value; }
  StringId getAtom() const { return Atom; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::StringLiteral;
  }

private:
  std::string Value;
  StringId Atom;
};

/// `true` or `false`.
class BooleanLiteral : public Expr {
public:
  BooleanLiteral(NodeID ID, SourceRange R, bool Value)
      : Expr(NodeKind::BooleanLiteral, ID, R), Value(Value) {}
  bool getValue() const { return Value; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::BooleanLiteral;
  }

private:
  bool Value;
};

/// `null`.
class NullLiteral : public Expr {
public:
  NullLiteral(NodeID ID, SourceRange R) : Expr(NodeKind::NullLiteral, ID, R) {}
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::NullLiteral;
  }
};

/// `undefined`.
class UndefinedLiteral : public Expr {
public:
  UndefinedLiteral(NodeID ID, SourceRange R)
      : Expr(NodeKind::UndefinedLiteral, ID, R) {}
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::UndefinedLiteral;
  }
};

/// A variable reference. The name is interned once at construction.
class Identifier : public Expr {
public:
  Identifier(NodeID ID, SourceRange R, std::string Name)
      : Expr(NodeKind::Identifier, ID, R), Name(std::move(Name)),
        Atom(intern(this->Name)) {}
  const std::string &getName() const { return Name; }
  StringId getAtom() const { return Atom; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Identifier;
  }

private:
  std::string Name;
  StringId Atom;
};

/// `this`.
class ThisExpr : public Expr {
public:
  ThisExpr(NodeID ID, SourceRange R) : Expr(NodeKind::This, ID, R) {}
  static bool classof(const Node *N) { return N->getKind() == NodeKind::This; }
};

/// `[e1, e2, ...]`.
class ArrayLiteral : public Expr {
public:
  ArrayLiteral(NodeID ID, SourceRange R, std::vector<Expr *> Elements)
      : Expr(NodeKind::ArrayLiteral, ID, R), Elements(std::move(Elements)) {}
  const std::vector<Expr *> &getElements() const { return Elements; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ArrayLiteral;
  }

private:
  std::vector<Expr *> Elements;
};

/// `{k1: e1, k2: e2, ...}`. Keys are identifier or string-literal spellings.
class ObjectLiteral : public Expr {
public:
  struct Property {
    std::string Key;
    Expr *Value;
    StringId KeyAtom{}; ///< Filled by the ObjectLiteral constructor.
  };
  ObjectLiteral(NodeID ID, SourceRange R, std::vector<Property> Properties)
      : Expr(NodeKind::ObjectLiteral, ID, R),
        Properties(std::move(Properties)) {
    for (Property &P : this->Properties)
      P.KeyAtom = intern(P.Key);
  }
  const std::vector<Property> &getProperties() const { return Properties; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ObjectLiteral;
  }

private:
  std::vector<Property> Properties;
};

/// `function name(params) { body }`, used both as an expression and as the
/// payload of a function declaration statement.
class FunctionExpr : public Expr {
public:
  FunctionExpr(NodeID ID, SourceRange R, std::string Name,
               std::vector<std::string> Params, Stmt *Body)
      : Expr(NodeKind::Function, ID, R), Name(std::move(Name)),
        Params(std::move(Params)), Body(Body),
        NameAtom(intern(this->Name)) {
    ParamAtoms.reserve(this->Params.size());
    for (const std::string &P : this->Params)
      ParamAtoms.push_back(intern(P));
  }
  /// Empty for anonymous functions.
  const std::string &getName() const { return Name; }
  const std::vector<std::string> &getParams() const { return Params; }
  StringId getNameAtom() const { return NameAtom; }
  const std::vector<StringId> &getParamAtoms() const { return ParamAtoms; }
  Stmt *getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Function;
  }

private:
  std::string Name;
  std::vector<std::string> Params;
  Stmt *Body;
  StringId NameAtom;
  std::vector<StringId> ParamAtoms;
};

/// `obj.prop` (Computed == false) or `obj[expr]` (Computed == true).
class MemberExpr : public Expr {
public:
  MemberExpr(NodeID ID, SourceRange R, Expr *Object, std::string Property)
      : Expr(NodeKind::Member, ID, R), Object(Object),
        Property(std::move(Property)), Index(nullptr),
        PropAtom(intern(this->Property)), Computed(false) {}
  MemberExpr(NodeID ID, SourceRange R, Expr *Object, Expr *Index)
      : Expr(NodeKind::Member, ID, R), Object(Object), Index(Index),
        Computed(true) {}
  Expr *getObject() const { return Object; }
  bool isComputed() const { return Computed; }
  /// Only valid when !isComputed().
  const std::string &getProperty() const {
    assert(!Computed && "static property of a computed member access");
    return Property;
  }
  /// Interned property atom; only valid when !isComputed().
  StringId getPropertyAtom() const {
    assert(!Computed && "static property of a computed member access");
    return PropAtom;
  }
  /// Only valid when isComputed().
  Expr *getIndex() const {
    assert(Computed && "index of a static member access");
    return Index;
  }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Member;
  }

private:
  Expr *Object;
  std::string Property;
  Expr *Index;
  StringId PropAtom;
  bool Computed;
};

/// `callee(args)`.
class CallExpr : public Expr {
public:
  CallExpr(NodeID ID, SourceRange R, Expr *Callee, std::vector<Expr *> Args)
      : Expr(NodeKind::Call, ID, R), Callee(Callee), Args(std::move(Args)) {}
  Expr *getCallee() const { return Callee; }
  const std::vector<Expr *> &getArgs() const { return Args; }
  static bool classof(const Node *N) { return N->getKind() == NodeKind::Call; }

private:
  Expr *Callee;
  std::vector<Expr *> Args;
};

/// `new Callee(args)`.
class NewExpr : public Expr {
public:
  NewExpr(NodeID ID, SourceRange R, Expr *Callee, std::vector<Expr *> Args)
      : Expr(NodeKind::New, ID, R), Callee(Callee), Args(std::move(Args)) {}
  Expr *getCallee() const { return Callee; }
  const std::vector<Expr *> &getArgs() const { return Args; }
  static bool classof(const Node *N) { return N->getKind() == NodeKind::New; }

private:
  Expr *Callee;
  std::vector<Expr *> Args;
};

/// Unary operators.
enum class UnaryOp : uint8_t { Not, Minus, Plus, Typeof, Delete, Void };

/// `!e`, `-e`, `typeof e`, `delete o.p`, ...
class UnaryExpr : public Expr {
public:
  UnaryExpr(NodeID ID, SourceRange R, UnaryOp Op, Expr *Operand)
      : Expr(NodeKind::Unary, ID, R), Op(Op), Operand(Operand) {}
  UnaryOp getOp() const { return Op; }
  Expr *getOperand() const { return Operand; }
  static bool classof(const Node *N) { return N->getKind() == NodeKind::Unary; }

private:
  UnaryOp Op;
  Expr *Operand;
};

/// `++x`, `x--`, etc.
class UpdateExpr : public Expr {
public:
  UpdateExpr(NodeID ID, SourceRange R, bool IsIncrement, bool IsPrefix,
             Expr *Operand)
      : Expr(NodeKind::Update, ID, R), Operand(Operand),
        IsIncrement(IsIncrement), IsPrefix(IsPrefix) {}
  bool isIncrement() const { return IsIncrement; }
  bool isPrefix() const { return IsPrefix; }
  Expr *getOperand() const { return Operand; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Update;
  }

private:
  Expr *Operand;
  bool IsIncrement;
  bool IsPrefix;
};

/// Strict binary (non-short-circuiting) operators.
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,       // ==
  NotEq,    // !=
  StrictEq, // ===
  StrictNotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Instanceof,
  In,
};

/// Returns the source spelling of a binary operator.
const char *binaryOpSpelling(BinaryOp Op);

/// `a + b`, `a < b`, ...
class BinaryExpr : public Expr {
public:
  BinaryExpr(NodeID ID, SourceRange R, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(NodeKind::Binary, ID, R), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Binary;
  }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// Short-circuiting `&&` / `||`.
class LogicalExpr : public Expr {
public:
  LogicalExpr(NodeID ID, SourceRange R, bool IsAnd, Expr *LHS, Expr *RHS)
      : Expr(NodeKind::Logical, ID, R), LHS(LHS), RHS(RHS), IsAnd(IsAnd) {}
  bool isAnd() const { return IsAnd; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Logical;
  }

private:
  Expr *LHS;
  Expr *RHS;
  bool IsAnd;
};

/// Compound-assignment operator payload: plain `=` or the arithmetic op
/// applied before storing.
enum class AssignOp : uint8_t { Assign, Add, Sub, Mul, Div, Mod };

/// `target = value`, `target += value`, ... where target is an Identifier or
/// a MemberExpr.
class AssignExpr : public Expr {
public:
  AssignExpr(NodeID ID, SourceRange R, AssignOp Op, Expr *Target, Expr *Value)
      : Expr(NodeKind::Assign, ID, R), Op(Op), Target(Target), Value(Value) {}
  AssignOp getOp() const { return Op; }
  Expr *getTarget() const { return Target; }
  Expr *getValue() const { return Value; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Assign;
  }

private:
  AssignOp Op;
  Expr *Target;
  Expr *Value;
};

/// `cond ? then : else`.
class ConditionalExpr : public Expr {
public:
  ConditionalExpr(NodeID ID, SourceRange R, Expr *Cond, Expr *Then, Expr *Else)
      : Expr(NodeKind::Conditional, ID, R), Cond(Cond), Then(Then),
        Else(Else) {}
  Expr *getCond() const { return Cond; }
  Expr *getThen() const { return Then; }
  Expr *getElse() const { return Else; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Conditional;
  }

private:
  Expr *Cond;
  Expr *Then;
  Expr *Else;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt : public Node {
protected:
  using Node::Node;

public:
  static bool classof(const Node *N) {
    return N->getKind() >= NodeKind::ExpressionStmt;
  }
};

/// An expression evaluated for its effects.
class ExpressionStmt : public Stmt {
public:
  ExpressionStmt(NodeID ID, SourceRange R, Expr *E)
      : Stmt(NodeKind::ExpressionStmt, ID, R), E(E) {}
  Expr *getExpr() const { return E; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ExpressionStmt;
  }

private:
  Expr *E;
};

/// `var x = e, y, z = f;`.
class VarDeclStmt : public Stmt {
public:
  struct Declarator {
    std::string Name;
    Expr *Init; ///< May be null.
    StringId Atom{}; ///< Filled by the VarDeclStmt constructor.
  };
  VarDeclStmt(NodeID ID, SourceRange R, std::vector<Declarator> Decls)
      : Stmt(NodeKind::VarDeclStmt, ID, R), Decls(std::move(Decls)) {
    for (Declarator &D : this->Decls)
      D.Atom = intern(D.Name);
  }
  const std::vector<Declarator> &getDeclarators() const { return Decls; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::VarDeclStmt;
  }

private:
  std::vector<Declarator> Decls;
};

/// `function f(...) {...}` in statement position (hoisted).
class FunctionDeclStmt : public Stmt {
public:
  FunctionDeclStmt(NodeID ID, SourceRange R, FunctionExpr *Function)
      : Stmt(NodeKind::FunctionDeclStmt, ID, R), Function(Function) {}
  FunctionExpr *getFunction() const { return Function; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::FunctionDeclStmt;
  }

private:
  FunctionExpr *Function;
};

/// `{ s1; s2; ... }`.
class BlockStmt : public Stmt {
public:
  BlockStmt(NodeID ID, SourceRange R, std::vector<Stmt *> Body)
      : Stmt(NodeKind::BlockStmt, ID, R), Body(std::move(Body)) {}
  const std::vector<Stmt *> &getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::BlockStmt;
  }

private:
  std::vector<Stmt *> Body;
};

/// `if (cond) then else else`.
class IfStmt : public Stmt {
public:
  IfStmt(NodeID ID, SourceRange R, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(NodeKind::IfStmt, ID, R), Cond(Cond), Then(Then), Else(Else) {}
  Expr *getCond() const { return Cond; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; } ///< May be null.
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::IfStmt;
  }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

/// `while (cond) body`.
class WhileStmt : public Stmt {
public:
  WhileStmt(NodeID ID, SourceRange R, Expr *Cond, Stmt *Body)
      : Stmt(NodeKind::WhileStmt, ID, R), Cond(Cond), Body(Body) {}
  Expr *getCond() const { return Cond; }
  Stmt *getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::WhileStmt;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

/// `do body while (cond);`.
class DoWhileStmt : public Stmt {
public:
  DoWhileStmt(NodeID ID, SourceRange R, Stmt *Body, Expr *Cond)
      : Stmt(NodeKind::DoWhileStmt, ID, R), Cond(Cond), Body(Body) {}
  Expr *getCond() const { return Cond; }
  Stmt *getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::DoWhileStmt;
  }

private:
  Expr *Cond;
  Stmt *Body;
};

/// `for (init; cond; update) body`; any of the three headers may be null.
class ForStmt : public Stmt {
public:
  ForStmt(NodeID ID, SourceRange R, Stmt *Init, Expr *Cond, Expr *Update,
          Stmt *Body)
      : Stmt(NodeKind::ForStmt, ID, R), Init(Init), Cond(Cond),
        Update(Update), Body(Body) {}
  Stmt *getInit() const { return Init; }     ///< VarDeclStmt/ExpressionStmt.
  Expr *getCond() const { return Cond; }     ///< May be null.
  Expr *getUpdate() const { return Update; } ///< May be null.
  Stmt *getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ForStmt;
  }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Update;
  Stmt *Body;
};

/// `for (var x in obj) body` / `for (x in obj) body`.
class ForInStmt : public Stmt {
public:
  ForInStmt(NodeID ID, SourceRange R, std::string Var, bool Declares,
            Expr *Object, Stmt *Body)
      : Stmt(NodeKind::ForInStmt, ID, R), Var(std::move(Var)), Object(Object),
        Body(Body), VarAtom(intern(this->Var)), Declares(Declares) {}
  const std::string &getVar() const { return Var; }
  StringId getVarAtom() const { return VarAtom; }
  bool declaresVar() const { return Declares; }
  Expr *getObject() const { return Object; }
  Stmt *getBody() const { return Body; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ForInStmt;
  }

private:
  std::string Var;
  Expr *Object;
  Stmt *Body;
  StringId VarAtom;
  bool Declares;
};

/// `return e;` / `return;`.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(NodeID ID, SourceRange R, Expr *Arg)
      : Stmt(NodeKind::ReturnStmt, ID, R), Arg(Arg) {}
  Expr *getArg() const { return Arg; } ///< May be null.
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ReturnStmt;
  }

private:
  Expr *Arg;
};

/// `break;`.
class BreakStmt : public Stmt {
public:
  BreakStmt(NodeID ID, SourceRange R) : Stmt(NodeKind::BreakStmt, ID, R) {}
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::BreakStmt;
  }
};

/// `continue;`.
class ContinueStmt : public Stmt {
public:
  ContinueStmt(NodeID ID, SourceRange R)
      : Stmt(NodeKind::ContinueStmt, ID, R) {}
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ContinueStmt;
  }
};

/// `throw e;`.
class ThrowStmt : public Stmt {
public:
  ThrowStmt(NodeID ID, SourceRange R, Expr *Arg)
      : Stmt(NodeKind::ThrowStmt, ID, R), Arg(Arg) {}
  Expr *getArg() const { return Arg; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::ThrowStmt;
  }

private:
  Expr *Arg;
};

/// `try {..} catch (e) {..} finally {..}`; catch and finally are optional but
/// at least one is present.
class TryStmt : public Stmt {
public:
  TryStmt(NodeID ID, SourceRange R, Stmt *Block, std::string CatchParam,
          Stmt *CatchBlock, Stmt *FinallyBlock)
      : Stmt(NodeKind::TryStmt, ID, R), Block(Block),
        CatchParam(std::move(CatchParam)), CatchBlock(CatchBlock),
        FinallyBlock(FinallyBlock), CatchAtom(intern(this->CatchParam)) {}
  Stmt *getBlock() const { return Block; }
  const std::string &getCatchParam() const { return CatchParam; }
  StringId getCatchAtom() const { return CatchAtom; }
  Stmt *getCatchBlock() const { return CatchBlock; }     ///< May be null.
  Stmt *getFinallyBlock() const { return FinallyBlock; } ///< May be null.
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::TryStmt;
  }

private:
  Stmt *Block;
  std::string CatchParam;
  Stmt *CatchBlock;
  Stmt *FinallyBlock;
  StringId CatchAtom;
};

/// `switch (disc) { case e: ...; default: ...; }`. Clauses execute with
/// fall-through until a `break`.
class SwitchStmt : public Stmt {
public:
  struct Clause {
    Expr *Test; ///< Null for the default clause.
    std::vector<Stmt *> Body;
  };
  SwitchStmt(NodeID ID, SourceRange R, Expr *Disc, std::vector<Clause> Clauses)
      : Stmt(NodeKind::SwitchStmt, ID, R), Disc(Disc),
        Clauses(std::move(Clauses)) {}
  Expr *getDisc() const { return Disc; }
  const std::vector<Clause> &getClauses() const { return Clauses; }
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::SwitchStmt;
  }

private:
  Expr *Disc;
  std::vector<Clause> Clauses;
};

/// `;`.
class EmptyStmt : public Stmt {
public:
  EmptyStmt(NodeID ID, SourceRange R) : Stmt(NodeKind::EmptyStmt, ID, R) {}
  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::EmptyStmt;
  }
};

//===----------------------------------------------------------------------===//
// Casting helpers (LLVM-style, RTTI-free)
//===----------------------------------------------------------------------===//

template <typename T> bool isa(const Node *N) {
  return N && T::classof(N);
}

template <typename T> T *cast(Node *N) {
  assert(isa<T>(N) && "cast to incompatible node kind");
  return static_cast<T *>(N);
}

template <typename T> const T *cast(const Node *N) {
  assert(isa<T>(N) && "cast to incompatible node kind");
  return static_cast<const T *>(N);
}

template <typename T> T *dyn_cast(Node *N) {
  return isa<T>(N) ? static_cast<T *>(N) : nullptr;
}

template <typename T> const T *dyn_cast(const Node *N) {
  return isa<T>(N) ? static_cast<const T *>(N) : nullptr;
}

} // namespace dda

#endif // DDA_AST_AST_H
