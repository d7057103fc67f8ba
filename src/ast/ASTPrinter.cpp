//===- ASTPrinter.cpp -----------------------------------------------------==//

#include "ast/ASTPrinter.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace dda;

namespace {

/// Precedence levels for parenthesization, higher binds tighter.
enum Precedence {
  PrecLowest = 0,
  PrecAssign = 1,
  PrecConditional = 2,
  PrecOr = 3,
  PrecAnd = 4,
  PrecEquality = 5,
  PrecRelational = 6,
  PrecAdditive = 7,
  PrecMultiplicative = 8,
  PrecUnary = 9,
  PrecPostfix = 10,
  PrecPrimary = 11,
};

Precedence binaryPrecedence(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::NotEq:
  case BinaryOp::StrictEq:
  case BinaryOp::StrictNotEq:
    return PrecEquality;
  case BinaryOp::Less:
  case BinaryOp::LessEq:
  case BinaryOp::Greater:
  case BinaryOp::GreaterEq:
  case BinaryOp::Instanceof:
  case BinaryOp::In:
    return PrecRelational;
  case BinaryOp::Add:
  case BinaryOp::Sub:
    return PrecAdditive;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Mod:
    return PrecMultiplicative;
  }
  return PrecLowest;
}

class Printer {
public:
  std::string expr(const Expr *E, Precedence Parent) {
    Precedence Mine = precedenceOf(E);
    std::string Text = exprNoParens(E);
    if (Mine < Parent)
      return "(" + Text + ")";
    return Text;
  }

  std::string stmt(const Stmt *S, unsigned Indent);

private:
  Precedence precedenceOf(const Expr *E) {
    switch (E->getKind()) {
    case NodeKind::Assign:
      return PrecAssign;
    case NodeKind::Conditional:
      return PrecConditional;
    case NodeKind::Logical:
      return cast<LogicalExpr>(E)->isAnd() ? PrecAnd : PrecOr;
    case NodeKind::Binary:
      return binaryPrecedence(cast<BinaryExpr>(E)->getOp());
    case NodeKind::Unary:
      return PrecUnary;
    case NodeKind::Update:
      return cast<UpdateExpr>(E)->isPrefix() ? PrecUnary : PrecPostfix;
    case NodeKind::Member:
    case NodeKind::Call:
    case NodeKind::New:
      return PrecPostfix;
    case NodeKind::Function:
      // Function expressions need parens in statement position; callers that
      // care pass PrecPrimary as the parent to force them.
      return PrecAssign;
    default:
      return PrecPrimary;
    }
  }

  std::string exprNoParens(const Expr *E);
  std::string indentStr(unsigned Indent) { return std::string(Indent * 2, ' '); }
  std::string blockOrStmt(const Stmt *S, unsigned Indent);
  std::string functionText(const FunctionExpr *F, unsigned Indent);
};

std::string Printer::exprNoParens(const Expr *E) {
  switch (E->getKind()) {
  case NodeKind::NumberLiteral:
    return numberToString(cast<NumberLiteral>(E)->getValue());
  case NodeKind::StringLiteral: {
    std::string Out = "\"";
    Out += escapeString(cast<StringLiteral>(E)->getValue());
    Out += '"';
    return Out;
  }
  case NodeKind::BooleanLiteral:
    return cast<BooleanLiteral>(E)->getValue() ? "true" : "false";
  case NodeKind::NullLiteral:
    return "null";
  case NodeKind::UndefinedLiteral:
    return "undefined";
  case NodeKind::Identifier:
    return cast<Identifier>(E)->getName();
  case NodeKind::This:
    return "this";
  case NodeKind::ArrayLiteral: {
    std::string Out = "[";
    const auto &Elements = cast<ArrayLiteral>(E)->getElements();
    for (size_t I = 0; I < Elements.size(); ++I) {
      if (I)
        Out += ", ";
      Out += expr(Elements[I], PrecAssign);
    }
    return Out + "]";
  }
  case NodeKind::ObjectLiteral: {
    std::string Out = "{";
    const auto &Props = cast<ObjectLiteral>(E)->getProperties();
    for (size_t I = 0; I < Props.size(); ++I) {
      if (I)
        Out += ", ";
      if (isIdentifier(Props[I].Key))
        Out += Props[I].Key;
      else {
        Out += '"';
        Out += escapeString(Props[I].Key);
        Out += '"';
      }
      Out += ": ";
      Out += expr(Props[I].Value, PrecAssign);
    }
    return Out + "}";
  }
  case NodeKind::Function:
    return functionText(cast<FunctionExpr>(E), 0);
  case NodeKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    std::string Base = expr(M->getObject(), PrecPostfix);
    if (M->isComputed())
      return Base + "[" + expr(M->getIndex(), PrecLowest) + "]";
    return Base + "." + M->getProperty();
  }
  case NodeKind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::string Out = expr(C->getCallee(), PrecPostfix) + "(";
    for (size_t I = 0; I < C->getArgs().size(); ++I) {
      if (I)
        Out += ", ";
      Out += expr(C->getArgs()[I], PrecAssign);
    }
    return Out + ")";
  }
  case NodeKind::New: {
    const auto *C = cast<NewExpr>(E);
    std::string Out = "new ";
    Out += expr(C->getCallee(), PrecPostfix);
    Out += '(';
    for (size_t I = 0; I < C->getArgs().size(); ++I) {
      if (I)
        Out += ", ";
      Out += expr(C->getArgs()[I], PrecAssign);
    }
    return Out + ")";
  }
  case NodeKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    const char *Spelling = "";
    switch (U->getOp()) {
    case UnaryOp::Not:
      Spelling = "!";
      break;
    case UnaryOp::Minus:
      Spelling = "-";
      break;
    case UnaryOp::Plus:
      Spelling = "+";
      break;
    case UnaryOp::Typeof:
      Spelling = "typeof ";
      break;
    case UnaryOp::Delete:
      Spelling = "delete ";
      break;
    case UnaryOp::Void:
      Spelling = "void ";
      break;
    }
    return std::string(Spelling) + expr(U->getOperand(), PrecUnary);
  }
  case NodeKind::Update: {
    const auto *U = cast<UpdateExpr>(E);
    const char *Spelling = U->isIncrement() ? "++" : "--";
    if (U->isPrefix())
      return std::string(Spelling) + expr(U->getOperand(), PrecUnary);
    return expr(U->getOperand(), PrecPostfix) + Spelling;
  }
  case NodeKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Precedence P = binaryPrecedence(B->getOp());
    return expr(B->getLHS(), P) + " " + binaryOpSpelling(B->getOp()) + " " +
           expr(B->getRHS(), static_cast<Precedence>(P + 1));
  }
  case NodeKind::Logical: {
    const auto *L = cast<LogicalExpr>(E);
    Precedence P = L->isAnd() ? PrecAnd : PrecOr;
    return expr(L->getLHS(), P) + (L->isAnd() ? " && " : " || ") +
           expr(L->getRHS(), static_cast<Precedence>(P + 1));
  }
  case NodeKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    const char *Spelling = "=";
    switch (A->getOp()) {
    case AssignOp::Assign:
      Spelling = "=";
      break;
    case AssignOp::Add:
      Spelling = "+=";
      break;
    case AssignOp::Sub:
      Spelling = "-=";
      break;
    case AssignOp::Mul:
      Spelling = "*=";
      break;
    case AssignOp::Div:
      Spelling = "/=";
      break;
    case AssignOp::Mod:
      Spelling = "%=";
      break;
    }
    return expr(A->getTarget(), PrecPostfix) + " " + Spelling + " " +
           expr(A->getValue(), PrecAssign);
  }
  case NodeKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    return expr(C->getCond(), PrecOr) + " ? " +
           expr(C->getThen(), PrecAssign) + " : " +
           expr(C->getElse(), PrecAssign);
  }
  default:
    assert(false && "statement kind in expression printer");
    return "<bad-expr>";
  }
}

std::string Printer::functionText(const FunctionExpr *F, unsigned Indent) {
  std::string Out = "function";
  if (!F->getName().empty())
    Out += " " + F->getName();
  Out += "(";
  for (size_t I = 0; I < F->getParams().size(); ++I) {
    if (I)
      Out += ", ";
    Out += F->getParams()[I];
  }
  Out += ") ";
  Out += blockOrStmt(F->getBody(), Indent);
  return Out;
}

std::string Printer::blockOrStmt(const Stmt *S, unsigned Indent) {
  if (const auto *B = dyn_cast<BlockStmt>(S)) {
    std::string Out = "{\n";
    for (const Stmt *Child : B->getBody())
      Out += stmt(Child, Indent + 1);
    Out += indentStr(Indent) + "}";
    return Out;
  }
  std::string Out = "{\n";
  Out += stmt(S, Indent + 1);
  Out += indentStr(Indent) + "}";
  return Out;
}

std::string Printer::stmt(const Stmt *S, unsigned Indent) {
  std::string Pad = indentStr(Indent);
  switch (S->getKind()) {
  case NodeKind::ExpressionStmt: {
    const Expr *E = cast<ExpressionStmt>(S)->getExpr();
    // Function expressions and object literals at statement start would be
    // misparsed; wrap them.
    std::string Text = expr(E, PrecLowest);
    if (isa<FunctionExpr>(E) || isa<ObjectLiteral>(E))
      Text = "(" + Text + ")";
    return Pad + Text + ";\n";
  }
  case NodeKind::VarDeclStmt: {
    std::string Out = Pad + "var ";
    const auto &Decls = cast<VarDeclStmt>(S)->getDeclarators();
    for (size_t I = 0; I < Decls.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Decls[I].Name;
      if (Decls[I].Init) {
        Out += " = ";
        Out += expr(Decls[I].Init, PrecAssign);
      }
    }
    return Out + ";\n";
  }
  case NodeKind::FunctionDeclStmt:
    return Pad +
           functionText(cast<FunctionDeclStmt>(S)->getFunction(), Indent) +
           "\n";
  case NodeKind::BlockStmt: {
    std::string Out = Pad + "{\n";
    for (const Stmt *Child : cast<BlockStmt>(S)->getBody())
      Out += stmt(Child, Indent + 1);
    return Out + Pad + "}\n";
  }
  case NodeKind::IfStmt: {
    const auto *If = cast<IfStmt>(S);
    std::string Out = Pad + "if (" + expr(If->getCond(), PrecLowest) + ") " +
                      blockOrStmt(If->getThen(), Indent);
    if (If->getElse())
      Out += " else " + blockOrStmt(If->getElse(), Indent);
    return Out + "\n";
  }
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(S);
    return Pad + "while (" + expr(W->getCond(), PrecLowest) + ") " +
           blockOrStmt(W->getBody(), Indent) + "\n";
  }
  case NodeKind::DoWhileStmt: {
    const auto *W = cast<DoWhileStmt>(S);
    return Pad + "do " + blockOrStmt(W->getBody(), Indent) + " while (" +
           expr(W->getCond(), PrecLowest) + ");\n";
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(S);
    std::string Out = Pad + "for (";
    if (F->getInit()) {
      std::string InitText = stmt(F->getInit(), 0);
      // Strip indentation and trailing newline; keep the ';'.
      while (!InitText.empty() &&
             (InitText.back() == '\n' || InitText.back() == ' '))
        InitText.pop_back();
      Out += InitText;
    } else {
      Out += ";";
    }
    Out += " ";
    if (F->getCond())
      Out += expr(F->getCond(), PrecLowest);
    Out += "; ";
    if (F->getUpdate())
      Out += expr(F->getUpdate(), PrecLowest);
    Out += ") " + blockOrStmt(F->getBody(), Indent);
    return Out + "\n";
  }
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    std::string Out = Pad + "for (";
    if (F->declaresVar())
      Out += "var ";
    Out += F->getVar() + " in " + expr(F->getObject(), PrecLowest) + ") " +
           blockOrStmt(F->getBody(), Indent);
    return Out + "\n";
  }
  case NodeKind::ReturnStmt: {
    const auto *R = cast<ReturnStmt>(S);
    if (R->getArg())
      return Pad + "return " + expr(R->getArg(), PrecLowest) + ";\n";
    return Pad + "return;\n";
  }
  case NodeKind::BreakStmt:
    return Pad + "break;\n";
  case NodeKind::ContinueStmt:
    return Pad + "continue;\n";
  case NodeKind::ThrowStmt:
    return Pad + "throw " + expr(cast<ThrowStmt>(S)->getArg(), PrecLowest) +
           ";\n";
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    std::string Out = Pad + "try " + blockOrStmt(T->getBlock(), Indent);
    if (T->getCatchBlock())
      Out += " catch (" + T->getCatchParam() + ") " +
             blockOrStmt(T->getCatchBlock(), Indent);
    if (T->getFinallyBlock())
      Out += " finally " + blockOrStmt(T->getFinallyBlock(), Indent);
    return Out + "\n";
  }
  case NodeKind::EmptyStmt:
    return Pad + ";\n";
  case NodeKind::SwitchStmt: {
    const auto *Sw = cast<SwitchStmt>(S);
    std::string Out =
        Pad + "switch (" + expr(Sw->getDisc(), PrecLowest) + ") {\n";
    for (const auto &Clause : Sw->getClauses()) {
      if (Clause.Test)
        Out += Pad + "case " + expr(Clause.Test, PrecLowest) + ":\n";
      else
        Out += Pad + "default:\n";
      for (const Stmt *Child : Clause.Body)
        Out += stmt(Child, Indent + 1);
    }
    return Out + Pad + "}\n";
  }
  default:
    assert(false && "expression kind in statement printer");
    return Pad + "<bad-stmt>;\n";
  }
}

} // namespace

std::string dda::printExpr(const Expr *E) {
  Printer P;
  return P.expr(E, PrecLowest);
}

std::string dda::printStmt(const Stmt *S, unsigned Indent) {
  Printer P;
  return P.stmt(S, Indent);
}

std::string dda::printProgram(const Program &Prog) {
  std::string Out;
  for (const Stmt *S : Prog.Body)
    Out += printStmt(S, 0);
  return Out;
}
