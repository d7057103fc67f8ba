//===- DeadCode.cpp -------------------------------------------------------==//

#include "deadcode/DeadCode.h"

#include "ast/ASTWalk.h"

using namespace dda;

namespace {

/// Counts statements in a subtree (including nested functions' bodies —
/// dead code guards whole features, closures included).
size_t countStatements(const Node *N) {
  size_t Count = 0;
  walkPreOrder(N, [&](const Node *Child) {
    if (isa<Stmt>(Child))
      ++Count;
    return true;
  });
  return Count;
}

} // namespace

DeadCodeResult dda::findDeadCode(const Program &P,
                                 const AnalysisResult &Analysis) {
  DeadCodeResult Result;

  // Total statement count (the denominator).
  for (const Stmt *S : P.Body)
    Result.TotalStatements += countStatements(S);

  // Dead regions: untaken sides of uniformly determinate conditionals.
  // Regions nested inside an already-dead region are not double-counted:
  // we collect top-down and skip descendants of reported branches.
  std::vector<const Stmt *> Dead;
  // The merged condition fact over all observed contexts.
  const UniformFacts Uniform(Analysis.Facts);
  std::function<void(const Node *)> Visit = [&](const Node *N) {
    if (const auto *If = dyn_cast<IfStmt>(N)) {
      const FactValue *Cond = Uniform.get(FactKind::Condition, If->getID());
      if (Cond && Cond->K == FactValue::Boolean) {
        const Stmt *Untaken = Cond->B ? If->getElse() : If->getThen();
        if (Untaken) {
          DeadRegion R;
          R.Branch = Untaken->getID();
          R.Conditional = If->getID();
          R.Line = Untaken->getLine();
          R.CondValue = Cond->B;
          R.StatementCount = countStatements(Untaken);
          Result.Regions.push_back(R);
          Result.DeadStatements += R.StatementCount;
          // Do not descend into the dead branch; do analyze the taken side.
          const Stmt *Taken = Cond->B ? If->getThen() : If->getElse();
          forEachChild(If->getCond(), Visit);
          if (Taken)
            Visit(Taken);
          return;
        }
      }
    }
    forEachChild(N, Visit);
  };
  for (const Stmt *S : P.Body)
    Visit(S);
  (void)Dead;
  return Result;
}
