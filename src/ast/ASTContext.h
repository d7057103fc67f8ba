//===- ASTContext.h - Ownership arena and factory for AST nodes -*- C++ -*-==//
///
/// \file
/// Owns every AST node of a program, including nodes created later by the
/// specializer (clones) and by runtime `eval` (parsed at run time and spliced
/// into the same context, mirroring how the paper's implementation recursively
/// instruments eval'd code). Nodes reference children via raw pointers that
/// stay valid for the context's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_AST_ASTCONTEXT_H
#define DDA_AST_ASTCONTEXT_H

#include "ast/AST.h"

#include <memory>
#include <utility>
#include <vector>

namespace dda {

/// A parsed program: top-level statements plus the arena that owns them.
class ASTContext {
public:
  ASTContext() = default;
  /// Overlay context whose NodeIDs continue from \p FirstID. The parallel
  /// analysis engine gives each worker one of these (based at the shared
  /// program's nextID) to receive runtime-eval'd nodes, so concurrent seeds
  /// never mutate the shared program and each seed's eval'd code gets the
  /// same NodeIDs regardless of thread count.
  explicit ASTContext(NodeID FirstID) : NextID(FirstID) {}
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  /// Allocates a node of type \p T, assigning it the next NodeID.
  template <typename T, typename... Args> T *create(Args &&...A) {
    auto Owned = std::make_unique<T>(NextID++, std::forward<Args>(A)...);
    T *Raw = Owned.get();
    Nodes.emplace_back(std::move(Owned));
    return Raw;
  }

  /// Allocates a node that reuses an existing NodeID. Used by the specializer
  /// so that clones keep the program-point identity of the original node and
  /// determinacy facts keyed by that point still apply.
  template <typename T, typename... Args> T *createWithID(NodeID ID, Args &&...A) {
    auto Owned = std::make_unique<T>(ID, std::forward<Args>(A)...);
    T *Raw = Owned.get();
    Nodes.emplace_back(std::move(Owned));
    return Raw;
  }

  NodeID nextID() const { return NextID; }
  size_t nodeCount() const { return Nodes.size(); }

private:
  // unique_ptr<Node> would need a public virtual destructor; nodes are
  // POD-like, so store them type-erased with a deleting thunk instead.
  struct Erased {
    void *Ptr;
    void (*Delete)(void *);
  };

  template <typename T> struct Deleter {
    static void destroy(void *P) { delete static_cast<T *>(P); }
  };

  class OwnedNode {
  public:
    template <typename T>
    explicit OwnedNode(std::unique_ptr<T> P)
        : Storage{P.release(), &Deleter<T>::destroy} {}
    OwnedNode(OwnedNode &&Other) noexcept : Storage(Other.Storage) {
      Other.Storage.Ptr = nullptr;
    }
    OwnedNode &operator=(OwnedNode &&Other) noexcept {
      if (this != &Other) {
        reset();
        Storage = Other.Storage;
        Other.Storage.Ptr = nullptr;
      }
      return *this;
    }
    OwnedNode(const OwnedNode &) = delete;
    OwnedNode &operator=(const OwnedNode &) = delete;
    ~OwnedNode() { reset(); }

  private:
    void reset() {
      if (Storage.Ptr)
        Storage.Delete(Storage.Ptr);
      Storage.Ptr = nullptr;
    }
    Erased Storage;
  };

  std::vector<OwnedNode> Nodes;
  NodeID NextID = 1;
};

/// A whole MiniJS program: the arena plus the ordered top-level statements.
struct Program {
  std::shared_ptr<ASTContext> Context = std::make_shared<ASTContext>();
  std::vector<Stmt *> Body;
};

} // namespace dda

#endif // DDA_AST_ASTCONTEXT_H
