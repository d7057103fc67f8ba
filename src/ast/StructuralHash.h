//===- StructuralHash.h - Content-addressed AST subtree identity -*- C++ -*-==//
///
/// \file
/// Structural Merkle hashes over MiniJS subtrees. The hash of a node covers
/// its kind, its literals/atoms/flags, and the hashes of its children —
/// nothing else. NodeIDs and source positions are deliberately excluded, so
/// two byte-identical program fragments hash equal no matter where they sit
/// in a file or which parse produced them. This is the content-addressed
/// identity the incremental layer keys on (see src/incremental/).
///
/// A second hash, subtreePositionHash, covers exactly what subtreeHash
/// omits: the (NodeID, line, column) triples of every node in the subtree.
/// Determinacy facts and calling contexts embed NodeIDs and line numbers,
/// so a stored summary is only replayable when *both* hashes match — the
/// code is the same and it sits at the same program points.
///
/// subtreeHash memoizes into Node::structuralHashMemo (computed once at
/// parse via warmStructuralHashes, lazily for eval-overlay nodes);
/// subtreePositionHash is cheap and recomputed on demand.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_AST_STRUCTURALHASH_H
#define DDA_AST_STRUCTURALHASH_H

#include "ast/ASTContext.h"

#include <cstdint>

namespace dda {

/// 64-bit FNV-1a over a byte buffer; the primitive every hash here builds on.
uint64_t hashBytesFnv(const void *Data, size_t Len, uint64_t Seed);

/// Order-dependent 64-bit mix (not commutative: mixHash(a,b) != mixHash(b,a)).
uint64_t mixHash(uint64_t A, uint64_t B);

/// Structural Merkle hash of the subtree rooted at N (never 0; memoized).
uint64_t subtreeHash(const Node *N);

/// Hash of the (NodeID, line, column) layout of the subtree rooted at N.
uint64_t subtreePositionHash(const Node *N);

/// Computes (and memoizes) the structural hash of every subtree in the
/// program. Call once after parsing so later concurrent readers only ever
/// read the memo field.
void warmStructuralHashes(const Program &P);

} // namespace dda

#endif // DDA_AST_STRUCTURALHASH_H
