//===- Arena.h - Chunked object arena and small-vector -----------*- C++ -*-==//
///
/// \file
/// Allocation support for the interpreter heaps. Two pieces:
///
/// `ChunkedArena<T>` replaces `std::deque<T>` as the backing store for
/// `Heap::Objects` / `EnvArena::Envs`. It keeps the deque's address
/// stability (elements live in fixed chunks that never move) but with a
/// chunk size tuned to the element (libstdc++'s deque uses 512-*byte*
/// blocks — about three JSObjects per block — so allocation-heavy programs
/// pay a malloc every third object). It only grows: elements live until
/// the arena dies.
///
/// `SmallVec<T, N>` is a small-size-optimized vector for trivially copyable
/// elements, used for `JSObject::MaybeAbsent`/`MaybePresent`: almost every
/// record has zero-to-few maybe-absent names, and inline storage keeps them
/// out of the global allocator during counterfactual branch churn.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_SUPPORT_ARENA_H
#define DDA_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace dda {

/// Chunked, append-only arena. Addresses are stable for the arena's
/// lifetime; `T` must be default-constructible. Move-only.
template <typename T, unsigned ChunkElems = 64>
class ChunkedArena {
  static_assert((ChunkElems & (ChunkElems - 1)) == 0,
                "chunk size must be a power of two");

  struct Chunk {
    alignas(alignof(T)) unsigned char Raw[sizeof(T) * ChunkElems];
    T *elems() { return reinterpret_cast<T *>(Raw); }
  };

  std::vector<std::unique_ptr<Chunk>> Chunks;
  size_t Sz = 0; ///< Live elements.

  T &slot(size_t I) { return Chunks[I / ChunkElems]->elems()[I % ChunkElems]; }
  const T &slot(size_t I) const {
    return Chunks[I / ChunkElems]->elems()[I % ChunkElems];
  }

  void destroyAll() {
    for (size_t I = 0; I < Sz; ++I)
      slot(I).~T();
    Chunks.clear();
    Sz = 0;
  }

public:
  ChunkedArena() = default;
  ~ChunkedArena() { destroyAll(); }

  ChunkedArena(const ChunkedArena &) = delete;
  ChunkedArena &operator=(const ChunkedArena &) = delete;
  ChunkedArena(ChunkedArena &&O) noexcept
      : Chunks(std::move(O.Chunks)), Sz(O.Sz) {
    O.Chunks.clear();
    O.Sz = 0;
  }
  ChunkedArena &operator=(ChunkedArena &&O) noexcept {
    if (this != &O) {
      destroyAll();
      Chunks = std::move(O.Chunks);
      Sz = O.Sz;
      O.Chunks.clear();
      O.Sz = 0;
    }
    return *this;
  }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }

  T &operator[](size_t I) {
    assert(I < Sz);
    return slot(I);
  }
  const T &operator[](size_t I) const {
    assert(I < Sz);
    return slot(I);
  }

  T &back() {
    assert(Sz > 0);
    return slot(Sz - 1);
  }

  /// Appends one default-constructed element.
  T &push() {
    if (Sz == Chunks.size() * ChunkElems)
      Chunks.push_back(std::make_unique<Chunk>());
    T &X = *new (&slot(Sz)) T();
    ++Sz;
    return X;
  }
};

/// Small-size-optimized vector for trivially copyable elements.
template <typename T, unsigned N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVec elements must be POD-like");

  T *Ptr;
  uint32_t Sz = 0;
  uint32_t Cap = N;
  alignas(alignof(T)) unsigned char Inline[sizeof(T) * N];

  T *inlineBuf() { return reinterpret_cast<T *>(Inline); }
  const T *inlineBuf() const { return reinterpret_cast<const T *>(Inline); }
  bool onHeap() const { return Ptr != inlineBuf(); }

  void grow(uint32_t Want) {
    uint32_t NewCap = Cap;
    while (NewCap < Want)
      NewCap *= 2;
    T *NewPtr = static_cast<T *>(
        ::operator new(sizeof(T) * NewCap, std::align_val_t(alignof(T))));
    std::memcpy(static_cast<void *>(NewPtr), Ptr, sizeof(T) * Sz);
    if (onHeap())
      ::operator delete(Ptr, std::align_val_t(alignof(T)));
    Ptr = NewPtr;
    Cap = NewCap;
  }

  void releaseHeap() {
    if (onHeap()) {
      ::operator delete(Ptr, std::align_val_t(alignof(T)));
      Ptr = inlineBuf();
      Cap = N;
    }
  }

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVec() : Ptr(inlineBuf()) {}
  ~SmallVec() { releaseHeap(); }

  SmallVec(const SmallVec &O) : Ptr(inlineBuf()) { assign(O.begin(), O.end()); }
  SmallVec &operator=(const SmallVec &O) {
    if (this != &O)
      assign(O.begin(), O.end());
    return *this;
  }
  SmallVec(SmallVec &&O) noexcept : Ptr(inlineBuf()) {
    if (O.onHeap()) {
      Ptr = O.Ptr;
      Sz = O.Sz;
      Cap = O.Cap;
      O.Ptr = O.inlineBuf();
      O.Sz = 0;
      O.Cap = N;
    } else {
      std::memcpy(static_cast<void *>(Ptr), O.Ptr, sizeof(T) * O.Sz);
      Sz = O.Sz;
      O.Sz = 0;
    }
  }
  SmallVec &operator=(SmallVec &&O) noexcept {
    if (this == &O)
      return *this;
    releaseHeap();
    Sz = 0;
    if (O.onHeap()) {
      Ptr = O.Ptr;
      Sz = O.Sz;
      Cap = O.Cap;
      O.Ptr = O.inlineBuf();
      O.Sz = 0;
      O.Cap = N;
    } else {
      std::memcpy(static_cast<void *>(Ptr), O.Ptr, sizeof(T) * O.Sz);
      Sz = O.Sz;
      O.Sz = 0;
    }
    return *this;
  }

  /// Assignment from any contiguous range (std::vector interop for the
  /// incremental-region serializer).
  SmallVec &operator=(const std::vector<T> &O) {
    assign(O.data(), O.data() + O.size());
    return *this;
  }

  void assign(const T *First, const T *Last) {
    uint32_t Want = static_cast<uint32_t>(Last - First);
    if (Want > Cap)
      grow(Want);
    // An empty std::vector's data() may be null, which memmove must not get.
    if (Want)
      std::memmove(static_cast<void *>(Ptr), First, sizeof(T) * Want);
    Sz = Want;
  }

  iterator begin() { return Ptr; }
  iterator end() { return Ptr + Sz; }
  const_iterator begin() const { return Ptr; }
  const_iterator end() const { return Ptr + Sz; }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }
  size_t capacity() const { return Cap; }

  T &operator[](size_t I) {
    assert(I < Sz);
    return Ptr[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Sz);
    return Ptr[I];
  }

  void clear() { Sz = 0; }

  void push_back(T V) {
    if (Sz == Cap)
      grow(Sz + 1);
    Ptr[Sz++] = V;
  }

  /// Inserts \p V before \p Pos (sorted-set maintenance).
  iterator insert(iterator Pos, T V) {
    size_t Off = static_cast<size_t>(Pos - Ptr);
    if (Sz == Cap)
      grow(Sz + 1);
    std::memmove(static_cast<void *>(Ptr + Off + 1), Ptr + Off,
                 sizeof(T) * (Sz - Off));
    Ptr[Off] = V;
    ++Sz;
    return Ptr + Off;
  }

  iterator erase(iterator Pos) {
    size_t Off = static_cast<size_t>(Pos - Ptr);
    std::memmove(static_cast<void *>(Ptr + Off), Ptr + Off + 1,
                 sizeof(T) * (Sz - Off - 1));
    --Sz;
    return Ptr + Off;
  }

  bool operator==(const SmallVec &O) const {
    if (Sz != O.Sz)
      return false;
    return std::memcmp(Ptr, O.Ptr, sizeof(T) * Sz) == 0;
  }
  bool operator!=(const SmallVec &O) const { return !(*this == O); }
};

} // namespace dda

#endif // DDA_SUPPORT_ARENA_H
