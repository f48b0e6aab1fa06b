#pragma once
// The one persistence codec (DESIGN.md §3b). A persisted type lists its
// fields once, in `template <class Ar> void persist(Ar& ar) { ar(a_, b_); }`,
// which a Writer runs to write them and a Reader runs to read them back.
// Code only a read needs (checks, resets) sits under
// `if constexpr (Ar::kLoading)`.
//
// Encodings (native byte order): arithmetic types as raw bytes; bool as
// one byte, 0 or 1; std::string as a u64 length and the characters; a
// vector as a u64 length, then each element's fields if the element is a
// persist type, else the raw bytes of its trivially copyable elements; a
// persist type as its fields.
//
// Files may be corrupt: a Reader learns the stream's length once and checks
// every read and every length prefix against the bytes left before it
// allocates, so a bad file ends in dsmcpic::Error.
//
// Also here: the one atomic whole-file writer every published document
// uses.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::io {

template <bool kLoad>
class Archive;
using Writer = Archive<false>;
using Reader = Archive<true>;

template <class T>
concept Persistent = requires(T& t, Writer& w) { t.persist(w); };

template <class T>
concept Vector = std::is_same_v<T, std::vector<typename T::value_type>>;

/// Vector elements stored as one block of raw bytes.
template <class T>
concept RawElement = std::is_trivially_copyable_v<T> &&
                     !std::is_same_v<T, bool> && !Persistent<T>;

/// Bytes left in `is`; the maximum when it cannot seek (a read past its
/// end still fails, but a length prefix is not checked before it
/// allocates).
std::uint64_t bytes_left(std::istream& is);

/// Writer and Reader: one encoding per field type serves both directions.
template <bool kLoad>
class Archive {
 public:
  static constexpr bool kLoading = kLoad;
  using Stream = std::conditional_t<kLoad, std::istream, std::ostream>;

  explicit Archive(Stream& s) : s_(s) {
    if constexpr (kLoad) left_ = bytes_left(s);
  }

  template <class... T>
  void operator()(T&&... fields) {
    static_assert(!kLoad || (!std::is_const_v<std::remove_reference_t<T>> &&
                             ...),
                  "a Reader needs writable fields");
    // A Writer only reads the fields it is handed, so one non-const
    // persist member serves both directions.
    (field(const_cast<std::remove_cvref_t<T>&>(fields)), ...);
  }

  /// Writes `value`; a Reader throws dsmcpic::Error(`what`) unless it
  /// reads `value` back (magic numbers, versions, fingerprints, schemas).
  template <class T>
  void constant(const T& value, const char* what) {
    T got = value;
    field(got);
    DSMCPIC_CHECK_MSG(got == value, what);
  }

  /// Bytes not yet read (Reader).
  std::uint64_t left() const { return left_; }

 private:
  void bytes(void* p, std::size_t n) {
    if constexpr (kLoad) {
      DSMCPIC_CHECK_MSG(n <= left_, "read failed: " << n << " bytes wanted, "
                                                    << left_ << " left");
      s_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
      left_ -= n;
    } else {
      s_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    }
    DSMCPIC_CHECK_MSG(s_.good(), (kLoad ? "read failed" : "write failed"));
  }

  template <class T>
  void field(T& v) {
    if constexpr (Persistent<T>) {
      v.persist(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = v ? 1 : 0;
      bytes(&b, 1);
      DSMCPIC_CHECK_MSG(b <= 1, "corrupt bool byte " << int{b});
      if constexpr (kLoad) v = b == 1;
    } else if constexpr (std::is_arithmetic_v<T>) {
      bytes(&v, sizeof v);
    } else if constexpr (std::is_same_v<T, std::string> || Vector<T>) {
      using E = typename T::value_type;
      constexpr std::size_t kMinBytes = RawElement<E> ? sizeof(E) : 1;
      std::uint64_t n = v.size();
      field(n);
      if constexpr (kLoad) {
        DSMCPIC_CHECK_MSG(n <= left_ / kMinBytes,
                          "corrupt length prefix " << n << " x " << kMinBytes
                              << " bytes, only " << left_ << " left");
        if constexpr (RawElement<E>) v.resize(n);
        else v.clear();  // then one by one, never past the bytes left
      }
      if constexpr (RawElement<E>)
        bytes(v.data(), v.size() * sizeof(E));
      else if constexpr (kLoad)
        for (std::uint64_t i = 0; i < n; ++i) field(v.emplace_back());
      else
        for (E& e : v) field(e);
    } else {
      static_assert(sizeof(T) == 0, "io::Archive cannot encode this type");
    }
  }

  Stream& s_;
  std::uint64_t left_ = std::numeric_limits<std::uint64_t>::max();
};

/// Streams `write` into "<path>.tmp" and renames it over `path` (POSIX
/// rename is atomic within a filesystem), so a reader only ever sees the
/// old or the new complete file; nothing is buffered beyond the stream.
/// Throws dsmcpic::Error on I/O failure (and passes on what `write`
/// throws), leaving `path` as it was.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write);
inline void atomic_write_file(const std::string& path,
                              const std::string& content) {
  atomic_write_file(path, [&](std::ostream& os) { os << content; });
}

}  // namespace dsmcpic::io
