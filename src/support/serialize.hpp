#pragma once
// Minimal binary (de)serialization helpers for checkpointing: PODs and
// vectors of PODs on iostreams, with length prefixes and failure checks;
// plus the one atomic whole-file writer every published document uses.
//
// Length prefixes come from files that may be corrupt, so a reader checks
// each one against the bytes left in the stream before it allocates.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "support/error.hpp"

namespace dsmcpic::io {

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  DSMCPIC_CHECK_MSG(is.good(), "checkpoint read failed (truncated?)");
  return value;
}

/// Throws dsmcpic::Error unless `n` elements of `elem_size` bytes fit in
/// the bytes left in `is` (unchecked when the stream cannot seek). Called
/// before anything is allocated for a length read from the stream.
void check_length(std::istream& is, std::uint64_t n, std::size_t elem_size);

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
  }
}

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(is);
  check_length(is, n, sizeof(T));
  std::vector<T> v(n);
  if (n) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    DSMCPIC_CHECK_MSG(is.good(), "checkpoint read failed (truncated?)");
  }
  return v;
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
  DSMCPIC_CHECK_MSG(os.good(), "checkpoint write failed");
}

inline std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  check_length(is, n, 1);
  std::string s(n, '\0');
  if (n) {
    is.read(s.data(), static_cast<std::streamsize>(n));
    DSMCPIC_CHECK_MSG(is.good(), "checkpoint read failed (truncated?)");
  }
  return s;
}

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
