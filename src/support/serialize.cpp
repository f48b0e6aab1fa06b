#include "support/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <limits>

namespace dsmcpic::io {

void check_length(std::istream& is, std::uint64_t n, std::size_t elem_size) {
  DSMCPIC_CHECK_MSG(n <= std::numeric_limits<std::uint64_t>::max() / elem_size,
                    "corrupt length prefix " << n << " (size overflows)");
  std::streambuf* buf = is.rdbuf();
  const auto here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return;  // not seekable: unchecked
  const auto end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  if (end == std::streampos(-1)) return;
  const std::uint64_t left = static_cast<std::uint64_t>(end - here);
  DSMCPIC_CHECK_MSG(n * elem_size <= left,
                    "corrupt length prefix " << n << " x " << elem_size
                        << " bytes, only " << left << " left in the stream");
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DSMCPIC_CHECK_MSG(os.good(), "cannot open " << tmp);
    write(os);
    os.flush();
    DSMCPIC_CHECK_MSG(os.good(), "failed writing " << tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  DSMCPIC_CHECK_MSG(!ec, "cannot rename " << tmp << " -> " << path << ": "
                                          << ec.message());
}

}  // namespace dsmcpic::io
