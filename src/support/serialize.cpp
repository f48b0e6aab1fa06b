#include "support/serialize.hpp"

#include <filesystem>
#include <fstream>

namespace dsmcpic::io {

std::uint64_t bytes_left(std::istream& is) {
  constexpr auto kUnbounded = std::numeric_limits<std::uint64_t>::max();
  std::streambuf* buf = is.rdbuf();
  const auto here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return kUnbounded;
  const auto end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  if (end == std::streampos(-1)) return kUnbounded;
  return static_cast<std::uint64_t>(end - here);
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
