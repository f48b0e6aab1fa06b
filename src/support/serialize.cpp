#include "support/serialize.hpp"

#include <filesystem>
#include <fstream>

namespace dsmcpic::io {

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DSMCPIC_CHECK_MSG(os.good(), "cannot open " << tmp);
    os << content;
    os.flush();
    DSMCPIC_CHECK_MSG(os.good(), "failed writing " << tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  DSMCPIC_CHECK_MSG(!ec, "cannot rename " << tmp << " -> " << path << ": "
                                          << ec.message());
}

}  // namespace dsmcpic::io
