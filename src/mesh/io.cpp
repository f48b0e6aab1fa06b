#include "mesh/io.hpp"

#include <array>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::mesh {

namespace {
constexpr std::uint64_t kMagic = 0x445350435f4d5348ULL;  // "DSPC_MSH"
constexpr std::uint32_t kVersion = 1;

/// The native format: nodes, tets and four boundary kinds per tet.
struct NativeMesh {
  std::vector<Vec3> nodes;
  std::vector<std::array<std::int32_t, 4>> tets;
  std::vector<std::uint8_t> kinds;

  template <class Ar>
  void persist(Ar& ar) {
    ar.constant(kMagic, "not a dsmcpic mesh file");
    ar.constant(kVersion, "unsupported mesh file version");
    ar(nodes, tets, kinds);
  }
};

}  // namespace

void write_native(const TetMesh& mesh, const std::string& path) {
  NativeMesh m{mesh.nodes(), mesh.tets(),
               std::vector<std::uint8_t>(
                   static_cast<std::size_t>(mesh.num_tets()) * 4)};
  for (std::int32_t t = 0; t < mesh.num_tets(); ++t)
    for (int f = 0; f < 4; ++f)
      m.kinds[t * 4 + f] = static_cast<std::uint8_t>(mesh.face_kind(t, f));
  std::ofstream os(path, std::ios::binary);
  DSMCPIC_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  io::Writer{os}(m);
}

TetMesh read_native(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSMCPIC_CHECK_MSG(is.good(), "cannot open " << path);
  NativeMesh m;
  io::Reader{is}(m);
  TetMesh mesh(std::move(m.nodes), std::move(m.tets));
  mesh.assign_boundary_kinds(m.kinds);
  return mesh;
}

TetMesh read_vtk(const std::string& path) {
  std::ifstream is(path);
  DSMCPIC_CHECK_MSG(is.good(), "cannot open " << path);
  std::string token;
  std::vector<Vec3> nodes;
  std::vector<std::array<std::int32_t, 4>> tets;
  bool saw_points = false, saw_cells = false;
  while (is >> token) {
    if (token == "POINTS") {
      std::int64_t n = 0;
      std::string type;
      is >> n >> type;
      DSMCPIC_CHECK_MSG(n > 0, "VTK POINTS count must be positive");
      nodes.resize(static_cast<std::size_t>(n));
      for (auto& p : nodes) {
        DSMCPIC_CHECK_MSG(static_cast<bool>(is >> p.x >> p.y >> p.z),
                          "truncated VTK POINTS section");
      }
      saw_points = true;
    } else if (token == "CELLS") {
      std::int64_t n = 0, total = 0;
      is >> n >> total;
      DSMCPIC_CHECK_MSG(n > 0, "VTK CELLS count must be positive");
      tets.resize(static_cast<std::size_t>(n));
      for (auto& t : tets) {
        int nv = 0;
        DSMCPIC_CHECK_MSG(static_cast<bool>(is >> nv),
                          "truncated VTK CELLS section");
        DSMCPIC_CHECK_MSG(nv == 4, "only tetrahedral cells are supported");
        DSMCPIC_CHECK_MSG(
            static_cast<bool>(is >> t[0] >> t[1] >> t[2] >> t[3]),
            "truncated VTK CELLS section");
      }
      saw_cells = true;
    } else if (token == "CELL_TYPES") {
      std::int64_t n = 0;
      is >> n;
      for (std::int64_t i = 0; i < n; ++i) {
        int type = 0;
        DSMCPIC_CHECK_MSG(static_cast<bool>(is >> type),
                          "truncated VTK CELL_TYPES section");
        DSMCPIC_CHECK_MSG(type == 10, "only VTK_TETRA (10) cells supported");
      }
    }
  }
  DSMCPIC_CHECK_MSG(saw_points && saw_cells,
                    "VTK file missing POINTS or CELLS: " << path);
  return TetMesh(std::move(nodes), std::move(tets));
}

}  // namespace dsmcpic::mesh
