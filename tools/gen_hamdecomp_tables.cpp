// Regenerates src/hamdecomp/tables.cpp.
//
// Runs the Hamiltonian-decomposition solver for the even dimensions given on
// the command line (default: 4 6 8 10 12) and writes a C++ source file that
// embeds each cycle as its transition-dimension string.  Usage:
//
//   gen_hamdecomp_tables [dims...] > src/hamdecomp/tables.cpp
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "hamdecomp/solver.hpp"
#include "hamdecomp/tables.hpp"

#include "parse_number.hpp"

int main(int argc, char** argv) {
  std::vector<int> dims;
  for (int i = 1; i < argc; ++i) {
    // The solver handles even dimensions in [2, 16].
    int n = 0;
    if (!hyperpath::tools::parse_number("dims", argv[i], 2, 16, n) ||
        n % 2 != 0) {
      if (n % 2 != 0) std::fprintf(stderr, "dims: %d is odd\n", n);
      std::fprintf(stderr, "usage: %s [even dims in 2..16...] > tables.cpp\n",
                   argv[0]);
      return 1;
    }
    dims.push_back(n);
  }
  if (dims.empty()) dims = {4, 6, 8, 10, 12};

  std::printf(
      "// GENERATED by tools/gen_hamdecomp_tables — do not edit by hand.\n"
      "// Each entry stores the Hamiltonian cycles of Q_n as transition\n"
      "// strings ('a' + dimension per step, starting from node 0); the\n"
      "// decoded decomposition is re-verified at load time.\n"
      "#include \"hamdecomp/tables.hpp\"\n\n"
      "namespace hyperpath {\n\n"
      "namespace {\n\n");

  for (int n : dims) {
    std::fprintf(stderr, "solving Q_%d...\n", n);
    const auto d = hyperpath::solve_even_decomposition(
        n, /*seed=*/0xC0FFEEull + static_cast<std::uint64_t>(n));
    std::printf("const char* const kCyclesQ%d[] = {\n", n);
    for (const auto& cyc : d.cycles) {
      // Rotate so the cycle starts at node 0 (decoder starts there).
      std::vector<hyperpath::Node> rot = cyc;
      std::size_t zero_at = 0;
      for (std::size_t i = 0; i < rot.size(); ++i) {
        if (rot[i] == 0) zero_at = i;
      }
      std::rotate(rot.begin(), rot.begin() + zero_at, rot.end());
      const std::string s = hyperpath::encode_cycle_transitions(rot);
      std::printf("    \"");
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (i > 0 && i % 72 == 0) std::printf("\"\n    \"");
        std::putchar(s[i]);
      }
      std::printf("\",\n");
    }
    std::printf("};\n\n");
    std::fprintf(stderr, "Q_%d done.\n", n);
  }

  std::printf("}  // namespace\n\n");
  std::printf(
      "std::optional<HamDecomposition> table_decomposition(int dims) {\n"
      "  const char* const* table = nullptr;\n"
      "  int count = 0;\n"
      "  switch (dims) {\n");
  for (int n : dims) {
    std::printf(
        "    case %d: table = kCyclesQ%d; count = %d; break;\n", n, n, n / 2);
  }
  std::printf(
      "    default: return std::nullopt;\n"
      "  }\n"
      "  HamDecomposition d;\n"
      "  d.dims = dims;\n"
      "  for (int i = 0; i < count; ++i) {\n"
      "    d.cycles.push_back(decode_cycle_transitions(table[i], 0));\n"
      "  }\n"
      "  return d;\n"
      "}\n\n"
      "}  // namespace hyperpath\n");
  return 0;
}
