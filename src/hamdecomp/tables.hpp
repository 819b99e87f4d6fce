// Precomputed Hamiltonian decompositions of even hypercubes.
//
// The implementation file tables.cpp is *generated* by the
// gen_hamdecomp_tables tool (tools/, with the search in
// tools/hamdecomp_solver/): it solves each dimension once and stores each
// Hamiltonian cycle as its transition-dimension string (character 'a' + d
// for a step across dimension d, starting from node 0).  The tables are the
// library's only source of even-dimensional decompositions; every entry is
// re-verified by hamiltonian_decomposition() before use.
#pragma once

#include <optional>
#include <string>

#include "hamdecomp/decomposition.hpp"

namespace hyperpath {

/// The table entry for Q_dims (even dims only), or nullopt if not tabled.
std::optional<HamDecomposition> table_decomposition(int dims);

/// Decodes a transition string starting at node `start` into the closed node
/// sequence.
std::vector<Node> decode_cycle_transitions(const std::string& transitions,
                                           Node start);

}  // namespace hyperpath
