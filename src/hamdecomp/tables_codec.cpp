#include <string>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "hamdecomp/tables.hpp"

namespace hyperpath {

std::vector<Node> decode_cycle_transitions(const std::string& transitions,
                                           Node start) {
  std::vector<Node> cycle;
  cycle.reserve(transitions.size());
  Node v = start;
  for (char c : transitions) {
    cycle.push_back(v);
    v = flip_bit(v, c - 'a');
  }
  HP_CHECK(v == start, "transition string does not close");
  return cycle;
}

}  // namespace hyperpath
