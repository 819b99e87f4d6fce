#include "sim/simcore.hpp"

#include <algorithm>
#include <bit>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "sim/packet.hpp"

namespace hyperpath::simcore {

LinkFifoArena::LinkFifoArena(std::uint64_t num_links, std::size_t num_packets)
    : queues_(num_links), next_(num_packets, kNil) {}

void LinkFifoArena::reset(std::uint64_t num_links, std::size_t num_packets) {
  queues_.assign(num_links, Queue{});
  next_.assign(num_packets, kNil);
}

std::uint32_t checked_hop_offset(std::uint64_t hops_total) {
  HP_CHECK(hops_total <= 0xffffffffull, "route plan hop count overflow");
  return static_cast<std::uint32_t>(hops_total);
}

std::uint32_t checked_route_len(std::uint64_t hops) {
  HP_CHECK(hops <= 0xffffffffull, "route plan route length overflow");
  return static_cast<std::uint32_t>(hops);
}

std::uint32_t checked_release(int release) {
  HP_CHECK(release >= 0, "negative release time");
  return static_cast<std::uint32_t>(release);
}

void RoutePlan::clear() {
  route_nodes.clear();
  route_offsets.clear();
  link_of_hop.clear();
  route_len.clear();
  release.clear();
  global_link.clear();
  dim_of.clear();
  compact_ = false;
  stored_hops_ = 0;
}

void RoutePlan::reserve(std::size_t routes, std::size_t total_nodes) {
  route_nodes.reserve(total_nodes);
  route_offsets.reserve(routes);
  link_of_hop.reserve(total_nodes);  // hops < nodes; one reserve covers both
  route_len.reserve(routes);
  release.reserve(routes);
}

void RoutePlan::add_route(const Hypercube& host, const HostPath& route,
                          std::uint32_t release_step,
                          const char* invalid_msg) {
  HP_CHECK(is_valid_path(host, route), invalid_msg);
  append_route(host, route, release_step);
}

void RoutePlan::append_route(const Hypercube& host, const HostPath& route,
                             std::uint32_t release_step) {
  route_nodes.insert(route_nodes.end(), route.begin(), route.end());
  for (std::size_t h = 0; h + 1 < route.size(); ++h) {
    link_of_hop.push_back(
        static_cast<std::uint32_t>(host.edge_id(route[h], route[h + 1])));
  }
  append_stored(route.size() - 1, release_step);
}

void RoutePlan::append_stored(std::uint64_t hops,
                              std::uint32_t release_step) {
  const std::uint32_t start = static_cast<std::uint32_t>(stored_hops_);
  stored_hops_ += hops;
  checked_hop_offset(stored_hops_);  // start and every hop index fit too
  route_offsets.push_back(start);
  route_len.push_back(checked_route_len(hops));
  release.push_back(release_step);
}

void RoutePlan::repeat_route(std::uint32_t src, std::uint32_t release_step) {
  HP_CHECK(src < num_routes(), "repeat_route: source route out of range");
  route_offsets.push_back(std::uint32_t{route_offsets[src]});
  route_len.push_back(std::uint32_t{route_len[src]});
  release.push_back(release_step);
}

void RoutePlan::begin_route(std::uint32_t release_step) {
  stream_start_ = route_nodes.size();
  stream_release_ = release_step;
}

void RoutePlan::push_nodes(std::span<const Node> vs) {
  route_nodes.insert(route_nodes.end(), vs.begin(), vs.end());
}

void RoutePlan::end_route_unlinked(int dims,
                                   std::vector<std::uint64_t>& glinks,
                                   const char* invalid_msg) {
  const std::size_t len = route_nodes.size() - stream_start_;
  HP_CHECK(len >= 1, invalid_msg);
  const Node* nodes = route_nodes.data() + stream_start_;
  const std::uint64_t num_nodes = pow2(dims);
  HP_CHECK(nodes[0] < num_nodes, invalid_msg);
  for (std::size_t h = 0; h + 1 < len; ++h) {
    const Node diff = nodes[h] ^ nodes[h + 1];
    HP_CHECK(nodes[h + 1] < num_nodes && std::popcount(diff) == 1,
             invalid_msg);
    glinks.push_back(static_cast<std::uint64_t>(nodes[h]) * dims +
                     std::countr_zero(diff));
  }
  append_stored(len - 1, stream_release_);
}

void RoutePlan::compact_links(std::vector<std::uint64_t> glinks, int dims) {
  HP_CHECK(link_of_hop.empty() && glinks.size() == stored_hops_,
           "compact_links needs an unlinked plan and one global id per hop");
  HP_CHECK(dims >= 1 && dims <= 32, "compact_links: dims outside [1, 32]");
  const std::size_t num_hops = glinks.size();
  // Key = (global id << hop_bits) | hop.  Sorting on the id bits alone
  // with a stable LSD radix sort keeps equal ids in hop order, so the
  // keys come out fully sorted — the order std::sort of the ids gave.
  const std::uint64_t id_limit = static_cast<std::uint64_t>(dims) * pow2(dims);
  const int key_bits = std::bit_width(id_limit - 1);
  const int hop_bits = std::bit_width(num_hops > 0 ? num_hops - 1 : 0);
  HP_CHECK(key_bits + hop_bits <= 64,
           "compact_links: global id bits plus hop index bits exceed 64");
  const std::uint64_t hop_mask = (std::uint64_t{1} << hop_bits) - 1;

  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  // Every pass's digit histogram, filled by the packing scan.
  std::vector<std::size_t> count(static_cast<std::size_t>(passes) * kBuckets);
  for (std::size_t h = 0; h < num_hops; ++h) {
    const std::uint64_t g = glinks[h];
    HP_CHECK(g < id_limit,
             "compact_links: global link id not below dims*2^dims");
    for (int d = 0; d < passes; ++d) {
      ++count[d * kBuckets + ((g >> (d * kDigitBits)) & (kBuckets - 1))];
    }
    glinks[h] = (g << hop_bits) | h;
  }
  std::vector<std::uint64_t> scratch(num_hops);
  for (int d = 0; d < passes; ++d) {
    std::size_t* const offset = count.data() + d * kBuckets;
    const int shift = hop_bits + d * kDigitBits;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::size_t c = offset[b];
      offset[b] = sum;
      sum += c;
    }
    for (const std::uint64_t key : glinks) {
      scratch[offset[(key >> shift) & (kBuckets - 1)]++] = key;
    }
    glinks.swap(scratch);
  }
  scratch = {};

  // One scan of the sorted keys: ranks, the per-hop scatter, dimensions.
  global_link.clear();
  dim_of.clear();
  link_of_hop.resize(num_hops);
  std::uint64_t prev = ~std::uint64_t{0};
  for (const std::uint64_t key : glinks) {
    const std::uint64_t g = key >> hop_bits;
    if (g != prev) {
      // A global id is tail·dims + dim, so the dimension survives
      // renumbering.
      global_link.push_back(g);
      dim_of.push_back(static_cast<std::uint8_t>(g % dims));
      prev = g;
    }
    link_of_hop[key & hop_mask] =
        static_cast<std::uint32_t>(global_link.size() - 1);
  }
  compact_ = true;
}

void RoutePlan::rebuild(const Hypercube& host,
                        const std::vector<Packet>& packets) {
  // Dense link ids must narrow to 32 bits (n·2^n < 2^32 ⇔ n ≤ 27).  Every
  // supported workload is far inside this; the check makes the narrowing an
  // error instead of silent truncation if that ever changes.
  HP_CHECK(host.num_directed_edges() <= 0xffffffffull,
           "route plan needs 32-bit link ids (hypercube too large)");
  clear();
  std::size_t total_nodes = 0;
  for (const Packet& p : packets) total_nodes += p.route.size();
  reserve(packets.size(), total_nodes);
  for (const Packet& p : packets) {
    // A packet with a broken route AND a negative release reports the
    // route first; the release is narrowed only once both are checked.
    HP_CHECK(is_valid_path(host, p.route), "packet route invalid");
    append_route(host, p.route, checked_release(p.release));
  }
}

RoutePlan RoutePlan::compile(const Hypercube& host,
                             const std::vector<Packet>& packets) {
  RoutePlan plan;
  plan.rebuild(host, packets);
  return plan;
}

StepScratch& step_scratch() {
  thread_local StepScratch scratch;
  return scratch;
}

}  // namespace hyperpath::simcore
