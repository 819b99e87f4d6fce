#include "sim/simcore.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "sim/packet.hpp"

namespace hyperpath::simcore {

void LinkFifoArena::reset(ScratchPool& pool, std::uint64_t num_links,
                          std::size_t num_packets) {
  queues_ = pool.make<Queue>(num_links).data();  // empty queues
  next_ = pool.make<std::uint32_t>(num_packets).data();
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
  host_order.clear();
  compact_ = false;
  stored_hops_ = 0;
}

void RoutePlan::reserve(std::size_t routes, std::size_t total_nodes) {
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
  route_nodes.clear();
  stream_release_ = release_step;
}

void RoutePlan::push_nodes(std::span<const Node> vs) {
  route_nodes.insert(route_nodes.end(), vs.begin(), vs.end());
}

void RoutePlan::end_route_unlinked(int dims,
                                   std::vector<std::uint64_t>& glinks,
                                   const char* invalid_msg) {
  HP_CHECK(!route_nodes.empty(), invalid_msg);
  const std::size_t at = glinks.size();
  glinks.resize(at + route_nodes.size() - 1);
  store_unlinked(route_nodes, stream_release_, dims, glinks.data() + at,
                 invalid_msg);
  route_nodes.clear();
}

void RoutePlan::add_route_unlinked(std::span<const Node> route,
                                   std::uint32_t release_step, int dims,
                                   ScratchPool& pool,
                                   std::span<std::uint64_t>& ids,
                                   const char* invalid_msg) {
  HP_CHECK(!route.empty(), invalid_msg);
  const std::uint64_t need = stored_hops_ + (route.size() - 1);
  if (need > ids.size()) {
    ids = pool.resize(ids, std::max<std::size_t>(need, 2 * ids.size()));
  }
  store_unlinked(route, release_step, dims, ids.data() + stored_hops_,
                 invalid_msg);
}

void RoutePlan::store_unlinked(std::span<const Node> route,
                               std::uint32_t release_step, int dims,
                               std::uint64_t* ids, const char* invalid_msg) {
  const std::size_t len = route.size();
  const std::uint64_t num_nodes = pow2(dims);
  HP_CHECK(route[0] < num_nodes, invalid_msg);
  for (std::size_t h = 0; h + 1 < len; ++h) {
    const Node diff = route[h] ^ route[h + 1];
    HP_CHECK(route[h + 1] < num_nodes && std::popcount(diff) == 1,
             invalid_msg);
    ids[h] = static_cast<std::uint64_t>(route[h]) * dims +
             std::countr_zero(diff);
  }
  append_stored(len - 1, release_step);
}

void RoutePlan::compact_links(ScratchPool& pool,
                              std::span<std::uint64_t> ids, int dims) {
  const std::size_t num_hops = stored_hops_;
  HP_CHECK(link_of_hop.empty() && ids.size() >= num_hops,
           "compact_links needs an unlinked plan and one global id per hop");
  HP_CHECK(dims >= 1 && dims <= 32, "compact_links: dims outside [1, 32]");
  // Key = (global id << hop_bits) | hop.  Sorting on the id bits alone
  // with a stable LSD radix sort keeps equal ids in hop order, so each
  // id's run of keys starts with its first use.
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
  // Both halves also hold the hop bitmap below: 2·⌈hops/64⌉ words, more
  // than the hop count only for a single hop.  The spare half is written
  // before it is read, in every slot.
  const std::size_t words = (num_hops + 63) / 64;
  const std::size_t half = std::max(num_hops, 2 * words);
  std::uint64_t* keys = pool.resize(ids, 2 * half).data();
  std::uint64_t* spare = keys + half;
  for (std::size_t h = 0; h < num_hops; ++h) {
    const std::uint64_t g = keys[h];
    HP_CHECK(g < id_limit,
             "compact_links: global link id not below dims*2^dims");
    for (int d = 0; d < passes; ++d) {
      ++count[d * kBuckets + ((g >> (d * kDigitBits)) & (kBuckets - 1))];
    }
    keys[h] = (g << hop_bits) | h;
  }
  for (int d = 0; d < passes; ++d) {
    std::size_t* const offset = count.data() + d * kBuckets;
    const int shift = hop_bits + d * kDigitBits;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::size_t c = offset[b];
      offset[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < num_hops; ++i) {
      const std::uint64_t key = keys[i];
      spare[offset[(key >> shift) & (kBuckets - 1)]++] = key;
    }
    std::swap(keys, spare);
  }

  // First-use ids without a second sort.  A link's run of sorted keys
  // starts with its first hop, so one scan marks every run's first hop in
  // a bitmap over the hops; a link's compact id is the number of marked
  // hops before its first one.  The bitmap and its per-word prefix counts
  // live in the buffer the sorted keys left.
  std::uint64_t* const first_use = spare;
  std::uint64_t* const marked_before = spare + words;
  std::fill_n(first_use, words, 0);
  std::uint32_t links = 0;
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t i = 0; i < num_hops; ++i) {
    const std::uint64_t key = keys[i];
    if ((key >> hop_bits) != prev) {
      prev = key >> hop_bits;
      const std::uint64_t h = key & hop_mask;
      first_use[h >> 6] |= std::uint64_t{1} << (h & 63);
      ++links;
    }
  }
  std::uint64_t marked = 0;
  for (std::size_t w = 0; w < words; ++w) {
    marked_before[w] = marked;
    marked += std::popcount(first_use[w]);
  }

  // A second sorted scan fills the plan's own vectors, so a reused plan
  // keeps their capacity: each run's compact id, host id and dimension,
  // its slot in host_order (runs come in host id order), and the
  // link_of_hop entry of each of its hops.
  link_of_hop.resize(num_hops);
  global_link.resize(links);
  dim_of.resize(links);
  host_order.resize(links);
  std::uint32_t rank = 0;
  std::uint32_t id = kNil;
  prev = ~std::uint64_t{0};
  for (std::size_t i = 0; i < num_hops; ++i) {
    const std::uint64_t key = keys[i];
    const std::uint64_t h = key & hop_mask;
    if ((key >> hop_bits) != prev) {
      prev = key >> hop_bits;
      const std::uint64_t below =
          first_use[h >> 6] & ((std::uint64_t{1} << (h & 63)) - 1);
      id = static_cast<std::uint32_t>(marked_before[h >> 6] +
                                      std::popcount(below));
      global_link[id] = prev;
      // A global id is tail·dims + dim, so the dimension survives
      // renumbering.
      dim_of[id] = static_cast<std::uint8_t>(prev % dims);
      host_order[rank++] = id;
    }
    link_of_hop[h] = id;
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
