#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include "base/error.hpp"
#include "embed/classical.hpp"
#include "sim/ida.hpp"

namespace hyperpath {
namespace {

TEST(FaultSet, KillIsBidirectional) {
  FaultSet f(3);
  f.kill_link(0b000, 0b001);
  EXPECT_TRUE(f.link_dead(0b000, 0b001));
  EXPECT_TRUE(f.link_dead(0b001, 0b000));
  EXPECT_FALSE(f.link_dead(0b000, 0b010));
  EXPECT_EQ(f.num_dead_directed(), 2u);
}

TEST(FaultSet, RandomKillsRequestedCount) {
  Rng rng(11);
  const auto f = FaultSet::random(4, 7, rng);
  EXPECT_EQ(f.num_dead_directed(), 14u);
}

TEST(FaultSet, PathAliveness) {
  FaultSet f(3);
  f.kill_link(0b001, 0b011);
  EXPECT_TRUE(f.path_alive(HostPath{0b000, 0b010, 0b011}));
  EXPECT_FALSE(f.path_alive(HostPath{0b000, 0b001, 0b011}));
  EXPECT_TRUE(f.path_alive(HostPath{0b101}));  // trivial path
}

TEST(FaultSet, RejectsNonLink) {
  FaultSet f(3);
  EXPECT_THROW(f.kill_link(0b000, 0b011), Error);
}

TEST(Bundle, DeliveryCountsSurvivingPaths) {
  FaultSet f(3);
  f.kill_link(0b000, 0b001);
  const std::vector<HostPath> bundle{{0b000, 0b001, 0b011},
                                     {0b000, 0b010, 0b011}};
  const auto d = deliver_over_bundle(f, bundle);
  EXPECT_EQ(d.paths_total, 2);
  EXPECT_EQ(d.paths_alive, 1);
}

TEST(Bundle, PhaseDeliveryOverEmbedding) {
  const auto emb = gray_code_cycle_embedding(4);
  FaultSet f(4);
  // Kill the first cycle link (between images of guest nodes 0 and 1).
  f.kill_link(emb.host_of(0), emb.host_of(1));
  const auto per_edge = deliver_phase(f, emb);
  int dead_edges = 0;
  for (const auto& d : per_edge) dead_edges += (d.paths_alive == 0);
  // Width-1: exactly the two guest edges (one per direction... the guest is
  // a one-directional cycle, so exactly one edge dies).
  EXPECT_EQ(dead_edges, 1);
}

TEST(Integration, IdaOverFaultyBundleRecovers) {
  // Width-4 synthetic bundle between 0000 and 1111; 1 fault; IDA with
  // threshold 3 over 4 fragments survives.
  const std::vector<HostPath> bundle{
      {0b0000, 0b0001, 0b0011, 0b0111, 0b1111},
      {0b0000, 0b0010, 0b0110, 0b1110, 0b1111},
      {0b0000, 0b0100, 0b1100, 0b1101, 0b1111},
      {0b0000, 0b1000, 0b1001, 0b1011, 0b1111},
  };
  FaultSet f(4);
  f.kill_link(0b0010, 0b0110);

  std::vector<std::uint8_t> message(256);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  const auto frags = ida_encode(message, 4, 3);
  std::vector<IdaFragment> received;
  for (int i = 0; i < 4; ++i) {
    if (f.path_alive(bundle[i])) received.push_back(frags[i]);
  }
  EXPECT_EQ(received.size(), 3u);
  const auto decoded = ida_decode(received, 3, message.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

}  // namespace
}  // namespace hyperpath
