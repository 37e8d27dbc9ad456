#include "automata/packed_table.hpp"

#include <gtest/gtest.h>

#include "automata/dfa.hpp"
#include "helpers.hpp"

namespace rispar {
namespace {

TEST(PackedTable, WidthSelection) {
  Dfa small = Dfa::with_identity_alphabet(2);
  for (int s = 0; s < 3; ++s) small.add_state();
  EXPECT_EQ(small.packed().width(), TableWidth::kU8);

  Dfa medium = Dfa::with_identity_alphabet(2);
  for (int s = 0; s < 0xFF; ++s) medium.add_state();
  EXPECT_EQ(medium.packed().width(), TableWidth::kU16);
}

TEST(PackedTable, CarriesFormatSlack) {
  // build() appends the sentinel slack of the .rpb packed-section layout
  // after the last column (adopt() maps a section's bytes, slack included).
  const std::vector<State> rows{0, 1, 1, kDeadState};  // 2 states × 2 symbols
  const PackedTable table = PackedTable::build(rows, 2, 2);
  ASSERT_EQ(table.width(), TableWidth::kU8);
  EXPECT_EQ(table.total_entries(), 4 + kPackedSlackEntries);
  const std::uint8_t* data = table.data<std::uint8_t>();
  EXPECT_EQ(data[3], PackedDead<std::uint8_t>::value);  // packed [s=1][a=1]
  for (std::size_t pad = 0; pad < kPackedSlackEntries; ++pad)
    EXPECT_EQ(data[4 + pad], PackedDead<std::uint8_t>::value);
}

TEST(PackedTable, SymbolMajorLayoutMatchesStep) {
  const Dfa dfa = testing::fig2_dfa();
  const PackedTable& packed = dfa.packed();
  ASSERT_EQ(packed.width(), TableWidth::kU8);
  for (State s = 0; s < dfa.num_states(); ++s) {
    for (Symbol a = 0; a < dfa.num_symbols(); ++a) {
      const State expected = dfa.step(s, a);
      const std::uint8_t entry = packed.column<std::uint8_t>(a)[s];
      if (expected == kDeadState)
        EXPECT_EQ(entry, PackedDead<std::uint8_t>::value);
      else
        EXPECT_EQ(static_cast<State>(entry), expected);
    }
  }
}

TEST(PackedTable, DeadEntriesUseSentinel) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state();  // no transitions: every entry dead
  const PackedTable& packed = dfa.packed();
  for (Symbol a = 0; a < 2; ++a)
    EXPECT_EQ(packed.column<std::uint8_t>(a)[0], PackedDead<std::uint8_t>::value);
}

TEST(PackedTable, CacheInvalidatedByMutation) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state();
  dfa.add_state();
  EXPECT_EQ(dfa.packed().column<std::uint8_t>(0)[0], PackedDead<std::uint8_t>::value);
  dfa.set_transition(0, 0, 1);
  EXPECT_EQ(static_cast<State>(dfa.packed().column<std::uint8_t>(0)[0]), 1);
  dfa.add_state();
  EXPECT_EQ(dfa.packed().num_states(), 3);
}

TEST(PackedTable, CopiedDfaKeepsWorkingTable) {
  Dfa dfa = testing::fig2_dfa();
  dfa.packed();
  const Dfa copy = dfa;  // shares the immutable packed cache
  EXPECT_EQ(copy.packed().num_states(), dfa.num_states());
  dfa.set_transition(0, 0, 0);  // invalidates only dfa's cache
  EXPECT_EQ(static_cast<State>(copy.packed().column<std::uint8_t>(0)[0]), 1);
  EXPECT_EQ(static_cast<State>(dfa.packed().column<std::uint8_t>(0)[0]), 0);
}

}  // namespace
}  // namespace rispar
