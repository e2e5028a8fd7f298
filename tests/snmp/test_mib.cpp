#include "snmp/mib.h"

#include <gtest/gtest.h>

namespace netqos::snmp {
namespace {

TEST(MibTree, GetReturnsRegisteredValue) {
  MibTree mib;
  mib.register_constant(Oid({1, 3, 6, 1}), std::int64_t{42});
  const auto value = mib.get(Oid({1, 3, 6, 1}));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, SnmpValue(std::int64_t{42}));
}

TEST(MibTree, GetMissingReturnsNullopt) {
  MibTree mib;
  EXPECT_FALSE(mib.get(Oid({1, 2, 3})).has_value());
}

TEST(MibTree, ProviderEvaluatedAtQueryTime) {
  MibTree mib;
  int counter = 0;
  mib.register_object(Oid({1}), [&counter] {
    return SnmpValue(std::int64_t{++counter});
  });
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{1}));
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{2}));
}

TEST(MibTree, RegistrationReplaces) {
  MibTree mib;
  mib.register_constant(Oid({1}), std::int64_t{1});
  mib.register_constant(Oid({1}), std::int64_t{2});
  EXPECT_EQ(*mib.get(Oid({1})), SnmpValue(std::int64_t{2}));
  EXPECT_EQ(mib.size(), 1u);
}

TEST(MibTree, UnregisterRemoves) {
  MibTree mib;
  mib.register_constant(Oid({1}), std::int64_t{1});
  mib.unregister_object(Oid({1}));
  EXPECT_FALSE(mib.get(Oid({1})).has_value());
}

TEST(MibTree, GetNextWalksLexicographically) {
  MibTree mib;
  mib.register_constant(Oid({1, 1}), std::int64_t{11});
  mib.register_constant(Oid({1, 2}), std::int64_t{12});
  mib.register_constant(Oid({2, 1}), std::int64_t{21});

  // One seek, then the cursor steps through the rest in OID order.
  MibTree::Cursor next = mib.seek_after(Oid({1}));
  ASSERT_FALSE(next.at_end());
  EXPECT_EQ(next.oid(), Oid({1, 1}));
  EXPECT_EQ(next.value(), SnmpValue(std::int64_t{11}));
  next.advance();
  EXPECT_EQ(next.oid(), Oid({1, 2}));
  next.advance();
  EXPECT_EQ(next.oid(), Oid({2, 1}));
  EXPECT_EQ(next.value(), SnmpValue(std::int64_t{21}));
  next.advance();
  EXPECT_TRUE(next.at_end());

  // Seeking from an instance lands strictly after it.
  EXPECT_EQ(mib.seek_after(Oid({1, 1})).oid(), Oid({1, 2}));
  EXPECT_EQ(mib.seek_after(Oid({1, 2})).oid(), Oid({2, 1}));
  EXPECT_TRUE(mib.seek_after(Oid({2, 1})).at_end());
}

TEST(MibTree, GetNextFromEmptyOidStartsAtFirst) {
  MibTree mib;
  mib.register_constant(Oid({1, 3}), std::int64_t{1});
  const MibTree::Cursor next = mib.seek_after(Oid{});
  ASSERT_FALSE(next.at_end());
  EXPECT_EQ(next.oid(), Oid({1, 3}));
}

TEST(MibTree, UnregisterSubtreeRemovesOnlySubtree) {
  MibTree mib;
  mib.register_constant(Oid({1, 7, 1}), std::int64_t{1});
  mib.register_constant(Oid({1, 7, 2}), std::int64_t{2});
  mib.register_constant(Oid({1, 8}), std::int64_t{3});
  mib.unregister_subtree(Oid({1, 7}));
  EXPECT_EQ(mib.size(), 1u);
  EXPECT_TRUE(mib.get(Oid({1, 8})).has_value());
}

TEST(MibTree, RefreshHookRunsBeforeLookups) {
  MibTree mib;
  int runs = 0;
  mib.add_refresh_hook([&runs](MibTree& tree) {
    ++runs;
    tree.register_constant(Oid({9, 9}), std::int64_t{runs});
  });
  EXPECT_EQ(*mib.get(Oid({9, 9})), SnmpValue(std::int64_t{1}));
  EXPECT_EQ(runs, 1);
  mib.seek_after(Oid({9}));
  EXPECT_EQ(runs, 2);
}

TEST(MibTree, HooksDoNotRecurse) {
  MibTree mib;
  int runs = 0;
  mib.add_refresh_hook([&runs](MibTree& tree) {
    ++runs;
    // A hook that itself queries the tree must not re-trigger hooks.
    tree.get(Oid({1}));
  });
  mib.get(Oid({1}));
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace netqos::snmp
