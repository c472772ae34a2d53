// Unit tests for the set-associative MESI cache state container, plus
// a differential test against the array-of-structs reference model.
#include "machine/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/error.h"
#include "sim/rng.h"

namespace tflux::machine {
namespace {

CacheGeometry tiny() {
  // 4 sets x 2 ways x 64B lines = 512B.
  return CacheGeometry{512, 64, 2, 1, 1};
}

TEST(CacheTest, GeometryValidation) {
  EXPECT_THROW(Cache(CacheGeometry{512, 48, 2, 1, 1}), core::TFluxError);
  EXPECT_THROW(Cache(CacheGeometry{64, 64, 2, 1, 1}), core::TFluxError);
  // Zero divisors are rejected before the set count is computed.
  EXPECT_THROW(Cache(CacheGeometry{512, 64, 0, 1, 1}), core::TFluxError);
  EXPECT_THROW(Cache(CacheGeometry{512, 0, 2, 1, 1}), core::TFluxError);
  // line * ways wraps to zero in 32 bits.
  EXPECT_THROW(Cache(CacheGeometry{512, 64, 1u << 26, 1, 1}),
               core::TFluxError);
  // The low 2 bits of a line address hold its MESI state.
  EXPECT_THROW(Cache(CacheGeometry{512, 2, 2, 1, 1}), core::TFluxError);
  // Set index is a mask: 3 and 6 sets are rejected.
  EXPECT_THROW(Cache(CacheGeometry{384, 64, 2, 1, 1}), core::TFluxError);
  EXPECT_THROW(Cache(CacheGeometry{768, 64, 2, 1, 1}), core::TFluxError);
  EXPECT_NO_THROW(Cache(CacheGeometry{16, 4, 1, 1, 1}));
  Cache c(tiny());
  EXPECT_EQ(c.num_sets(), 4u);
  EXPECT_EQ(c.ways(), 2u);
}

TEST(CacheTest, LineAlignment) {
  Cache c(tiny());
  EXPECT_EQ(c.line_of(0), 0u);
  EXPECT_EQ(c.line_of(63), 0u);
  EXPECT_EQ(c.line_of(64), 64u);
  EXPECT_EQ(c.line_of(130), 128u);
}

TEST(CacheTest, MissThenHit) {
  Cache c(tiny());
  EXPECT_EQ(c.lookup(0), Mesi::kInvalid);
  c.insert(0, Mesi::kExclusive);
  EXPECT_EQ(c.lookup(0), Mesi::kExclusive);
  EXPECT_EQ(c.peek(0), Mesi::kExclusive);
}

TEST(CacheTest, SetStateAndInvalidate) {
  Cache c(tiny());
  c.insert(64, Mesi::kShared);
  c.set_state(64, Mesi::kModified);
  EXPECT_EQ(c.peek(64), Mesi::kModified);
  EXPECT_EQ(c.invalidate(64), Mesi::kModified);
  EXPECT_EQ(c.peek(64), Mesi::kInvalid);
  // Invalidating a non-resident line is a no-op returning kInvalid.
  EXPECT_EQ(c.invalidate(64), Mesi::kInvalid);
}

TEST(CacheTest, EvictsLruWithinSet) {
  Cache c(tiny());
  // Set stride = 4 sets * 64B = 256B: addresses 0, 256, 512 map to set 0.
  EXPECT_FALSE(c.insert(0, Mesi::kExclusive).has_value());
  EXPECT_FALSE(c.insert(256, Mesi::kExclusive).has_value());
  // Touch 0 so 256 becomes LRU.
  c.lookup(0);
  auto victim = c.insert(512, Mesi::kExclusive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 256u);
  EXPECT_EQ(victim->state, Mesi::kExclusive);
  EXPECT_EQ(c.peek(0), Mesi::kExclusive);
  EXPECT_EQ(c.peek(256), Mesi::kInvalid);
}

TEST(CacheTest, ReinsertUpdatesStateWithoutVictim) {
  Cache c(tiny());
  c.insert(0, Mesi::kShared);
  auto victim = c.insert(0, Mesi::kModified);
  EXPECT_FALSE(victim.has_value());
  EXPECT_EQ(c.peek(0), Mesi::kModified);
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(CacheTest, DifferentSetsDoNotConflict) {
  Cache c(tiny());
  for (int i = 0; i < 4; ++i) {
    c.insert(static_cast<SimAddr>(i) * 64, Mesi::kShared);
  }
  EXPECT_EQ(c.valid_lines(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.peek(static_cast<SimAddr>(i) * 64), Mesi::kShared);
  }
}

TEST(CacheTest, VictimDirtyStateReported) {
  Cache c(tiny());
  c.insert(0, Mesi::kModified);
  c.insert(256, Mesi::kShared);
  c.lookup(256);  // 0 is LRU
  auto victim = c.insert(512, Mesi::kExclusive);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line_addr, 0u);
  EXPECT_EQ(victim->state, Mesi::kModified);
}

// The array-of-structs cache the packed one replaced: the reference
// model for the differential test below. Each line is {tag, state,
// lru}; set = (line / line_bytes) % num_sets.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheGeometry& g)
      : g_(g), num_sets_(g.num_sets()),
        lines_(static_cast<std::size_t>(num_sets_) * g.ways) {}

  Mesi peek(SimAddr a) const {
    const Line* l = find(a);
    return l ? l->state : Mesi::kInvalid;
  }
  Mesi lookup(SimAddr a) {
    Line* l = find(a);
    if (!l) return Mesi::kInvalid;
    l->lru = ++clock_;
    return l->state;
  }
  void set_state(SimAddr a, Mesi s) { find(a)->state = s; }
  Mesi invalidate(SimAddr a) {
    Line* l = find(a);
    if (!l) return Mesi::kInvalid;
    const Mesi prev = l->state;
    l->state = Mesi::kInvalid;
    return prev;
  }
  std::optional<Cache::Victim> insert(SimAddr a, Mesi s) {
    if (Line* l = find(a)) {
      l->state = s;
      l->lru = ++clock_;
      return std::nullopt;
    }
    Line* base = set_of(a);
    Line* slot = nullptr;
    for (std::uint32_t w = 0; w < g_.ways; ++w) {
      if (base[w].state == Mesi::kInvalid) {
        slot = &base[w];
        break;
      }
      if (!slot || base[w].lru < slot->lru) slot = &base[w];
    }
    std::optional<Cache::Victim> victim;
    if (slot->state != Mesi::kInvalid) {
      victim = Cache::Victim{slot->tag, slot->state};
    }
    *slot = Line{a, s, ++clock_};
    return victim;
  }
  std::size_t valid_lines() const {
    std::size_t n = 0;
    for (const Line& l : lines_) n += l.state != Mesi::kInvalid;
    return n;
  }

 private:
  struct Line {
    SimAddr tag = 0;
    Mesi state = Mesi::kInvalid;
    std::uint64_t lru = 0;
  };
  Line* set_of(SimAddr a) {
    return &lines_[static_cast<std::size_t>((a / g_.line_bytes) % num_sets_) *
                   g_.ways];
  }
  Line* find(SimAddr a) {
    Line* base = set_of(a);
    for (std::uint32_t w = 0; w < g_.ways; ++w) {
      if (base[w].state != Mesi::kInvalid && base[w].tag == a) return &base[w];
    }
    return nullptr;
  }
  const Line* find(SimAddr a) const {
    return const_cast<ReferenceCache*>(this)->find(a);
  }

  CacheGeometry g_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

bool same_victim(const std::optional<Cache::Victim>& a,
                 const std::optional<Cache::Victim>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->line_addr == b->line_addr && a->state == b->state);
}

// Seeded random operation streams against the reference model. The
// addresses crowd a few sets with about twice as many tags as ways, so
// evictions, re-fills and invalidated holes are common; every tenth
// address carries high tag bits.
TEST(CacheTest, MatchesReferenceModel) {
  const struct {
    const char* name;
    CacheGeometry geometry;
  } cases[] = {
      {"tiny", tiny()},
      {"bagle_sparc.l1", bagle_sparc(1).l1},
      {"bagle_sparc.l2", bagle_sparc(1).l2},
      {"xeon_soft.l1", xeon_soft(1).l1},
      {"xeon_soft.l2", xeon_soft(1).l2},  // 16-way
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      Cache cache(c.geometry);
      ReferenceCache ref(c.geometry);
      sim::SplitMix64 rng(seed);
      const std::uint32_t sets = c.geometry.num_sets();
      const std::uint32_t hot_sets = std::min<std::uint32_t>(sets, 3);
      auto pick_addr = [&] {
        const std::uint64_t tag = rng.next_below(2 * c.geometry.ways + 1);
        const std::uint64_t set = rng.next_below(hot_sets);
        SimAddr a = (tag * sets + set) * c.geometry.line_bytes;
        if (rng.next_below(10) == 0) a += SimAddr{1} << 40;
        return a;
      };
      auto pick_state = [&] {
        return static_cast<Mesi>(1 + rng.next_below(3));  // S, E or M
      };
      std::vector<SimAddr> touched;
      for (int op = 0; op < 20000; ++op) {
        const SimAddr a = pick_addr();
        touched.push_back(a);
        switch (rng.next_below(6)) {
          case 0:
            ASSERT_EQ(cache.lookup(a), ref.lookup(a));
            break;
          case 1:
            ASSERT_EQ(cache.peek(a), ref.peek(a));
            break;
          case 2: {
            const Mesi s = pick_state();
            ASSERT_TRUE(same_victim(cache.insert(a, s), ref.insert(a, s)));
            break;
          }
          case 3:
            if (ref.peek(a) == Mesi::kInvalid) {
              const Mesi s = pick_state();
              ASSERT_TRUE(same_victim(cache.fill(a, s), ref.insert(a, s)));
            }
            break;
          case 4:
            if (ref.peek(a) != Mesi::kInvalid) {
              const Mesi s = pick_state();
              cache.set_state(a, s);
              ref.set_state(a, s);
            }
            break;
          default:
            ASSERT_EQ(cache.invalidate(a), ref.invalidate(a));
            break;
        }
        if (op % 97 == 0) {
          ASSERT_EQ(cache.valid_lines(), ref.valid_lines());
        }
      }
      EXPECT_EQ(cache.valid_lines(), ref.valid_lines());
      for (SimAddr a : touched) ASSERT_EQ(cache.peek(a), ref.peek(a));
    }
  }
}

}  // namespace
}  // namespace tflux::machine
