// Unit tests for the on-chip block RAM primitive: BramBank (synchronous
// read-before-write port, physical rounding).
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "mem/bram.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace smache::mem {
namespace {

TEST(Bram, SynchronousReadLatencyOne) {
  sim::Simulator sim;
  BramBank b(sim, "b", 8, 32, BramBank::Mode::Ram);
  b.write(3, 99);
  sim.step();
  b.read(3);
  EXPECT_EQ(b.rdata(), 0u) << "read data must not appear combinationally";
  sim.step();
  EXPECT_EQ(b.rdata(), 99u);
}

TEST(Bram, RdataHoldsUntilNextRead) {
  sim::Simulator sim;
  BramBank b(sim, "b", 4, 32, BramBank::Mode::Ram);
  b.write(0, 5);
  sim.step();
  b.read(0);
  sim.step();
  sim.step();
  sim.step();
  EXPECT_EQ(b.rdata(), 5u);
}

TEST(Bram, ReadDuringWriteReturnsOldData) {
  sim::Simulator sim;
  BramBank b(sim, "b", 4, 32, BramBank::Mode::Ram);
  b.poke(1, 10);
  b.read(1);
  b.write(1, 20);
  sim.step();
  EXPECT_EQ(b.rdata(), 10u) << "read-before-write semantics";
  EXPECT_EQ(b.peek(1), 20u);
}

TEST(Bram, PortLimitsEnforced) {
  sim::Simulator sim;
  BramBank b(sim, "b", 4, 32, BramBank::Mode::Ram);
  b.read(0);
  EXPECT_THROW(b.read(1), contract_error);
  b.write(0, 1);
  EXPECT_THROW(b.write(1, 2), contract_error);
  EXPECT_THROW(b.read(4), contract_error);
}

TEST(Bram, WidthMasking) {
  sim::Simulator sim;
  BramBank b(sim, "b", 4, 8, BramBank::Mode::Ram);
  b.write(0, 0x1FF);
  sim.step();
  EXPECT_EQ(b.peek(0), 0xFFu);
}

TEST(Bram, RamModePhysicalRounding) {
  // Calibrated against the paper's Table I actuals: depth + 1.
  sim::Simulator sim;
  BramBank a(sim, "a", 11, 32, BramBank::Mode::Ram);
  EXPECT_EQ(a.physical_depth(), 12u);
  EXPECT_EQ(a.physical_bits(), 384u);
  BramBank b(sim, "b", 1024, 32, BramBank::Mode::Ram);
  EXPECT_EQ(b.physical_depth(), 1025u);
}

TEST(Bram, FifoModePhysicalRounding) {
  // depth + 1 rounded to a multiple of 4: 7 -> 8, 1020 -> 1024.
  sim::Simulator sim;
  BramBank a(sim, "a", 7, 32, BramBank::Mode::Fifo);
  EXPECT_EQ(a.physical_depth(), 8u);
  BramBank b(sim, "b", 1020, 32, BramBank::Mode::Fifo);
  EXPECT_EQ(b.physical_depth(), 1024u);
}

TEST(Bram, LedgerChargesPhysicalBitsAndBlocks) {
  sim::Simulator sim;
  BramBank b(sim, "grp/bank", 1024, 32, BramBank::Mode::Ram);
  EXPECT_EQ(sim.ledger().total(sim::ResKind::BramBits, "grp"),
            1025u * 32);
  EXPECT_EQ(sim.ledger().total(sim::ResKind::BramBlocks, "grp"),
            (1025u * 32 + kM20kBits - 1) / kM20kBits);
}

TEST(Bram, StaticChargeMatchesConstructedBank) {
  // Planned banks the simulation does not instantiate charge through the
  // same rounding rule as a constructed bank.
  for (const auto mode : {BramBank::Mode::Ram, BramBank::Mode::Fifo}) {
    for (const std::size_t depth : {std::size_t{7}, std::size_t{1020}}) {
      sim::Simulator sim;
      sim::ResourceLedger planned;
      BramBank b(sim, "grp/bank", depth, 32, mode);
      BramBank::charge(planned, "grp/bank", depth, 32, mode);
      EXPECT_EQ(BramBank::physical_depth(depth, mode), b.physical_depth());
      for (const auto kind :
           {sim::ResKind::BramBits, sim::ResKind::BramBlocks})
        EXPECT_EQ(planned.total(kind, "grp/bank"),
                  sim.ledger().total(kind, "grp/bank"));
    }
  }
}

}  // namespace
}  // namespace smache::mem
