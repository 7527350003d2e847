// On-chip block RAM primitive (an M20K-style bank).
//
// Hardware model:
//   * one synchronous read port: read(addr) at cycle t makes the data
//     available from rdata() at cycle t+1 (the bank has a registered output
//     stage — this is also why physical depth gains one word, see below);
//   * one write port: write(addr, v) commits at the clock edge;
//   * read-during-write to the same address returns OLD data
//     (read-before-write mode, the safe default on Intel devices);
//   * at most one read and one write per cycle.
//
// Physical rounding ("synthesis"): logical capacity is what the design
// asked for; the bank that actually gets stitched out of device RAM is
// bigger. Calibrated against the reference Quartus/Stratix-V results the
// paper reports (Table I "Actual" rows):
//   * Mode::Ram  — physical depth = depth + 1 (output register stage):
//                  11 -> 12, 1024 -> 1025;
//   * Mode::Fifo — FIFO pointer logic additionally aligns the depth:
//                  physical depth = round_up(depth + 1, 4):
//                  7 -> 8, 1020 -> 1024.
// Both rules are documented substitutions for real synthesis (DESIGN.md §2).
//
// The bank commits through the RAM commit shape (sim::RamPort), which owns
// the array, the port registers and the read-before-write clock edge.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "sim/clocked.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace smache::mem {

/// Bits per M20K block on Stratix-V-class devices.
inline constexpr std::uint64_t kM20kBits = 20480;

class BramBank : public sim::RamPort {
 public:
  enum class Mode { Ram, Fifo };

  BramBank(sim::Simulator& sim, std::string_view path, std::size_t depth,
           std::uint32_t width_bits, Mode mode)
      : RamPort(depth), depth_(depth), width_bits_(width_bits), mode_(mode) {
    charge(sim.ledger(), path, depth, width_bits, mode);
    sim.register_clocked(this);
  }

  /// Synthesis-rounded depth of a `depth`-word bank (see header comment).
  static std::size_t physical_depth(std::size_t depth, Mode mode) noexcept {
    const std::size_t with_output_stage = depth + 1;
    return mode == Mode::Ram
               ? with_output_stage
               : static_cast<std::size_t>(
                     smache::round_up(with_output_stage, 4));
  }

  /// Charge one bank's rounded bits and M20K blocks under `path` — what
  /// the constructor charges. Planned banks the simulation models without
  /// instantiating (the stream buffer's FIFO segments) charge through it.
  static void charge(sim::ResourceLedger& ledger, std::string_view path,
                     std::size_t depth, std::uint32_t width_bits,
                     Mode mode) {
    SMACHE_REQUIRE(depth >= 1);
    SMACHE_REQUIRE(width_bits >= 1 && width_bits <= 64);
    const std::uint64_t bits =
        static_cast<std::uint64_t>(physical_depth(depth, mode)) * width_bits;
    ledger.add(path, sim::ResKind::BramBits, bits);
    ledger.add(path, sim::ResKind::BramBlocks,
               smache::ceil_div(bits, kM20kBits));
  }

  std::size_t depth() const noexcept { return depth_; }
  std::uint32_t width_bits() const noexcept { return width_bits_; }

  std::size_t physical_depth() const noexcept {
    return physical_depth(depth_, mode_);
  }

  std::uint64_t physical_bits() const noexcept {
    return static_cast<std::uint64_t>(physical_depth()) * width_bits_;
  }

  /// Issue a synchronous read; rdata() returns the value next cycle.
  void read(std::size_t addr) {
    SMACHE_REQUIRE(addr < depth_);
    SMACHE_REQUIRE_MSG(!read_pending_, "two reads in one cycle on 1R port");
    read_addr_ = addr;
    read_pending_ = true;
    mark_dirty();
  }

  /// Registered read data from the most recent read(). Holds its value
  /// until the next read completes.
  std::uint64_t rdata() const noexcept { return rdata_; }

  /// Issue a write, applied at the clock edge.
  void write(std::size_t addr, std::uint64_t value) {
    SMACHE_REQUIRE(addr < depth_);
    SMACHE_REQUIRE_MSG(!write_pending_, "two writes in one cycle on 1W port");
    write_addr_ = addr;
    write_value_ = value & mask();
    write_pending_ = true;
    mark_dirty();
  }

  /// Test-bench backdoor (NOT hardware): inspect committed contents.
  std::uint64_t peek(std::size_t addr) const {
    SMACHE_REQUIRE(addr < depth_);
    return store_[addr];
  }
  /// Test-bench backdoor (NOT hardware): set committed contents.
  void poke(std::size_t addr, std::uint64_t value) {
    SMACHE_REQUIRE(addr < depth_);
    store_[addr] = value & mask();
  }

 private:
  std::uint64_t mask() const noexcept {
    return width_bits_ >= 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << width_bits_) - 1);
  }

  std::size_t depth_;
  std::uint32_t width_bits_;
  Mode mode_;
};

}  // namespace smache::mem
