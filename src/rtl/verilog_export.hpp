// Verilog-2001 export of a planned Smache instance.
//
// The paper's future work includes "completely automate the creation of
// the Smache architecture given a problem with a particular stencil shape
// and boundary conditions" and integration with FPGA tooling. The Planner
// does the first; this module does the bridge to tooling: it emits a
// synthesisable structural/behavioural Verilog module that, for 2D plans of
// one-word cells (F = 1), mirrors the simulated microarchitecture
// one-for-one —
//
//   * the window: one `reg [31:0]` per register-mapped age, BRAM FIFO
//     segments as inferred block RAM (read-before-write, registered
//     output) with wrap-around pointers;
//   * static buffers: ping/pong copies per replica with an active-select
//     bit, write-through port, and synchronous reads;
//   * the gather unit: zone comparators on the row/column counters and a
//     per-case `case` mux assembling the tuple with validity bits;
//   * an AXI4-Stream-style stall interface (tvalid/tready/tdata).
//
// The emitted text is deterministic for a given plan, so tests can check
// its structure. It has NOT been run through vendor synthesis in this
// environment (no FPGA tools); resource-relevant structure is the point.
#pragma once

#include <string>

#include "model/planner.hpp"
#include "rtl/kernel.hpp"

namespace smache::rtl {

struct VerilogOptions {
  std::string module_name = "smache_top";
  /// Emit `// trace:` comments mapping lines back to the plan.
  bool annotate = true;
};

/// Render the complete Verilog module for a 2D plan of one-word cells.
/// Throws contract_error for a plan with depth > 1. The field count is not
/// part of the plan, so a multi-field kernel cannot be rejected here: its
/// module would carry one word per cell.
std::string export_verilog(const model::BufferPlan& plan,
                           const VerilogOptions& options = {});

/// Structural self-check used by tests and by export_verilog's
/// postcondition: balanced begin/end, module/endmodule pairing, and no
/// unresolved placeholders. Returns an empty string when clean, otherwise
/// a description of the first problem.
std::string lint_verilog(const std::string& text);

}  // namespace smache::rtl
