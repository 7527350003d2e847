// Tests for the Verilog exporter: structural integrity (lint), and that
// the emitted module mirrors the plan — one register per window stage,
// one memory per FIFO segment and static-buffer copy, one case arm per
// boundary case.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "model/planner.hpp"
#include "rtl/verilog_export.hpp"

namespace smache::rtl {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

model::BufferPlan paper_plan(model::StreamImpl impl) {
  model::PlannerOptions o;
  o.stream_impl = impl;
  return model::Planner(o).plan(11, 11,
                                grid::StencilShape::von_neumann4(),
                                grid::BoundarySpec::paper_example());
}

TEST(VerilogExport, LintCleanForPaperPlan) {
  const auto text = export_verilog(paper_plan(model::StreamImpl::Hybrid));
  EXPECT_EQ(lint_verilog(text), "");
  EXPECT_NE(text.find("module smache_top"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VerilogExport, RejectsThreeDimensionalPlans) {
  // The emitted counters span one height x width plane, so a 3D plan has
  // no faithful module: it is refused with the reason, never exported.
  const auto plan = model::Planner().plan(8, 8, 6,
                                          grid::StencilShape::star7(),
                                          grid::BoundarySpec::all_open());
  ASSERT_EQ(plan.depth(), 6u);
  try {
    (void)export_verilog(plan);
    FAIL() << "a depth-6 plan was exported";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("depth 6"), std::string::npos)
        << e.what();
  }
}

TEST(VerilogExport, WindowRegistersMatchPlan) {
  const auto plan = paper_plan(model::StreamImpl::Hybrid);
  const auto text = export_verilog(plan);
  // One declaration per register-mapped age.
  EXPECT_EQ(count_occurrences(text, "reg [WIDTH-1:0] win_age"),
            plan.reg_window_elems());
  // Two BRAM FIFO memories with block-RAM attributes.
  EXPECT_EQ(count_occurrences(text, "fifo0_mem"), 3u);  // decl + rd + wr
  EXPECT_EQ(count_occurrences(text, "fifo1_mem"), 3u);
  EXPECT_EQ(count_occurrences(text, "(* ram_style = \"block\" *)"),
            plan.fifo_segments().size() +
                2 * 2);  // fifos + 2 banks x ping/pong
}

TEST(VerilogExport, RegisterOnlyPlanHasNoFifos) {
  const auto text =
      export_verilog(paper_plan(model::StreamImpl::RegisterOnly));
  EXPECT_EQ(count_occurrences(text, "fifo0_mem"), 0u);
  EXPECT_EQ(count_occurrences(text, "reg [WIDTH-1:0] win_age"), 25u);
  EXPECT_EQ(lint_verilog(text), "");
}

TEST(VerilogExport, CaseArmsMatchBoundaryCases) {
  const auto plan = paper_plan(model::StreamImpl::Hybrid);
  const auto text = export_verilog(plan);
  // Nine annotated case arms plus the case header itself.
  EXPECT_EQ(count_occurrences(text, "// trace: case "), 9u);
  EXPECT_NE(text.find("case (case_id)"), std::string::npos);
  EXPECT_NE(text.find("endcase"), std::string::npos);
}

TEST(VerilogExport, StaticBuffersEmitPingPongAndWriteThrough) {
  const auto text = export_verilog(paper_plan(model::StreamImpl::Hybrid));
  EXPECT_NE(text.find("static0_r0_ping"), std::string::npos);
  EXPECT_NE(text.find("static0_r0_pong"), std::string::npos);
  EXPECT_NE(text.find("static1_r0_ping"), std::string::npos);
  EXPECT_NE(text.find("wb_valid"), std::string::npos);
  EXPECT_NE(text.find("bank_sel"), std::string::npos);
}

TEST(VerilogExport, OpenBoundariesSkipStaticSection) {
  const auto plan = model::Planner().plan(
      8, 8, grid::StencilShape::von_neumann4(),
      grid::BoundarySpec::all_open());
  const auto text = export_verilog(plan);
  EXPECT_NE(text.find("no static buffers needed"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "_ping"), 0u);
  EXPECT_EQ(lint_verilog(text), "");
}

TEST(VerilogExport, ConstantSourcesBecomeLiterals) {
  const auto plan = model::Planner().plan(
      8, 8, grid::StencilShape::von_neumann4(),
      {grid::AxisBoundary::constant_halo(0xAB),
       grid::AxisBoundary::open()});
  const auto text = export_verilog(plan);
  EXPECT_NE(text.find("32'hab"), std::string::npos);
}

TEST(VerilogExport, StallHandshakePresent) {
  const auto text = export_verilog(paper_plan(model::StreamImpl::Hybrid));
  EXPECT_NE(text.find("assign s_tready"), std::string::npos);
  EXPECT_NE(text.find("m_tready"), std::string::npos);
  EXPECT_NE(text.find("shift_en = s_tvalid && s_tready"),
            std::string::npos);
}

TEST(VerilogExport, CustomModuleNameAndNoAnnotations) {
  VerilogOptions opt;
  opt.module_name = "my_cache";
  opt.annotate = false;
  const auto text =
      export_verilog(paper_plan(model::StreamImpl::Hybrid), opt);
  EXPECT_NE(text.find("module my_cache"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "// trace:"), 0u);
  EXPECT_EQ(lint_verilog(text), "");
}

TEST(VerilogExport, MoorePeriodicWithReplicasLints) {
  const auto plan = model::Planner().plan(
      16, 16, grid::StencilShape::moore9(),
      {grid::AxisBoundary::periodic(), grid::AxisBoundary::open()});
  const auto text = export_verilog(plan);
  EXPECT_EQ(lint_verilog(text), "");
  // Three replicas of each of two banks, each with two copies.
  EXPECT_NE(text.find("static0_r2_ping"), std::string::npos);
  EXPECT_NE(text.find("static1_r2_pong"), std::string::npos);
}

TEST(VerilogExport, LintCatchesBrokenText) {
  EXPECT_NE(lint_verilog("module m; begin end endmodule begin"), "");
  EXPECT_NE(lint_verilog("module m; endmodule endmodule"), "");
  EXPECT_NE(lint_verilog("module m; TODO endmodule"), "");
  EXPECT_EQ(lint_verilog("module m; always @(posedge clk) begin end "
                         "endmodule"),
            "");
}

TEST(VerilogExport, DeterministicOutput) {
  const auto a = export_verilog(paper_plan(model::StreamImpl::Hybrid));
  const auto b = export_verilog(paper_plan(model::StreamImpl::Hybrid));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace smache::rtl
