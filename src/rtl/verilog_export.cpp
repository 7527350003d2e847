#include "rtl/verilog_export.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

namespace {

// Small indentation-aware emitter so the generated text stays readable.
class Emitter {
 public:
  void line(const std::string& text = "") {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << text << '\n';
  }
  void open(const std::string& text) {
    line(text);
    ++indent_;
  }
  void close(const std::string& text) {
    --indent_;
    line(text);
  }
  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  int indent_ = 0;
};

std::string reg_name(std::size_t age) {
  return "win_age" + std::to_string(age);
}

void emit_header(Emitter& e, const model::BufferPlan& plan,
                 const VerilogOptions& opt) {
  e.line("// Auto-generated by the Smache planner — do not edit.");
  e.line("// problem: " + std::to_string(plan.height()) + "x" +
         std::to_string(plan.width()) + " stencil=" + plan.shape().name() +
         " rows=" + grid::to_string(plan.bc().rows.kind) +
         " cols=" + grid::to_string(plan.bc().cols.kind));
  e.line("// window: " + std::to_string(plan.window_len()) +
         " elements, " + std::to_string(plan.reg_window_elems()) +
         " in registers, " + std::to_string(plan.bram_window_elems()) +
         " in BRAM; " + std::to_string(plan.static_buffers().size()) +
         " static buffer(s); " + std::to_string(plan.cases().case_count()) +
         " boundary case(s)");
  e.line("`timescale 1ns/1ps");
  e.line();
  const std::size_t tuple = plan.shape().size();
  e.open("module " + opt.module_name + " #(");
  e.line("parameter WIDTH = 32");
  e.close(") (");
  e.open("");
  e.line("input  wire                       clk,");
  e.line("input  wire                       rst,");
  e.line("// grid stream in (AXI4-Stream style)");
  e.line("input  wire                       s_tvalid,");
  e.line("input  wire [WIDTH-1:0]           s_tdata,");
  e.line("output wire                       s_tready,");
  e.line("// stencil tuple out to the computation kernel");
  e.line("output reg                        m_tvalid,");
  e.line("output reg  [" + std::to_string(tuple) + "*WIDTH-1:0]   m_tdata,");
  e.line("output reg  [" + std::to_string(tuple) + "-1:0]         m_tmask,");
  e.line("input  wire                       m_tready,");
  e.line("// kernel write-back (for static-buffer write-through)");
  e.line("input  wire                       wb_valid,");
  e.line("input  wire [WIDTH-1:0]           wb_data,");
  e.line("input  wire [" +
         std::to_string(smache::count_bits(plan.height() * plan.width())) +
         "-1:0]           wb_index,");
  e.line("input  wire                       instance_swap");
  e.close(");");
  e.line();
}

void emit_window(Emitter& e, const model::BufferPlan& plan,
                 const VerilogOptions& opt) {
  e.line("// ---- stream (window) buffer: " +
         std::string(model::to_string(plan.stream_impl())) + " ----");
  e.line("wire shift_en;");
  for (std::size_t age : plan.reg_ages())
    e.line("reg [WIDTH-1:0] " + reg_name(age) + ";");
  e.line();

  // BRAM FIFO segments.
  for (std::size_t s = 0; s < plan.fifo_segments().size(); ++s) {
    const auto& seg = plan.fifo_segments()[s];
    const std::string id = std::to_string(s);
    const std::string depth = std::to_string(seg.bram_len);
    const std::string abits =
        std::to_string(smache::addr_bits(seg.bram_len));
    if (opt.annotate)
      e.line("// trace: FIFO segment " + id + " covers ages " +
             std::to_string(seg.in_stage_age + 1) + ".." +
             std::to_string(seg.out_stage_age - 1));
    e.line("(* ram_style = \"block\" *) reg [WIDTH-1:0] fifo" + id +
           "_mem [0:" + depth + "-1];");
    e.line("reg [" + abits + "-1:0] fifo" + id + "_ptr;");
    e.line("reg [WIDTH-1:0] fifo" + id + "_rdata;");
    e.open("always @(posedge clk) begin");
    e.open("if (shift_en) begin");
    e.line("fifo" + id + "_rdata <= fifo" + id + "_mem[(fifo" + id +
           "_ptr + 1'b1) % " + depth + "];");
    e.line("fifo" + id + "_mem[fifo" + id + "_ptr] <= " +
           reg_name(seg.in_stage_age) + ";");
    e.line("fifo" + id + "_ptr <= (fifo" + id + "_ptr + 1'b1) % " + depth +
           ";");
    e.close("end");
    e.line("if (rst) fifo" + id + "_ptr <= 0;");
    e.close("end");
    e.line();
  }

  // Register shift chain.
  e.open("always @(posedge clk) begin");
  e.open("if (shift_en) begin");
  for (std::size_t i = 0; i < plan.reg_ages().size(); ++i) {
    const std::size_t age = plan.reg_ages()[i];
    if (age == 1) {
      e.line(reg_name(age) + " <= s_tdata;");
      continue;
    }
    bool from_bram = false;
    for (std::size_t s = 0; s < plan.fifo_segments().size(); ++s) {
      if (plan.fifo_segments()[s].out_stage_age == age) {
        e.line(reg_name(age) + " <= fifo" + std::to_string(s) + "_rdata;");
        from_bram = true;
        break;
      }
    }
    if (!from_bram) e.line(reg_name(age) + " <= " + reg_name(age - 1) + ";");
  }
  e.close("end");
  e.close("end");
  e.line();
}

void emit_static_buffers(Emitter& e, const model::BufferPlan& plan,
                         const VerilogOptions& opt) {
  if (plan.static_buffers().empty()) {
    e.line("// ---- no static buffers needed for these boundaries ----");
    e.line();
    return;
  }
  e.line("// ---- static buffers (double-buffered, write-through) ----");
  e.line("reg bank_sel;");
  e.line("always @(posedge clk) begin");
  e.line("  if (rst) bank_sel <= 1'b0;");
  e.line("  else if (instance_swap) bank_sel <= ~bank_sel;");
  e.line("end");
  const std::string wbits = std::to_string(smache::addr_bits(plan.width()));
  for (std::size_t b = 0; b < plan.static_buffers().size(); ++b) {
    const auto& spec = plan.static_buffers()[b];
    if (opt.annotate)
      e.line("// trace: bank '" + spec.name + "' holds grid row " +
             std::to_string(spec.grid_row) + " x" +
             std::to_string(spec.replicas) + " replica(s)");
    for (std::size_t rep = 0; rep < spec.replicas; ++rep) {
      const std::string id =
          std::to_string(b) + "_r" + std::to_string(rep);
      e.line("(* ram_style = \"block\" *) reg [WIDTH-1:0] static" + id +
             "_ping [0:" + std::to_string(spec.length) + "-1];");
      e.line("(* ram_style = \"block\" *) reg [WIDTH-1:0] static" + id +
             "_pong [0:" + std::to_string(spec.length) + "-1];");
      e.line("reg [" + wbits + "-1:0] static" + id + "_raddr;");
      e.line("reg [WIDTH-1:0] static" + id + "_rdata;");
      e.open("always @(posedge clk) begin");
      e.line("static" + id + "_rdata <= bank_sel ? static" + id +
             "_pong[static" + id + "_raddr] : static" + id +
             "_ping[static" + id + "_raddr];");
      e.line("// write-through capture of kernel output for row " +
             std::to_string(spec.grid_row));
      e.open("if (wb_valid && (wb_index / " +
             std::to_string(plan.width()) + ") == " +
             std::to_string(spec.grid_row) + ") begin");
      e.line("if (bank_sel) static" + id + "_ping[wb_index % " +
             std::to_string(plan.width()) + "] <= wb_data;");
      e.line("else         static" + id + "_pong[wb_index % " +
             std::to_string(plan.width()) + "] <= wb_data;");
      e.close("end");
      e.close("end");
    }
  }
  e.line();
}

void emit_gather(Emitter& e, const model::BufferPlan& plan,
                 const VerilogOptions& opt) {
  const auto& cases = plan.cases();
  const std::size_t tuple = plan.shape().size();
  const std::string rbits = std::to_string(smache::count_bits(plan.height()));
  const std::string cbits = std::to_string(smache::count_bits(plan.width()));
  const std::string kbits =
      std::to_string(smache::count_bits(cases.case_count()));

  e.line("// ---- gather unit: zone classification + per-case tuple mux "
         "----");
  e.line("reg [" + rbits + "-1:0] cur_row;");
  e.line("reg [" + cbits + "-1:0] cur_col;");
  e.line("reg [" + kbits + "-1:0] case_id;");
  e.line();

  // Zone comparators.
  const auto& rz = cases.rows();
  const auto& cz = cases.cols();
  e.open("always @* begin : zone_classify");
  e.line("reg [" + kbits + "-1:0] zr;");
  e.line("reg [" + kbits + "-1:0] zc;");
  e.line("zr = " + std::to_string(rz.mid()) + ";");
  for (std::size_t z = 0; z < rz.count(); ++z) {
    if (z == rz.mid()) continue;
    e.line("if (cur_row == " + std::to_string(rz.exact_coord(z)) +
           ") zr = " + std::to_string(z) + ";");
  }
  e.line("zc = " + std::to_string(cz.mid()) + ";");
  for (std::size_t z = 0; z < cz.count(); ++z) {
    if (z == cz.mid()) continue;
    e.line("if (cur_col == " + std::to_string(cz.exact_coord(z)) +
           ") zc = " + std::to_string(z) + ";");
  }
  e.line("case_id = zr * " + std::to_string(cz.count()) + " + zc;");
  e.close("end");
  e.line();

  // Per-case tuple assembly.
  e.open("always @* begin : tuple_mux");
  e.line("m_tdata = {" + std::to_string(tuple) + "*WIDTH{1'b0}};");
  e.line("m_tmask = {" + std::to_string(tuple) + "{1'b0}};");
  e.open("case (case_id)");
  for (std::size_t id = 0; id < cases.case_count(); ++id) {
    if (opt.annotate)
      e.line("// trace: case " + cases.label(id));
    e.open(std::to_string(id) + ": begin");
    const auto& sources = plan.gather(id);
    for (std::size_t j = 0; j < sources.size(); ++j) {
      const auto& g = sources[j];
      const std::string slot = "m_tdata[" + std::to_string(j) +
                               "*WIDTH +: WIDTH]";
      const std::string mask = "m_tmask[" + std::to_string(j) + "]";
      switch (g.kind) {
        case model::SourceKind::Window:
          e.line(slot + " = " + reg_name(g.window_age) + "; " + mask +
                 " = 1'b1;");
          break;
        case model::SourceKind::Static:
          e.line(slot + " = static" + std::to_string(g.static_index) +
                 "_r" + std::to_string(g.replica) + "_rdata; " + mask +
                 " = 1'b1;");
          break;
        case model::SourceKind::Constant:
          e.line(slot + " = 32'h" +
                 [&] {
                   std::ostringstream h;
                   h << std::hex << g.constant;
                   return h.str();
                 }() +
                 "; " + mask + " = 1'b1;");
          break;
        case model::SourceKind::Skip:
          e.line("// offset " + std::to_string(j) +
                 " falls off an open boundary: masked");
          break;
      }
    }
    e.close("end");
  }
  e.line("default: ;");
  e.close("endcase");
  e.close("end");
  e.line();
}

void emit_control(Emitter& e, const model::BufferPlan& plan) {
  const std::size_t cells = plan.height() * plan.width();
  const std::string nbits = std::to_string(smache::count_bits(
      cells + plan.window_len()));
  e.line("// ---- stream control: fill tracking and stall handshake ----");
  e.line("reg [" + nbits + "-1:0] shifts;");
  e.line("wire window_primed = shifts >= " +
         std::to_string(plan.center_age()) + ";");
  e.line("assign shift_en = s_tvalid && s_tready;");
  e.line("assign s_tready = !window_primed || m_tready;");
  e.open("always @(posedge clk) begin");
  e.open("if (rst) begin");
  e.line("shifts  <= 0;");
  e.line("cur_row <= 0;");
  e.line("cur_col <= 0;");
  e.line("m_tvalid <= 1'b0;");
  e.close("end else begin");
  e.open("");
  e.line("if (shift_en) shifts <= shifts + 1'b1;");
  e.line("m_tvalid <= window_primed && shift_en;");
  e.open("if (window_primed && shift_en) begin");
  e.open("if (cur_col == " + std::to_string(plan.width() - 1) +
         ") begin");
  e.line("cur_col <= 0;");
  e.line("cur_row <= cur_row + 1'b1;");
  e.close("end else begin");
  e.line("  cur_col <= cur_col + 1'b1;");
  e.line("end");
  e.close("end");
  e.close("");
  e.close("end");
  e.close("end");
  e.line();
}

}  // namespace

std::string export_verilog(const model::BufferPlan& plan,
                           const VerilogOptions& options) {
  // The counters and address widths below span one height x width plane.
  if (plan.depth() > 1)
    throw contract_error(
        "export_verilog models 2D plans only; this plan has depth " +
        std::to_string(plan.depth()) +
        " (a 3D window and slice counter are not emitted)");
  Emitter e;
  emit_header(e, plan, options);
  emit_window(e, plan, options);
  emit_static_buffers(e, plan, options);
  emit_gather(e, plan, options);
  emit_control(e, plan);
  e.line("endmodule");
  const std::string text = e.str();
  const std::string problem = lint_verilog(text);
  SMACHE_ENSURE(problem.empty());
  return text;
}

std::string lint_verilog(const std::string& text) {
  // Token-level structural checks; this is a self-check, not a parser.
  // Comments are stripped first so annotations cannot skew the counts.
  std::string stripped;
  {
    std::istringstream lines(text);
    std::string raw;
    while (std::getline(lines, raw)) {
      const auto comment = raw.find("//");
      stripped += comment == std::string::npos ? raw
                                               : raw.substr(0, comment);
      stripped += '\n';
    }
  }
  long depth = 0;
  std::size_t modules = 0, endmodules = 0;
  std::istringstream in(stripped);
  std::string word;
  while (in >> word) {
    // Strip simple trailing punctuation so "begin" == "begin;".
    while (!word.empty() &&
           (word.back() == ';' || word.back() == ':' || word.back() == ','))
      word.pop_back();
    if (word == "begin") ++depth;
    else if (word == "end") --depth;
    else if (word == "case") ++depth;
    else if (word == "endcase") --depth;
    else if (word == "module") ++modules;
    else if (word == "endmodule") ++endmodules;
    if (depth < 0) return "unbalanced end/endcase";
  }
  if (depth != 0) return "unbalanced begin/end nesting";
  if (modules != 1 || endmodules != 1) return "module/endmodule mismatch";
  if (text.find("TODO") != std::string::npos) return "unresolved TODO";
  if (text.find("@(posedge clk)") == std::string::npos)
    return "no clocked process emitted";
  return "";
}

}  // namespace smache::rtl
