#include "grid/reference.hpp"

#include "common/assert.hpp"

namespace smache::grid {

std::vector<TupleElem> gather_cell_tuple(const Grid<word_t>& in,
                                         const StencilShape& shape,
                                         const BoundarySpec& bc,
                                         std::size_t r, std::size_t c) {
  SMACHE_REQUIRE_MSG(in.depth() == 1,
                     "2D gather_cell_tuple on a 3D grid: pass the slice");
  return gather_cell_tuple(in, shape, bc, 0, r, c);
}

std::vector<TupleElem> gather_cell_tuple(const Grid<word_t>& in,
                                         const StencilShape& shape,
                                         const BoundarySpec& bc,
                                         std::size_t s, std::size_t r,
                                         std::size_t c) {
  const std::size_t fields = in.fields();
  std::vector<TupleElem> tuple;
  tuple.reserve(shape.size() * fields);
  for (const Offset2& o : shape.offsets()) {
    const Resolved res = resolve(s, r, c, o.ds, o.dr, o.dc, in.depth(),
                                 in.height(), in.width(), bc);
    for (std::size_t f = 0; f < fields; ++f) {
      switch (res.kind) {
        case Resolved::Kind::Cell:
          tuple.push_back(TupleElem{
              in.at(res.s * in.height() + res.r, res.c, f), true});
          break;
        case Resolved::Kind::Constant:
          tuple.push_back(TupleElem{res.constant, true});
          break;
        case Resolved::Kind::Missing:
          tuple.push_back(TupleElem{0, false});
          break;
      }
    }
  }
  return tuple;
}

CellGather::CellGather(const Grid<word_t>& in, const StencilShape& shape,
                       const BoundarySpec& bc)
    : in_(in),
      shape_(shape),
      bc_(bc),
      slices_(shape.ds_min(), shape.ds_max()),
      rows_(shape.dr_min(), shape.dr_max()),
      cols_(shape.dc_min(), shape.dc_max()),
      tuple_(shape.size() * in.fields()) {
  const auto h = static_cast<std::ptrdiff_t>(in.height());
  const auto w = static_cast<std::ptrdiff_t>(in.width());
  const auto f = static_cast<std::ptrdiff_t>(in.fields());
  tap_words_.reserve(shape.size());
  for (const Offset2& o : shape.offsets())
    tap_words_.push_back(((o.ds * h + o.dr) * w + o.dc) * f);
}

const std::vector<TupleElem>& CellGather::operator()(std::size_t s,
                                                     std::size_t r,
                                                     std::size_t c) {
  const std::size_t fields = in_.fields();
  TupleElem* out = tuple_.data();
  if (interior(s, r, c)) {
    const word_t* centre = in_.cell(s, r, c);
    for (const std::ptrdiff_t d : tap_words_)
      for (std::size_t f = 0; f < fields; ++f)
        *out++ = TupleElem{centre[d + static_cast<std::ptrdiff_t>(f)], true};
    return tuple_;
  }
  for (const Offset2& o : shape_.offsets()) {
    const Resolved res = resolve(s, r, c, o.ds, o.dr, o.dc, in_.depth(),
                                 in_.height(), in_.width(), bc_);
    const bool constant = res.kind == Resolved::Kind::Constant;
    const TupleElem halo{constant ? res.constant : 0, constant};
    const word_t* cell = res.kind == Resolved::Kind::Cell
                             ? in_.cell(res.s, res.r, res.c)
                             : nullptr;
    for (std::size_t f = 0; f < fields; ++f)
      *out++ = cell != nullptr ? TupleElem{cell[f], true} : halo;
  }
  return tuple_;
}

}  // namespace smache::grid
