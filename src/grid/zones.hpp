// Boundary-case enumeration (the paper's "nine different stencil cases",
// generalised).
//
// Cells are classified per axis into zones: each row within the stencil's
// upward reach of the top edge is its own zone (row 0, row 1, …), likewise
// near the bottom edge, and everything else is the single Mid zone. The
// same applies to columns. A cell's *case* is the (row zone, column zone)
// pair; every cell in a case resolves all its stencil offsets identically,
// which is what lets the hardware select gather sources with a small case
// mux instead of per-cell address logic.
//
// For the paper's 4-point stencil on any grid this yields 3×3 = 9 cases:
// 4 corners, 4 edges, 1 interior — exactly Figure 1(a).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/stencil.hpp"

namespace smache::grid {

/// A stencil's reach on one axis: the `lo` coordinates next to the low
/// edge (max(0, -min_offset)) and the `hi` next to the high edge
/// (max(0, max_offset)) have a tap that falls off the axis. Every other
/// coordinate is interior: all its taps land inside the axis, so no
/// boundary condition applies to it.
struct AxisReach {
  AxisReach(std::int64_t min_offset, std::int64_t max_offset) noexcept;

  /// True if every tap of coordinate x lands inside an axis of `extent`.
  /// Total: an axis shorter than the reach simply has no interior.
  bool interior(std::size_t x, std::size_t extent) const noexcept {
    return x >= lo && x + hi < extent;
  }

  std::size_t lo;
  std::size_t hi;
};

/// Zone classification for one axis.
class AxisZones {
 public:
  /// `lo_span` = number of individual zones hugging the low edge and
  /// `hi_span` likewise for the high edge (the AxisReach of the offsets);
  /// `extent` = axis length. The Mid zone is exactly the reach's interior.
  AxisZones(std::size_t extent, std::int64_t min_offset,
            std::int64_t max_offset);

  std::size_t extent() const noexcept { return extent_; }
  std::size_t lo_span() const noexcept { return lo_span_; }
  std::size_t hi_span() const noexcept { return hi_span_; }

  /// Total number of zones on this axis (lo_span + 1 + hi_span).
  std::size_t count() const noexcept { return lo_span_ + 1 + hi_span_; }
  /// Index of the Mid zone.
  std::size_t mid() const noexcept { return lo_span_; }

  /// Zone of coordinate x.
  std::size_t zone_of(std::size_t x) const;

  /// True if the zone pins the coordinate to one exact value.
  bool is_exact(std::size_t zone) const;
  /// The exact coordinate of a non-Mid zone.
  std::size_t exact_coord(std::size_t zone) const;

  /// A representative coordinate for any zone (centre of the axis for Mid).
  std::size_t representative(std::size_t zone) const;

  /// Number of cells falling in this zone.
  std::size_t population(std::size_t zone) const;

 private:
  std::size_t extent_;
  std::size_t lo_span_;
  std::size_t hi_span_;
};

/// Combined case map for a grid + stencil. Carries a slice (depth) axis;
/// the 2D constructor pins it to one Mid-only zone, so every 2D case id,
/// count and label is unchanged (the slice zone index is always 0).
class CaseMap {
 public:
  CaseMap(std::size_t height, std::size_t width, const StencilShape& shape);
  /// 3D case map: slice zones from the shape's ds extents. A 3D shape on
  /// depth == 1 is rejected by AxisZones ("axis too short").
  CaseMap(std::size_t height, std::size_t width, std::size_t depth,
          const StencilShape& shape);

  const AxisZones& rows() const noexcept { return rows_; }
  const AxisZones& cols() const noexcept { return cols_; }
  const AxisZones& slices() const noexcept { return slices_; }

  /// Total number of cases (slices.count() * rows.count() * cols.count()).
  std::size_t case_count() const noexcept {
    return slices_.count() * rows_.count() * cols_.count();
  }

  /// Case id of a cell (slice 0 — the only slice of a 2D map).
  std::size_t case_of(std::size_t r, std::size_t c) const {
    return rows_.zone_of(r) * cols_.count() + cols_.zone_of(c);
  }
  /// Slice-major case id: with one slice zone this reduces to the 2D id.
  std::size_t case_of(std::size_t s, std::size_t r, std::size_t c) const {
    return (slices_.zone_of(s) * rows_.count() + rows_.zone_of(r)) *
               cols_.count() +
           cols_.zone_of(c);
  }

  std::size_t case_id(std::size_t zone_r, std::size_t zone_c) const;
  std::size_t case_id(std::size_t zone_s, std::size_t zone_r,
                      std::size_t zone_c) const;
  std::size_t zone_s_of(std::size_t case_id) const;
  std::size_t zone_r_of(std::size_t case_id) const;
  std::size_t zone_c_of(std::size_t case_id) const;

  /// Human-readable label, e.g. "row0/colMid" (for reports and tests).
  /// A "sliceK/" prefix appears only when the map has slice zones.
  std::string label(std::size_t case_id) const;

  /// Number of cells in a case.
  std::size_t population(std::size_t case_id) const;

 private:
  AxisZones slices_;
  AxisZones rows_;
  AxisZones cols_;
};

}  // namespace smache::grid
