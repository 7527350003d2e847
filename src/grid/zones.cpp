#include "grid/zones.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace smache::grid {

AxisReach::AxisReach(std::int64_t min_offset,
                     std::int64_t max_offset) noexcept
    : lo(static_cast<std::size_t>(std::max<std::int64_t>(0, -min_offset))),
      hi(static_cast<std::size_t>(std::max<std::int64_t>(0, max_offset))) {}

AxisZones::AxisZones(std::size_t extent, std::int64_t min_offset,
                     std::int64_t max_offset)
    : extent_(extent) {
  const AxisReach reach(min_offset, max_offset);
  lo_span_ = reach.lo;
  hi_span_ = reach.hi;
  SMACHE_REQUIRE_MSG(lo_span_ + hi_span_ < extent,
                     "axis too short for the stencil's reach: zones overlap");
}

std::size_t AxisZones::zone_of(std::size_t x) const {
  SMACHE_REQUIRE(x < extent_);
  if (x < lo_span_) return x;
  if (x >= extent_ - hi_span_) return lo_span_ + 1 + (x - (extent_ - hi_span_));
  return mid();
}

bool AxisZones::is_exact(std::size_t zone) const {
  SMACHE_REQUIRE(zone < count());
  return zone != mid();
}

std::size_t AxisZones::exact_coord(std::size_t zone) const {
  SMACHE_REQUIRE(zone < count());
  SMACHE_REQUIRE_MSG(zone != mid(), "Mid zone has no exact coordinate");
  if (zone < lo_span_) return zone;
  return extent_ - hi_span_ + (zone - lo_span_ - 1);
}

std::size_t AxisZones::representative(std::size_t zone) const {
  SMACHE_REQUIRE(zone < count());
  if (zone == mid()) return lo_span_ + (extent_ - lo_span_ - hi_span_) / 2;
  return exact_coord(zone);
}

std::size_t AxisZones::population(std::size_t zone) const {
  SMACHE_REQUIRE(zone < count());
  if (zone == mid()) return extent_ - lo_span_ - hi_span_;
  return 1;
}

CaseMap::CaseMap(std::size_t height, std::size_t width,
                 const StencilShape& shape)
    : CaseMap(height, width, 1, shape) {}

CaseMap::CaseMap(std::size_t height, std::size_t width, std::size_t depth,
                 const StencilShape& shape)
    : slices_(depth, shape.ds_min(), shape.ds_max()),
      rows_(height, shape.dr_min(), shape.dr_max()),
      cols_(width, shape.dc_min(), shape.dc_max()) {}

std::size_t CaseMap::case_id(std::size_t zone_r, std::size_t zone_c) const {
  SMACHE_REQUIRE(zone_r < rows_.count() && zone_c < cols_.count());
  return zone_r * cols_.count() + zone_c;
}

std::size_t CaseMap::case_id(std::size_t zone_s, std::size_t zone_r,
                             std::size_t zone_c) const {
  SMACHE_REQUIRE(zone_s < slices_.count() && zone_r < rows_.count() &&
                 zone_c < cols_.count());
  return (zone_s * rows_.count() + zone_r) * cols_.count() + zone_c;
}

std::size_t CaseMap::zone_s_of(std::size_t case_id) const {
  SMACHE_REQUIRE(case_id < case_count());
  return case_id / (rows_.count() * cols_.count());
}

std::size_t CaseMap::zone_r_of(std::size_t case_id) const {
  SMACHE_REQUIRE(case_id < case_count());
  return (case_id / cols_.count()) % rows_.count();
}

std::size_t CaseMap::zone_c_of(std::size_t case_id) const {
  SMACHE_REQUIRE(case_id < case_count());
  return case_id % cols_.count();
}

namespace {
std::string zone_label(const AxisZones& z, std::size_t zone,
                       const char* axis) {
  if (zone == z.mid()) return std::string(axis) + "Mid";
  return std::string(axis) + std::to_string(z.exact_coord(zone));
}
}  // namespace

std::string CaseMap::label(std::size_t id) const {
  std::string out;
  if (slices_.count() > 1)
    out = zone_label(slices_, zone_s_of(id), "slice") + "/";
  return out + zone_label(rows_, zone_r_of(id), "row") + "/" +
         zone_label(cols_, zone_c_of(id), "col");
}

std::size_t CaseMap::population(std::size_t id) const {
  return slices_.population(zone_s_of(id)) *
         rows_.population(zone_r_of(id)) * cols_.population(zone_c_of(id));
}

}  // namespace smache::grid
