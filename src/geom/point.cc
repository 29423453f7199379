#include "geom/point.h"

#include "geom/kernels.h"

namespace osd {

namespace {

// Point arrays are a strided (AoS) layout the set kernels understand:
// consecutive points are sizeof(Point) bytes apart with the coordinates
// leading each element.
constexpr size_t kPointStride = sizeof(Point) / sizeof(double);
static_assert(sizeof(Point) % sizeof(double) == 0,
              "Point must be double-strided for the set kernels");

}  // namespace

double MinDistanceToSet(const Point& x, std::span<const Point> set) {
  OSD_CHECK(!set.empty());
  return kernels::Get(x.dim(), Metric::kL2)
      .set_min(x.data(), set.front().data(), kPointStride,
               static_cast<int>(set.size()));
}

double MaxDistanceToSet(const Point& x, std::span<const Point> set) {
  OSD_CHECK(!set.empty());
  return kernels::Get(x.dim(), Metric::kL2)
      .set_max(x.data(), set.front().data(), kPointStride,
               static_cast<int>(set.size()));
}

}  // namespace osd
