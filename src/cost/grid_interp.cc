#include "src/cost/grid_interp.h"

#include <algorithm>

#include "src/common/check.h"

namespace dynapipe::cost {
namespace {

// Segment index (clamped) and interpolation fraction for v on the grid; fraction may
// fall outside [0, 1] for extrapolating queries. Degenerate axes pin to (0, 0).
void LocateAxis(const std::vector<double>& grid, double v, size_t& k, double& frac) {
  if (grid.size() == 1) {
    k = 0;
    frac = 0.0;
    return;
  }
  size_t idx =
      static_cast<size_t>(std::upper_bound(grid.begin(), grid.end(), v) - grid.begin());
  idx = std::clamp<size_t>(idx, 1, grid.size() - 1) - 1;
  k = idx;
  frac = (v - grid[k]) / (grid[k + 1] - grid[k]);
}

void CheckAxis(const std::vector<double>& axis) {
  DYNAPIPE_CHECK(!axis.empty());
  for (size_t i = 1; i < axis.size(); ++i) {
    DYNAPIPE_CHECK_MSG(axis[i] > axis[i - 1], "grid axis must be strictly increasing");
  }
}

}  // namespace

GridInterp3D::GridInterp3D(std::vector<double> xs, std::vector<double> ys,
                           std::vector<double> zs)
    : xs_(std::move(xs)), ys_(std::move(ys)), zs_(std::move(zs)) {
  CheckAxis(xs_);
  CheckAxis(ys_);
  CheckAxis(zs_);
}

GridInterp3D::Cell GridInterp3D::Locate(double x, double y, double z) const {
  size_t i;
  size_t j;
  size_t k;
  Cell cell = Offsets();
  LocateAxis(xs_, x, i, cell.tx);
  LocateAxis(ys_, y, j, cell.ty);
  LocateAxis(zs_, z, k, cell.tz);
  cell.base = (i * ys_.size() + j) * zs_.size() + k;
  return cell;
}

PackedGrids::PackedGrids(GridInterp3D axes, std::vector<double> floors,
                         std::vector<double> values)
    : axes_(std::move(axes)), floors_(std::move(floors)), values_(std::move(values)) {
  DYNAPIPE_CHECK(!floors_.empty());
  DYNAPIPE_CHECK(values_.size() == axes_.vertices() * floors_.size());
}

}  // namespace dynapipe::cost
