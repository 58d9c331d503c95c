#include "src/cost/grid_interp.h"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <ostream>

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
                           std::vector<double> zs, std::vector<double> values)
    : xs_(std::move(xs)), ys_(std::move(ys)), zs_(std::move(zs)),
      values_(std::move(values)) {
  CheckAxis(xs_);
  CheckAxis(ys_);
  CheckAxis(zs_);
  DYNAPIPE_CHECK(values_.size() == xs_.size() * ys_.size() * zs_.size());
}

void GridInterp3D::Save(std::ostream& os) const {
  os << std::setprecision(17);
  auto save_axis = [&](const std::vector<double>& axis) {
    os << axis.size();
    for (const double v : axis) {
      os << " " << v;
    }
    os << "\n";
  };
  save_axis(xs_);
  save_axis(ys_);
  save_axis(zs_);
  for (const double v : values_) {
    os << v << " ";
  }
  os << "\n";
}

GridInterp3D GridInterp3D::Load(std::istream& is) {
  auto load_axis = [&]() {
    size_t n = 0;
    DYNAPIPE_CHECK_MSG(static_cast<bool>(is >> n), "malformed profile: axis size");
    DYNAPIPE_CHECK_MSG(n >= 1 && n < 1'000'000, "malformed profile: axis bounds");
    std::vector<double> axis(n);
    for (auto& v : axis) {
      DYNAPIPE_CHECK_MSG(static_cast<bool>(is >> v), "malformed profile: axis value");
    }
    return axis;
  };
  std::vector<double> xs = load_axis();
  std::vector<double> ys = load_axis();
  std::vector<double> zs = load_axis();
  std::vector<double> values(xs.size() * ys.size() * zs.size());
  for (auto& v : values) {
    DYNAPIPE_CHECK_MSG(static_cast<bool>(is >> v), "malformed profile: value");
  }
  return GridInterp3D(std::move(xs), std::move(ys), std::move(zs), std::move(values));
}

bool GridInterp3D::SameAxes(const GridInterp3D& other) const {
  return xs_ == other.xs_ && ys_ == other.ys_ && zs_ == other.zs_;
}

GridInterp3D::Cell GridInterp3D::Locate(double x, double y, double z) const {
  DYNAPIPE_CHECK_MSG(!empty(), "querying an empty grid");
  size_t i;
  size_t j;
  size_t k;
  Cell cell;
  LocateAxis(xs_, x, i, cell.tx);
  LocateAxis(ys_, y, j, cell.ty);
  LocateAxis(zs_, z, k, cell.tz);
  cell.base = (i * ys_.size() + j) * zs_.size() + k;
  cell.di = xs_.size() == 1 ? 0 : ys_.size() * zs_.size();
  cell.dj = ys_.size() == 1 ? 0 : zs_.size();
  cell.dk = zs_.size() == 1 ? 0 : 1;
  return cell;
}

double GridInterp3D::At(const Cell& c) const {
  const double* v = values_.data() + c.base;
  auto lerp = [](double a, double b, double t) { return a + t * (b - a); };
  const double c00 = lerp(v[0], v[c.di], c.tx);
  const double c01 = lerp(v[c.dk], v[c.di + c.dk], c.tx);
  const double c10 = lerp(v[c.dj], v[c.di + c.dj], c.tx);
  const double c11 = lerp(v[c.dj + c.dk], v[c.di + c.dj + c.dk], c.tx);
  const double c0 = lerp(c00, c10, c.ty);
  const double c1 = lerp(c01, c11, c.ty);
  return lerp(c0, c1, c.tz);
}

}  // namespace dynapipe::cost
