// Trilinear interpolation over a (micro-batch size, input length, target length)
// profiling grid. Any axis may have a single grid point, in which case the function
// is constant along it (used for GPT, whose target axis is degenerate). Queries
// outside the grid extrapolate linearly from the edge cell, mirroring how a profiled
// table behaves beyond its sampled range.
//
// GridInterp3D is the axes only: it locates a query point as a Cell. Locate
// searches each axis; a Cursor steps each axis forward instead, for a walk of
// queries whose coordinates never decrease (one DP row: a window's size and
// padded lengths only grow as it extends), and returns the same Cell bit for
// bit. PackedGrids holds the values of every table over one set of axes,
// interleaved vertex-major, so one inline kernel (At, the only interpolation
// read) reads every table a caller needs from a Cell in one pass.
#ifndef DYNAPIPE_SRC_COST_GRID_INTERP_H_
#define DYNAPIPE_SRC_COST_GRID_INTERP_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace dynapipe::cost {

class GridInterp3D {
 public:
  // A query point located on the axes: the flat index of its cell's low
  // corner, the flat offsets of the high neighbours along each axis (0 on a
  // single-point axis), and the per-axis fractions (outside [0, 1] when
  // extrapolating).
  struct Cell {
    size_t base = 0;
    size_t di = 0;
    size_t dj = 0;
    size_t dk = 0;
    double tx = 0.0;
    double ty = 0.0;
    double tz = 0.0;
  };

  // Locates a walk of query points whose coordinates never decrease. Each
  // axis keeps its current segment and only steps it forward, so Advance
  // runs no search and returns exactly the Cell Locate returns for the same
  // point. The grid must outlive the cursor; start a new cursor to walk back.
  class Cursor {
   public:
    explicit Cursor(const GridInterp3D& grid)
        : grid_(&grid), offsets_(grid.Offsets()) {}
    // Each coordinate must be at least its value in the previous call.
    Cell Advance(double x, double y, double z) {
      x_.Step(grid_->xs_, x);
      y_.Step(grid_->ys_, y);
      z_.Step(grid_->zs_, z);
      Cell cell = offsets_;
      cell.base = (x_.k * grid_->ys_.size() + y_.k) * grid_->zs_.size() + z_.k;
      cell.tx = x_.frac;
      cell.ty = y_.frac;
      cell.tz = z_.frac;
      return cell;
    }

   private:
    // One axis's segment and fraction at the last coordinate: the same
    // clamped segment Locate finds by upper_bound, reached by stepping.
    struct Axis {
      size_t k = 0;
      double v = std::numeric_limits<double>::quiet_NaN();
      double frac = 0.0;

      void Step(const std::vector<double>& grid, double value) {
        DYNAPIPE_CHECK_MSG(!(value < v), "grid cursor moved backwards");
        v = value;
        if (grid.size() == 1) {
          return;  // segment 0, fraction 0
        }
        while (k + 2 < grid.size() && grid[k + 1] <= value) {
          ++k;
        }
        frac = (value - grid[k]) / (grid[k + 1] - grid[k]);
      }
    };

    const GridInterp3D* grid_;
    Cell offsets_;  // di, dj, dk: fixed by the axes
    Axis x_;
    Axis y_;
    Axis z_;
  };

  GridInterp3D() = default;
  // Each axis strictly increasing and non-empty. Vertex (xs[i], ys[j], zs[k])
  // is flat vertex (i * ys.size() + j) * zs.size() + k.
  GridInterp3D(std::vector<double> xs, std::vector<double> ys, std::vector<double> zs);

  size_t vertices() const { return xs_.size() * ys_.size() * zs_.size(); }
  Cell Locate(double x, double y, double z) const;

 private:
  // The high-neighbour offsets of every Cell on these axes.
  Cell Offsets() const {
    Cell cell;
    cell.di = xs_.size() == 1 ? 0 : ys_.size() * zs_.size();
    cell.dj = ys_.size() == 1 ? 0 : zs_.size();
    cell.dk = zs_.size() == 1 ? 0 : 1;
    return cell;
  }

  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> zs_;
};

// Tables over one set of axes, interleaved vertex-major: lane l of flat grid
// vertex v sits at v * lanes() + l, so the corners of one Cell hold every
// table's value side by side. Each lane carries the floor its reads are
// clamped to.
class PackedGrids {
 public:
  PackedGrids() = default;
  // values holds axes.vertices() * floors.size() entries, laid out as above.
  PackedGrids(GridInterp3D axes, std::vector<double> floors, std::vector<double> values);

  const GridInterp3D& axes() const { return axes_; }
  size_t lanes() const { return floors_.size(); }

  // Interpolates lanes [first, first + count) at a cell located on axes()
  // into out[0, count), each clamped to its lane's floor.
  void At(const GridInterp3D::Cell& c, size_t first, size_t count,
          double* __restrict out) const {
    auto lerp = [](double a, double b, double t) { return a + t * (b - a); };
    const size_t n = floors_.size();
    const double* __restrict floor = floors_.data() + first;
    const double* __restrict v000 = values_.data() + c.base * n + first;
    const double* __restrict v100 = v000 + c.di * n;
    const double* __restrict v010 = v000 + c.dj * n;
    const double* __restrict v001 = v000 + c.dk * n;
    const double* __restrict v110 = v100 + c.dj * n;
    const double* __restrict v101 = v100 + c.dk * n;
    const double* __restrict v011 = v010 + c.dk * n;
    const double* __restrict v111 = v110 + c.dk * n;
    for (size_t l = 0; l < count; ++l) {
      const double c00 = lerp(v000[l], v100[l], c.tx);
      const double c01 = lerp(v001[l], v101[l], c.tx);
      const double c10 = lerp(v010[l], v110[l], c.tx);
      const double c11 = lerp(v011[l], v111[l], c.tx);
      const double c0 = lerp(c00, c10, c.ty);
      const double c1 = lerp(c01, c11, c.ty);
      out[l] = std::max(floor[l], lerp(c0, c1, c.tz));
    }
  }

 private:
  GridInterp3D axes_;
  std::vector<double> floors_;
  std::vector<double> values_;
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_GRID_INTERP_H_
