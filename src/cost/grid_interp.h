// Trilinear interpolation over a (micro-batch size, input length, target length)
// profiling grid. Any axis may have a single grid point, in which case the function
// is constant along it (used for GPT, whose target axis is degenerate). Queries
// outside the grid extrapolate linearly from the edge cell, mirroring how a profiled
// table behaves beyond its sampled range.
//
// A query is located on the axes once (Locate) and then read from the table
// (At); tables over the same axes can share one located Cell, which is how the
// cost model prices every stage and table of a window from a single lookup.
#ifndef DYNAPIPE_SRC_COST_GRID_INTERP_H_
#define DYNAPIPE_SRC_COST_GRID_INTERP_H_

#include <cstddef>
#include <iosfwd>
#include <vector>

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

  GridInterp3D() = default;
  // values is row-major over (xs, ys, zs): (xs[i], ys[j], zs[k]) sits at
  // (i * ys.size() + j) * zs.size() + k. Each axis strictly increasing and
  // non-empty.
  GridInterp3D(std::vector<double> xs, std::vector<double> ys, std::vector<double> zs,
               std::vector<double> values);

  Cell Locate(double x, double y, double z) const;
  // Interpolates at a cell located on this table or on any table with the
  // same axes.
  double At(const Cell& cell) const;
  double operator()(double x, double y, double z) const { return At(Locate(x, y, z)); }

  bool SameAxes(const GridInterp3D& other) const;
  bool empty() const { return values_.empty(); }

  // Plain-text (de)serialization; Load aborts on malformed input.
  void Save(std::ostream& os) const;
  static GridInterp3D Load(std::istream& is);

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> zs_;
  std::vector<double> values_;
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_GRID_INTERP_H_
