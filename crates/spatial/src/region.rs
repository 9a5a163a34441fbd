//! The region partitioner behind multi-region sharded dispatch.
//!
//! A [`RegionGrid`] divides a rectangular extent (typically the road
//! network's bounding box) into `rows × cols` rectangular regions.  Each
//! region maps 1:1 to one dispatch shard: the fleet and the request stream
//! are partitioned by which region a coordinate falls into, and requests
//! whose origin lies within a *boundary band* of an adjacent region may be
//! offered to that region's shard too (cross-shard handoff).
//!
//! # Boundary classification
//!
//! [`RegionGrid::region_of`] follows the same clamping convention as
//! [`GridIndex::cell_of`](crate::GridIndex::cell_of): every finite coordinate
//! maps to exactly one region, points outside the extent land in the nearest
//! border region, and a point **exactly on an interior boundary belongs to
//! the region with the larger index along that axis** (the floor of the
//! scaled coordinate) — so partitioning is total and deterministic with no
//! double-assignment.  [`RegionGrid::regions_within`] returns every region
//! whose rectangle intersects a disc around a point, in ascending region id
//! order and always including the home region; a request is a *boundary
//! request* exactly when that list has more than one entry for the handoff
//! band radius.

/// Identifier of a region (row-major, `row * cols + col`).
pub type RegionId = u32;

/// A `rows × cols` rectangular partition of a bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionGrid {
    min_x: f64,
    min_y: f64,
    /// Stored, not derived: `min + step * n` can round below the true max,
    /// which would misclassify points exactly on the inclusive max border.
    max_x: f64,
    max_y: f64,
    region_w: f64,
    region_h: f64,
    rows: u32,
    cols: u32,
}

impl RegionGrid {
    /// Creates a grid of `rows × cols` regions covering
    /// `[min_x, max_x] × [min_y, max_y]`.
    ///
    /// # Panics
    /// Panics if the extent is empty or either dimension has zero regions.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "need at least one region");
        assert!(
            max_x > min_x && max_y > min_y,
            "region extent must be non-empty"
        );
        RegionGrid {
            min_x,
            min_y,
            max_x,
            max_y,
            region_w: (max_x - min_x) / cols as f64,
            region_h: (max_y - min_y) / rows as f64,
            rows,
            cols,
        }
    }

    /// Creates `k` vertical strip regions (1 row × `k` columns) — the layout
    /// used when several city workloads sit side by side.
    pub fn strips(min_x: f64, min_y: f64, max_x: f64, max_y: f64, k: u32) -> Self {
        RegionGrid::new(min_x, min_y, max_x, max_y, 1, k)
    }

    /// Pads a degenerate (single-point or collinear) bounding box so a grid
    /// over it is always valid — the one padding rule every `*_covering`
    /// constructor (and any index that must line up with them, e.g. the
    /// handoff shortlist grid) uses.
    pub fn padded_bbox(bbox: (f64, f64, f64, f64)) -> (f64, f64, f64, f64) {
        let (min_x, min_y, mut max_x, mut max_y) = bbox;
        if max_x <= min_x {
            max_x = min_x + 1.0;
        }
        if max_y <= min_y {
            max_y = min_y + 1.0;
        }
        (min_x, min_y, max_x, max_y)
    }

    /// A `rows × cols` grid over a `(min_x, min_y, max_x, max_y)` bounding
    /// box, padded via [`RegionGrid::padded_bbox`] so the grid is always
    /// valid.  The general form of [`RegionGrid::strips_covering`];
    /// higher-shard-count layouts (e.g. a 2×3 six-region grid) go through
    /// this constructor.
    pub fn covering(bbox: (f64, f64, f64, f64), rows: u32, cols: u32) -> Self {
        let (min_x, min_y, max_x, max_y) = Self::padded_bbox(bbox);
        RegionGrid::new(min_x, min_y, max_x, max_y, rows, cols)
    }

    /// [`RegionGrid::strips`] over a `(min_x, min_y, max_x, max_y)` bounding
    /// box, padding degenerate (single-point or collinear) extents so the
    /// grid is always valid.  This is the one constructor both workload
    /// generation and the sharded simulator use, so the two always agree on
    /// the strip layout of a given network.
    pub fn strips_covering(bbox: (f64, f64, f64, f64), k: u32) -> Self {
        Self::covering(bbox, 1, k)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// True when the grid has exactly one region (no sharding).
    pub fn is_single(&self) -> bool {
        self.len() == 1
    }

    /// Never true — a grid has at least one region; provided so clippy-style
    /// `len`/`is_empty` pairing holds.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Rows of the region layout.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Columns of the region layout.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    fn clamp_axis(v: f64, min: f64, step: f64, n: u32) -> u32 {
        let idx = ((v - min) / step).floor();
        idx.clamp(0.0, (n - 1) as f64) as u32
    }

    /// True if `(x, y)` lies inside the rectangle the grid covers (max
    /// borders inclusive, NaN excluded).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// Region containing `(x, y)`.
    ///
    /// Clamping is intended (same convention as
    /// [`GridIndex::cell_of`](crate::GridIndex::cell_of)): coordinates
    /// outside the extent — including NaN — map to the nearest border region,
    /// so every vehicle and request has a home shard.  A point exactly on an
    /// interior boundary belongs to the higher-index region along that axis.
    pub fn region_of(&self, x: f64, y: f64) -> RegionId {
        let cx = Self::clamp_axis(x, self.min_x, self.region_w, self.cols);
        let cy = Self::clamp_axis(y, self.min_y, self.region_h, self.rows);
        cy * self.cols + cx
    }

    /// The rectangle `[min_x, max_x] × [min_y, max_y]` of region `r`.  The
    /// last row/column extends to the grid's true stored max, so the union
    /// of all region rectangles is exactly the covered extent even when
    /// `min + step * n` rounds short of it.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn bounds(&self, r: RegionId) -> (f64, f64, f64, f64) {
        assert!((r as usize) < self.len(), "region {r} out of range");
        let col = r % self.cols;
        let row = r / self.cols;
        let x0 = self.min_x + col as f64 * self.region_w;
        let y0 = self.min_y + row as f64 * self.region_h;
        let x1 = if col + 1 == self.cols {
            self.max_x
        } else {
            x0 + self.region_w
        };
        let y1 = if row + 1 == self.rows {
            self.max_y
        } else {
            y0 + self.region_h
        };
        (x0, y0, x1, y1)
    }

    /// Centre point of region `r`.
    pub fn center(&self, r: RegionId) -> (f64, f64) {
        let (x0, y0, x1, y1) = self.bounds(r);
        ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    }

    /// Regions sharing an edge or corner with `r` (8-neighbourhood),
    /// ascending, excluding `r` itself.
    pub fn adjacent(&self, r: RegionId) -> Vec<RegionId> {
        let col = (r % self.cols) as i64;
        let row = (r / self.cols) as i64;
        let mut out = Vec::new();
        for dy in -1..=1i64 {
            for dx in -1..=1i64 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let (nc, nr) = (col + dx, row + dy);
                if nc >= 0 && nc < self.cols as i64 && nr >= 0 && nr < self.rows as i64 {
                    out.push(nr as u32 * self.cols + nc as u32);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All regions whose rectangle intersects the disc of `radius` around
    /// `(x, y)`, ascending by region id.  Always contains at least
    /// [`RegionGrid::region_of`]`(x, y)` (radius and out-of-extent points
    /// clamp), so the home region is never lost.
    pub fn regions_within(&self, x: f64, y: f64, radius: f64) -> Vec<RegionId> {
        let r = radius.max(0.0);
        let lo_cx = Self::clamp_axis(x - r, self.min_x, self.region_w, self.cols);
        let hi_cx = Self::clamp_axis(x + r, self.min_x, self.region_w, self.cols);
        let lo_cy = Self::clamp_axis(y - r, self.min_y, self.region_h, self.rows);
        let hi_cy = Self::clamp_axis(y + r, self.min_y, self.region_h, self.rows);
        let home = self.region_of(x, y);
        let mut out = Vec::new();
        for cy in lo_cy..=hi_cy {
            for cx in lo_cx..=hi_cx {
                let region = cy * self.cols + cx;
                if region == home {
                    out.push(region);
                    continue;
                }
                // Exact rectangle/disc intersection on the true coordinates.
                let (x0, y0, x1, y1) = self.bounds(region);
                let dx = (x0 - x).max(0.0).max(x - x1);
                let dy = (y0 - y).max(0.0).max(y - y1);
                if dx * dx + dy * dy <= r * r {
                    out.push(region);
                }
            }
        }
        if !out.contains(&home) {
            out.push(home);
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> RegionGrid {
        // 2×2 regions over [0,100]²: boundaries at x=50 and y=50.
        RegionGrid::new(0.0, 0.0, 100.0, 100.0, 2, 2)
    }

    #[test]
    fn region_layout_and_bounds() {
        let g = quad();
        assert_eq!(g.len(), 4);
        assert!(!g.is_single());
        assert_eq!(g.region_of(10.0, 10.0), 0);
        assert_eq!(g.region_of(90.0, 10.0), 1);
        assert_eq!(g.region_of(10.0, 90.0), 2);
        assert_eq!(g.region_of(90.0, 90.0), 3);
        assert_eq!(g.bounds(3), (50.0, 50.0, 100.0, 100.0));
        assert_eq!(g.center(0), (25.0, 25.0));
    }

    #[test]
    fn point_exactly_on_boundary_belongs_to_exactly_one_region() {
        let g = quad();
        // x = 50 is the interior boundary: floor(50/50) = 1 → the east side.
        assert_eq!(g.region_of(50.0, 10.0), 1);
        assert_eq!(g.region_of(10.0, 50.0), 2);
        assert_eq!(g.region_of(50.0, 50.0), 3);
        // The partition is total: with zero band, the point is *not* a
        // boundary request — it has exactly one home region.
        assert_eq!(g.regions_within(50.0, 10.0, 0.0), vec![1]);
        // With any positive band the adjacent region is offered too.
        assert_eq!(g.regions_within(50.0, 10.0, 1.0), vec![0, 1]);
    }

    #[test]
    fn strips_partition_left_to_right() {
        let g = RegionGrid::strips(0.0, 0.0, 300.0, 100.0, 3);
        assert_eq!(g.len(), 3);
        assert_eq!((g.rows(), g.cols()), (1, 3));
        assert_eq!(g.region_of(50.0, 50.0), 0);
        assert_eq!(g.region_of(150.0, 50.0), 1);
        assert_eq!(g.region_of(250.0, 50.0), 2);
        assert_eq!(g.adjacent(1), vec![0, 2]);
        assert_eq!(g.adjacent(0), vec![1]);
    }

    #[test]
    fn single_region_grid_has_no_neighbors() {
        let g = RegionGrid::strips(0.0, 0.0, 100.0, 100.0, 1);
        assert!(g.is_single());
        assert!(g.adjacent(0).is_empty());
        assert_eq!(g.regions_within(50.0, 50.0, 1.0e9), vec![0]);
    }

    #[test]
    fn out_of_extent_points_clamp_to_border_regions() {
        let g = quad();
        assert_eq!(g.region_of(-10.0, -10.0), 0);
        assert_eq!(g.region_of(500.0, 500.0), 3);
        assert_eq!(g.region_of(f64::NAN, 10.0), g.region_of(0.0, 10.0));
        assert!(!g.contains(-10.0, 10.0));
        assert!(g.contains(100.0, 100.0));
        assert_eq!(g.region_of(100.0, 100.0), 3);
        assert!(!g.contains(f64::NAN, f64::NAN));
        // Clamped points still get a single deterministic home region.
        assert_eq!(g.regions_within(-10.0, -10.0, 0.0), vec![0]);
    }

    #[test]
    fn regions_within_uses_exact_disc_rectangle_intersection() {
        let g = quad();
        // 10 from the x=50 boundary: band 9.9 stays home, 10.0 reaches east.
        assert_eq!(g.regions_within(40.0, 10.0, 9.9), vec![0]);
        assert_eq!(g.regions_within(40.0, 10.0, 10.0), vec![0, 1]);
        // Near the centre corner a large-enough disc reaches all four.
        assert_eq!(g.regions_within(45.0, 45.0, 8.0), vec![0, 1, 2, 3]);
        // …but a disc that only crosses one axis does not pick up the
        // diagonal region (corner distance is Euclidean, not per-axis).
        assert_eq!(g.regions_within(45.0, 40.0, 6.0), vec![0, 1]);
    }

    #[test]
    fn max_border_stays_inclusive_despite_float_rounding() {
        // min + (max-min)/11 * 11 rounds below max for this extent; the grid
        // stores the true max, so the documented inclusive-max contract
        // holds and the last region's rectangle reaches exactly to it.
        let (min_x, max_x) = (-5838.564284385248, -68.4551768984229);
        let g = RegionGrid::new(min_x, 0.0, max_x, 1.0, 1, 11);
        assert!(min_x + (max_x - min_x) / 11.0 * 11.0 < max_x);
        assert!(g.contains(max_x, 0.5));
        assert_eq!(g.region_of(max_x, 0.5), 10);
        let (_, _, x1, y1) = g.bounds(10);
        assert_eq!(x1, max_x);
        assert_eq!(y1, 1.0);
        // Interior regions keep their computed width.
        let (x0, _, x1, _) = g.bounds(0);
        assert_eq!(x1 - x0, g.bounds(1).2 - g.bounds(1).0);
    }

    #[test]
    fn covering_builds_general_grids_and_matches_strips() {
        let bbox = (0.0, 0.0, 300.0, 200.0);
        let g = RegionGrid::covering(bbox, 2, 3);
        assert_eq!(g.len(), 6);
        assert_eq!((g.rows(), g.cols()), (2, 3));
        // Row-major ids: south row 0..3, north row 3..6.
        assert_eq!(g.region_of(50.0, 50.0), 0);
        assert_eq!(g.region_of(250.0, 150.0), 5);
        assert_eq!(
            RegionGrid::covering(bbox, 1, 3),
            RegionGrid::strips_covering(bbox, 3)
        );
        // Degenerate extents are padded like strips_covering.
        let point = RegionGrid::covering((5.0, 5.0, 5.0, 5.0), 2, 2);
        assert_eq!(point.len(), 4);
        assert_eq!(point.region_of(5.0, 5.0), 0);
    }

    #[test]
    fn strips_covering_pads_degenerate_extents() {
        let normal = RegionGrid::strips_covering((0.0, 0.0, 100.0, 50.0), 2);
        assert_eq!(normal, RegionGrid::strips(0.0, 0.0, 100.0, 50.0, 2));
        // A single point (or a horizontal/vertical line) still yields a
        // valid grid instead of panicking.
        let point = RegionGrid::strips_covering((5.0, 5.0, 5.0, 5.0), 3);
        assert_eq!(point.len(), 3);
        assert_eq!(point.region_of(5.0, 5.0), 0);
        let line = RegionGrid::strips_covering((0.0, 7.0, 10.0, 7.0), 2);
        assert_eq!(line.len(), 2);
        assert_eq!(line.region_of(9.0, 7.0), 1);
    }

    #[test]
    fn adjacency_is_eight_connected_on_grids() {
        let g = RegionGrid::new(0.0, 0.0, 90.0, 90.0, 3, 3);
        assert_eq!(g.adjacent(4), vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(g.adjacent(0), vec![1, 3, 4]);
        assert_eq!(g.adjacent(8), vec![4, 5, 7]);
    }
}
