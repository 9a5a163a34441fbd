//! The grid index of §II-B.
//!
//! The road network's bounding box is divided into `n × n` square cells.  Each
//! cell keeps the items (vehicle ids, request ids — any `u64`-like key)
//! currently located inside it, each beside its coordinates.  Insertion,
//! removal and relocation are O(1); a range query visits only the cells
//! intersecting the query disc and tests each item against the coordinates
//! stored in its cell, with no per-item map lookup — what the paper means by
//! "retrieve all available vehicles … in constant time" for a fixed radius.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a grid cell (row-major).
pub type CellId = u32;

/// A uniform grid over a rectangular region, indexing items by id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex {
    min_x: f64,
    min_y: f64,
    cell_size: f64,
    cells_per_side: u32,
    /// Items per cell, each with its coordinates, in insertion order
    /// (removal swaps the cell's last item into the gap).
    cells: Vec<Vec<(u64, f64, f64)>>,
    /// Current cell and coordinates of each item (for O(1) relocation and
    /// [`GridIndex::location`]); always equal to the copy in the cell.
    locations: HashMap<u64, (CellId, f64, f64)>,
}

impl GridIndex {
    /// Creates a grid covering `[min_x, max_x] × [min_y, max_y]` with
    /// `cells_per_side × cells_per_side` cells.
    ///
    /// # Panics
    /// Panics if the extent is empty or `cells_per_side == 0`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cells_per_side: u32) -> Self {
        assert!(cells_per_side > 0, "grid needs at least one cell per side");
        assert!(
            max_x > min_x && max_y > min_y,
            "grid extent must be non-empty"
        );
        let extent = (max_x - min_x).max(max_y - min_y);
        GridIndex {
            min_x,
            min_y,
            cell_size: extent / cells_per_side as f64,
            cells_per_side,
            cells: vec![Vec::new(); (cells_per_side * cells_per_side) as usize],
            locations: HashMap::new(),
        }
    }

    /// Number of cells per side.
    pub fn cells_per_side(&self) -> u32 {
        self.cells_per_side
    }

    /// Side length of one square cell, in the same units as the coordinates.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True if no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    fn clamp_coord(&self, v: f64, min: f64) -> u32 {
        let idx = ((v - min) / self.cell_size).floor();
        idx.clamp(0.0, (self.cells_per_side - 1) as f64) as u32
    }

    /// True if `(x, y)` lies inside the rectangle the grid covers.
    ///
    /// Points on the max border count as inside (they fall into the last
    /// cell), matching [`GridIndex::cell_of`]'s clamping.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let extent = self.cell_size * self.cells_per_side as f64;
        x >= self.min_x && x <= self.min_x + extent && y >= self.min_y && y <= self.min_y + extent
    }

    /// Cell containing the point `(x, y)`, or `None` if the point lies
    /// outside the grid extent (including NaN coordinates).
    ///
    /// Use this where an out-of-bounds coordinate indicates a bug worth
    /// surfacing; [`GridIndex::cell_of`] silently clamps instead.
    pub fn try_cell_of(&self, x: f64, y: f64) -> Option<CellId> {
        if self.contains(x, y) {
            Some(self.cell_of(x, y))
        } else {
            None
        }
    }

    /// Cell containing the point `(x, y)`.
    ///
    /// **Clamping is intended behavior here**: points outside the extent
    /// (vehicles drifting past the network bounding box, query discs poking
    /// over the border) are clamped to the nearest border cell, so every
    /// coordinate maps to a valid cell and [`GridIndex::insert`] /
    /// [`GridIndex::range_query`] never panic.  Range queries stay correct
    /// because the Euclidean distance filter uses the *true* stored
    /// coordinates, not the cell.  Callers that need out-of-bounds surfaced
    /// distinctly should use [`GridIndex::try_cell_of`].
    pub fn cell_of(&self, x: f64, y: f64) -> CellId {
        let cx = self.clamp_coord(x, self.min_x);
        let cy = self.clamp_coord(y, self.min_y);
        cy * self.cells_per_side + cx
    }

    /// Inserts (or relocates) an item at `(x, y)`.
    pub fn insert(&mut self, item: u64, x: f64, y: f64) {
        if self.locations.contains_key(&item) {
            self.remove(item);
        }
        let cell = self.cell_of(x, y);
        self.cells[cell as usize].push((item, x, y));
        self.locations.insert(item, (cell, x, y));
    }

    /// Removes an item; returns true if it was present.
    pub fn remove(&mut self, item: u64) -> bool {
        match self.locations.remove(&item) {
            Some((cell, _, _)) => {
                let bucket = &mut self.cells[cell as usize];
                if let Some(pos) = bucket.iter().position(|&(i, _, _)| i == item) {
                    bucket.swap_remove(pos);
                }
                true
            }
            None => false,
        }
    }

    /// Moves an item to a new location (same as [`insert`](Self::insert) but
    /// documents the intent of the O(1) vehicle-position update).
    pub fn relocate(&mut self, item: u64, x: f64, y: f64) {
        self.insert(item, x, y);
    }

    /// Current location of an item, if indexed.
    pub fn location(&self, item: u64) -> Option<(f64, f64)> {
        self.locations.get(&item).map(|&(_, x, y)| (x, y))
    }

    /// All items within Euclidean distance `radius` of `(x, y)`.
    pub fn range_query(&self, x: f64, y: f64, radius: f64) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_in_range(x, y, radius, |item| out.push(item));
        out
    }

    /// Visits every item within `radius` of `(x, y)` without allocating.
    pub fn for_each_in_range<F: FnMut(u64)>(&self, x: f64, y: f64, radius: f64, mut f: F) {
        let r = radius.max(0.0);
        let lo_cx = self.clamp_coord(x - r, self.min_x);
        let hi_cx = self.clamp_coord(x + r, self.min_x);
        let lo_cy = self.clamp_coord(y - r, self.min_y);
        let hi_cy = self.clamp_coord(y + r, self.min_y);
        let r2 = r * r;
        for cy in lo_cy..=hi_cy {
            for cx in lo_cx..=hi_cx {
                let cell = (cy * self.cells_per_side + cx) as usize;
                for &(item, ix, iy) in &self.cells[cell] {
                    let dx = ix - x;
                    let dy = iy - y;
                    if dx * dx + dy * dy <= r2 {
                        f(item);
                    }
                }
            }
        }
    }

    /// Approximate heap footprint in bytes: 24 per item slot in the cells
    /// (id and coordinates) plus the location map.
    pub fn approx_bytes(&self) -> usize {
        let cell_items: usize = self.cells.iter().map(|c| c.capacity() * 24).sum();
        self.cells.capacity() * std::mem::size_of::<Vec<(u64, f64, f64)>>()
            + cell_items
            + self.locations.capacity() * (8 + 4 + 16 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridIndex {
        GridIndex::new(0.0, 0.0, 100.0, 100.0, 10)
    }

    #[test]
    fn insert_and_query() {
        let mut g = grid();
        g.insert(1, 5.0, 5.0);
        g.insert(2, 50.0, 50.0);
        g.insert(3, 95.0, 95.0);
        let near_origin = g.range_query(0.0, 0.0, 10.0);
        assert_eq!(near_origin, vec![1]);
        let all = g.range_query(50.0, 50.0, 200.0);
        assert_eq!(all.len(), 3);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn radius_is_euclidean_not_cell_based() {
        let mut g = grid();
        g.insert(1, 10.0, 0.0);
        g.insert(2, 9.0, 0.0);
        let res = g.range_query(0.0, 0.0, 9.5);
        assert_eq!(res, vec![2]);
    }

    #[test]
    fn relocate_moves_item_between_cells() {
        let mut g = grid();
        g.insert(7, 5.0, 5.0);
        assert_eq!(g.range_query(5.0, 5.0, 1.0), vec![7]);
        g.relocate(7, 95.0, 95.0);
        assert!(g.range_query(5.0, 5.0, 20.0).is_empty());
        assert_eq!(g.range_query(95.0, 95.0, 1.0), vec![7]);
        assert_eq!(g.location(7), Some((95.0, 95.0)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_works_and_is_idempotent() {
        let mut g = grid();
        g.insert(1, 1.0, 1.0);
        assert!(g.remove(1));
        assert!(!g.remove(1));
        assert!(g.is_empty());
        assert!(g.range_query(1.0, 1.0, 5.0).is_empty());
    }

    #[test]
    fn points_outside_extent_are_clamped() {
        let mut g = grid();
        g.insert(1, -50.0, 500.0);
        assert_eq!(g.location(1), Some((-50.0, 500.0)));
        // Query near the clamped corner cell still finds nothing within a small
        // Euclidean radius (the true coordinates are far away)…
        assert!(g.range_query(0.0, 99.0, 5.0).is_empty());
        // …but a large radius does.
        assert_eq!(g.range_query(0.0, 99.0, 1000.0), vec![1]);
    }

    #[test]
    fn negative_coordinates_clamp_to_first_cells() {
        let g = grid();
        // cell_of clamps (documented): any negative coordinate lands in the
        // matching border cell instead of panicking or wrapping.
        assert_eq!(g.cell_of(-1.0, -1.0), g.cell_of(0.0, 0.0));
        assert_eq!(g.cell_of(-1e12, 55.0), g.cell_of(0.0, 55.0));
        // try_cell_of surfaces the same points as out of bounds.
        assert_eq!(g.try_cell_of(-1.0, -1.0), None);
        assert_eq!(g.try_cell_of(-1e12, 55.0), None);
        assert_eq!(g.try_cell_of(-0.0, 55.0), Some(g.cell_of(0.0, 55.0)));
        assert!(!g.contains(-1.0, 50.0));
    }

    #[test]
    fn past_max_coordinates_clamp_to_last_cells() {
        let g = grid();
        // Inside, on the max border, and past it.
        let last = g.cell_of(99.9, 99.9);
        assert_eq!(g.cell_of(100.0, 100.0), last);
        assert_eq!(g.cell_of(101.0, 1e12), last);
        // The max border itself is in bounds; anything beyond is surfaced.
        assert_eq!(g.try_cell_of(100.0, 100.0), Some(last));
        assert_eq!(g.try_cell_of(100.0 + 1e-9, 100.0), None);
        assert_eq!(g.try_cell_of(50.0, 101.0), None);
        assert!(g.contains(100.0, 100.0));
        assert!(!g.contains(100.1, 50.0));
    }

    #[test]
    fn nan_coordinates_are_out_of_bounds_not_a_panic() {
        let mut g = grid();
        assert_eq!(g.try_cell_of(f64::NAN, 5.0), None);
        assert_eq!(g.try_cell_of(5.0, f64::NAN), None);
        assert!(!g.contains(f64::NAN, f64::NAN));
        // The clamping path maps NaN to a valid cell (saturating cast), so an
        // insert with garbage coordinates never corrupts the index structure.
        g.insert(1, f64::NAN, f64::NAN);
        assert_eq!(g.len(), 1);
        assert!(g.remove(1));
    }

    #[test]
    fn out_of_bounds_inserts_are_still_indexed_and_queryable() {
        let mut g = grid();
        g.insert(1, -50.0, 50.0);
        g.insert(2, 150.0, 50.0);
        // Stored under border cells (documented clamping), retrievable by true
        // Euclidean distance.
        let mut far = g.range_query(50.0, 50.0, 200.0);
        far.sort_unstable();
        assert_eq!(far, vec![1, 2]);
        assert!(g.range_query(50.0, 50.0, 40.0).is_empty());
    }

    #[test]
    fn zero_radius_only_matches_exact_point() {
        let mut g = grid();
        g.insert(1, 10.0, 10.0);
        assert_eq!(g.range_query(10.0, 10.0, 0.0), vec![1]);
        assert!(g.range_query(10.1, 10.0, 0.0).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The range queries return exactly what a brute-force scan finds.
            /// After random insert / relocate / remove sequences, with
            /// coordinates past the border, both range queries equal a filter
            /// over `location()` for random discs, zero-radius discs on each
            /// item and discs poking past the border, so the coordinates the
            /// queries test (the cells' copies) never drift from it; `len()`
            /// counts the items `location()` knows.
            #[test]
            fn matches_brute_force(
                ops in proptest::collection::vec(
                    (0u32..3, 0u64..200, -30.0f64..130.0, -30.0f64..130.0),
                    1..160,
                ),
                discs in proptest::collection::vec((-60.0f64..160.0, -60.0f64..160.0, 0.0f64..90.0), 1..12),
            ) {
                let mut g = GridIndex::new(0.0, 0.0, 100.0, 100.0, 7);
                let mut truth: std::collections::HashMap<u64, (f64, f64)> = Default::default();
                for &(kind, id, x, y) in &ops {
                    match kind {
                        0 => g.insert(id, x, y),
                        1 => g.relocate(id, x, y),
                        _ => {
                            prop_assert_eq!(g.remove(id), truth.remove(&id).is_some());
                            continue;
                        }
                    }
                    truth.insert(id, (x, y));
                }
                let known: Vec<(u64, (f64, f64))> =
                    (0u64..200).filter_map(|id| g.location(id).map(|p| (id, p))).collect();
                prop_assert_eq!(g.len(), known.len());
                prop_assert_eq!(known.len(), truth.len());
                for &(id, p) in &known {
                    prop_assert_eq!(truth.get(&id), Some(&p));
                }
                let on_items = known.iter().map(|&(_, (x, y))| (x, y, 0.0));
                for (qx, qy, radius) in discs.iter().copied().chain(on_items) {
                    let mut expected: Vec<u64> = known
                        .iter()
                        .filter(|(_, (x, y))| {
                            let (dx, dy) = (x - qx, y - qy);
                            dx * dx + dy * dy <= radius * radius
                        })
                        .map(|&(id, _)| id)
                        .collect();
                    let mut visited = Vec::new();
                    g.for_each_in_range(qx, qy, radius, |id| visited.push(id));
                    prop_assert_eq!(&g.range_query(qx, qy, radius), &visited);
                    visited.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(visited, expected, "disc ({}, {}) r {}", qx, qy, radius);
                }
            }
        }
    }
}
