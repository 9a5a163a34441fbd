//! The grid index of §II-B.
//!
//! The road network's bounding box is divided into `n × n` square cells.  Each
//! cell keeps the items (vehicle ids, request ids — any `u64`-like key)
//! currently located inside it, each beside its coordinates.  Insertion,
//! removal and relocation are O(1); a range query visits only the cells
//! intersecting the query disc and tests each item against the coordinates
//! stored in its cell, with no per-item map lookup — what the paper means by
//! "retrieve all available vehicles … in constant time" for a fixed radius.

use std::collections::HashMap;

/// Identifier of a grid cell (row-major).
pub type CellId = u32;

/// A uniform grid over a rectangular region, indexing items by id.
#[derive(Debug, Clone)]
pub struct GridIndex {
    min_x: f64,
    min_y: f64,
    cell_size: f64,
    cells_per_side: u32,
    /// Items per cell, each with its coordinates, in insertion order
    /// (removal swaps the cell's last item into the gap).
    cells: Vec<Vec<(u64, f64, f64)>>,
    /// Current cell of each item, for O(1) removal and relocation.
    cell_of_item: HashMap<u64, CellId>,
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
            cell_of_item: HashMap::new(),
        }
    }

    fn clamp_coord(&self, v: f64, min: f64) -> u32 {
        let idx = ((v - min) / self.cell_size).floor();
        idx.clamp(0.0, (self.cells_per_side - 1) as f64) as u32
    }

    /// Cell containing the point `(x, y)`.
    ///
    /// **Clamping is intended behavior here**: points outside the extent
    /// (vehicles drifting past the network bounding box, query discs poking
    /// over the border) are clamped to the nearest border cell, and NaN maps
    /// to a border cell too, so every coordinate maps to a valid cell and
    /// [`GridIndex::insert`] / [`GridIndex::for_each_in_range`] never panic.
    /// Range queries stay correct because the Euclidean distance filter uses
    /// the *true* stored coordinates, not the cell.
    pub fn cell_of(&self, x: f64, y: f64) -> CellId {
        let cx = self.clamp_coord(x, self.min_x);
        let cy = self.clamp_coord(y, self.min_y);
        cy * self.cells_per_side + cx
    }

    /// Inserts (or relocates) an item at `(x, y)`.
    pub fn insert(&mut self, item: u64, x: f64, y: f64) {
        self.remove(item);
        let cell = self.cell_of(x, y);
        self.cells[cell as usize].push((item, x, y));
        self.cell_of_item.insert(item, cell);
    }

    /// Removes an item; returns true if it was present.
    pub fn remove(&mut self, item: u64) -> bool {
        match self.cell_of_item.remove(&item) {
            Some(cell) => {
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

    /// Visits every item within Euclidean distance `radius` of `(x, y)`
    /// without allocating.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridIndex {
        GridIndex::new(0.0, 0.0, 100.0, 100.0, 10)
    }

    /// The items within `radius` of `(x, y)`, in visit order.
    fn query(g: &GridIndex, x: f64, y: f64, radius: f64) -> Vec<u64> {
        let mut out = Vec::new();
        g.for_each_in_range(x, y, radius, |item| out.push(item));
        out
    }

    #[test]
    fn insert_and_query() {
        let mut g = grid();
        g.insert(1, 5.0, 5.0);
        g.insert(2, 50.0, 50.0);
        g.insert(3, 95.0, 95.0);
        assert_eq!(query(&g, 0.0, 0.0, 10.0), vec![1]);
        assert_eq!(query(&g, 50.0, 50.0, 200.0).len(), 3);
    }

    #[test]
    fn radius_is_euclidean_not_cell_based() {
        let mut g = grid();
        g.insert(1, 10.0, 0.0);
        g.insert(2, 9.0, 0.0);
        assert_eq!(query(&g, 0.0, 0.0, 9.5), vec![2]);
    }

    #[test]
    fn relocate_moves_item_between_cells() {
        let mut g = grid();
        g.insert(7, 5.0, 5.0);
        assert_eq!(query(&g, 5.0, 5.0, 1.0), vec![7]);
        g.relocate(7, 95.0, 95.0);
        assert!(query(&g, 5.0, 5.0, 20.0).is_empty());
        assert_eq!(query(&g, 95.0, 95.0, 1.0), vec![7]);
        assert_eq!(query(&g, 50.0, 50.0, 200.0), vec![7]);
    }

    #[test]
    fn remove_works_and_is_idempotent() {
        let mut g = grid();
        g.insert(1, 1.0, 1.0);
        assert!(g.remove(1));
        assert!(!g.remove(1));
        assert!(query(&g, 1.0, 1.0, 5.0).is_empty());
    }

    #[test]
    fn points_outside_extent_are_clamped() {
        let mut g = grid();
        g.insert(1, -50.0, 500.0);
        // Query near the clamped corner cell still finds nothing within a small
        // Euclidean radius (the true coordinates are far away)…
        assert!(query(&g, 0.0, 99.0, 5.0).is_empty());
        // …but a large radius does.
        assert_eq!(query(&g, 0.0, 99.0, 1000.0), vec![1]);
    }

    #[test]
    fn negative_coordinates_clamp_to_first_cells() {
        let g = grid();
        // cell_of clamps (documented): any negative coordinate lands in the
        // matching border cell instead of panicking or wrapping.
        assert_eq!(g.cell_of(-1.0, -1.0), g.cell_of(0.0, 0.0));
        assert_eq!(g.cell_of(-1e12, 55.0), g.cell_of(0.0, 55.0));
    }

    #[test]
    fn past_max_coordinates_clamp_to_last_cells() {
        let g = grid();
        // Inside, on the max border, and past it.
        let last = g.cell_of(99.9, 99.9);
        assert_eq!(g.cell_of(100.0, 100.0), last);
        assert_eq!(g.cell_of(101.0, 1e12), last);
    }

    #[test]
    fn nan_coordinates_are_not_a_panic() {
        let mut g = grid();
        // The clamping path maps NaN to a valid cell (saturating cast), so an
        // insert with garbage coordinates never corrupts the index structure.
        g.insert(1, f64::NAN, f64::NAN);
        assert!(query(&g, 0.0, 0.0, 1e9).is_empty());
        assert!(g.remove(1));
    }

    #[test]
    fn out_of_bounds_inserts_are_still_indexed_and_queryable() {
        let mut g = grid();
        g.insert(1, -50.0, 50.0);
        g.insert(2, 150.0, 50.0);
        // Stored under border cells (documented clamping), retrievable by true
        // Euclidean distance.
        let mut far = query(&g, 50.0, 50.0, 200.0);
        far.sort_unstable();
        assert_eq!(far, vec![1, 2]);
        assert!(query(&g, 50.0, 50.0, 40.0).is_empty());
    }

    #[test]
    fn zero_radius_only_matches_exact_point() {
        let mut g = grid();
        g.insert(1, 10.0, 10.0);
        assert_eq!(query(&g, 10.0, 10.0, 0.0), vec![1]);
        assert!(query(&g, 10.1, 10.0, 0.0).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The range query returns exactly what a brute-force scan finds.
            /// After random insert / relocate / remove sequences, with
            /// coordinates past the border, it equals a filter over the
            /// items' last positions for random discs, zero-radius discs on
            /// each item and discs poking past the border, so the
            /// coordinates the query tests (the cells' copies) never drift.
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
                let on_items = truth.values().map(|&(x, y)| (x, y, 0.0));
                for (qx, qy, radius) in discs.iter().copied().chain(on_items) {
                    let mut expected: Vec<u64> = truth
                        .iter()
                        .filter(|(_, (x, y))| {
                            let (dx, dy) = (x - qx, y - qy);
                            dx * dx + dy * dy <= radius * radius
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    let mut visited = query(&g, qx, qy, radius);
                    visited.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(visited, expected, "disc ({}, {}) r {}", qx, qy, radius);
                }
            }
        }
    }
}
