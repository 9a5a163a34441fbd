//! Exact assignment solvers: a Kuhn–Munkres LAP kernel and a small
//! branch-and-bound for the trip-group choice step.
//!
//! Both solvers are pure std (no shims), **single-threaded** and fully
//! deterministic: every scan runs in a fixed order and every tie breaks
//! toward the lowest column index, so a caller that orders its columns by
//! vehicle id and its rows by request id gets the documented
//! `(cost, vehicle_id, request_id)` tie-break for free.  Parallelism belongs
//! in cost-*matrix construction* (see [`crate::assign`]), never in here.
//!
//! # The LAP kernel
//!
//! [`solve_dense`] is Kuhn–Munkres in the dual-potential (shortest
//! augmenting path / Jonker-Volgenant) formulation over a rectangular
//! `rows × cols` matrix with `rows <= cols`.  Missing request×vehicle edges
//! are expressed as [`FORBIDDEN`] (`f64::INFINITY`) entries; an instance
//! where some row cannot reach any column over finite edges is *infeasible*
//! and reported as `None` rather than panicking or silently dropping the
//! row.  Callers that want "assigning is optional" semantics (every
//! dispatcher does) append one dummy column per row carrying that row's
//! leave-unassigned cost, which makes the instance feasible by
//! construction.
//!
//! With per-row dummies, a row whose only finite cell is its own dummy
//! column is an island: its insertion scans to that column, raises only
//! its own `u` and takes the column, and no other row's path ever reaches
//! it.  Leaving such rows (and their dummy columns) out of the matrix
//! therefore gives every other row the same column, up to the renumbering
//! of the dummies, with the same tie-breaks — in [`solve_dense`] and in
//! the budget fallback, `greedy_incumbent`, alike.
//!
//! # The group-choice branch-and-bound
//!
//! [`solve_group_choice`] solves the set-packing step RTV used to fake with
//! greedy+swap: pick a subset of `(vehicle, trip-group, gain)` candidates
//! maximizing total gain such that every vehicle serves at most one group
//! and every request appears in at most one chosen group.  The bound is the
//! LAP relaxation with the request-coupling constraint dropped — vehicles
//! are independent then, so the relaxation decomposes into "each unused
//! vehicle takes its best remaining candidate" (duplicating member-set
//! columns per vehicle makes the full LAP bound collapse to exactly this
//! sum).  The search is seeded with an incumbent (the retained greedy+swap
//! reference), so the result is provably never worse than the old path even
//! when the node budget trips early.

use std::collections::HashSet;

/// The cost of a missing request×vehicle edge: such assignments are never
/// taken.
pub const FORBIDDEN: f64 = f64::INFINITY;

/// Strict-improvement slack for floating-point gain comparisons (mirrors the
/// swap stage it replaces).
const EPS: f64 = 1e-9;

/// Telemetry of one exact-assignment solve, surfaced per batch through
/// [`BatchOutcome::solver`](crate::dispatcher::BatchOutcome::solver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Rows of the first assignment: the requests pooled and scored in the
    /// first LAP round (the matrix itself holds only those with a candidate
    /// vehicle), or the vehicles holding trip candidates for the
    /// group-choice step.
    pub rows: usize,
    /// Real columns of the first assignment matrix (candidate vehicles, or
    /// trip candidates), excluding per-row dummy columns.
    pub cols: usize,
    /// Branch-and-bound nodes explored (`0` when the plain LAP sufficed).
    pub bb_nodes: u64,
    /// LAP rounds solved within the batch (`1` for a single solve).
    pub rounds: u32,
    /// Whether the committed assignment is proven optimal (a tripped
    /// branch-and-bound node budget clears this; the LAP alone always
    /// proves optimality).
    pub optimal: bool,
    /// Degraded-mode solves within the batch: how many times a tripped
    /// per-batch solver budget (see [`crate::faults`]) made the dispatcher
    /// fall back to its seeded incumbent instead of the exact solution.
    /// `0` whenever no budget was injected or every solve finished inside
    /// it.
    pub fallbacks: u64,
}

/// A minimum-cost row→column assignment found by [`solve_dense`].
#[derive(Debug, Clone, PartialEq)]
pub struct LapSolution {
    /// For every row, the column it is assigned to.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment.
    pub cost: f64,
}

/// Solves the rectangular linear assignment problem over a dense row-major
/// cost matrix: every row must be matched to a distinct column, minimizing
/// total cost.  Entries of [`FORBIDDEN`] (any `+inf`) are unusable edges.
///
/// Returns `None` when the instance is infeasible: more rows than columns,
/// or no perfect row-matching over finite edges exists.  Ties between
/// equal-reduced-cost columns break toward the lowest column index, making
/// the solution (not just its cost) deterministic.
///
/// Costs must be finite or `+inf`; NaN is a caller bug (checked in debug
/// builds).
pub fn solve_dense(costs: &[Vec<f64>]) -> Option<LapSolution> {
    let rows = costs.len();
    if rows == 0 {
        return Some(LapSolution {
            row_to_col: Vec::new(),
            cost: 0.0,
        });
    }
    let cols = costs[0].len();
    debug_assert!(costs.iter().all(|r| r.len() == cols), "ragged cost matrix");
    debug_assert!(
        costs.iter().flatten().all(|c| !c.is_nan()),
        "NaN cost entry"
    );
    if rows > cols {
        return None;
    }

    // Shortest-augmenting-path Kuhn–Munkres with dual potentials `u` (rows)
    // and `v` (columns).  Column index `cols` is the virtual start column
    // holding the row currently being inserted.
    let mut u = vec![0.0f64; rows];
    let mut v = vec![0.0f64; cols + 1];
    // `matched[j]` = row currently matched to column `j` (virtual included).
    let mut matched: Vec<Option<usize>> = vec![None; cols + 1];
    // `way[j]` = column preceding `j` on the best alternating path found.
    let mut way = vec![cols; cols];

    for row in 0..rows {
        matched[cols] = Some(row);
        let mut j0 = cols;
        let mut minv = vec![f64::INFINITY; cols];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = matched[j0].expect("scanned column is matched");
            let mut delta = f64::INFINITY;
            let mut j1 = None;
            for (j, seen) in used.iter().enumerate().take(cols) {
                if *seen {
                    continue;
                }
                let reduced = costs[i0][j] - u[i0] - v[j];
                if reduced < minv[j] {
                    minv[j] = reduced;
                    way[j] = j0;
                }
                // Strict `<` keeps the lowest column index on ties.
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = Some(j);
                }
            }
            let next = j1?;
            if !delta.is_finite() {
                // Every reachable column sits behind a forbidden edge: no
                // augmenting path exists for this row.
                return None;
            }
            for j in 0..=cols {
                if used[j] {
                    if let Some(i) = matched[j] {
                        u[i] += delta;
                    }
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = next;
            if matched[j0].is_none() {
                break;
            }
        }
        // Augment: walk the alternating path back to the virtual column.
        while j0 != cols {
            let prev = way[j0];
            matched[j0] = matched[prev];
            j0 = prev;
        }
    }

    let mut row_to_col = vec![usize::MAX; rows];
    for (j, m) in matched.iter().enumerate().take(cols) {
        if let Some(i) = *m {
            row_to_col[i] = j;
        }
    }
    debug_assert!(row_to_col.iter().all(|&j| j != usize::MAX));
    let cost = row_to_col
        .iter()
        .enumerate()
        .map(|(i, &j)| costs[i][j])
        .sum();
    Some(LapSolution { row_to_col, cost })
}

/// The seeded greedy incumbent used when the per-batch solver budget trips
/// (see [`crate::faults`]): over `n_cols` real columns followed by one dummy
/// column per row, rows in order each take their cheapest still-free real
/// column when that beats their own dummy, otherwise the dummy.
/// Deterministic (ties break toward the lowest column index, same as
/// [`solve_dense`]) and never worse than the all-dummy assignment — the
/// anytime floor the degraded mode guarantees.
pub(crate) fn greedy_incumbent(costs: &[Vec<f64>], n_cols: usize) -> Vec<usize> {
    let mut taken = vec![false; n_cols];
    let mut row_to_col = Vec::with_capacity(costs.len());
    for (i, row) in costs.iter().enumerate() {
        let mut best: Option<(f64, usize)> = None;
        for (j, &c) in row[..n_cols].iter().enumerate() {
            if taken[j] || !c.is_finite() {
                continue;
            }
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, j));
            }
        }
        let dummy = n_cols + i;
        match best {
            Some((c, j)) if c < row[dummy] => {
                taken[j] = true;
                row_to_col.push(j);
            }
            _ => row_to_col.push(dummy),
        }
    }
    row_to_col
}

/// One `(vehicle, trip group, gain)` candidate for the group-choice step.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCandidate {
    /// Index of the vehicle that would serve the group.
    pub vehicle: usize,
    /// Ids of the requests the group serves.
    pub requests: Vec<u32>,
    /// Net gain of committing this candidate (penalty avoided minus added
    /// travel cost); candidates with `gain <= 0` are never chosen.
    pub gain: f64,
}

/// The outcome of one [`solve_group_choice`] search.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupChoice {
    /// Indices into the candidate slice, ascending.
    pub chosen: Vec<usize>,
    /// Total gain of the chosen candidates.
    pub gain: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Whether the search ran to completion (a tripped `node_budget` clears
    /// this; the result is then the best solution found so far, still never
    /// worse than the incumbent).
    pub optimal: bool,
}

/// Exactly solves the group-choice step: pick candidates maximizing total
/// gain with every vehicle in at most one chosen candidate and every
/// request in at most one chosen group.
///
/// `incumbent` seeds the search with a known-feasible solution (RTV passes
/// its retained greedy+swap reference), so the result is never worse than
/// it.  `node_budget` bounds the search; when it trips, `optimal` is false
/// and the best solution found so far is returned.  Fully deterministic:
/// candidates are explored by `(gain desc, index asc)` and improvements
/// must beat the best by a strict epsilon, so equal-gain optima resolve to
/// the earliest-indexed one.
pub fn solve_group_choice(
    candidates: &[GroupCandidate],
    incumbent: &[usize],
    node_budget: u64,
) -> GroupChoice {
    // Positive gain is a precondition for membership in any optimum: the
    // constraints are pure packing, so dropping a non-positive candidate
    // never breaks feasibility and never lowers the total.
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].gain > 0.0)
        .collect();
    order.sort_by(|&a, &b| {
        candidates[b]
            .gain
            .total_cmp(&candidates[a].gain)
            .then(a.cmp(&b))
    });

    let incumbent_gain: f64 = incumbent.iter().map(|&i| candidates[i].gain).sum();
    let mut best: Vec<usize> = incumbent.to_vec();
    best.sort_unstable();
    let best_gain = incumbent_gain;

    let n_vehicles = candidates.iter().map(|c| c.vehicle + 1).max().unwrap_or(0);
    let mut search = Search {
        candidates,
        order: &order,
        used_vehicle: vec![false; n_vehicles],
        used_requests: HashSet::new(),
        chosen: Vec::new(),
        best,
        best_gain,
        nodes: 0,
        node_budget,
        aborted: false,
    };
    search.dfs(0, 0.0);

    GroupChoice {
        chosen: search.best,
        gain: search.best_gain,
        nodes: search.nodes,
        optimal: !search.aborted,
    }
}

/// The mutable state of one group-choice branch-and-bound search:
/// depth-first include/exclude over `order` with the decomposed
/// LAP-relaxation bound.  Recursion depth is bounded by the positive-gain
/// candidate count, which dispatch batches keep small.
struct Search<'a> {
    candidates: &'a [GroupCandidate],
    order: &'a [usize],
    used_vehicle: Vec<bool>,
    used_requests: HashSet<u32>,
    chosen: Vec<usize>,
    best: Vec<usize>,
    best_gain: f64,
    nodes: u64,
    node_budget: u64,
    aborted: bool,
}

impl Search<'_> {
    fn bound(&self, from: usize) -> f64 {
        // LAP relaxation with request coupling dropped: each unused vehicle
        // independently takes its best (= first in gain-descending order)
        // remaining candidate.
        let mut counted = vec![false; self.used_vehicle.len()];
        let mut total = 0.0;
        for &ci in &self.order[from..] {
            let v = self.candidates[ci].vehicle;
            if !self.used_vehicle[v] && !counted[v] {
                counted[v] = true;
                total += self.candidates[ci].gain;
            }
        }
        total
    }

    fn dfs(&mut self, pos: usize, gain: f64) {
        if self.aborted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.aborted = true;
            return;
        }
        if gain > self.best_gain + EPS {
            self.best_gain = gain;
            let mut sorted = self.chosen.clone();
            sorted.sort_unstable();
            self.best = sorted;
        }
        if pos == self.order.len() {
            return;
        }
        if gain + self.bound(pos) <= self.best_gain + EPS {
            return;
        }
        let ci = self.order[pos];
        let cand = &self.candidates[ci];
        let feasible = !self.used_vehicle[cand.vehicle]
            && cand
                .requests
                .iter()
                .all(|r| !self.used_requests.contains(r));
        if feasible {
            self.used_vehicle[cand.vehicle] = true;
            for &r in &cand.requests {
                self.used_requests.insert(r);
            }
            self.chosen.push(ci);
            let cand_gain = cand.gain;
            self.dfs(pos + 1, gain + cand_gain);
            self.chosen.pop();
            let cand = &self.candidates[ci];
            for &r in &cand.requests {
                self.used_requests.remove(&r);
            }
            self.used_vehicle[cand.vehicle] = false;
        }
        self.dfs(pos + 1, gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force LAP reference: tries every injective row→column map.
    fn brute_force(costs: &[Vec<f64>]) -> Option<f64> {
        let rows = costs.len();
        if rows == 0 {
            return Some(0.0);
        }
        let cols = costs[0].len();
        fn rec(costs: &[Vec<f64>], row: usize, taken: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == costs.len() {
                if acc < *best {
                    *best = acc;
                }
                return;
            }
            for j in 0..taken.len() {
                if !taken[j] && costs[row][j].is_finite() {
                    taken[j] = true;
                    rec(costs, row + 1, taken, acc + costs[row][j], best);
                    taken[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(costs, 0, &mut vec![false; cols], 0.0, &mut best);
        best.is_finite().then_some(best)
    }

    /// Brute-force group-choice reference: tries every candidate subset.
    fn brute_force_groups(candidates: &[GroupCandidate]) -> f64 {
        let n = candidates.len();
        assert!(n <= 16, "reference is exponential");
        let mut best = 0.0f64;
        'subset: for mask in 0u32..(1 << n) {
            let mut vehicles = HashSet::new();
            let mut requests = HashSet::new();
            let mut gain = 0.0;
            for (i, c) in candidates.iter().enumerate() {
                if mask & (1 << i) == 0 {
                    continue;
                }
                if !vehicles.insert(c.vehicle) {
                    continue 'subset;
                }
                for &r in &c.requests {
                    if !requests.insert(r) {
                        continue 'subset;
                    }
                }
                gain += c.gain;
            }
            if gain > best {
                best = gain;
            }
        }
        best
    }

    fn cell(raw: u32) -> f64 {
        // Coarse integral costs produce frequent ties; the top band of the
        // raw range becomes a forbidden edge.
        if raw >= 40 {
            FORBIDDEN
        } else {
            (raw % 8) as f64
        }
    }

    #[test]
    fn solves_textbook_square_instance() {
        let costs = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let sol = solve_dense(&costs).expect("feasible");
        assert_eq!(sol.cost, 5.0);
        assert_eq!(sol.row_to_col, vec![1, 0, 2]);
    }

    #[test]
    fn rectangular_instance_uses_the_cheap_columns() {
        let costs = vec![vec![10.0, 1.0, 7.0, 2.0], vec![10.0, 2.0, 7.0, 9.0]];
        let sol = solve_dense(&costs).expect("feasible");
        assert_eq!(sol.row_to_col, vec![3, 1]);
        assert_eq!(sol.cost, 4.0);
    }

    #[test]
    fn ties_break_toward_the_lowest_column() {
        // Both columns cost the same for both rows: the deterministic
        // tie-break must hand row 0 the lower column.
        let costs = vec![vec![1.0, 1.0, 1.0], vec![1.0, 1.0, 1.0]];
        let sol = solve_dense(&costs).expect("feasible");
        assert_eq!(sol.row_to_col, vec![0, 1]);
    }

    #[test]
    fn forbidden_edges_are_never_taken() {
        let costs = vec![vec![FORBIDDEN, 5.0], vec![1.0, FORBIDDEN]];
        let sol = solve_dense(&costs).expect("feasible");
        assert_eq!(sol.row_to_col, vec![1, 0]);
        assert_eq!(sol.cost, 6.0);
    }

    #[test]
    fn infeasible_instances_are_reported_not_mangled() {
        // A row with no finite edge.
        assert_eq!(
            solve_dense(&[vec![1.0, 2.0], vec![FORBIDDEN, FORBIDDEN]]),
            None
        );
        // Two rows forced onto the same single finite column.
        assert_eq!(
            solve_dense(&[vec![1.0, FORBIDDEN], vec![2.0, FORBIDDEN]]),
            None
        );
        // More rows than columns can never match perfectly.
        assert_eq!(solve_dense(&[vec![1.0], vec![2.0]]), None);
    }

    #[test]
    fn empty_matrix_solves_trivially() {
        let sol = solve_dense(&[]).expect("trivially feasible");
        assert!(sol.row_to_col.is_empty());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn group_choice_beats_greedy_on_the_classic_blocking_instance() {
        // Greedy takes the 288-gain pair and blocks both singletons; the
        // exact optimum is the two singletons at 95 + 196 = 291.
        let candidates = vec![
            GroupCandidate {
                vehicle: 0,
                requests: vec![1, 2],
                gain: 288.0,
            },
            GroupCandidate {
                vehicle: 0,
                requests: vec![1],
                gain: 95.0,
            },
            GroupCandidate {
                vehicle: 1,
                requests: vec![2],
                gain: 196.0,
            },
        ];
        let greedy = vec![0usize];
        let out = solve_group_choice(&candidates, &greedy, 10_000);
        assert!(out.optimal);
        assert_eq!(out.chosen, vec![1, 2]);
        assert_eq!(out.gain, 291.0);
        assert!(out.nodes > 0);
    }

    #[test]
    fn group_choice_with_tripped_budget_still_returns_the_incumbent() {
        let candidates = vec![
            GroupCandidate {
                vehicle: 0,
                requests: vec![1],
                gain: 10.0,
            },
            GroupCandidate {
                vehicle: 1,
                requests: vec![2],
                gain: 20.0,
            },
        ];
        let incumbent = vec![0usize];
        let out = solve_group_choice(&candidates, &incumbent, 1);
        assert!(!out.optimal);
        assert!(out.gain >= 10.0, "never worse than the incumbent");
    }

    #[test]
    fn group_choice_ignores_non_positive_gains() {
        let candidates = vec![
            GroupCandidate {
                vehicle: 0,
                requests: vec![1],
                gain: -5.0,
            },
            GroupCandidate {
                vehicle: 1,
                requests: vec![2],
                gain: 0.0,
            },
        ];
        let out = solve_group_choice(&candidates, &[], 10_000);
        assert!(out.optimal);
        assert!(out.chosen.is_empty());
        assert_eq!(out.gain, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The solver matches the brute-force permutation minimum on random
        /// rectangular matrices with forbidden entries and frequent ties —
        /// including agreeing on infeasibility.
        #[test]
        fn lap_matches_brute_force(
            rows in 1usize..6,
            extra_cols in 0usize..4,
            raw in proptest::collection::vec(0u32..50, 64..65),
        ) {
            let cols = rows + extra_cols;
            let costs: Vec<Vec<f64>> = (0..rows)
                .map(|i| (0..cols).map(|j| cell(raw[i * 8 + j])).collect())
                .collect();
            let expected = brute_force(&costs);
            let got = solve_dense(&costs);
            match (expected, &got) {
                (None, None) => {}
                (Some(want), Some(sol)) => {
                    prop_assert!(
                        (sol.cost - want).abs() < 1e-9,
                        "solver {} vs brute force {want} on {costs:?}",
                        sol.cost
                    );
                    // The assignment is injective and uses no forbidden edge.
                    let mut seen = HashSet::new();
                    for (i, &j) in sol.row_to_col.iter().enumerate() {
                        prop_assert!(seen.insert(j));
                        prop_assert!(costs[i][j].is_finite());
                    }
                }
                _ => prop_assert!(false, "feasibility mismatch: {expected:?} vs {got:?}"),
            }
            // Determinism: re-solving yields the identical assignment.
            prop_assert_eq!(got, solve_dense(&costs));
        }

        /// A row whose only finite cell is its own dummy column can be left
        /// out of the matrix: on the full matrix it takes its dummy, and
        /// both solvers give every other row the same column (dummies
        /// renumbered) at the same cost bits as on the matrix without it.
        #[test]
        fn dummy_only_rows_leave_every_other_row_unmoved(
            rows in 1usize..7,
            real_cols in 0usize..5,
            raw in proptest::collection::vec(0u32..50, 30..31),
            dummies in proptest::collection::vec(0u32..8, 6..7),
            kind in proptest::collection::vec(0u32..3, 6..7),
        ) {
            // Kind 0 (one row in three) forces a row dummy-only; random
            // cells can make others dummy-only too.
            let full: Vec<Vec<f64>> = (0..rows)
                .map(|i| {
                    let mut row = vec![FORBIDDEN; real_cols + rows];
                    if kind[i] != 0 {
                        for (j, cell_cost) in row[..real_cols].iter_mut().enumerate() {
                            *cell_cost = cell(raw[i * 5 + j]);
                        }
                    }
                    row[real_cols + i] = dummies[i] as f64;
                    row
                })
                .collect();
            let live: Vec<usize> = (0..rows)
                .filter(|&i| full[i][..real_cols].iter().any(|c| c.is_finite()))
                .collect();
            // The full matrix without the dummy-only rows and their dummy
            // columns.
            let reduced: Vec<Vec<f64>> = live
                .iter()
                .map(|&i| {
                    let dummies = live.iter().map(|&d| full[i][real_cols + d]);
                    full[i][..real_cols].iter().copied().chain(dummies).collect()
                })
                .collect();
            let exact = |m: &[Vec<f64>]| solve_dense(m).expect("feasible by its dummies");
            let solve = |m: &[Vec<f64>], greedy: bool| {
                if greedy {
                    greedy_incumbent(m, real_cols)
                } else {
                    exact(m).row_to_col
                }
            };
            for greedy in [false, true] {
                let on_full = solve(&full, greedy);
                let on_reduced = solve(&reduced, greedy);
                for i in (0..rows).filter(|i| !live.contains(i)) {
                    prop_assert_eq!(on_full[i], real_cols + i, "a dummy-only row takes its dummy");
                }
                for (k, &i) in live.iter().enumerate() {
                    let dummy = on_full[i] >= real_cols;
                    if dummy {
                        prop_assert_eq!(on_full[i], real_cols + i);
                    }
                    let want = if dummy { real_cols + k } else { on_full[i] };
                    prop_assert_eq!(on_reduced[k], want, "row {} of {:?}", i, full);
                    let (got, was) = (reduced[k][want], full[i][on_full[i]]);
                    prop_assert_eq!(got.to_bits(), was.to_bits());
                }
            }
            // The solve's total is the live rows' costs, summed in row order
            // (with no live row there is no matrix to solve).
            if !live.is_empty() {
                let on_full = exact(&full).row_to_col;
                let kept: f64 = live.iter().map(|&i| full[i][on_full[i]]).sum();
                prop_assert_eq!(exact(&reduced).cost.to_bits(), kept.to_bits());
            }
        }

        /// The branch-and-bound matches the brute-force subset maximum and
        /// never returns less than the seeded incumbent.
        #[test]
        fn group_choice_matches_brute_force(
            raw in proptest::collection::vec((0usize..4, 0u32..6, 0u32..6, 0u32..80), 0..10),
        ) {
            let candidates: Vec<GroupCandidate> = raw
                .iter()
                .map(|&(vehicle, r1, r2, gain)| GroupCandidate {
                    vehicle,
                    requests: if r1 == r2 { vec![r1] } else { vec![r1, r2] },
                    gain: gain as f64 - 10.0,
                })
                .collect();
            let want = brute_force_groups(&candidates);
            let out = solve_group_choice(&candidates, &[], 1_000_000);
            prop_assert!(out.optimal);
            prop_assert!(
                (out.gain - want).abs() < 1e-9,
                "solver {} vs brute force {want} on {candidates:?}",
                out.gain
            );
            // The chosen set is feasible.
            let mut vehicles = HashSet::new();
            let mut requests = HashSet::new();
            for &i in &out.chosen {
                prop_assert!(vehicles.insert(candidates[i].vehicle));
                for &r in &candidates[i].requests {
                    prop_assert!(requests.insert(r));
                }
            }
            // Determinism: re-solving yields the identical choice.
            prop_assert_eq!(&out, &solve_group_choice(&candidates, &[], 1_000_000));
        }
    }
}
