//! The pairwise shareability test behind Definition 5.
//!
//! Two requests are *shareable* when at least one feasible schedule serves
//! both in a single trip.  With four way-points and the order constraint
//! (pickup before drop-off for each request) there are exactly six candidate
//! interleavings, three starting at each source.  Each is evaluated from the
//! most permissive vehicle state — an empty vehicle that is already standing
//! at the first pickup when that request is released — and the pair is
//! shareable as soon as one is feasible.  The test is symmetric.
//!
//! # One stack evaluator
//!
//! [`ShareabilityCheck::shareable`] walks an ordering of the pair's four
//! stops, held as a `[Waypoint; 4]`, with `Schedule::evaluate`'s exact
//! arithmetic: `arrive = now + leg`, `service = arrive.max(earliest)`, the
//! `deadline + TIME_EPS` test and the capacity test on pickups.  It tries
//! the orderings in the same sequence and stops at the same first violation,
//! and it allocates nothing.  Legs come from a per-check 4 × 4 memo.  Its
//! diagonal is `0.0`, which is exactly what `SpEngine::cost(s, s)` returns
//! for every ordering's first leg, from the vehicle's start to the pickup it
//! stands on.  Every other leg is fetched through `SpEngine::cost` at most
//! once per check.
//!
//! # The certified screen
//!
//! Before any engine call, every ordering is walked once with lower-bound
//! legs from the engine's [`LegBound`], read once per batch:
//! `max(0, max(min_time_per_meter × euclid(u, v), min_ratio × lb(u, v)) −
//! LOWER_BOUND_GRACE)`, where `lb` is the landmark (ALT) bound and
//! `min_ratio` scales it to the current traffic epoch.  [`LegBound`]'s docs
//! show that each bound is at most the leg's exact `f64` cost.  The walk
//! only adds legs, takes a `max` with a release time and compares against
//! deadlines, and IEEE `+` and `max` are monotone.  So shorter legs can only
//! make every service time earlier, and an ordering that fails on lower
//! bounds fails on exact legs too.  The screen skips those orderings, and a
//! pair with none left is rejected without a shortest-path query.  Verdicts
//! are therefore bool-equal to the unscreened walk; only the number of
//! `cost` calls changes.  The unscreened check
//! ([`pairwise_shareable`]) uses zero-length bounds, which still screen on
//! release times, deadlines and capacity alone.

use structride_model::schedule::TIME_EPS;
use structride_model::{Request, Waypoint, WaypointKind};
use structride_roadnet::{LegBound, SpEngine};

/// The six interleavings of a pair's stops `[s_a, e_a, s_b, e_b]`, in the
/// order they are tried: the three starting at `a`'s source, then the three
/// starting at `b`'s.
const ORDERINGS: [[usize; 4]; 6] = [
    [0, 2, 3, 1],
    [0, 2, 1, 3],
    [0, 1, 2, 3],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 3, 0, 1],
];

/// Walks `order` over `stops` from an empty vehicle standing on the first
/// stop at its release, reading the leg between stop indices `(i, j)` from
/// `leg`, and reports whether every stop is served feasibly.
fn feasible(
    stops: &[Waypoint; 4],
    order: &[usize; 4],
    capacity: u32,
    mut leg: impl FnMut(usize, usize) -> f64,
) -> bool {
    let mut at = order[0];
    let mut now = stops[at].earliest;
    let mut onboard = 0u32;
    for &next in order {
        let wp = &stops[next];
        let leg = leg(at, next);
        if !leg.is_finite() {
            return false;
        }
        let service = (now + leg).max(wp.earliest);
        if service > wp.deadline + TIME_EPS {
            return false;
        }
        match wp.kind {
            WaypointKind::Pickup => {
                onboard += wp.riders;
                if onboard > capacity {
                    return false;
                }
            }
            WaypointKind::Dropoff => onboard = onboard.saturating_sub(wp.riders),
        }
        now = service;
        at = next;
    }
    true
}

/// Definition 5's exact test for one batch: the engine, its certified leg
/// bound read once (`None` for the unscreened check), and the seat capacity
/// of the hypothetical shared vehicle.  Cheap to copy and safe to share
/// across workers.
#[derive(Debug, Clone, Copy)]
pub struct ShareabilityCheck<'e> {
    engine: &'e SpEngine,
    bound: Option<LegBound<'e>>,
    capacity: u32,
}

impl<'e> ShareabilityCheck<'e> {
    /// A screened check at the engine's current certified leg bound.  On a
    /// traffic engine that is the current epoch's bound, so build the check
    /// per batch and never carry it across an epoch roll.
    pub fn new(engine: &'e SpEngine, capacity: u32) -> Self {
        ShareabilityCheck {
            engine,
            bound: Some(engine.leg_bound()),
            capacity,
        }
    }

    /// True if `a` and `b` can be served together in one trip (Definition
    /// 5), in either order.  A request is never shareable with itself.
    pub fn shareable(&self, a: &Request, b: &Request) -> bool {
        if a.id == b.id {
            return false;
        }
        // Even if the combined rider count exceeds the capacity the pair may
        // still share sequentially (⟨s_a, e_a, s_b, e_b⟩), so there is no
        // early exit on riders: the per-ordering capacity test handles both.
        let stops = [
            Waypoint::pickup(a),
            Waypoint::dropoff(a),
            Waypoint::pickup(b),
            Waypoint::dropoff(b),
        ];
        let node = |i: usize| stops[i].node;
        let bounds: [[f64; 4]; 4] = std::array::from_fn(|i| {
            std::array::from_fn(|j| {
                self.bound
                    .map_or(0.0, |bound| bound.lower_bound(node(i), node(j)))
            })
        });
        let open =
            ORDERINGS.map(|order| feasible(&stops, &order, self.capacity, |i, j| bounds[i][j]));

        let mut legs: [[Option<f64>; 4]; 4] =
            std::array::from_fn(|i| std::array::from_fn(|j| (i == j).then_some(0.0)));
        ORDERINGS
            .iter()
            .zip(open)
            .filter(|&(_, open)| open)
            .any(|(order, _)| {
                feasible(&stops, order, self.capacity, |i, j| {
                    *legs[i][j].get_or_insert_with(|| self.engine.cost(node(i), node(j)))
                })
            })
    }
}

/// Symmetric shareability test (Definition 5): true if the two requests can be
/// served together by one vehicle of seat capacity `capacity`, in any order.
///
/// An unscreened [`ShareabilityCheck`]: its bounds are all zero, so it
/// reads no bound and is still exact.  Callers testing many pairs should
/// build one screened check instead.
pub fn pairwise_shareable(engine: &SpEngine, a: &Request, b: &Request, capacity: u32) -> bool {
    ShareabilityCheck {
        engine,
        bound: None,
        capacity,
    }
    .shareable(a, b)
}

#[cfg(test)]
#[path = "../tests/support/engines.rs"]
mod test_engines;

#[cfg(test)]
mod tests {
    use super::test_engines::engines;
    use super::*;
    use proptest::prelude::*;
    use structride_model::Schedule;
    use structride_roadnet::{Point, RoadNetworkBuilder, LOWER_BOUND_GRACE};

    /// All interleavings of `(a, b)` way-points in which `a`'s source comes
    /// first, as allocated schedules.
    fn orderings_first(a: &Request, b: &Request) -> [Schedule; 3] {
        let sa = Waypoint::pickup(a);
        let ea = Waypoint::dropoff(a);
        let sb = Waypoint::pickup(b);
        let eb = Waypoint::dropoff(b);
        [
            Schedule::from_waypoints(vec![sa, sb, eb, ea]),
            Schedule::from_waypoints(vec![sa, sb, ea, eb]),
            Schedule::from_waypoints(vec![sa, ea, sb, eb]),
        ]
    }

    /// The reference test restricted to schedules starting at `first`'s
    /// source: a full `Schedule::evaluate` per ordering, from an empty
    /// vehicle standing at `first.source` at `first.release`.
    fn pairwise_shareable_from(
        engine: &SpEngine,
        first: &Request,
        second: &Request,
        capacity: u32,
    ) -> bool {
        first.id != second.id
            && orderings_first(first, second).iter().any(|schedule| {
                schedule
                    .evaluate(engine, first.source, first.release, 0, capacity)
                    .feasible
            })
    }

    /// The six-`Schedule` reference for the symmetric test.
    fn reference_shareable(engine: &SpEngine, a: &Request, b: &Request, capacity: u32) -> bool {
        pairwise_shareable_from(engine, a, b, capacity)
            || pairwise_shareable_from(engine, b, a, capacity)
    }

    /// 0 -10- 1 -10- 2 -10- 3 -10- 4 (bidirectional line).
    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..5u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32, release: f64, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, release, cost, gamma, 300.0)
    }

    #[test]
    fn overlapping_same_direction_requests_share() {
        let engine = line_engine();
        let a = req(1, 0, 4, 0.0, 40.0, 1.5);
        let b = req(2, 1, 3, 0.0, 20.0, 1.5);
        assert!(pairwise_shareable(&engine, &a, &b, 4));
        assert!(pairwise_shareable(&engine, &b, &a, 4));
    }

    #[test]
    fn opposite_directions_with_tight_deadlines_do_not_share() {
        let engine = line_engine();
        let a = req(1, 0, 4, 0.0, 40.0, 1.1);
        let b = req(2, 4, 0, 0.0, 40.0, 1.1);
        assert!(!pairwise_shareable(&engine, &a, &b, 4));
    }

    #[test]
    fn request_never_shareable_with_itself() {
        let engine = line_engine();
        let a = req(1, 0, 4, 0.0, 40.0, 2.0);
        assert!(!pairwise_shareable(&engine, &a, &a, 4));
    }

    #[test]
    fn asymmetric_first_source_check() {
        let engine = line_engine();
        // b starts "behind" a: a schedule starting at b's source picks a up on
        // the way for free, but any schedule starting at a's source has to
        // backtrack and blows a's delivery deadline — so the first-source
        // restricted test is asymmetric while the wrapper is symmetric.
        let a = req(1, 1, 4, 0.0, 30.0, 1.5);
        let b = req(2, 0, 4, 0.0, 40.0, 1.5);
        assert!(pairwise_shareable_from(&engine, &b, &a, 4));
        assert!(!pairwise_shareable_from(&engine, &a, &b, 4));
        // The symmetric wrapper is true regardless of which direction worked.
        assert!(pairwise_shareable(&engine, &a, &b, 4));
    }

    #[test]
    fn capacity_limits_sharing_when_overlap_is_unavoidable() {
        let engine = line_engine();
        // Two 2-rider requests strictly nested in time/space: they must be on
        // board together, so capacity 3 fails and capacity 4 succeeds.
        let a = Request::with_detour(1, 0, 4, 2, 0.0, 40.0, 1.5, 300.0);
        let b = Request::with_detour(2, 1, 3, 2, 0.0, 20.0, 1.5, 300.0);
        assert!(!pairwise_shareable(&engine, &a, &b, 3));
        assert!(pairwise_shareable(&engine, &a, &b, 4));
    }

    #[test]
    fn sequential_service_counts_as_shareable_if_deadlines_allow() {
        let engine = line_engine();
        // Generous deadlines: serving one after the other is feasible even
        // though the trips never overlap.
        let a = req(1, 0, 1, 0.0, 10.0, 3.0);
        let b = req(2, 2, 3, 0.0, 10.0, 6.0);
        assert!(pairwise_shareable(&engine, &a, &b, 4));
    }

    #[test]
    fn waiting_for_a_later_release_is_allowed() {
        let engine = line_engine();
        let a = req(1, 0, 2, 0.0, 20.0, 1.2);
        // b is released much later; the vehicle can finish a and wait at b's
        // pickup, so Definition 5 still classifies the pair as shareable.
        let b = req(2, 1, 3, 500.0, 20.0, 1.2);
        assert!(pairwise_shareable(&engine, &a, &b, 4));
        // But interleaving them (a's drop-off after b's pickup) is impossible:
        // only the sequential ordering ⟨s_a, e_a, s_b, e_b⟩ is feasible.
        let sa = Waypoint::pickup(&a);
        let ea = Waypoint::dropoff(&a);
        let sb = Waypoint::pickup(&b);
        let eb = Waypoint::dropoff(&b);
        let interleaved = Schedule::from_waypoints(vec![sa, sb, eb, ea]);
        assert!(
            !interleaved
                .evaluate(&engine, a.source, a.release, 0, 4)
                .feasible
        );
    }

    #[test]
    fn a_screened_rejection_issues_no_shortest_path_query() {
        let engine = line_engine();
        // Opposite ends, both due at once: no ordering survives the bounds.
        let a = req(1, 0, 1, 0.0, 10.0, 1.0);
        let b = req(2, 4, 3, 0.0, 10.0, 1.0);
        let check = ShareabilityCheck::new(&engine, 4);
        let before = engine.stats().total_queries;
        assert!(!check.shareable(&a, &b));
        assert_eq!(engine.stats().total_queries, before);
        // The unscreened wrapper reaches the same verdict the long way.
        assert!(!pairwise_shareable(&engine, &a, &b, 4));
        assert!(engine.stats().total_queries > before);
    }

    /// A request drawn from `gen` over the engine's nodes: `s == e`,
    /// cross-island trips (an unreachable own leg), 1–3 riders, deadlines
    /// with no detour slack, and pickup windows on the knife edge
    /// (`pickup_deadline == release`, or `release − TIME_EPS`, which only the
    /// tolerance admits).
    fn random_request(engine: &SpEngine, gen: &mut proptest::Gen, id: u32) -> Request {
        let nodes = engine.node_count();
        // Draw from a few hot nodes half the time, so pairs share stops.
        let node = |gen: &mut proptest::Gen| {
            let range = if gen.next_f64() < 0.5 { 4 } else { nodes };
            gen.usize_in(0, range) as u32
        };
        let source = node(gen);
        let destination = if gen.next_f64() < 0.1 {
            source
        } else {
            node(gen)
        };
        let riders = gen.usize_in(1, 4) as u32;
        let release = (gen.usize_in(0, 40) * 5) as f64;
        let direct = engine.cost(source, destination);
        // An unreachable trip keeps a finite nominal cost; its own leg is ∞.
        let nominal = if direct.is_finite() { direct } else { 60.0 };
        let detour = if gen.next_f64() < 0.2 {
            1.0
        } else {
            1.0 + 1.5 * gen.next_f64()
        };
        let deadline = release + nominal * detour;
        let pickup_deadline = match gen.usize_in(0, 8) {
            0 => release,
            1 => release - TIME_EPS,
            _ => release + (deadline - release - nominal).clamp(0.0, 120.0),
        };
        Request::new(
            id,
            source,
            destination,
            riders,
            release,
            deadline,
            pickup_deadline,
            nominal,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The screened, memoised check and its unscreened wrapper agree
        /// bool for bool with six full `Schedule::evaluate` walks.
        #[test]
        fn the_screened_check_matches_the_six_schedule_reference(
            seed in 0u64..1_000_000,
            capacity in 1u32..6,
        ) {
            for engine in engines(seed) {
                let check = ShareabilityCheck::new(&engine, capacity);
                let mut gen = proptest::Gen::new(seed ^ 0xA5A5);
                let requests: Vec<Request> =
                    (0..40).map(|id| random_request(&engine, &mut gen, id)).collect();
                for a in &requests {
                    for b in &requests {
                        let expected = reference_shareable(&engine, a, b, capacity);
                        prop_assert_eq!(check.shareable(a, b), expected, "{:?} / {:?}", a, b);
                        prop_assert_eq!(pairwise_shareable(&engine, a, b, capacity), expected);
                    }
                }
            }
        }

        /// Every certified lower-bound leg is at most the engine's exact
        /// cost, over every ordered node pair.
        #[test]
        fn the_lower_bound_never_exceeds_the_exact_cost(seed in 0u64..1_000_000) {
            for engine in engines(seed) {
                let bound = engine.leg_bound();
                prop_assert!(bound.rate() > 0.0);
                prop_assert_eq!(bound.rate().to_bits(), engine.min_time_per_meter().to_bits());
                let n = engine.node_count() as u32;
                for u in 0..n {
                    prop_assert_eq!(bound.lower_bound(u, u), 0.0);
                    for v in 0..n {
                        let certified = bound.lower_bound(u, v);
                        let cost = engine.cost(u, v);
                        prop_assert!(certified <= cost, "{u}->{v}: bound {certified} > cost {cost}");
                    }
                }
            }
        }

        /// The landmark part alone, `max(0, min_ratio × lb − grace)`, is at
        /// most the exact cost over every ordered node pair: on the static,
        /// rush-rolled, fast-lane (`min_ratio < 1`) and clipped engines,
        /// with the island's infinite bounds and the twin's zero-length edge.
        #[test]
        fn the_landmark_bound_never_exceeds_the_exact_cost(seed in 0u64..1_000_000) {
            let engines = engines(seed);
            let ratios: Vec<f64> = engines.iter().map(|e| e.leg_bound().ratio()).collect();
            prop_assert_eq!(ratios[0], 1.0);
            prop_assert!(ratios[1] > 1.0 && ratios[2] < 1.0, "{:?}", ratios);
            let mut infinite = 0;
            for engine in &engines {
                let bound = engine.leg_bound();
                let n = engine.node_count() as u32;
                for u in 0..n {
                    for v in 0..n {
                        let lb = bound.landmarks().lower_bound(u, v);
                        let landmark = (bound.ratio() * lb - LOWER_BOUND_GRACE).max(0.0);
                        let cost = engine.cost(u, v);
                        prop_assert!(landmark <= cost, "{u}->{v}: landmark {landmark} > cost {cost}");
                        infinite += usize::from(landmark.is_infinite());
                    }
                }
            }
            prop_assert!(infinite > 0, "the islands prove some pairs unreachable");
        }
    }
}
