//! Hotspot-clustered request generation with log-normal trip distances.
//!
//! The paper (Theorem III.1, §V-A) observes that trip distances in both real
//! datasets follow a log-normal distribution and that demand is spatially
//! concentrated (Fig. 7).  The generator reproduces both facts: origins are
//! drawn from a mixture of hotspot clusters and a uniform background, the trip
//! length is drawn from a log-normal, and the destination is the road-network
//! node closest to the point at that distance in a uniformly random direction.

use crate::distributions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use structride_model::Request;
use structride_roadnet::{NodeId, SpEngine};
use structride_spatial::GridIndex;

/// Parameters of the request generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestGenParams {
    /// Number of demand hotspots.
    pub hotspots: u32,
    /// Probability that an origin is drawn from a hotspot (vs. uniformly).
    pub hotspot_concentration: f64,
    /// Hotspot radius as a fraction of the network extent.
    pub hotspot_radius_frac: f64,
    /// `μ` of the log-normal trip-distance distribution (meters).
    pub trip_log_mean: f64,
    /// `σ` of the log-normal trip-distance distribution.
    pub trip_log_sigma: f64,
    /// Probability that a request carries more than one rider (2–3 riders).
    pub riders_multi_prob: f64,
    /// Detour / deadline parameter γ (`d = t + γ·cost`).
    pub gamma: f64,
    /// Maximum pickup waiting time in seconds.
    pub max_wait: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RequestGenParams {
    fn default() -> Self {
        RequestGenParams {
            hotspots: 4,
            hotspot_concentration: 0.6,
            hotspot_radius_frac: 0.12,
            trip_log_mean: 7.0,
            trip_log_sigma: 0.55,
            riders_multi_prob: 0.15,
            gamma: 1.5,
            max_wait: 300.0,
            seed: 1,
        }
    }
}

/// Candidate nodes for bounded generation: the whole network with
/// `bounds = None`, otherwise the nodes inside the rectangle
/// `(min_x, min_y, max_x, max_y)` (borders inclusive, matching
/// `RegionGrid::bounds` rectangles), falling back to the whole network when
/// the rectangle holds no node.  One shared helper so request origins and
/// vehicle starts can never disagree on the boundary convention.
pub(crate) fn nodes_in_bounds(
    net: &structride_roadnet::RoadNetwork,
    bounds: Option<(f64, f64, f64, f64)>,
) -> Vec<NodeId> {
    let all = || (0..net.node_count() as NodeId).collect::<Vec<NodeId>>();
    match bounds {
        None => all(),
        Some((x0, y0, x1, y1)) => {
            let inside: Vec<NodeId> = net
                .nodes()
                .filter(|&v| {
                    let p = net.coord(v);
                    p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1
                })
                .collect();
            if inside.is_empty() {
                all()
            } else {
                inside
            }
        }
    }
}

/// Internal helper: nearest-node lookup via a grid over node coordinates.
struct NodeLocator {
    grid: GridIndex,
    extent: f64,
}

impl NodeLocator {
    fn new(engine: &SpEngine) -> Self {
        let net = engine.network();
        let (min_x, min_y, max_x, max_y) = net.bounding_box();
        let extent = (max_x - min_x).max(max_y - min_y).max(1.0);
        let mut grid = GridIndex::new(min_x, min_y, min_x + extent, min_y + extent, 48);
        for v in net.nodes() {
            let p = net.coord(v);
            grid.insert(v as u64, p.x, p.y);
        }
        NodeLocator { grid, extent }
    }

    /// Node closest to `(x, y)` (expanding ring search; falls back to node 0).
    fn nearest(&self, engine: &SpEngine, x: f64, y: f64) -> NodeId {
        let mut radius = self.extent / 32.0;
        for _ in 0..8 {
            let mut best: Option<(f64, NodeId)> = None;
            self.grid.for_each_in_range(x, y, radius, |item| {
                let node = item as NodeId;
                let p = engine.coord(node);
                let d = (p.x - x).hypot(p.y - y);
                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, node));
                }
            });
            if let Some((_, node)) = best {
                return node;
            }
            radius *= 2.0;
        }
        0
    }
}

/// Samples the *spatial* part of a request — hotspot-mixture origin,
/// log-normal-distance destination, rider count — independent of how release
/// times are produced.  [`generate_requests_in`] draws releases up front from
/// a homogeneous Poisson process; `crate::arrivals` streams them one at a
/// time from a (possibly non-homogeneous) arrival profile.  Both share this
/// sampler so the two paths can never disagree on the trip model.
pub struct TripSampler {
    centers: Vec<NodeId>,
    hotspot_radius: f64,
    origin_nodes: Vec<NodeId>,
    locator: NodeLocator,
    params: RequestGenParams,
}

impl TripSampler {
    /// Builds a sampler for `engine`, drawing the hotspot centres from `rng`
    /// (the caller owns the RNG so the overall stream stays a pure function
    /// of its seed).
    pub fn new(
        engine: &SpEngine,
        params: &RequestGenParams,
        bounds: Option<(f64, f64, f64, f64)>,
        rng: &mut StdRng,
    ) -> Self {
        let locator = NodeLocator::new(engine);
        let origin_nodes = nodes_in_bounds(engine.network(), bounds);
        let centers: Vec<NodeId> = (0..params.hotspots.max(1))
            .map(|_| origin_nodes[rng.gen_range(0..origin_nodes.len() as u32) as usize])
            .collect();
        let hotspot_radius = locator.extent * params.hotspot_radius_frac.max(0.01);
        TripSampler {
            centers,
            hotspot_radius,
            origin_nodes,
            locator,
            params: *params,
        }
    }

    /// Samples one request with the given id and release time, or `None` when
    /// the trip degenerates (no reachable distinct destination).
    pub fn sample(
        &self,
        engine: &SpEngine,
        rng: &mut StdRng,
        id: u32,
        release: f64,
    ) -> Option<Request> {
        let params = &self.params;
        let n_nodes = engine.network().node_count() as u32;
        // Origin: hotspot mixture.
        let source = if rng.gen::<f64>() < params.hotspot_concentration {
            let center = self.centers[rng.gen_range(0..self.centers.len())];
            let cp = engine.coord(center);
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let r = rng.gen::<f64>() * self.hotspot_radius;
            self.locator
                .nearest(engine, cp.x + r * angle.cos(), cp.y + r * angle.sin())
        } else {
            self.origin_nodes[rng.gen_range(0..self.origin_nodes.len() as u32) as usize]
        };
        // Destination: log-normal distance in a random direction, snapped.
        let mut destination = source;
        let mut shortest = 0.0;
        for _attempt in 0..12 {
            let dist = distributions::log_normal(rng, params.trip_log_mean, params.trip_log_sigma)
                .clamp(self.locator.extent * 0.02, self.locator.extent * 1.5);
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let sp = engine.coord(source);
            let cand =
                self.locator
                    .nearest(engine, sp.x + dist * angle.cos(), sp.y + dist * angle.sin());
            if cand != source {
                let c = engine.cost(source, cand);
                if c.is_finite() && c > 0.0 {
                    destination = cand;
                    shortest = c;
                    break;
                }
            }
        }
        if destination == source {
            // Degenerate fallback: ride to an arbitrary different node.
            destination = (source + 1) % n_nodes;
            shortest = engine.cost(source, destination);
            if !shortest.is_finite() || shortest <= 0.0 {
                return None;
            }
        }
        let riders = if rng.gen::<f64>() < params.riders_multi_prob {
            rng.gen_range(2..=3)
        } else {
            1
        };
        Some(Request::with_detour(
            id,
            source,
            destination,
            riders,
            release,
            shortest,
            params.gamma,
            params.max_wait,
        ))
    }
}

/// Generates `count` requests released over `[0, horizon]` seconds.
///
/// Releases follow a Poisson process whose rate is `count / horizon`
/// (truncated/padded to exactly `count` requests), origins follow the hotspot
/// mixture and destinations follow the log-normal trip-distance model.
/// Request ids start at `first_id` and are consecutive, ordered by release.
pub fn generate_requests(
    engine: &SpEngine,
    params: &RequestGenParams,
    count: usize,
    horizon: f64,
    first_id: u32,
) -> Vec<Request> {
    generate_requests_in(engine, params, count, horizon, first_id, None)
}

/// Like [`generate_requests`], but confines *origins* to the rectangle
/// `(min_x, min_y, max_x, max_y)` — the per-region generator behind
/// multi-region workloads.  Hotspot centres and the uniform background are
/// drawn from the nodes inside the bounds (a hotspot origin may still snap
/// to a nearest node just across the border — those become natural boundary
/// requests).  Destinations are unconstrained, so trips near a region border
/// cross into neighbouring regions: the handoff pressure the sharded
/// pipeline is built for.  With `bounds = None` this is exactly
/// `generate_requests` (bit-identical RNG stream).
///
/// The RNG is seeded solely from `params.seed`, so a region's stream depends
/// only on `(engine, bounds, params)` — never on how many other regions are
/// generated around it.
pub fn generate_requests_in(
    engine: &SpEngine,
    params: &RequestGenParams,
    count: usize,
    horizon: f64,
    first_id: u32,
    bounds: Option<(f64, f64, f64, f64)>,
) -> Vec<Request> {
    assert!(horizon > 0.0, "horizon must be positive");
    let mut rng = StdRng::seed_from_u64(params.seed);
    // Draw order is part of the determinism contract: hotspot centres first,
    // then every release, then each request's spatial sample — regenerating a
    // workload from recorded parameters must reproduce the stream bit for bit.
    let sampler = TripSampler::new(engine, params, bounds, &mut rng);

    // Release times: Poisson arrivals at the average rate, clamped to horizon.
    let rate = count as f64 / horizon;
    let mut releases = Vec::with_capacity(count);
    let mut t = 0.0;
    for _ in 0..count {
        t += distributions::exponential(&mut rng, rate);
        releases.push(t.min(horizon));
    }

    let mut requests = Vec::with_capacity(count);
    for (i, &release) in releases.iter().enumerate() {
        let id = first_id + i as u32;
        if let Some(request) = sampler.sample(engine, &mut rng, id, release) {
            requests.push(request);
        }
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{synthetic_city_network, NetworkParams};

    fn small_engine() -> SpEngine {
        let net = synthetic_city_network(&NetworkParams {
            rows: 10,
            cols: 10,
            seed: 4,
            ..Default::default()
        });
        SpEngine::new(net)
    }

    #[test]
    fn generates_requested_count_with_ordered_releases() {
        let engine = small_engine();
        let params = RequestGenParams {
            trip_log_mean: 6.5,
            ..Default::default()
        };
        let reqs = generate_requests(&engine, &params, 200, 600.0, 0);
        assert!(reqs.len() >= 195, "almost all requests materialise");
        for w in reqs.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        for r in &reqs {
            assert!(r.release >= 0.0 && r.release <= 600.0);
            assert!(r.shortest_cost > 0.0 && r.shortest_cost.is_finite());
            assert_ne!(r.source, r.destination);
            assert!(r.deadline > r.release);
            assert!((1..=3).contains(&r.riders));
        }
    }

    #[test]
    fn ids_are_consecutive_from_first_id() {
        let engine = small_engine();
        let params = RequestGenParams::default();
        let reqs = generate_requests(&engine, &params, 20, 100.0, 1000);
        for r in &reqs {
            assert!(r.id >= 1000 && r.id < 1000 + 20);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let engine = small_engine();
        let params = RequestGenParams {
            seed: 77,
            ..Default::default()
        };
        let a = generate_requests(&engine, &params, 50, 300.0, 0);
        let b = generate_requests(&engine, &params, 50, 300.0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn hotspot_concentration_reduces_origin_spread() {
        let engine = small_engine();
        let concentrated = RequestGenParams {
            hotspots: 1,
            hotspot_concentration: 1.0,
            hotspot_radius_frac: 0.05,
            seed: 5,
            ..Default::default()
        };
        let dispersed = RequestGenParams {
            hotspot_concentration: 0.0,
            seed: 5,
            ..Default::default()
        };
        let distinct = |reqs: &[Request]| {
            let mut s: Vec<_> = reqs.iter().map(|r| r.source).collect();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        let a = generate_requests(&engine, &concentrated, 150, 300.0, 0);
        let b = generate_requests(&engine, &dispersed, 150, 300.0, 0);
        assert!(distinct(&a) < distinct(&b));
    }

    #[test]
    fn gamma_controls_deadlines() {
        let engine = small_engine();
        let tight = RequestGenParams {
            gamma: 1.2,
            seed: 6,
            ..Default::default()
        };
        let loose = RequestGenParams {
            gamma: 2.0,
            seed: 6,
            ..Default::default()
        };
        let a = generate_requests(&engine, &tight, 30, 100.0, 0);
        let b = generate_requests(&engine, &loose, 30, 100.0, 0);
        for (ra, rb) in a.iter().zip(&b) {
            // Same trips (same seed), looser deadline for larger gamma.
            assert_eq!(ra.source, rb.source);
            assert!(rb.deadline >= ra.deadline);
        }
    }
}
