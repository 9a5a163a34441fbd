//! The angle-pruning strategy of §III-B (Theorem III.1).
//!
//! Requests travelling in similar directions are more likely to share a trip.
//! For a new request `r_a` and a candidate `r_b`, the strategy measures the
//! angle `θ` between the vectors `−→s_b e_a` and `−→s_b e_b` and prunes the
//! candidate when `θ` exceeds a threshold `δ` (the paper uses `δ = π/2`).
//!
//! The module also implements the probabilistic model behind the theorem: with
//! trip distances following a log-normal distribution (the paper fits one to
//! both the Chengdu and NYC datasets), the expected probability that a
//! candidate at angle `θ ≥ δ` is still shareable, `E(θ ≥ δ)`, can be computed
//! by numerical integration — the paper reports ≈ 41 % for `δ = π/2`,
//! `γ = 1.5`.  [`sharing_probability`] reproduces that computation.

use structride_model::Request;
use structride_roadnet::SpEngine;
use structride_spatial::{angle_between, Vec2};

/// Configuration of the angle-pruning rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnglePruning {
    /// Whether the rule is active (SARD vs. SARD-O in Tables V/VI).
    pub enabled: bool,
    /// Threshold `δ` in radians: candidates with `θ > δ` are pruned.
    pub threshold: f64,
}

impl Default for AnglePruning {
    fn default() -> Self {
        AnglePruning {
            enabled: true,
            threshold: std::f64::consts::FRAC_PI_2,
        }
    }
}

impl AnglePruning {
    /// The configuration used by the SARD variant *without* pruning.
    pub fn disabled() -> Self {
        AnglePruning {
            enabled: false,
            threshold: std::f64::consts::PI,
        }
    }

    /// The angle `θ` between `−→s_b e_a` and `−→s_b e_b` for a new request `a`
    /// and candidate `b`, computed from the road-network coordinates.
    pub fn angle(engine: &SpEngine, a: &Request, b: &Request) -> f64 {
        let sb = engine.coord(b.source);
        let ea = engine.coord(a.destination);
        let eb = engine.coord(b.destination);
        let v1 = Vec2::from_points((sb.x, sb.y), (ea.x, ea.y));
        let v2 = Vec2::from_points((sb.x, sb.y), (eb.x, eb.y));
        angle_between(v1, v2)
    }

    /// True if candidate `b` survives the pruning rule for new request `a`.
    pub fn keeps(&self, engine: &SpEngine, a: &Request, b: &Request) -> bool {
        if !self.enabled {
            return true;
        }
        Self::angle(engine, a, b) <= self.threshold + 1e-12
    }
}

/// Parameters of a log-normal trip-distance distribution (`ln x ~ N(μ, σ²)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location parameter μ of the underlying normal.
    pub mu: f64,
    /// Scale parameter σ of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Probability density function.
    pub fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// The `p`-quantile (used to bound numerical integration).
    pub fn quantile(&self, p: f64) -> f64 {
        // Bisection on the CDF — plenty fast for the few calls we make.
        let (mut lo, mut hi) = (1e-9, (self.mu + 10.0 * self.sigma).exp());
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, max abs error
/// ≈ 1.5e-7 — ample for the probability model).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected probability that a candidate request at angle exactly `theta` can
/// still share a trip, under the log-normal trip-distance model and detour
/// parameter `gamma` (Theorem III.1).
///
/// The integration follows the theorem: with the new request's half-distance
/// `c = x/2`, condition (a) caps the candidate distance at
/// `g(c) = 1 / (cos²(θ/2)/(γc) + sin²(θ/2)/((γ−1)c))` and condition (b)
/// requires at least `h(c) = 2c(1−cos θ)/(γ−1)`, so the sharing probability for
/// a given `x` is `F(g) + 1 − F(h)` (clamped to `[0, 1]`), averaged over the
/// trip-distance density.
pub fn sharing_probability(theta: f64, gamma: f64, dist: LogNormal) -> f64 {
    assert!(gamma > 1.0, "the detour parameter must exceed 1");
    let hi = dist.quantile(0.999);
    let steps = 400usize;
    let dx = hi / steps as f64;
    let mut acc = 0.0;
    let half = theta / 2.0;
    let cos_t = theta.cos();
    for i in 0..steps {
        let x = (i as f64 + 0.5) * dx;
        let c = x / 2.0;
        if c <= 0.0 {
            continue;
        }
        let g = 1.0 / (half.cos().powi(2) / (gamma * c) + half.sin().powi(2) / ((gamma - 1.0) * c));
        let h = 2.0 * c * (1.0 - cos_t) / (gamma - 1.0);
        let p = (dist.cdf(g) + (1.0 - dist.cdf(h))).clamp(0.0, 1.0);
        acc += dist.pdf(x) * p * dx;
    }
    acc.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};
    use structride_roadnet::{Point, RoadNetworkBuilder, SpEngine};

    fn square_engine() -> SpEngine {
        // Four corners of a square, fully connected.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0)); // 0
        b.add_node(Point::new(1000.0, 0.0)); // 1 (east)
        b.add_node(Point::new(0.0, 1000.0)); // 2 (north)
        b.add_node(Point::new(-1000.0, 0.0)); // 3 (west)
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)] {
            b.add_bidirectional(u, v, 60.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32) -> Request {
        Request::with_detour(id, s, e, 1, 0.0, 60.0, 1.5, 300.0)
    }

    #[test]
    fn angle_reflects_travel_directions() {
        let engine = square_engine();
        // a: 0 -> 1 (east), b: 0 -> 1 (east): angle 0 from b's source.
        let east_a = req(1, 0, 1);
        let east_b = req(2, 0, 1);
        assert!(AnglePruning::angle(&engine, &east_a, &east_b) < 1e-6);
        // a: 0 -> 1 (east), b: 0 -> 3 (west): opposite directions.
        let west = req(3, 0, 3);
        assert!((AnglePruning::angle(&engine, &east_a, &west) - PI).abs() < 1e-6);
        // a: 0 -> 1 (east), b: 0 -> 2 (north): right angle.
        let north = req(4, 0, 2);
        assert!((AnglePruning::angle(&engine, &east_a, &north) - FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn default_threshold_keeps_aligned_prunes_opposite() {
        let engine = square_engine();
        let pruning = AnglePruning::default();
        let east_a = req(1, 0, 1);
        let east_b = req(2, 0, 1);
        let west = req(3, 0, 3);
        let north = req(4, 0, 2);
        assert!(pruning.keeps(&engine, &east_a, &east_b));
        assert!(pruning.keeps(&engine, &east_a, &north)); // θ == δ boundary kept
        assert!(!pruning.keeps(&engine, &east_a, &west));
        // Disabled pruning keeps everything.
        assert!(AnglePruning::disabled().keeps(&engine, &east_a, &west));
    }

    #[test]
    fn lognormal_pdf_cdf_consistency() {
        let d = LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        // Median of a log-normal is exp(mu).
        assert!((d.cdf(1.0) - 0.5).abs() < 1e-3);
        assert!((d.quantile(0.5) - 1.0).abs() < 1e-2);
        // CDF is monotone.
        assert!(d.cdf(2.0) > d.cdf(1.0));
    }

    #[test]
    fn sharing_probability_decreases_with_angle() {
        let d = LogNormal {
            mu: 6.0,
            sigma: 0.6,
        };
        let p0 = sharing_probability(0.2, 1.5, d);
        let p90 = sharing_probability(FRAC_PI_2, 1.5, d);
        let p180 = sharing_probability(PI * 0.95, 1.5, d);
        assert!(p0 >= p90);
        assert!(p90 >= p180);
        for p in [p0, p90, p180] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn sharing_probability_at_right_angle_is_moderate() {
        // With a distance distribution of the same flavour the paper fits, the
        // right-angle sharing probability sits in the tens of percent (the
        // paper reports ≈ 41 % on CHD/NYC for γ = 1.5).
        let d = LogNormal {
            mu: 6.2,
            sigma: 0.55,
        };
        let p = sharing_probability(FRAC_PI_2, 1.5, d);
        assert!(p > 0.1 && p < 0.9, "p = {p}");
    }

    #[test]
    fn larger_gamma_increases_sharing_probability() {
        let d = LogNormal {
            mu: 6.0,
            sigma: 0.6,
        };
        let tight = sharing_probability(FRAC_PI_2, 1.2, d);
        let loose = sharing_probability(FRAC_PI_2, 2.0, d);
        assert!(loose >= tight);
    }
}
