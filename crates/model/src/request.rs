//! Ridesharing requests (Definition 1 of the paper).
//!
//! A request `r_i = ⟨s_i, e_i, n_i, t_i, d_i⟩` asks for `n_i` riders to travel
//! from source `s_i` to destination `e_i`, is released at time `t_i` and must
//! reach the destination by the delivery deadline `d_i`.  Following the paper
//! (and \[40\], \[31\], \[34\]) the deadline is derived from a detour-tolerance
//! parameter `γ > 1` as `d_i = t_i + γ · cost(s_i, e_i)`, and the pickup must
//! additionally happen within the maximum waiting time
//! `w_i = min(5 min, d_i − cost(s_i, e_i) − t_i)`.

use structride_roadnet::NodeId;

/// Identifier of a request.
pub type RequestId = u32;

/// Default maximum waiting time before pickup, in seconds (5 minutes, per the
/// paper's experimental settings which follow Santi et al. \[23\]).
pub const DEFAULT_MAX_WAIT: f64 = 300.0;

/// A ridesharing request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Unique identifier.
    pub id: RequestId,
    /// Source (pickup) road-network node `s_i`.
    pub source: NodeId,
    /// Destination (drop-off) road-network node `e_i`.
    pub destination: NodeId,
    /// Number of riders `n_i`.
    pub riders: u32,
    /// Release time `t_i` (seconds since the start of the horizon).
    pub release: f64,
    /// Delivery deadline `d_i`.
    pub deadline: f64,
    /// Latest feasible pickup time (`t_i + w_i`).
    pub pickup_deadline: f64,
    /// Shortest travel time `cost(s_i, e_i)`, cached at creation because every
    /// algorithm and the unified cost function reuse it constantly.
    pub shortest_cost: f64,
}

impl Request {
    /// Creates a request from explicit deadlines.
    ///
    /// Most callers should prefer [`Request::with_detour`], which derives the
    /// deadlines from the detour parameter `γ` exactly as the paper does.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: RequestId,
        source: NodeId,
        destination: NodeId,
        riders: u32,
        release: f64,
        deadline: f64,
        pickup_deadline: f64,
        shortest_cost: f64,
    ) -> Self {
        Request {
            id,
            source,
            destination,
            riders,
            release,
            deadline,
            pickup_deadline,
            shortest_cost,
        }
    }

    /// Creates a request whose deadlines follow the paper's configuration:
    /// `d = t + γ · cost(s, e)` and `pickup deadline = t + min(max_wait, d − cost − t)`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_detour(
        id: RequestId,
        source: NodeId,
        destination: NodeId,
        riders: u32,
        release: f64,
        shortest_cost: f64,
        gamma: f64,
        max_wait: f64,
    ) -> Self {
        debug_assert!(gamma >= 1.0, "detour parameter must be at least 1");
        let deadline = release + gamma * shortest_cost;
        let slack = (deadline - shortest_cost - release).max(0.0);
        let pickup_deadline = release + slack.min(max_wait);
        Request {
            id,
            source,
            destination,
            riders,
            release,
            deadline,
            pickup_deadline,
            shortest_cost,
        }
    }

    /// The direct (no-sharing) travel cost of this request, `cost(r)` in the
    /// paper's notation.
    pub fn direct_cost(&self) -> f64 {
        self.shortest_cost
    }

    /// Maximum allowed detour beyond the direct travel time.
    pub fn detour_budget(&self) -> f64 {
        (self.deadline - self.release - self.shortest_cost).max(0.0)
    }

    /// True if the request can no longer be started at time `now` (its pickup
    /// deadline has passed), so it must be rejected / counted as expired.
    pub fn is_expired(&self, now: f64) -> bool {
        now > self.pickup_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_detour_matches_paper_formula() {
        // cost = 600s, gamma = 1.5 -> deadline = release + 900, slack = 300.
        let r = Request::with_detour(1, 10, 20, 2, 100.0, 600.0, 1.5, DEFAULT_MAX_WAIT);
        assert_eq!(r.deadline, 100.0 + 1.5 * 600.0);
        assert_eq!(r.detour_budget(), 300.0);
        // slack (300) == max wait (300) -> pickup deadline = release + 300.
        assert_eq!(r.pickup_deadline, 400.0);
    }

    #[test]
    fn pickup_deadline_capped_by_max_wait() {
        // Long trip with generous gamma: slack (1000) > max wait (300).
        let r = Request::with_detour(1, 0, 1, 1, 0.0, 1000.0, 2.0, 300.0);
        assert_eq!(r.deadline, 2000.0);
        assert_eq!(r.pickup_deadline, 300.0);
    }

    #[test]
    fn pickup_deadline_capped_by_slack() {
        // Short trip, tight gamma: slack (20) < max wait (300).
        let r = Request::with_detour(1, 0, 1, 1, 50.0, 100.0, 1.2, 300.0);
        assert!((r.deadline - 170.0).abs() < 1e-9);
        assert!((r.pickup_deadline - 70.0).abs() < 1e-9);
    }

    #[test]
    fn expiry_uses_pickup_deadline() {
        let r = Request::with_detour(1, 0, 1, 1, 0.0, 100.0, 1.5, 300.0);
        assert!(!r.is_expired(r.pickup_deadline));
        assert!(r.is_expired(r.pickup_deadline + 1.0));
    }

    #[test]
    fn direct_cost_is_shortest_cost() {
        let r = Request::with_detour(3, 4, 5, 1, 0.0, 42.0, 1.5, 300.0);
        assert_eq!(r.direct_cost(), 42.0);
    }
}
