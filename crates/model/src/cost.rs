//! The unified cost function of Equation (3).
//!
//! `U(W, P) = α · Σ_w µ(w, G_w) + Σ_{G ∈ G⁻} p_i`, where `µ` is the total
//! travel cost of the planned schedules and the penalty of an unassigned
//! group is `p_i = p_r · Σ_{r ∈ G_i} cost(r.s, r.e)`.  By choosing `α` and
//! `p_r` this supports all of the paper's optimisation objectives (minimum
//! travel cost, maximum service rate, maximum revenue); the paper fixes
//! `α = 1` and sweeps `p_r` in Fig. 12.

/// Parameters of the unified cost function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Weight `α` on the total travel cost (the paper fixes it to 1).
    pub alpha: f64,
    /// Penalty coefficient `p_r` applied to the direct cost of every
    /// unserved request.
    pub penalty_coefficient: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // Defaults from Table III: α = 1, p_r = 10.
        CostParams {
            alpha: 1.0,
            penalty_coefficient: 10.0,
        }
    }
}

impl CostParams {
    /// Creates cost parameters with `α = 1` and the given penalty coefficient.
    pub fn with_penalty(penalty_coefficient: f64) -> Self {
        CostParams {
            alpha: 1.0,
            penalty_coefficient,
        }
    }
}

/// Evaluates the unified cost `U` given the total travel cost of all planned
/// schedules and the summed direct cost of all unserved requests.
pub fn unified_cost(params: &CostParams, total_travel: f64, unserved_direct_cost: f64) -> f64 {
    params.alpha * total_travel + params.penalty_coefficient * unserved_direct_cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let p = CostParams::default();
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.penalty_coefficient, 10.0);
    }

    #[test]
    fn unified_cost_combines_travel_and_penalty() {
        let p = CostParams::with_penalty(5.0);
        // 100 seconds of driving + 40 seconds of unserved direct cost.
        assert_eq!(unified_cost(&p, 100.0, 40.0), 100.0 + 5.0 * 40.0);
    }

    #[test]
    fn zero_penalty_reduces_to_travel_cost() {
        let p = CostParams::with_penalty(0.0);
        assert_eq!(unified_cost(&p, 77.0, 1234.0), 77.0);
    }

    #[test]
    fn alpha_scales_travel_term() {
        let p = CostParams {
            alpha: 2.0,
            penalty_coefficient: 1.0,
        };
        assert_eq!(unified_cost(&p, 10.0, 3.0), 23.0);
    }
}
