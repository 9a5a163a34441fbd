//! Correctness checks run on every repeat.  A failed check makes the one
//! command exit non-zero; requests the system dropped or timed out before
//! dispatch, and requests involved in a failed validity check, count as
//! failed operations.  A request left unserved because no vehicle could meet
//! its deadlines is quality (`service_rate`), not failure.

use crate::workloads::{Inputs, RunOutput, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use structride_model::{unified_cost, Request, RequestId, Vehicle};

/// The verdict on one repeat.
#[derive(Debug, Default)]
pub struct Audit {
    /// Human-readable description of every violated check.
    pub failures: Vec<String>,
    /// Operations that failed: load-shed and timed-out arrivals plus requests
    /// named by a violated validity check.
    pub failed_ops: usize,
}

/// Audits the outputs of one repeat against its inputs.
pub fn audit(spec: &WorkloadSpec, inputs: &Inputs, out: &RunOutput) -> Audit {
    let mut audit = Audit::default();
    let mut fail = |failed_ops: usize, message: String| {
        audit.failures.push(format!("{}: {message}", spec.name));
        audit.failed_ops += failed_ops;
    };
    let offered: HashSet<RequestId> = inputs.requests.iter().map(|r| r.id).collect();
    let served: HashSet<RequestId> = out.served.iter().copied().collect();

    let strangers = out.served.iter().filter(|id| !offered.contains(id)).count();
    if strangers > 0 {
        fail(
            strangers,
            format!("{strangers} served ids were never offered"),
        );
    }
    if out.metrics.served_requests != out.served.len() {
        fail(
            0,
            format!(
                "metrics.served_requests = {} but the served set holds {}",
                out.metrics.served_requests,
                out.served.len()
            ),
        );
    }
    if out.metrics.total_requests != inputs.requests.len() {
        fail(
            0,
            format!(
                "metrics.total_requests = {} but {} were offered",
                out.metrics.total_requests,
                inputs.requests.len()
            ),
        );
    }

    // Every served request sits on exactly one vehicle, and nothing else does.
    let mut carried: HashSet<RequestId> = HashSet::new();
    let mut doubled = 0;
    for v in &out.vehicles {
        for id in &v.assigned {
            if !carried.insert(*id) {
                doubled += 1;
            }
        }
    }
    if doubled > 0 {
        fail(
            doubled,
            format!("{doubled} request ids sit on two vehicles"),
        );
    }
    if carried != served {
        let stray = carried.symmetric_difference(&served).count();
        fail(
            stray,
            format!("{stray} ids differ between the served set and the vehicles' assignments"),
        );
    }
    let malformed = out
        .vehicles
        .iter()
        .filter(|v| !remainder_well_formed(v))
        .count();
    if malformed > 0 {
        fail(
            0,
            format!("{malformed} final schedules are not well formed"),
        );
    }

    // Equation 3, recomputed from the executed routes.
    let travel: f64 = out.vehicles.iter().map(|v| v.executed_travel).sum();
    let unserved: f64 = inputs
        .requests
        .iter()
        .filter(|r| !served.contains(&r.id))
        .map(Request::direct_cost)
        .sum();
    let expected = unified_cost(&inputs.config.cost, travel, unserved);
    let reported = out.metrics.unified_cost;
    // Written so that a NaN on either side fails the check.
    let close = (reported - expected).abs() <= 1e-9 * expected.abs().max(1.0);
    if !close {
        fail(
            0,
            format!("unified cost {reported} differs from the recomputed {expected}"),
        );
    }

    if let Some(ingest) = &out.ingest {
        let accounted = ingest.dispatched + ingest.dropped_queue_full + ingest.timed_out;
        if ingest.arrivals != accounted {
            fail(
                0,
                format!(
                    "{} arrivals but {accounted} dispatched + dropped + timed out",
                    ingest.arrivals
                ),
            );
        }
        let lost = ingest.dropped_queue_full + ingest.timed_out;
        if lost > 0 {
            fail(
                lost,
                format!(
                    "{} arrivals load-shed, {} timed out before dispatch",
                    ingest.dropped_queue_full, ingest.timed_out
                ),
            );
        }
    }
    if out.log.infeasible_after_dispatch > 0 {
        fail(
            0,
            format!(
                "{} vehicles held an infeasible schedule right after a batch touched them",
                out.log.infeasible_after_dispatch
            ),
        );
    }
    audit
}

/// `Schedule::is_well_formed` for the not-yet-executed remainder of a
/// vehicle's plan: every request has one pickup followed by one drop-off,
/// except that riders already on board (assigned, not completed, pickup
/// executed) only have their drop-off left.  Fully executed schedules are
/// empty and trivially pass.  Under traffic the simulator freezes a vehicle
/// whose committed schedule an epoch roll made infeasible, so remainders do
/// occur; [`stranded_requests`] counts them.
fn remainder_well_formed(v: &Vehicle) -> bool {
    let mut state: HashMap<RequestId, u8> = HashMap::new();
    for wp in v.schedule.waypoints() {
        let on_board = v.assigned.contains(&wp.request) && !v.completed.contains(&wp.request);
        let entry = state.entry(wp.request).or_insert(0);
        *entry = match (wp.is_pickup(), *entry) {
            (true, 0) => 1,
            (false, 1) => 2,
            (false, 0) if on_board => 2,
            _ => return false,
        };
    }
    state.values().all(|&s| s == 2)
}

/// Requests counted as served whose drop-off never executed: they sit in the
/// unexecuted remainder of a frozen vehicle's schedule.
pub fn stranded_requests(vehicles: &[Vehicle]) -> usize {
    vehicles
        .iter()
        .map(|v| v.schedule.request_ids().len())
        .sum()
}

/// On the clock-driven drives every repeat of the same inputs must serve the
/// same requests at the same unified cost, bit for bit.
pub fn repeats_agree(spec: &WorkloadSpec, runs: &[(Vec<RequestId>, f64)]) -> Vec<String> {
    let Some((first_served, first_cost)) = runs.first() else {
        return Vec::new();
    };
    if !spec.deterministic() {
        return Vec::new();
    }
    runs.iter()
        .enumerate()
        .skip(1)
        .filter(|(_, (served, cost))| {
            served != first_served || cost.to_bits() != first_cost.to_bits()
        })
        .map(|(i, (served, cost))| {
            format!(
                "{}: repeat {i} served {} at unified cost {cost}, repeat 0 served {} at {first_cost}",
                spec.name,
                served.len(),
                first_served.len()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{spec, Size};

    #[test]
    fn repeats_must_agree_only_on_deterministic_drives() {
        let sard = spec("city_sard", Size::Smoke).unwrap();
        let ingest = spec("city_ingest", Size::Smoke).unwrap();
        let same = vec![(vec![1, 2, 3], 10.5), (vec![1, 2, 3], 10.5)];
        assert!(repeats_agree(&sard, &same).is_empty());
        let cost_bit = vec![(vec![1, 2], 10.5), (vec![1, 2], 10.5 + 2e-15)];
        assert_eq!(repeats_agree(&sard, &cost_bit).len(), 1);
        let served = vec![(vec![1, 2], 10.5), (vec![1, 3], 10.5), (vec![1, 2], 10.5)];
        assert_eq!(repeats_agree(&sard, &served).len(), 1);
        assert!(repeats_agree(&ingest, &served).is_empty());
        assert!(repeats_agree(&sard, &[]).is_empty());
    }
}
