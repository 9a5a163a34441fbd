//! The pass-through dispatcher wrapper every run goes through.
//!
//! On the timed path it stores two `Instant`s per `dispatch_batch` call and
//! the commitment instant of every assigned request — nothing else, so the
//! end-to-end numbers are the program's, not the probe's.  In the traced run
//! it additionally snapshots the layer counters at the same boundary
//! (`SpStats`, `BatchScratch`, `SolverStats`, the traffic epoch), clones the dispatcher's inputs at a few evenly spaced batches
//! for the layer kernels, and checks that every vehicle a batch touched still
//! holds a feasible schedule.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use structride_core::{
    BatchOutcome, DispatchContext, Dispatcher, PendingSnapshot, ScratchStats, SolverStats,
};
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::SpStats;

/// Layer counters read at the `dispatch_batch` boundary (traced run only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Boundary {
    /// Shortest-path counter deltas over the call.
    pub sp: SpStats,
    pub scratch: ScratchStats,
    pub solver: Option<SolverStats>,
    /// The traffic epoch the call dispatched under (the simulator rolls the
    /// epoch before it dispatches, so a roll shows as a step between calls).
    pub epoch: u64,
}

/// One `dispatch_batch` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub shard: usize,
    pub batch_index: usize,
    /// The batch clock `ctx.now`.
    pub now: f64,
    pub entry: Instant,
    pub exit: Instant,
    pub new_requests: usize,
    pub assigned: usize,
    /// Requests the dispatcher held when the call began.
    pub pending_before: usize,
    pub boundary: Option<Boundary>,
}

/// One pickup commitment: the request's release time, the entry of the call
/// that first carried it and the return of the call that assigned it.
#[derive(Debug, Clone, Copy)]
pub struct Commit {
    pub release: f64,
    pub first_seen: Instant,
    pub committed: Instant,
}

/// The dispatcher's view of one batch, cloned before the call (traced run).
#[derive(Debug, Clone)]
pub struct Capture {
    pub shard: usize,
    pub batch_index: usize,
    pub now: f64,
    pub new_requests: Vec<Request>,
    pub vehicles: Vec<Vehicle>,
    pub pending: PendingSnapshot,
}

/// Everything the wrappers of one run recorded.
#[derive(Debug, Default)]
pub struct ProbeLog {
    pub calls: Vec<Call>,
    pub commits: Vec<Commit>,
    pub captures: Vec<Capture>,
    /// Vehicles whose schedule a batch changed and left infeasible.
    pub infeasible_after_dispatch: usize,
    /// Vehicles checked for the above.
    pub touched_vehicles: usize,
    /// Wall the probe itself spent on tracing-only work (captures, counter
    /// reads, the feasibility check), summed over calls.
    pub probe_self: std::time::Duration,
}

/// Shared by the wrappers of one run (one per shard).
#[derive(Debug, Default)]
pub struct Probe {
    log: Mutex<ProbeLog>,
    /// `Some` in the traced run: the batch indices to capture, ascending.
    capture_batches: Option<Vec<usize>>,
}

impl Probe {
    /// The timed-path probe: stamps only.
    pub fn timed() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// The traced-run probe: boundary counters everywhere, captures at up to
    /// `captures` evenly spaced batches of an expected `batches`.
    pub fn traced(batches: usize, captures: usize) -> Arc<Probe> {
        let n = captures.min(batches).max(1);
        let mut picks: Vec<usize> = (0..n).map(|i| (2 * i + 1) * batches / (2 * n)).collect();
        picks.dedup();
        Arc::new(Probe {
            log: Mutex::default(),
            capture_batches: Some(picks),
        })
    }

    /// Takes the recorded log, leaving an empty one.
    pub fn take_log(&self) -> ProbeLog {
        std::mem::take(&mut *self.log.lock().expect("probe log poisoned"))
    }
}

/// Wraps the dispatcher of one shard (shard 0 for monolithic runs).
pub struct ProbedDispatcher {
    inner: Box<dyn Dispatcher + Send>,
    shard: usize,
    probe: Arc<Probe>,
    /// Release time and first-carrying call of every request not yet
    /// committed.
    waiting: HashMap<RequestId, (f64, Instant)>,
}

impl ProbedDispatcher {
    pub fn new(inner: Box<dyn Dispatcher + Send>, shard: usize, probe: Arc<Probe>) -> Self {
        ProbedDispatcher {
            inner,
            shard,
            probe,
            waiting: HashMap::new(),
        }
    }
}

impl Dispatcher for ProbedDispatcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let tracing = self.probe.capture_batches.as_deref();
        let probe_start = Instant::now();
        let pending_before = self.inner.pending_requests();
        let mut assigned_before: Vec<usize> = Vec::new();
        let mut sp_before = SpStats::default();
        let mut boundary = None;
        if let Some(picks) = tracing {
            if picks.binary_search(&ctx.batch_index).is_ok() {
                let capture = Capture {
                    shard: self.shard,
                    batch_index: ctx.batch_index,
                    now: ctx.now,
                    new_requests: new_requests.to_vec(),
                    vehicles: vehicles.to_vec(),
                    pending: self.inner.checkpoint_pending(),
                };
                self.probe
                    .log
                    .lock()
                    .expect("probe log poisoned")
                    .captures
                    .push(capture);
            }
            assigned_before = vehicles.iter().map(|v| v.assigned.len()).collect();
            sp_before = ctx.engine.stats();
            boundary = Some(Boundary {
                epoch: ctx.epoch,
                ..Boundary::default()
            });
        }

        let entry = Instant::now();
        let outcome = self.inner.dispatch_batch(ctx, vehicles, new_requests);
        let exit = Instant::now();
        let mut probe_self = entry - probe_start;

        if let Some(b) = boundary.as_mut() {
            let sp = ctx.engine.stats();
            b.sp = SpStats {
                total_queries: sp.total_queries - sp_before.total_queries,
                cache_hits: sp.cache_hits - sp_before.cache_hits,
                index_queries: sp.index_queries - sp_before.index_queries,
            };
            b.scratch = ctx.scratch.snapshot();
            b.solver = outcome.solver;
        }
        for r in new_requests {
            self.waiting.insert(r.id, (r.release, entry));
        }
        let mut log = self.probe.log.lock().expect("probe log poisoned");
        for id in &outcome.assigned {
            if let Some((release, first_seen)) = self.waiting.remove(id) {
                log.commits.push(Commit {
                    release,
                    first_seen,
                    committed: exit,
                });
            }
        }
        log.calls.push(Call {
            shard: self.shard,
            batch_index: ctx.batch_index,
            now: ctx.now,
            entry,
            exit,
            new_requests: new_requests.len(),
            assigned: outcome.assigned.len(),
            pending_before,
            boundary,
        });
        if tracing.is_some() {
            // After the counters were read, so the check's own shortest-path
            // queries are not booked to the dispatcher.
            for (v, before) in vehicles.iter().zip(&assigned_before) {
                if v.assigned.len() != *before {
                    log.touched_vehicles += 1;
                    if !v.evaluate_current(ctx.engine).feasible {
                        log.infeasible_after_dispatch += 1;
                    }
                }
            }
            probe_self += exit.elapsed();
            log.probe_self += probe_self;
        }
        outcome
    }

    fn pending_requests(&self) -> usize {
        self.inner.pending_requests()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn take_pending(&mut self) -> Vec<Request> {
        self.inner.take_pending()
    }

    fn restore_pending(&mut self, pool: Vec<Request>) {
        self.inner.restore_pending(pool)
    }

    fn checkpoint_pending(&self) -> PendingSnapshot {
        self.inner.checkpoint_pending()
    }

    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        self.inner.restore_snapshot(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_batches_are_evenly_spaced_and_in_range() {
        let picks = Probe::traced(160, 16).capture_batches.clone().unwrap();
        assert_eq!(picks.len(), 16);
        assert_eq!(picks[0], 5);
        assert_eq!(picks[15], 155);
        assert!(picks.windows(2).all(|w| w[1] - w[0] == 10));
        // Fewer batches than captures: every batch once.
        let picks = Probe::traced(3, 16).capture_batches.clone().unwrap();
        assert_eq!(picks, vec![0, 1, 2]);
        assert!(Probe::timed().capture_batches.is_none());
    }
}
