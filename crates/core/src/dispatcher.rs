//! The dispatcher interface shared by SARD and every baseline.
//!
//! The batched simulator feeds each dispatcher one batch at a time: a
//! [`DispatchContext`] carrying the ambient state (shortest-path engine,
//! framework configuration, simulation clock and per-batch scratch counters),
//! the current fleet state, and the set of requests released during the batch
//! window.  The dispatcher mutates vehicle schedules (via
//! [`Vehicle::commit_schedule`](structride_model::Vehicle::commit_schedule))
//! and reports which requests it assigned; everything else (vehicle movement,
//! expiry, metric accounting) is the simulator's job, so online methods such
//! as pruneGDP and batch methods such as RTV/GAS/SARD plug into the exact same
//! harness — mirroring how the paper evaluates them side by side.
//!
//! # Parallel invariants
//!
//! `dispatch_batch` is called from one thread, but dispatchers are encouraged
//! to fan batch-scoped work out internally.  The context is `Sync`; the
//! engine's shortest-path cache is sharded, so worker threads can issue
//! `cost()` queries without serialising on a global lock.  Parallelism
//! introduced by this pipeline must stay *deterministic*: given the same
//! inputs, `dispatch_batch` must produce the same assignments and schedules
//! regardless of the worker count — SARD's parallel stages therefore reduce
//! into canonically ordered results (stable tie-breaks on
//! `(cost, vehicle_id)` / request id) before any decision is taken, and
//! TicketAssign+ ranks its workers' insertions in parallel but commits them
//! round by round in worker order (its `conflicts` counter measures the
//! ticket collisions of that fixed schedule).

use crate::context::DispatchContext;
use crate::lap::SolverStats;
use structride_model::{Request, RequestId, Vehicle};

/// What a dispatcher did with one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Requests assigned (committed into some vehicle schedule) in this call.
    pub assigned: Vec<RequestId>,
    /// Telemetry of the exact-assignment solve behind this batch, when the
    /// dispatcher used one ([`crate::assign::AssignDispatcher`], exact RTV).
    /// Heuristic dispatchers leave it `None`.  Deliberately *not* part of
    /// the recorded trace format: replay pins decisions, and solver
    /// telemetry is derived, not decided.
    pub solver: Option<SolverStats>,
}

impl BatchOutcome {
    /// An outcome with no assignments.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// A non-destructive snapshot of a dispatcher's carried state, taken at a
/// batch boundary by the checkpoint codec (see [`crate::replay`]).
///
/// `pool` is the carried-over pending pool sorted by request id.  `edges`
/// is the dispatcher's derived pairwise structure over that pool when it
/// keeps one (SARD's shareability graph), as canonical `(low, high)` pairs
/// in ascending order.  The edges ride along because they are *not* a pure
/// function of the pool at restore time: each edge was evaluated when its
/// later endpoint arrived, possibly under an earlier traffic epoch, so
/// re-deriving them after a restore could flip marginal pairs and break the
/// bit-identical-resume guarantee.  `state` is any other decision-bearing
/// state derived from past batches, as exact floats (DARM's demand map).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PendingSnapshot {
    /// Carried-over requests, sorted by id.
    pub pool: Vec<Request>,
    /// Derived pairwise edges over `pool` (empty for dispatchers without a
    /// pairwise structure), as ascending `(low, high)` id pairs.
    pub edges: Vec<(RequestId, RequestId)>,
    /// Derived state, in the dispatcher's own layout (often empty).
    pub state: Vec<f64>,
}

impl PendingSnapshot {
    /// True when the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty() && self.edges.is_empty() && self.state.is_empty()
    }
}

/// A vehicle-request dispatcher (SARD or one of the baselines).  `Send`,
/// because every run steps its dispatchers as shards, which dispatch on
/// worker threads.
pub trait Dispatcher: Send {
    /// Human-readable algorithm name, as used in the paper's plots.
    fn name(&self) -> &'static str;

    /// Processes the batch of requests released in `(ctx.now - Δ, ctx.now]`.
    ///
    /// `vehicles` reflects the fleet state *after* movement up to `ctx.now`.
    /// The dispatcher may keep requests it could not assign and retry them in
    /// later batches (SARD's working set `R_p` does exactly that); the
    /// simulator treats a request as served once it appears in any returned
    /// [`BatchOutcome::assigned`] list.
    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome;

    /// Number of requests the dispatcher is still holding for later batches
    /// (carried-over working pools).  The simulator uses this to stop issuing
    /// empty batches once the request stream is exhausted and nothing is
    /// waiting.  Dispatchers without a carry-over pool keep the default `0`;
    /// a dispatcher that *does* carry requests across batches **must**
    /// override this — otherwise the simulator may stop before its held
    /// requests get another chance, silently dropping them instead of
    /// retrying.
    fn pending_requests(&self) -> usize {
        0
    }

    /// Approximate extra memory held by the dispatcher's own structures in
    /// bytes (RTV graph, additive index, shareability graph, …) — the
    /// quantity compared in Fig. 14.  Count entries (peak pool size, set
    /// lengths), never container capacities, which vary with the hasher seed.
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Drains and returns the carried-over pending pool, sorted by request
    /// id: a shard outage reroutes it through the handoff auction to live
    /// shards as fresh arrivals (see [`crate::faults`]).  After this call
    /// [`Dispatcher::pending_requests`] must report 0.  Dispatchers without
    /// a pool keep the default empty drain; one that *does* carry requests
    /// **must** override this, or failover silently loses them.  A
    /// [`PendingPool`](crate::PendingPool)'s `len`, `take`, `snapshot` and
    /// `restore` answer the four pool methods.
    fn take_pending(&mut self) -> Vec<Request> {
        Vec::new()
    }

    /// Retired: no run calls it and no bundled dispatcher overrides it.  It
    /// stays, with its default (which rejects a non-empty pool), only while
    /// the benchmark package's probing wrapper forwards it.
    fn restore_pending(&mut self, pool: Vec<Request>) {
        assert!(
            pool.is_empty(),
            "{} holds no pending pool but was asked to restore {} requests",
            self.name(),
            pool.len()
        );
    }

    /// Snapshots the carried state *without* disturbing it — the capture
    /// half of the batch-boundary checkpoint codec ([`crate::replay`]).
    /// Unlike [`Dispatcher::take_pending`] (which drains), this is a pure
    /// read, so a run that writes checkpoints stays bit-identical to one
    /// that does not.  Pool-carrying dispatchers **must** override this
    /// together with [`Dispatcher::restore_snapshot`].
    fn checkpoint_pending(&self) -> PendingSnapshot {
        PendingSnapshot::default()
    }

    /// Reinstates a [`PendingSnapshot`] into a freshly constructed
    /// dispatcher — the restore half of checkpoint/resume.  The contract is
    /// bit-identity: after restoring, every later `dispatch_batch` must
    /// decide exactly as the checkpointed dispatcher would have.  The
    /// default rejects non-empty snapshots.
    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        assert!(
            snapshot.is_empty(),
            "{} holds no pending pool but was asked to restore a snapshot of {} requests",
            self.name(),
            snapshot.pool.len()
        );
    }
}

/// The test dispatcher this crate's unit tests share (the baselines crate,
/// which has real greedy dispatchers, depends on this one).
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use structride_model::insertion;

    /// Greedy insertion with a configurable preference, used to exercise the
    /// simulator and to produce recorded traces and deliberately perturbed
    /// replays.
    pub(crate) struct Greedy {
        /// `false`: min added cost (sane); `true`: max added cost (perturbed).
        pub(crate) invert: bool,
    }

    impl Dispatcher for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }

        fn dispatch_batch(
            &mut self,
            ctx: &DispatchContext<'_>,
            vehicles: &mut [Vehicle],
            new_requests: &[Request],
        ) -> BatchOutcome {
            let mut outcome = BatchOutcome::empty();
            for r in new_requests {
                let row = ctx.scored_candidates(vehicles, r, vehicles.len());
                let pick = if self.invert { row.last() } else { row.first() };
                if let Some(&(_, vi)) = pick {
                    let out = insertion::insert_request(ctx.engine, &vehicles[vi], r)
                        .expect("a scored candidate admits its request");
                    vehicles[vi].commit_schedule(out.schedule);
                    outcome.assigned.push(r.id);
                }
            }
            outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StructRideConfig;

    /// A trivial dispatcher that assigns nothing — exercises the trait object
    /// path used by the simulator and the default accounting.
    struct NullDispatcher;

    impl Dispatcher for NullDispatcher {
        fn name(&self) -> &'static str {
            "null"
        }

        fn dispatch_batch(
            &mut self,
            _ctx: &DispatchContext<'_>,
            _vehicles: &mut [Vehicle],
            _new_requests: &[Request],
        ) -> BatchOutcome {
            BatchOutcome::empty()
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut d: Box<dyn Dispatcher> = Box::new(NullDispatcher);
        assert_eq!(d.name(), "null");
        assert_eq!(d.memory_bytes(), 0);
        assert_eq!(d.pending_requests(), 0);
        let mut b = structride_roadnet::RoadNetworkBuilder::new();
        b.add_node(structride_roadnet::Point::new(0.0, 0.0));
        b.add_node(structride_roadnet::Point::new(1.0, 0.0));
        b.add_bidirectional(0, 1, 1.0).unwrap();
        let engine = structride_roadnet::SpEngine::new(b.build().unwrap());
        let ctx = DispatchContext::new(&engine, StructRideConfig::default(), 0.0);
        let out = d.dispatch_batch(&ctx, &mut [], &[]);
        assert_eq!(out, BatchOutcome::empty());
    }
}
