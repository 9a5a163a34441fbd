//! Record/replay harness pinning dispatcher behavior.
//!
//! A [`TraceRecorder`] hooks into the simulator (see
//! [`Simulator::run_recorded`](crate::Simulator::run_recorded)) and captures,
//! per batch, the released requests, the pre-dispatch fleet and the dispatch
//! outcome (assignments, post-dispatch fleet, scratch-counter deltas).
//! Traces and [`Checkpoint`]s alike hold a fleet as cloned [`Vehicle`]s.
//! [`replay_trace`] re-feeds the recorded batches to any [`Dispatcher`]
//! through a fresh [`DispatchContext`](crate::DispatchContext) and diffs the
//! outcomes batch by batch into a structured [`DriftReport`] (first
//! divergent batch, per-field deltas).
//!
//! # The replay invariant
//!
//! A recorded trace must replay **bit-identically** — same assignment lists,
//! same committed schedules, same scratch counters — against the same
//! dispatcher on the same road network, *regardless of the worker-thread
//! count* and across processes.  Because every batch starts from the
//! recorded pre-dispatch fleet state, a divergence cannot cascade: the
//! report pins the exact batch (and field) where a refactored dispatcher
//! first drifts from the recorded behavior.  Shortest-path *query counts*
//! are not recorded at all — under concurrency two workers may race on the
//! same missing cache key and both consult the index (see
//! `structride_roadnet::engine`), which perturbs the counters but never the
//! decisions.  Every bundled dispatcher honours the invariant, TicketAssign+
//! included: its ticket commits follow a fixed round-by-round worker order.
//!
//! # The text format
//!
//! There is one trace format, `structride-trace v4`, beside the checkpoint
//! format `structride-checkpoint v2`, one layout for any shard count.  Any
//! other header is an error.  Both formats are
//! line-oriented, and one codec serves both.  Every line kind is a
//! record that declares its fields once, in a single table giving each
//! field's key (or position), its order and its token form; the writer and
//! the reader are both expanded from that table, so a new field is one line.
//! Field values are scalars through `Display` / `FromStr` — floats in Rust's
//! shortest round-trip form, so a trace recorded on one machine replays
//! bit-identically on another — separator-joined lists, way-points (a
//! vehicle's schedule is written as its way-point list), the traffic profile
//! and zones, the routed ledger and the shareability edges.
//! A parse error names its line and the field it could not read.

use crate::config::StructRideConfig;
use crate::context::ScratchStats;
use crate::dispatcher::{BatchOutcome, Dispatcher, PendingSnapshot};
use crate::lane::Lane;
use crate::score_memo::ScoreMemo;
use std::fmt::{self, Write as _};
use structride_model::{Request, RequestId, Schedule, Vehicle, Waypoint, WaypointKind};
use structride_roadnet::{CongestionZone, SpEngine, TrafficProfile, MAX_TRAFFIC_ZONES};
use structride_sharegraph::builder::BuildStats;

/// Magic first line of a trace.  Its config line ends with the
/// fault-injection model (outage cadence, solver budget, checkpoint cadence).
const TRACE_HEADER: &str = "structride-trace v4";

/// Magic first line of a checkpoint (see [`Checkpoint`]).
const CHECKPOINT_HEADER: &str = "structride-checkpoint v2";

/// Everything recorded about one batch: the inputs the dispatcher saw and
/// the outcome it produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchRecord {
    /// Zero-based batch index within the run.
    pub index: usize,
    /// Simulation time at the end of the batch window.
    pub now: f64,
    /// Requests released during this batch window, in dispatch order.
    pub requests: Vec<Request>,
    /// The fleet after movement, immediately before the dispatch call.
    pub fleet_before: Vec<Vehicle>,
    /// Request ids the dispatcher assigned in this batch.
    pub assigned: Vec<RequestId>,
    /// The fleet immediately after the dispatch call.
    pub fleet_after: Vec<Vehicle>,
    /// Scratch-counter snapshot after the dispatch call.
    pub scratch: ScratchStats,
}

/// Run-level metadata stored alongside the recorded batches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// Name of the dispatcher that produced the trace.
    pub algorithm: String,
    /// Workload name (as passed to the simulator).
    pub workload: String,
    /// The framework configuration the run used (also used by replay).
    pub config: StructRideConfig,
    /// Free-form key/value pairs — the bench harness stores the workload
    /// generation parameters here so `replay` can regenerate the road
    /// network without shipping it inside the trace.
    pub params: Vec<(String, String)>,
    /// Shareability-graph build counters at the end of the recording, when
    /// the recorded dispatcher exposes them (SARD).
    pub build_stats: Option<BuildStats>,
}

impl TraceMeta {
    /// Creates metadata for a run of `algorithm` on `workload`.
    pub fn new(
        algorithm: impl Into<String>,
        workload: impl Into<String>,
        config: StructRideConfig,
    ) -> Self {
        TraceMeta {
            algorithm: algorithm.into(),
            workload: workload.into(),
            config,
            ..TraceMeta::default()
        }
    }

    /// Looks up a free-form parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A recorded run: metadata plus one [`BatchRecord`] per dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run-level metadata.
    pub meta: TraceMeta,
    /// The recorded batches, in dispatch order.
    pub batches: Vec<BatchRecord>,
}

/// Records `(batch, fleet-state, outcome)` tuples while the simulator runs.
///
/// Hand one to [`Simulator::run_recorded`](crate::Simulator::run_recorded),
/// or drive it manually via [`TraceRecorder::batch_started`] /
/// [`TraceRecorder::batch_finished`] from a custom batch loop.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    batches: Vec<BatchRecord>,
    pending: Option<BatchRecord>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completed batch records.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Captures the inputs of a batch about to be dispatched.
    pub fn batch_started(
        &mut self,
        index: usize,
        now: f64,
        requests: &[Request],
        fleet: &[Vehicle],
    ) {
        debug_assert!(self.pending.is_none(), "previous batch was never finished");
        self.pending = Some(BatchRecord {
            index,
            now,
            requests: requests.to_vec(),
            fleet_before: fleet.to_vec(),
            ..BatchRecord::default()
        });
    }

    /// Captures the outcome of the batch opened by the last
    /// [`TraceRecorder::batch_started`] call.
    pub fn batch_finished(
        &mut self,
        outcome: &BatchOutcome,
        fleet: &[Vehicle],
        scratch: ScratchStats,
    ) {
        let mut record = self
            .pending
            .take()
            .expect("batch_finished without batch_started");
        record.assigned = outcome.assigned.clone();
        record.fleet_after = fleet.to_vec();
        record.scratch = scratch;
        self.batches.push(record);
    }

    /// Consumes the recorder into a [`Trace`] with the given metadata.
    pub fn into_trace(self, meta: TraceMeta) -> Trace {
        debug_assert!(self.pending.is_none(), "last batch was never finished");
        Trace {
            meta,
            batches: self.batches,
        }
    }
}

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

/// One field that differed between the recorded and the replayed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDelta {
    /// Dotted path of the differing field (e.g. `vehicle[3].schedule`).
    pub field: String,
    /// The recorded value, in its trace text form.
    pub recorded: String,
    /// The replayed value, in its trace text form.
    pub replayed: String,
}

/// All deltas observed in one divergent batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDivergence {
    /// Index of the divergent batch.
    pub batch_index: usize,
    /// The differing fields.
    pub deltas: Vec<FieldDelta>,
}

/// The outcome of replaying a trace: either clean, or a batch-by-batch list
/// of divergences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftReport {
    /// Number of batches replayed and compared.
    pub batches_compared: usize,
    /// Batches whose replayed outcome differed from the recording.
    pub divergences: Vec<BatchDivergence>,
    /// Candidate scores [`replay_trace`]'s score memo answered without
    /// recomputing (telemetry; 0 for [`diff_traces`]).
    pub memo_hits: u64,
}

impl DriftReport {
    /// True when every batch replayed bit-identically.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The first divergent batch, if any.
    pub fn first_divergence(&self) -> Option<&BatchDivergence> {
        self.divergences.first()
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "replay clean: {} batches, zero drift",
                self.batches_compared
            );
        }
        writeln!(
            f,
            "replay DRIFTED: {} of {} batches diverged (first at batch {})",
            self.divergences.len(),
            self.batches_compared,
            self.divergences[0].batch_index
        )?;
        for div in &self.divergences {
            writeln!(f, "  batch {}:", div.batch_index)?;
            for delta in &div.deltas {
                writeln!(
                    f,
                    "    {}: recorded {:?} != replayed {:?}",
                    delta.field, delta.recorded, delta.replayed
                )?;
            }
        }
        Ok(())
    }
}

/// Replays `trace` against `dispatcher` on `engine` and reports drift.
///
/// Every batch starts from the recorded pre-dispatch fleet state, so the
/// dispatcher's own cross-batch state (e.g. SARD's working pool) evolves
/// exactly as during recording *as long as it keeps making the recorded
/// decisions* — and the first deviation is pinned to its batch instead of
/// cascading.  The dispatcher must be freshly constructed (no batches
/// dispatched yet) and configured identically to the recording; the context
/// is rebuilt from `trace.meta.config`.
///
/// One score memo runs warm across the whole replay, lent to each batch's
/// lane: it keys on exact vehicle inputs, so carrying it across the per-batch
/// fleet restores is as sound as carrying it across the recording's batches.
pub fn replay_trace(
    engine: &SpEngine,
    dispatcher: &mut dyn Dispatcher,
    trace: &Trace,
) -> DriftReport {
    let mut report = DriftReport::default();
    let mut score_memo = ScoreMemo::new();
    for batch in &trace.batches {
        // Mirror the simulators: the engine serves each batch under the
        // traffic epoch of the batch clock (no-op for static engines, i.e.
        // every pre-traffic trace).
        engine.roll_epoch_to(batch.now);
        // A fresh lane over the recorded pre-dispatch state, so the batch
        // takes the simulators' own dispatch path.  Its fleet index is
        // rebuilt per batch: the certified survivor set depends only on
        // vehicle positions and free times, so it reproduces the recorded
        // counters.
        let config = trace.meta.config;
        let mut lane = Lane::new(engine, config, batch.fleet_before.clone());
        lane.score_memo = score_memo;
        let (outcome, scratch) = lane.dispatch(
            engine,
            dispatcher,
            batch.now,
            batch.index,
            &batch.requests,
            None,
        );
        let replayed = BatchRecord {
            assigned: outcome.assigned,
            scratch,
            fleet_after: lane.vehicles,
            ..BatchRecord::default()
        };
        score_memo = lane.score_memo;
        report.batches_compared += 1;

        let mut deltas = Vec::new();
        diff_outcome(&mut deltas, batch, &replayed);
        if !deltas.is_empty() {
            report.divergences.push(BatchDivergence {
                batch_index: batch.index,
                deltas,
            });
        }
    }
    report.memo_hits = score_memo.hits();
    report
}

/// Diffs a replayed outcome (assignments, scratch counters, post-dispatch
/// fleet) against the `recorded` batch — the comparison [`replay_trace`] and
/// [`diff_traces`] share.
fn diff_outcome(deltas: &mut Vec<FieldDelta>, recorded: &BatchRecord, replayed: &BatchRecord) {
    OutcomeLine::diff(recorded, replayed, "", deltas);
    diff_fleet(
        deltas,
        "fleet_after",
        &recorded.fleet_after,
        &replayed.fleet_after,
    );
}

fn diff_fleet(
    deltas: &mut Vec<FieldDelta>,
    label: &str,
    recorded: &[Vehicle],
    replayed: &[Vehicle],
) {
    if recorded.len() != replayed.len() {
        deltas.push(FieldDelta {
            field: format!("{label}.len"),
            recorded: recorded.len().to_string(),
            replayed: replayed.len().to_string(),
        });
        return;
    }
    for (rec, rep) in recorded.iter().zip(replayed) {
        if rec != rep {
            VehicleFields::diff(rec, rep, &format!("vehicle[{}].", rec.id), deltas);
        }
    }
}

/// Names each differing field of a batch's released requests, or, when the
/// two batches released different requests, the two id lists.
fn diff_requests(deltas: &mut Vec<FieldDelta>, recorded: &[Request], replayed: &[Request]) {
    let ids = |requests: &[Request]| requests.iter().map(|r| r.id).collect::<Vec<_>>();
    let (recorded_ids, replayed_ids) = (ids(recorded), ids(replayed));
    if recorded_ids != replayed_ids {
        deltas.push(FieldDelta {
            field: "batch.requests".to_string(),
            recorded: rendered(&recorded_ids),
            replayed: rendered(&replayed_ids),
        });
        return;
    }
    for (rec, rep) in recorded.iter().zip(replayed) {
        if rec != rep {
            RequestFields::diff(rec, rep, &format!("request[{}].", rec.id), deltas);
        }
    }
}

/// Diffs two traces of the *same pipeline* batch by batch into a
/// [`DriftReport`].
///
/// Where [`replay_trace`] re-feeds a dispatcher through the recorded
/// per-batch inputs, `diff_traces` compares two complete recordings — the
/// comparison the **sharded** pipeline uses: a sharded run cannot be
/// replayed through a single `Dispatcher` (each shard owns one), so the
/// sharded simulator re-runs end to end and the two global traces are
/// required to be bit-identical.  Inputs (`now`, released requests,
/// pre-dispatch fleet) are diffed too: in an end-to-end re-run a decision
/// divergence *does* cascade into later batch inputs, and surfacing the
/// first divergent field pins where.
pub fn diff_traces(recorded: &Trace, replayed: &Trace) -> DriftReport {
    let mut report = DriftReport::default();
    if recorded.batches.len() != replayed.batches.len() {
        report.divergences.push(BatchDivergence {
            batch_index: recorded.batches.len().min(replayed.batches.len()),
            deltas: vec![FieldDelta {
                field: "trace.batches".to_string(),
                recorded: recorded.batches.len().to_string(),
                replayed: replayed.batches.len().to_string(),
            }],
        });
    }
    for (rec, rep) in recorded.batches.iter().zip(&replayed.batches) {
        report.batches_compared += 1;
        let mut deltas = Vec::new();
        BatchLine::diff(rec, rep, "batch.", &mut deltas);
        diff_requests(&mut deltas, &rec.requests, &rep.requests);
        diff_fleet(
            &mut deltas,
            "fleet_before",
            &rec.fleet_before,
            &rep.fleet_before,
        );
        diff_outcome(&mut deltas, rec, rep);
        if !deltas.is_empty() {
            report.divergences.push(BatchDivergence {
                batch_index: rec.index,
                deltas,
            });
        }
    }
    report.divergences.sort_by_key(|d| d.batch_index);
    report
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Run-level counters carried across a checkpoint boundary.  A one-shard run
/// never hands off or migrates, so it leaves those two fields at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Requests routed to a non-home shard by the handoff auction.
    pub handoffs: u64,
    /// Bids evaluated by the handoff auction.
    pub handoff_bids: u64,
    /// Idle vehicles migrated between shards by rebalancing.
    pub migrations: u64,
    /// Traffic-epoch boundaries crossed.
    pub epoch_rolls: u64,
    /// Epoch rolls served by the uniform-rescale tier.
    pub labels_rescaled: u64,
    /// Epoch rolls into a zoned epoch (labels of the zone-reweighted base).
    pub labels_rebuilt: u64,
    /// Shard outages injected by the fault plan.
    pub faults_injected: u64,
    /// Batches stepped with a shard down.
    pub batches_degraded: u64,
    /// Requests offered while degraded (orphans + batch arrivals).
    pub degraded_offered: u64,
    /// Requests assigned while degraded.
    pub degraded_served: u64,
}

/// One shard's slice of a [`Checkpoint`]; a monolithic run has exactly one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCheckpoint {
    /// Accumulated scratch counters.
    pub scratch: ScratchStats,
    /// Accumulated degraded exact solves
    /// ([`SolverStats::fallbacks`](crate::lap::SolverStats)).
    pub solver_fallbacks: u64,
    /// Every request ever routed to this shard with its direct cost (the
    /// per-shard unserved-penalty ledger), in routing order.
    pub routed: Vec<(RequestId, f64)>,
    /// Requests this shard served, sorted by id.
    pub served: Vec<RequestId>,
    /// The shard's fleet in slot order (slot order is load-bearing: the
    /// fleet index is keyed by slot, and migrations reorder slots).
    pub fleet: Vec<Vehicle>,
    /// The shard dispatcher's carried pool, derived edges and state.
    pub pending: PendingSnapshot,
}

/// A full simulation snapshot at a batch boundary, handed to the
/// [`RunHooks::checkpoints`](crate::RunHooks) sink of a clock-driven
/// [`Simulator::execute`](crate::Simulator::execute) /
/// [`ShardedSimulator::execute`](crate::ShardedSimulator::execute)
/// whenever the fault plan's checkpoint cadence fires (see
/// [`FaultConfig::checkpoint_every`](crate::faults::FaultConfig)), and
/// consumed by the same entry points through
/// [`BatchSource::Resume`](crate::BatchSource::Resume).
///
/// The contract is **bit-identical resume**: a run restored from a
/// checkpoint must finish with exactly the decisions, served sets and
/// deterministic metrics of the uninterrupted run.  To that end the
/// checkpoint serializes every piece of decision-bearing state — clock,
/// stream cursor, fleets (floats in Rust's shortest round-trip form),
/// dispatcher pools *and* their derived shareability edges (edges are
/// epoch-dependent at evaluation time, so they must not be re-derived) and
/// derived state (DARM's demand map, a `state` line when non-empty) —
/// while wall-clock diagnostics (dispatch seconds, shortest-path query
/// counts, memory estimates) are deliberately left out, exactly as replay
/// comparisons exclude them.
///
/// The *future* request stream is **not** serialized: resume requires the
/// caller to supply the same request slice as the original run (workloads
/// are deterministic generators), and `next_request` indexes into its
/// release-sorted order.
///
/// Every shard count writes the same layout (a monolithic run is a
/// one-shard run); a resume refuses a checkpoint of another shard count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Dispatcher name (`RunMetrics::algorithm`).
    pub algorithm: String,
    /// Workload name the run was started with.
    pub workload: String,
    /// The framework configuration (includes the fault plan, so the resumed
    /// run re-derives the identical outage/budget/checkpoint schedule).
    pub config: StructRideConfig,
    /// Simulation clock at capture (the end of the last stepped batch).
    pub now: f64,
    /// Batches stepped so far == the index of the next batch to dispatch.
    pub batches: usize,
    /// Requests of the release-sorted stream already offered.
    pub next_request: usize,
    /// Run-level counters.
    pub counters: CheckpointCounters,
    /// Per-shard state, one entry per shard.
    pub shards: Vec<ShardCheckpoint>,
}

// ---------------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------------

/// Error parsing a trace or checkpoint from its text form.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number the error was detected at.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// A field value with one text form: `put` writes it and `take` reads it
/// back bit for bit.
trait Token: Sized {
    fn put(&self, out: &mut String);
    fn take(text: &str) -> Result<Self, String>;

    /// How many `sep`-separated pieces the text spans inside a record
    /// separated by `sep`: one, except for a record nested in its own
    /// separator.
    fn width(_sep: char) -> usize {
        1
    }

    /// Pushes the delta `prefix` + `name` when the two texts differ.
    fn diff(&self, replayed: &Self, prefix: &str, name: &str, deltas: &mut Vec<FieldDelta>) {
        let (recorded, replayed) = (rendered(self), rendered(replayed));
        if recorded != replayed {
            deltas.push(FieldDelta {
                field: format!("{prefix}{name}"),
                recorded,
                replayed,
            });
        }
    }
}

/// Renders a token on its own.
fn rendered<T: Token>(value: &T) -> String {
    let mut out = String::new();
    value.put(&mut out);
    out
}

/// Scalars go through `Display` / `FromStr`; floats print in Rust's
/// shortest round-trip form.
macro_rules! display_tokens {
    ($($ty:ty),*) => {$(
        impl Token for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn take(text: &str) -> Result<Self, String> {
                text.parse().map_err(|_| format!("invalid value {text:?}"))
            }
        }
    )*};
}
display_tokens!(u32, u64, usize, f64, bool, String);

/// A list element, and the character that joins a list of them.
trait Item: Token {
    const SEP: char;
}

impl Item for RequestId {
    const SEP: char = ',';
}

impl Item for Waypoint {
    const SEP: char = ';';
}

impl Item for CongestionZone {
    const SEP: char = ';';
}

impl Item for (RequestId, f64) {
    const SEP: char = ';';
}

impl Item for (RequestId, RequestId) {
    const SEP: char = ';';
}

impl Item for f64 {
    const SEP: char = ',';
}

/// Writes `items` joined by their separator.
fn put_items<T: Item>(items: &[T], out: &mut String) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(T::SEP);
        }
        item.put(out);
    }
}

impl<T: Item> Token for Vec<T> {
    fn put(&self, out: &mut String) {
        put_items(self, out)
    }
    fn take(text: &str) -> Result<Self, String> {
        if text.is_empty() {
            return Ok(Vec::new());
        }
        text.split(T::SEP).map(T::take).collect()
    }
}

/// A schedule is its way-point list.
impl Token for Schedule {
    fn put(&self, out: &mut String) {
        put_items(self.waypoints(), out)
    }
    fn take(text: &str) -> Result<Self, String> {
        Vec::take(text).map(Schedule::from_waypoints)
    }
}

/// `a<sep>b` pairs: `param` lines' key and value, the routed ledger's
/// `id:cost` and the shareability edges' `a-b`.
macro_rules! pair_tokens {
    ($(($a:ty, $sep:literal, $b:ty)),*) => {$(
        impl Token for ($a, $b) {
            fn put(&self, out: &mut String) {
                self.0.put(out);
                out.push($sep);
                self.1.put(out);
            }
            fn take(text: &str) -> Result<Self, String> {
                let (a, b) = text
                    .split_once($sep)
                    .ok_or_else(|| format!("expected a {:?}-joined pair, got {text:?}", $sep))?;
                Ok((<$a>::take(a)?, <$b>::take(b)?))
            }
        }
    )*};
}
pair_tokens!(
    (String, ' ', String),
    (RequestId, ':', f64),
    (RequestId, '-', RequestId)
);

impl Token for WaypointKind {
    fn put(&self, out: &mut String) {
        out.push(match self {
            WaypointKind::Pickup => 'P',
            WaypointKind::Dropoff => 'D',
        });
    }
    fn take(text: &str) -> Result<Self, String> {
        match text {
            "P" => Ok(WaypointKind::Pickup),
            "D" => Ok(WaypointKind::Dropoff),
            _ => Err(format!("unknown waypoint kind {text:?}")),
        }
    }
}

/// `none`, `rush`, or `custom:<24 colon-joined hourly factors>`.
impl Token for TrafficProfile {
    fn put(&self, out: &mut String) {
        match self {
            TrafficProfile::None => out.push_str("none"),
            TrafficProfile::Rush => out.push_str("rush"),
            TrafficProfile::Custom(factors) => {
                out.push_str("custom");
                for factor in factors {
                    out.push(':');
                    factor.put(out);
                }
            }
        }
    }
    fn take(text: &str) -> Result<Self, String> {
        match text {
            "none" => Ok(TrafficProfile::None),
            "rush" => Ok(TrafficProfile::Rush),
            _ => {
                let factors = text
                    .strip_prefix("custom:")
                    .ok_or_else(|| format!("unknown traffic profile {text:?}"))?;
                let hourly: Vec<f64> = factors
                    .split(':')
                    .map(f64::take)
                    .collect::<Result<_, _>>()?;
                let hourly = hourly
                    .try_into()
                    .map_err(|_| "a custom traffic profile needs 24 factors".to_string())?;
                Ok(TrafficProfile::Custom(hourly))
            }
        }
    }
}

/// The congestion zones in slot order, or `-` when there are none.
impl Token for [Option<CongestionZone>; MAX_TRAFFIC_ZONES] {
    fn put(&self, out: &mut String) {
        let zones: Vec<CongestionZone> = self.iter().flatten().copied().collect();
        if zones.is_empty() {
            out.push('-');
        } else {
            zones.put(out);
        }
    }
    fn take(text: &str) -> Result<Self, String> {
        let mut slots = [None; MAX_TRAFFIC_ZONES];
        if text != "-" {
            let zones = Vec::<CongestionZone>::take(text)?;
            if zones.len() > MAX_TRAFFIC_ZONES {
                return Err(format!(
                    "at most {MAX_TRAFFIC_ZONES} congestion zones supported"
                ));
            }
            for (slot, zone) in slots.iter_mut().zip(zones) {
                *slot = Some(zone);
            }
        }
        Ok(slots)
    }
}

/// The fields of one record — a line body, or a compound token — in text
/// order.  `put`, `take` and `diff` are all expanded by `record!` from one
/// field table.
trait Record {
    type Of;
    const FIELDS: usize;
    fn put(value: &Self::Of, out: &mut String);
    /// Reads every field of `text` into `value`; anything left over is an
    /// error.
    fn take(value: &mut Self::Of, text: &str) -> Result<(), String>;
    /// Pushes a `prefix`-ed delta for each field whose text differs.
    fn diff(recorded: &Self::Of, replayed: &Self::Of, prefix: &str, deltas: &mut Vec<FieldDelta>);
}

/// Declares a [`Record`] as `Name('sep'): Type { "key" field.path, … }`,
/// one entry per field in text order.  An empty key is a positional field;
/// any other is written `key=value`.  A record declared `token` is also the
/// [`Token`] of its type (which then needs `Default`), so other records can
/// nest it as a field.
macro_rules! record {
    (token $name:ident($sep:literal): $ty:ty { $($fields:tt)* }) => {
        record!($name($sep): $ty { $($fields)* });
        impl Token for $ty {
            fn put(&self, out: &mut String) {
                $name::put(self, out)
            }
            fn take(text: &str) -> Result<Self, String> {
                let mut value = Self::default();
                $name::take(&mut value, text)?;
                Ok(value)
            }
            fn width(sep: char) -> usize {
                if sep == $sep { $name::FIELDS } else { 1 }
            }
            fn diff(&self, replayed: &Self, prefix: &str, name: &str, deltas: &mut Vec<FieldDelta>) {
                $name::diff(self, replayed, &format!("{prefix}{name}."), deltas)
            }
        }
    };
    ($name:ident($sep:literal): $ty:ty { $($key:tt $($path:ident).+),+ $(,)? }) => {
        struct $name;
        impl Record for $name {
            type Of = $ty;
            const FIELDS: usize = [$($key),+].len();
            fn put(value: &$ty, out: &mut String) {
                let mut sep = None;
                $(
                    if let Some(sep) = sep.replace($sep) {
                        out.push(sep);
                    }
                    if !$key.is_empty() {
                        out.push_str($key);
                        out.push('=');
                    }
                    value.$($path).+.put(out);
                )+
            }
            fn take(value: &mut $ty, text: &str) -> Result<(), String> {
                let mut fields = Fields { rest: Some(text), sep: $sep };
                $(value.$($path).+ = fields.take($key, stringify!($($path).+))?;)+
                match fields.rest {
                    None => Ok(()),
                    Some(extra) => Err(format!("unexpected trailing text {extra:?}")),
                }
            }
            fn diff(recorded: &$ty, replayed: &$ty, prefix: &str, deltas: &mut Vec<FieldDelta>) {
                $(recorded.$($path).+.diff(&replayed.$($path).+, prefix, stringify!($($path).+), deltas);)+
            }
        }
    };
}

/// The unread fields of one record body.
struct Fields<'a> {
    /// `None` once the last field has been split off.
    rest: Option<&'a str>,
    sep: char,
}

impl Fields<'_> {
    /// Splits off the next field, which must carry `key` (if non-empty),
    /// and reads its value; errors name the key, or the field's `path`.
    fn take<T: Token>(&mut self, key: &str, path: &str) -> Result<T, String> {
        let name = if key.is_empty() { path } else { key };
        let text = self.rest.ok_or_else(|| format!("missing field {name}"))?;
        let split = match T::width(self.sep) {
            1 => text.split_once(self.sep),
            width => (text.match_indices(self.sep).nth(width - 1))
                .map(|(i, sep)| (&text[..i], &text[i + sep.len()..])),
        };
        let (token, rest) = match split {
            Some((token, rest)) => (token, Some(rest)),
            None => (text, None),
        };
        self.rest = rest;
        let value = if key.is_empty() {
            token
        } else {
            token
                .strip_prefix(key)
                .and_then(|v| v.strip_prefix('='))
                .ok_or_else(|| format!("expected {key}=..., got {token:?}"))?
        };
        T::take(value).map_err(|e| format!("{name}: {e}"))
    }
}

record!(token RequestFields(' '): Request {
    "" id, "" source, "" destination, "" riders,
    "" release, "" deadline, "" pickup_deadline, "" shortest_cost,
});

record!(token WaypointFields(':'): Waypoint {
    "" kind, "" request, "" node, "" deadline, "" earliest, "" riders,
});

record!(token VehicleFields(' '): Vehicle {
    "" id, "" capacity, "" node, "" free_at, "" onboard, "" executed_travel,
    "a" assigned, "c" completed, "s" schedule,
});

record!(token ZoneFields(','): CongestionZone {
    "" min_x, "" min_y, "" max_x, "" max_y, "" factor, "" active_from, "" active_until,
});

record!(token ConfigFields(' '): StructRideConfig {
    "batch_period" batch_period,
    "alpha" cost.alpha,
    "penalty" cost.penalty_coefficient,
    "shareability_capacity" shareability_capacity,
    "angle_enabled" angle.enabled,
    "angle_threshold" angle.threshold,
    "grid_cells" grid_cells,
    "max_candidate_vehicles" max_candidate_vehicles,
    "ingest_max_batch" ingest.max_batch_size,
    "ingest_deadline" ingest.batch_deadline,
    "ingest_queue" ingest.queue_capacity,
    "ingest_time_scale" ingest.time_scale,
    "traffic_profile" traffic.profile,
    "traffic_epoch_s" traffic.epoch_seconds,
    "traffic_hour_s" traffic.hour_scale,
    "traffic_zones" traffic.zones,
    "faults_seed" faults.seed,
    "faults_outage_every" faults.outage_every,
    "faults_outage_batches" faults.outage_batches,
    "faults_solver_budget" faults.solver_node_budget,
    "faults_checkpoint_every" faults.checkpoint_every,
});

record!(token BuildStatsFields(' '): BuildStats {
    "candidate_pairs" candidate_pairs,
    "angle_pruned" angle_pruned,
    "shareability_checks" shareability_checks,
    "edges_added" edges_added,
});

/// The key of the clock in both `batch` and `clock` lines.
const NOW: &str = "now";

record!(BatchLine(' '): BatchRecord { "" index, NOW now });

// A trace's `outcome` line and a checkpoint's `scratch` line both nest
// these counters.
record!(token ScratchFields(' '): ScratchStats {
    "insertion_evaluations" insertion_evaluations,
    "groups_enumerated" groups_enumerated,
    "prescreen_pruned" prescreen_pruned,
});

record!(OutcomeLine(' '): BatchRecord { "assigned" assigned, "" scratch });

record!(ShardScratchLine(' '): ShardCheckpoint {
    "" scratch, "solver_fallbacks" solver_fallbacks,
});

record!(ClockLine(' '): Checkpoint {
    NOW now, "batches" batches, "next_request" next_request,
});

record!(token CounterFields(' '): CheckpointCounters {
    "handoffs" handoffs,
    "handoff_bids" handoff_bids,
    "migrations" migrations,
    "epoch_rolls" epoch_rolls,
    "labels_rescaled" labels_rescaled,
    "labels_rebuilt" labels_rebuilt,
    "faults_injected" faults_injected,
    "batches_degraded" batches_degraded,
    "degraded_offered" degraded_offered,
    "degraded_served" degraded_served,
});

/// Appends the line `tag value`.
fn put_line<T: Token>(out: &mut String, tag: &str, value: &T) {
    out.push_str(tag);
    out.push(' ');
    value.put(out);
    out.push('\n');
}

/// Appends one `tag value` line per element of `values`.
fn put_lines<T: Token>(out: &mut String, tag: &str, values: &[T]) {
    for value in values {
        put_line(out, tag, value);
    }
}

/// Appends the line `tag fields`, the fields read off `value` by `R`.
fn put_record<R: Record>(out: &mut String, tag: &str, value: &R::Of) {
    out.push_str(tag);
    out.push(' ');
    R::put(value, out);
    out.push('\n');
}

/// Reads a trace or checkpoint line by line, naming the line of every error.
struct Reader<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines().peekable(),
            line_no: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            line: self.line_no.max(1),
            message: message.into(),
        }
    }

    fn is_done(&mut self) -> bool {
        self.lines.peek().is_none()
    }

    /// True when the next line is tagged `tag`.
    fn at(&mut self, tag: &str) -> bool {
        self.lines
            .peek()
            .and_then(|line| line.strip_prefix(tag))
            .is_some_and(|rest| rest.starts_with(' '))
    }

    /// Consumes the next line, which `what` names if it is missing.
    fn line(&mut self, what: &str) -> Result<&'a str, TraceParseError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| self.err(format!("missing {what} line")))?;
        self.line_no += 1;
        Ok(line)
    }

    /// Consumes the next line, which must be exactly `marker`.
    fn marker(&mut self, marker: &str) -> Result<(), TraceParseError> {
        let line = self.line(marker)?;
        if line != marker {
            return Err(self.err(format!("expected {marker:?}, got {line:?}")));
        }
        Ok(())
    }

    /// Consumes the next line, which must be tagged `tag`, and returns the
    /// rest of it.
    fn body(&mut self, tag: &str) -> Result<&'a str, TraceParseError> {
        let line = self.line(tag)?;
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected a {tag} line, got {line:?}")))
    }

    /// Reads the next line, `tag value`.
    fn value<T: Token>(&mut self, tag: &str) -> Result<T, TraceParseError> {
        let body = self.body(tag)?;
        T::take(body).map_err(|e| self.err(format!("{tag} {e}")))
    }

    /// Reads the run of `tag` lines at the cursor.
    fn values<T: Token>(&mut self, tag: &str) -> Result<Vec<T>, TraceParseError> {
        let mut values = Vec::new();
        while self.at(tag) {
            values.push(self.value(tag)?);
        }
        Ok(values)
    }

    /// Reads the next line, `tag fields`, into `value` through `R`.
    fn record<R: Record>(&mut self, tag: &str, value: &mut R::Of) -> Result<(), TraceParseError> {
        let body = self.body(tag)?;
        R::take(value, body).map_err(|e| self.err(format!("{tag} {e}")))
    }
}

impl Trace {
    /// Serializes the trace to its text form.
    pub fn to_text(&self) -> String {
        let meta = &self.meta;
        let mut out = format!("{TRACE_HEADER}\n");
        put_line(&mut out, "algorithm", &meta.algorithm);
        put_line(&mut out, "workload", &meta.workload);
        put_line(&mut out, "config", &meta.config);
        put_lines(&mut out, "param", &meta.params);
        if let Some(stats) = &meta.build_stats {
            put_line(&mut out, "build_stats", stats);
        }
        for b in &self.batches {
            put_record::<BatchLine>(&mut out, "batch", b);
            put_lines(&mut out, "request", &b.requests);
            out.push_str("fleet before\n");
            put_lines(&mut out, "vehicle", &b.fleet_before);
            put_record::<OutcomeLine>(&mut out, "outcome", b);
            out.push_str("fleet after\n");
            put_lines(&mut out, "vehicle", &b.fleet_after);
            out.push_str("end\n");
        }
        out
    }

    /// Parses a trace from its text form.
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        let mut r = Reader::new(text);
        r.marker(TRACE_HEADER)?;
        let meta = TraceMeta {
            algorithm: r.value("algorithm")?,
            workload: r.value("workload")?,
            config: r.value("config")?,
            params: r.values("param")?,
            build_stats: if r.at("build_stats") {
                Some(r.value("build_stats")?)
            } else {
                None
            },
        };
        let mut batches = Vec::new();
        while !r.is_done() {
            let mut b = BatchRecord::default();
            r.record::<BatchLine>("batch", &mut b)?;
            b.requests = r.values("request")?;
            r.marker("fleet before")?;
            b.fleet_before = r.values("vehicle")?;
            r.record::<OutcomeLine>("outcome", &mut b)?;
            r.marker("fleet after")?;
            b.fleet_after = r.values("vehicle")?;
            r.marker("end")?;
            batches.push(b);
        }
        Ok(Trace { meta, batches })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a trace from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        Trace::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Checkpoint {
    /// Serializes the checkpoint to its line-oriented text form (floats in
    /// Rust's shortest round-trip representation, like traces).
    pub fn to_text(&self) -> String {
        let mut out = format!("{CHECKPOINT_HEADER}\n");
        put_line(&mut out, "algorithm", &self.algorithm);
        put_line(&mut out, "workload", &self.workload);
        put_line(&mut out, "config", &self.config);
        put_record::<ClockLine>(&mut out, "clock", self);
        put_line(&mut out, "counters", &self.counters);
        for (i, s) in self.shards.iter().enumerate() {
            put_line(&mut out, "shard", &i);
            put_record::<ShardScratchLine>(&mut out, "scratch", s);
            put_line(&mut out, "routed", &s.routed);
            put_line(&mut out, "served", &s.served);
            out.push_str("fleet\n");
            put_lines(&mut out, "vehicle", &s.fleet);
            out.push_str("pool\n");
            put_lines(&mut out, "request", &s.pending.pool);
            put_line(&mut out, "edges", &s.pending.edges);
            if !s.pending.state.is_empty() {
                put_line(&mut out, "state", &s.pending.state);
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses a checkpoint from its text form.
    pub fn parse(text: &str) -> Result<Checkpoint, TraceParseError> {
        let mut r = Reader::new(text);
        r.marker(CHECKPOINT_HEADER)?;
        let mut checkpoint = Checkpoint {
            algorithm: r.value("algorithm")?,
            workload: r.value("workload")?,
            config: r.value("config")?,
            ..Checkpoint::default()
        };
        r.record::<ClockLine>("clock", &mut checkpoint)?;
        checkpoint.counters = r.value("counters")?;
        while !r.is_done() {
            let index: usize = r.value("shard")?;
            if index != checkpoint.shards.len() {
                return Err(r.err(format!(
                    "shard sections must be in order: expected {}, got {index}",
                    checkpoint.shards.len()
                )));
            }
            let mut s = ShardCheckpoint::default();
            r.record::<ShardScratchLine>("scratch", &mut s)?;
            s.routed = r.value("routed")?;
            s.served = r.value("served")?;
            r.marker("fleet")?;
            s.fleet = r.values("vehicle")?;
            r.marker("pool")?;
            s.pending.pool = r.values("request")?;
            s.pending.edges = r.value("edges")?;
            if r.at("state") {
                s.pending.state = r.value("state")?;
            }
            r.marker("end")?;
            checkpoint.shards.push(s);
        }
        if checkpoint.shards.is_empty() {
            return Err(r.err("checkpoint needs at least one shard section"));
        }
        Ok(checkpoint)
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::testing::Greedy;
    use structride_model::insertion;
    use structride_roadnet::{Point, RoadNetworkBuilder, TrafficConfig};

    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..6u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32, release: f64, cost: f64) -> Request {
        Request::with_detour(id, s, e, 1, release, cost, 2.0, 300.0)
    }

    fn record_greedy() -> (SpEngine, Trace) {
        let engine = line_engine();
        let config = StructRideConfig::default();
        let mut recorder = TraceRecorder::new();
        let mut dispatcher = Greedy { invert: false };
        // Both vehicles can serve every request, at different added costs, so
        // an inverted cost preference genuinely changes the commitments.
        let vehicles = vec![Vehicle::new(1, 0, 4), Vehicle::new(2, 1, 4)];
        let mut lane = Lane::new(&engine, config, vehicles);
        // Two hand-driven batches (the simulator integration is exercised by
        // the crate-level tests; here the recorder is driven directly).
        for (index, batch) in [vec![req(1, 1, 3, 0.0, 20.0)], vec![req(3, 2, 5, 4.0, 30.0)]]
            .into_iter()
            .enumerate()
        {
            let now = 5.0 * (index + 1) as f64;
            lane.advance(&engine, now);
            recorder.batch_started(index, now, &batch, &lane.vehicles);
            let (outcome, scratch) =
                lane.dispatch(&engine, &mut dispatcher, now, index, &batch, None);
            recorder.batch_finished(&outcome, &lane.vehicles, scratch);
        }
        let mut meta = TraceMeta::new("greedy", "unit-line", config);
        meta.params.push(("nodes".to_string(), "6".to_string()));
        (engine, recorder.into_trace(meta))
    }

    #[test]
    fn a_mid_schedule_vehicle_line_roundtrips_exactly() {
        let engine = line_engine();
        let mut v = Vehicle::new(7, 0, 4);
        let r = req(1, 1, 3, 0.0, 20.0);
        let out = insertion::insert_request(&engine, &v, &r).unwrap();
        v.commit_schedule(out.schedule);
        v.advance_to(&engine, 15.0);
        // Picked up, not yet dropped off: the line carries a rider on board
        // and a one-way-point schedule.
        assert_eq!((v.onboard, v.schedule.len()), (1, 1));
        let text = rendered(&v);
        assert!(text.contains(" a=1 c= s=D:1:3:"), "{text}");
        let parsed = Vehicle::take(&text).expect("parse vehicle line");
        assert_eq!(parsed, v);
        assert_eq!(rendered(&parsed), text);
    }

    #[test]
    fn trace_text_roundtrips_exactly() {
        let (_engine, trace) = record_greedy();
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("parse recorded trace");
        assert_eq!(parsed, trace);
        // Serialization is stable: text -> trace -> text is the identity.
        assert_eq!(parsed.to_text(), text);
    }

    /// A two-shard checkpoint with every field set (the second shard idle).
    fn sample_checkpoint() -> Checkpoint {
        let mut vehicle = Vehicle::new(3, 1, 4);
        vehicle.free_at = 12.25;
        vehicle.executed_travel = 0.1 + 0.2; // a float that doesn't print short
        vehicle.assigned = vec![7, 9];
        let pool_req = req(11, 0, 5, 7.5, 5.0);
        let faults = crate::faults::FaultConfig {
            seed: 7,
            outage_every: 10,
            outage_batches: 3,
            solver_node_budget: 500,
            checkpoint_every: 8,
        };
        Checkpoint {
            algorithm: "SARD".into(),
            workload: "rush".into(),
            config: StructRideConfig::default().with_faults(faults),
            now: 25.0,
            batches: 5,
            next_request: 42,
            counters: CheckpointCounters {
                handoffs: 3,
                handoff_bids: 17,
                migrations: 2,
                epoch_rolls: 4,
                labels_rescaled: 3,
                labels_rebuilt: 1,
                faults_injected: 1,
                batches_degraded: 2,
                degraded_offered: 9,
                degraded_served: 6,
            },
            shards: vec![
                ShardCheckpoint {
                    scratch: ScratchStats {
                        insertion_evaluations: 100,
                        groups_enumerated: 40,
                        prescreen_pruned: 8,
                    },
                    solver_fallbacks: 1,
                    routed: vec![(1, 1.5), (7, 0.30000000000000004)],
                    served: vec![1, 7],
                    fleet: vec![vehicle],
                    pending: PendingSnapshot {
                        pool: vec![pool_req],
                        edges: vec![(11, 13)],
                        state: vec![0.5, 0.1 + 0.2, 0.0],
                    },
                },
                // An idle shard: every section empty.
                ShardCheckpoint::default(),
            ],
        }
    }

    #[test]
    fn checkpoint_text_roundtrips_exactly() {
        let ckpt = sample_checkpoint();
        let text = ckpt.to_text();
        let parsed = Checkpoint::parse(&text).expect("parse checkpoint");
        assert_eq!(parsed, ckpt);
        // Serialization is stable: text -> checkpoint -> text is the identity.
        assert_eq!(parsed.to_text(), text);
        // The shared config tokens carry the fault plan through.
        assert_eq!(parsed.config.faults.checkpoint_every, 8);

        assert!(Checkpoint::parse("garbage").is_err());
        assert!(
            Checkpoint::parse(CHECKPOINT_HEADER).is_err(),
            "a header alone is not a checkpoint"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("not a trace\n").is_err());
        let (_engine, trace) = record_greedy();
        let text = trace.to_text();
        // Truncated body (drop the final `end`): parse must fail, not panic.
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(Trace::parse(truncated).is_err());
    }

    #[test]
    fn faithful_replay_is_clean() {
        let (engine, trace) = record_greedy();
        let mut dispatcher = Greedy { invert: false };
        let report = replay_trace(&engine, &mut dispatcher, &trace);
        assert!(report.is_clean(), "unexpected drift:\n{report}");
        assert_eq!(report.batches_compared, trace.batches.len());
        assert!(report.to_string().contains("zero drift"));
    }

    #[test]
    fn only_v4_parses_and_errors_name_the_line_and_the_key() {
        let (_engine, trace) = record_greedy();
        let text = trace.to_text();

        // The retired formats are refused by name, not half-read.
        for old in [
            "structride-trace v1",
            "structride-trace v2",
            "structride-trace v3",
        ] {
            let err =
                Trace::parse(&text.replacen(TRACE_HEADER, old, 1)).expect_err("retired format");
            assert!(err.message.contains(old), "{err}");
            assert_eq!(err.line, 1);
        }

        // A config line without the fault tokens (the retired v3 shape) is
        // an error naming the first missing key, not an inert fault plan.
        let config = text.lines().nth(3).expect("config line");
        let (v3_config, _) = config.split_once(" faults_seed=").expect("fault tokens");
        let err = Trace::parse(&text.replacen(config, v3_config, 1)).expect_err("no faults");
        assert_eq!(err.line, 4);
        assert!(err.message.contains("faults_seed"), "{err}");
        let bad = config.replacen("alpha=1", "alpha=x", 1);
        let err = Trace::parse(&text.replacen(config, &bad, 1)).expect_err("bad value");
        assert!(err.message.contains("alpha"), "{err}");

        // Outcome lines always carry all three counters.
        let outcome = text
            .lines()
            .find(|l| l.starts_with("outcome "))
            .expect("outcome line");
        let (three_tokens, _) = outcome.rsplit_once(' ').expect("four tokens");
        let err = Trace::parse(&text.replacen(outcome, three_tokens, 1)).expect_err("short");
        assert!(err.message.contains("prescreen_pruned"), "{err}");
        let long = format!("{outcome} extra=1");
        assert!(Trace::parse(&text.replacen(outcome, &long, 1)).is_err());
    }

    #[test]
    fn traces_roundtrip_the_traffic_model() {
        let (_engine, mut trace) = record_greedy();
        let text = trace.to_text();
        assert!(
            text.contains(
                "traffic_profile=none traffic_epoch_s=3600 traffic_hour_s=3600 traffic_zones=-"
            ),
            "{text}"
        );

        // A non-trivial model — rush profile plus two congestion zones —
        // round-trips field for field, and a custom profile keeps all 24
        // hourly factors bit-exact.
        trace.meta.config.traffic = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 600.0,
            hour_scale: 450.5,
            ..TrafficConfig::default()
        }
        .with_zone(CongestionZone {
            min_x: -10.0,
            min_y: 0.25,
            max_x: 1000.0,
            max_y: 2000.0,
            factor: 1.8,
            active_from: 0.0,
            active_until: 1200.0,
        })
        .with_zone(CongestionZone {
            min_x: 50.0,
            min_y: 50.0,
            max_x: 60.0,
            max_y: 60.0,
            factor: 2.5,
            active_from: 600.0,
            active_until: f64::INFINITY,
        });
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("parse rush trace");
        assert_eq!(parsed.meta.config.traffic, trace.meta.config.traffic);
        assert_eq!(parsed.to_text(), text);

        let mut factors = [1.0f64; 24];
        factors[7] = 1.618033988749895;
        factors[23] = 0.75;
        trace.meta.config.traffic.profile = TrafficProfile::Custom(factors);
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("parse custom-profile trace");
        assert_eq!(
            parsed.meta.config.traffic.profile,
            trace.meta.config.traffic.profile
        );
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn traces_roundtrip_the_fault_config() {
        let (_engine, mut trace) = record_greedy();
        // The fault tokens ride on the config line so a faulted run's replay
        // derives the identical injection schedule.
        let text = trace.to_text();
        assert!(text.starts_with("structride-trace v4\n"), "{text}");
        assert!(
            text.contains(
                "faults_seed=0 faults_outage_every=0 faults_outage_batches=0 \
                 faults_solver_budget=0 faults_checkpoint_every=0"
            ),
            "{text}"
        );
        let parsed = Trace::parse(&text).expect("parse v4 trace");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_text(), text);
        assert!(parsed.meta.config.faults.is_inert());

        // A chaos config round-trips field for field.
        trace.meta.config.faults = crate::FaultConfig {
            seed: 0xDEAD_BEEF,
            outage_every: 12,
            outage_batches: 3,
            solver_node_budget: 4096,
            checkpoint_every: 8,
        };
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("parse chaos trace");
        assert_eq!(parsed.meta.config.faults, trace.meta.config.faults);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn perturbed_replay_is_flagged_with_first_divergent_batch() {
        let (engine, trace) = record_greedy();
        let mut dispatcher = Greedy { invert: true };
        let report = replay_trace(&engine, &mut dispatcher, &trace);
        assert!(!report.is_clean(), "inverted preference must drift");
        let first = report.first_divergence().expect("a divergence");
        // The two requests of batch 0 tie on nothing — the inverted greedy
        // picks the worse vehicle immediately.
        assert_eq!(first.batch_index, 0);
        assert!(!first.deltas.is_empty());
        let fields: Vec<&str> = first.deltas.iter().map(|d| d.field.as_str()).collect();
        assert!(
            fields.iter().any(|f| f.starts_with("vehicle[")),
            "expected a vehicle-level delta, got {fields:?}"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("first at batch 0"), "{rendered}");

        // The right decisions reached by other work are drift too: a
        // recording whose evaluation counter is off replays dirty.
        let mut stale = trace.clone();
        for b in &mut stale.batches {
            b.scratch.insertion_evaluations += 1000;
        }
        let report = replay_trace(&engine, &mut Greedy { invert: false }, &stale);
        let first = report.first_divergence().expect("a divergence");
        assert_eq!(first.deltas.len(), 1, "{report}");
        assert_eq!(first.deltas[0].field, "scratch.insertion_evaluations");
    }

    #[test]
    fn vehicle_diff_covers_identity_fields() {
        // A replay that reorders the fleet can differ *only* in id/capacity
        // (two otherwise-identical vehicles swapped); the diff must surface
        // that rather than silently producing zero deltas.
        let a = Vehicle::new(1, 0, 4);
        let b = Vehicle {
            id: 2,
            capacity: 3,
            ..a.clone()
        };
        let mut deltas = Vec::new();
        VehicleFields::diff(&a, &b, "vehicle[1].", &mut deltas);
        let fields: Vec<&str> = deltas.iter().map(|d| d.field.as_str()).collect();
        assert!(fields.contains(&"vehicle[1].id"), "{fields:?}");
        assert!(fields.contains(&"vehicle[1].capacity"), "{fields:?}");
    }

    #[test]
    fn diff_traces_is_clean_on_identical_and_flags_perturbations() {
        let (_engine, trace) = record_greedy();
        let clean = diff_traces(&trace, &trace.clone());
        assert!(clean.is_clean(), "{clean}");
        assert_eq!(clean.batches_compared, trace.batches.len());

        // Perturb one late-batch outcome: flagged at exactly that batch.
        let mut perturbed = trace.clone();
        perturbed.batches[1].assigned.push(999);
        let report = diff_traces(&trace, &perturbed);
        assert!(!report.is_clean());
        assert_eq!(report.first_divergence().unwrap().batch_index, 1);
        assert!(report.first_divergence().unwrap().deltas[0]
            .field
            .contains("assigned"));

        // So is any scratch counter that moved while the decisions held.
        type Bump = fn(&mut ScratchStats);
        let bumps: [(&str, Bump); 3] = [
            ("insertion_evaluations", |s| s.insertion_evaluations += 1),
            ("groups_enumerated", |s| s.groups_enumerated += 1),
            ("prescreen_pruned", |s| s.prescreen_pruned += 1),
        ];
        for (counter, bump) in bumps {
            let mut moved = trace.clone();
            bump(&mut moved.batches[0].scratch);
            let report = diff_traces(&trace, &moved);
            let first = report.first_divergence().expect("a divergence");
            assert_eq!(first.deltas.len(), 1, "{report}");
            assert_eq!(first.deltas[0].field, format!("scratch.{counter}"));
        }

        // A truncated re-run (missing tail batches) is drift, not silence.
        let mut truncated = trace.clone();
        truncated.batches.pop();
        let report = diff_traces(&trace, &truncated);
        assert!(!report.is_clean());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.deltas.iter().any(|x| x.field == "trace.batches")));

        // Input divergence (cascaded fleet state) is surfaced too.
        let mut shifted = trace.clone();
        shifted.batches[1].fleet_before[0].free_at += 1.0;
        let report = diff_traces(&trace, &shifted);
        assert!(!report.is_clean());
        assert!(report.divergences[0]
            .deltas
            .iter()
            .any(|d| d.field.contains("free_at")));

        // A released request whose field moved is named with both values…
        let mut moved = trace.clone();
        let request = &mut moved.batches[1].requests[0];
        request.deadline = f64::from_bits(request.deadline.to_bits() + 1);
        let expected = FieldDelta {
            field: format!("request[{}].deadline", request.id),
            recorded: trace.batches[1].requests[0].deadline.to_string(),
            replayed: request.deadline.to_string(),
        };
        let report = diff_traces(&trace, &moved);
        let first = report.first_divergence().expect("a divergence");
        assert_eq!(first.batch_index, 1);
        assert_eq!(first.deltas, vec![expected], "{report}");

        // …and different released requests by the two id lists.
        let mut dropped = trace.clone();
        dropped.batches[1].requests.clear();
        let report = diff_traces(&trace, &dropped);
        let delta = &report.first_divergence().expect("a divergence").deltas[0];
        assert_eq!(delta.field, "batch.requests");
        assert_eq!(
            (delta.recorded.as_str(), delta.replayed.as_str()),
            ("3", "")
        );
    }

    #[test]
    fn meta_param_lookup() {
        let (_engine, trace) = record_greedy();
        assert_eq!(trace.meta.param("nodes"), Some("6"));
        assert_eq!(trace.meta.param("missing"), None);
    }
}
