//! Record/replay harness pinning dispatcher behavior.
//!
//! PR 1 made the whole batch-dispatch pipeline parallel and promised
//! determinism regardless of worker count; this module turns that promise
//! into an enforced invariant.  A [`TraceRecorder`] hooks into the simulator
//! (see [`Simulator::run_recorded`](crate::Simulator::run_recorded)) and
//! captures, per batch, the released requests, the full pre-dispatch fleet
//! state and the dispatch outcome (assignments, post-dispatch fleet state,
//! scratch-counter deltas).  [`replay_trace`] re-feeds the recorded batches
//! to any [`Dispatcher`] through a fresh
//! [`DispatchContext`](crate::DispatchContext) and diffs the outcomes batch
//! by batch into a structured [`DriftReport`] (first divergent batch,
//! per-field deltas).
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
//! are deliberately excluded from the diff — under concurrency two workers
//! may race on the same missing cache key and both consult the index (see
//! `structride_roadnet::engine`), which perturbs the counters but never the
//! decisions.  The one bundled dispatcher exempt from the invariant is
//! TicketAssign+, whose commit-order races are the algorithm under study.
//!
//! Traces serialize to a versioned, line-oriented text format whose floats
//! round-trip exactly (Rust's shortest-representation formatting), so a
//! trace recorded on one machine replays bit-identically on another.  Two
//! versions exist: v4, which every recording is written at, and v3 (no
//! fault tokens on the config line), which is still read and re-serialized
//! byte for byte.  The header fixes the shape of every line below it.

use crate::config::StructRideConfig;
use crate::context::ScratchStats;
use crate::dispatcher::{BatchOutcome, Dispatcher, PendingSnapshot};
use crate::lane::Lane;
use crate::score_memo::ScoreMemo;
use std::fmt;
use std::str::FromStr;
use structride_model::{Request, RequestId, Schedule, Vehicle, Waypoint, WaypointKind};
use structride_roadnet::{
    CongestionZone, SpEngine, SpStats, TrafficConfig, TrafficProfile, MAX_TRAFFIC_ZONES,
};
use structride_sharegraph::builder::BuildStats;

/// The trace format version new recordings are written at.  Its config line
/// ends with the fault-injection model (outage cadence, solver budget,
/// checkpoint cadence).
const TRACE_VERSION: u32 = 4;

/// The trace format versions [`Trace::parse`] accepts.  A v3 config line
/// stops after the traffic model, so a v3 trace parses with the inert
/// [`FaultConfig::default`](crate::faults::FaultConfig) and replays
/// bit-identically.
const TRACE_VERSIONS: [u32; 2] = [3, TRACE_VERSION];

/// Magic first line of a trace at format `version` — the one place version
/// and header are paired, for [`Trace::to_text`] and [`Trace::parse`] alike.
fn trace_header(version: u32) -> &'static str {
    match version {
        3 => "structride-trace v3",
        4 => "structride-trace v4",
        other => panic!("there is no trace format v{other}"),
    }
}

/// A plain-data snapshot of one [`Vehicle`], captured before and after each
/// dispatch call.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleState {
    /// Vehicle identifier.
    pub id: u32,
    /// Seat capacity.
    pub capacity: u32,
    /// Node the vehicle plans from.
    pub node: u32,
    /// Time the vehicle is free at `node`.
    pub free_at: f64,
    /// Riders currently on board.
    pub onboard: u32,
    /// Travel time accumulated by executed way-points.
    pub executed_travel: f64,
    /// Requests assigned so far.
    pub assigned: Vec<RequestId>,
    /// Requests fully served so far.
    pub completed: Vec<RequestId>,
    /// The planned, not-yet-executed schedule.
    pub schedule: Vec<Waypoint>,
}

impl VehicleState {
    /// Captures the state of `vehicle`.
    pub fn capture(vehicle: &Vehicle) -> Self {
        VehicleState {
            id: vehicle.id,
            capacity: vehicle.capacity,
            node: vehicle.node,
            free_at: vehicle.free_at,
            onboard: vehicle.onboard,
            executed_travel: vehicle.executed_travel,
            assigned: vehicle.assigned.clone(),
            completed: vehicle.completed.clone(),
            schedule: vehicle.schedule.waypoints().to_vec(),
        }
    }

    /// Reconstructs a [`Vehicle`] in exactly this state.
    pub fn restore(&self) -> Vehicle {
        let mut v = Vehicle::new(self.id, self.node, self.capacity);
        v.free_at = self.free_at;
        v.onboard = self.onboard;
        v.executed_travel = self.executed_travel;
        v.assigned = self.assigned.clone();
        v.completed = self.completed.clone();
        v.schedule = Schedule::from_waypoints(self.schedule.clone());
        v
    }
}

/// Everything recorded about one batch: the inputs the dispatcher saw and
/// the outcome it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Zero-based batch index within the run.
    pub index: usize,
    /// Simulation time at the end of the batch window.
    pub now: f64,
    /// Requests released during this batch window, in dispatch order.
    pub requests: Vec<Request>,
    /// Fleet state after movement, immediately before the dispatch call.
    pub fleet_before: Vec<VehicleState>,
    /// Request ids the dispatcher assigned in this batch.
    pub assigned: Vec<RequestId>,
    /// Fleet state immediately after the dispatch call.
    pub fleet_after: Vec<VehicleState>,
    /// Scratch-counter snapshot after the dispatch call.
    pub scratch: ScratchStats,
}

/// Run-level metadata stored alongside the recorded batches.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Trace format version (3 or 4).  Set from the header on parse, so a
    /// parsed trace re-serializes in the format it was read in;
    /// [`TraceMeta::new`] stamps the current version.
    pub version: u32,
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
    /// Shortest-path engine counters at the end of the recording
    /// (informational: query *counts* are excluded from the drift diff, see
    /// the module docs).
    pub sp_stats: Option<SpStats>,
    /// Shareability-graph build counters at the end of the recording, when
    /// the recorded dispatcher exposes them (SARD).
    pub build_stats: Option<BuildStats>,
}

impl Default for TraceMeta {
    fn default() -> Self {
        TraceMeta {
            version: TRACE_VERSION,
            algorithm: String::new(),
            workload: String::new(),
            config: StructRideConfig::default(),
            params: Vec::new(),
            sp_stats: None,
            build_stats: None,
        }
    }
}

impl TraceMeta {
    /// Creates metadata for a run of `algorithm` on `workload`.
    pub fn new(
        algorithm: impl Into<String>,
        workload: impl Into<String>,
        config: StructRideConfig,
    ) -> Self {
        TraceMeta {
            version: TRACE_VERSION,
            algorithm: algorithm.into(),
            workload: workload.into(),
            config,
            params: Vec::new(),
            sp_stats: None,
            build_stats: None,
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
            fleet_before: fleet.iter().map(VehicleState::capture).collect(),
            assigned: Vec::new(),
            fleet_after: Vec::new(),
            scratch: ScratchStats::default(),
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
        record.fleet_after = fleet.iter().map(VehicleState::capture).collect();
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
    /// The recorded value, rendered for display.
    pub recorded: String,
    /// The replayed value, rendered for display.
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
                    "    {}: recorded {} != replayed {}",
                    delta.field, delta.recorded, delta.replayed
                )?;
            }
        }
        Ok(())
    }
}

fn fmt_ids(ids: &[RequestId]) -> String {
    let strs: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
    format!("[{}]", strs.join(","))
}

fn fmt_schedule(wps: &[Waypoint]) -> String {
    let strs: Vec<String> = wps.iter().map(waypoint_to_token).collect();
    format!("[{}]", strs.join(";"))
}

fn diff_vehicle(deltas: &mut Vec<FieldDelta>, recorded: &VehicleState, replayed: &VehicleState) {
    let prefix = format!("vehicle[{}]", recorded.id);
    let mut push = |field: &str, rec: String, rep: String| {
        deltas.push(FieldDelta {
            field: format!("{prefix}.{field}"),
            recorded: rec,
            replayed: rep,
        });
    };
    if recorded.id != replayed.id {
        push("id", recorded.id.to_string(), replayed.id.to_string());
    }
    if recorded.capacity != replayed.capacity {
        push(
            "capacity",
            recorded.capacity.to_string(),
            replayed.capacity.to_string(),
        );
    }
    if recorded.node != replayed.node {
        push("node", recorded.node.to_string(), replayed.node.to_string());
    }
    if recorded.free_at.to_bits() != replayed.free_at.to_bits() {
        push(
            "free_at",
            recorded.free_at.to_string(),
            replayed.free_at.to_string(),
        );
    }
    if recorded.onboard != replayed.onboard {
        push(
            "onboard",
            recorded.onboard.to_string(),
            replayed.onboard.to_string(),
        );
    }
    if recorded.executed_travel.to_bits() != replayed.executed_travel.to_bits() {
        push(
            "executed_travel",
            recorded.executed_travel.to_string(),
            replayed.executed_travel.to_string(),
        );
    }
    if recorded.assigned != replayed.assigned {
        push(
            "assigned",
            fmt_ids(&recorded.assigned),
            fmt_ids(&replayed.assigned),
        );
    }
    if recorded.completed != replayed.completed {
        push(
            "completed",
            fmt_ids(&recorded.completed),
            fmt_ids(&replayed.completed),
        );
    }
    if recorded.schedule != replayed.schedule {
        push(
            "schedule",
            fmt_schedule(&recorded.schedule),
            fmt_schedule(&replayed.schedule),
        );
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
        // vehicle positions (the grid granularity never changes which
        // vehicles survive), so it reproduces the recorded counters.
        let fleet = batch
            .fleet_before
            .iter()
            .map(VehicleState::restore)
            .collect();
        let config = trace.meta.config;
        let mut lane = Lane::new(engine, config, fleet);
        lane.score_memo = score_memo;
        let (outcome, scratch) =
            lane.dispatch(engine, dispatcher, batch.now, batch.index, &batch.requests);
        let fleet_after: Vec<VehicleState> =
            lane.vehicles.iter().map(VehicleState::capture).collect();
        score_memo = lane.score_memo;
        report.batches_compared += 1;

        let mut deltas = Vec::new();
        diff_outcome(&mut deltas, batch, &outcome.assigned, scratch, &fleet_after);
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

/// Diffs a replayed `(assigned, scratch, post-dispatch fleet)` outcome
/// against the `recorded` batch — the comparison [`replay_trace`] and
/// [`diff_traces`] share.
fn diff_outcome(
    deltas: &mut Vec<FieldDelta>,
    recorded: &BatchRecord,
    assigned: &[RequestId],
    scratch: ScratchStats,
    fleet_after: &[VehicleState],
) {
    if assigned != recorded.assigned {
        deltas.push(FieldDelta {
            field: "outcome.assigned".to_string(),
            recorded: fmt_ids(&recorded.assigned),
            replayed: fmt_ids(assigned),
        });
    }
    let mut counter = |name: &str, recorded: u64, replayed: u64| {
        if recorded != replayed {
            deltas.push(FieldDelta {
                field: format!("scratch.{name}"),
                recorded: recorded.to_string(),
                replayed: replayed.to_string(),
            });
        }
    };
    let (rec, rep) = (recorded.scratch, scratch);
    counter(
        "insertion_evaluations",
        rec.insertion_evaluations,
        rep.insertion_evaluations,
    );
    counter(
        "prescreen_pruned",
        rec.prescreen_pruned,
        rep.prescreen_pruned,
    );
    counter(
        "groups_enumerated",
        rec.groups_enumerated,
        rep.groups_enumerated,
    );
    diff_fleet(deltas, "fleet_after", &recorded.fleet_after, fleet_after);
}

fn diff_fleet(
    deltas: &mut Vec<FieldDelta>,
    label: &str,
    recorded: &[VehicleState],
    replayed: &[VehicleState],
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
            diff_vehicle(deltas, rec, rep);
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
        if rec.now.to_bits() != rep.now.to_bits() {
            deltas.push(FieldDelta {
                field: "batch.now".to_string(),
                recorded: rec.now.to_string(),
                replayed: rep.now.to_string(),
            });
        }
        if rec.requests != rep.requests {
            deltas.push(FieldDelta {
                field: "batch.requests".to_string(),
                recorded: fmt_ids(&rec.requests.iter().map(|r| r.id).collect::<Vec<_>>()),
                replayed: fmt_ids(&rep.requests.iter().map(|r| r.id).collect::<Vec<_>>()),
            });
        }
        diff_fleet(
            &mut deltas,
            "fleet_before",
            &rec.fleet_before,
            &rep.fleet_before,
        );
        diff_outcome(
            &mut deltas,
            rec,
            &rep.assigned,
            rep.scratch,
            &rep.fleet_after,
        );
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
// Text codec
// ---------------------------------------------------------------------------

/// Error parsing a trace from its text form.
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

fn waypoint_to_token(wp: &Waypoint) -> String {
    let kind = match wp.kind {
        WaypointKind::Pickup => 'P',
        WaypointKind::Dropoff => 'D',
    };
    format!(
        "{kind}:{}:{}:{}:{}:{}",
        wp.request, wp.node, wp.deadline, wp.earliest, wp.riders
    )
}

fn ids_to_token(ids: &[RequestId]) -> String {
    ids.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders the traffic profile as a single config token value:
/// `none`, `rush`, or `custom:<24 colon-joined hourly factors>`.
fn traffic_profile_token(profile: &TrafficProfile) -> String {
    match profile {
        TrafficProfile::None => "none".to_string(),
        TrafficProfile::Rush => "rush".to_string(),
        TrafficProfile::Custom(factors) => {
            let joined = factors
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(":");
            format!("custom:{joined}")
        }
    }
}

/// Renders the congestion zones as a single config token value: `-` when
/// there are none, else `;`-joined `minx,miny,maxx,maxy,factor,from,until`
/// tuples in slot order.
fn traffic_zones_token(config: &TrafficConfig) -> String {
    let zones: Vec<String> = config
        .zones()
        .map(|z| {
            format!(
                "{},{},{},{},{},{},{}",
                z.min_x, z.min_y, z.max_x, z.max_y, z.factor, z.active_from, z.active_until
            )
        })
        .collect();
    if zones.is_empty() {
        "-".to_string()
    } else {
        zones.join(";")
    }
}

fn vehicle_to_line(v: &VehicleState) -> String {
    let sched = v
        .schedule
        .iter()
        .map(waypoint_to_token)
        .collect::<Vec<_>>()
        .join(";");
    format!(
        "vehicle {} {} {} {} {} {} a={} c={} s={}",
        v.id,
        v.capacity,
        v.node,
        v.free_at,
        v.onboard,
        v.executed_travel,
        ids_to_token(&v.assigned),
        ids_to_token(&v.completed),
        sched
    )
}

/// Serializes a [`StructRideConfig`] to the `config ` line body shared by the
/// trace and checkpoint text formats.  The five fault tokens exist only at
/// v4, so re-serializing a parsed v3 trace stays byte-identical to its
/// original text.  Checkpoints always serialize at the current version (all
/// tokens).
fn config_to_tokens(c: &StructRideConfig, version: u32) -> String {
    let mut out = format!(
        "batch_period={} alpha={} penalty={} shareability_capacity={} \
         angle_enabled={} angle_threshold={} grid_cells={} max_candidate_vehicles={} \
         ingest_max_batch={} ingest_deadline={} ingest_queue={} ingest_time_scale={} \
         traffic_profile={} traffic_epoch_s={} traffic_hour_s={} traffic_zones={}",
        c.batch_period,
        c.cost.alpha,
        c.cost.penalty_coefficient,
        c.shareability_capacity,
        c.angle.enabled,
        c.angle.threshold,
        c.grid_cells,
        c.max_candidate_vehicles,
        c.ingest.max_batch_size,
        c.ingest.batch_deadline,
        c.ingest.queue_capacity,
        c.ingest.time_scale,
        traffic_profile_token(&c.traffic.profile),
        c.traffic.epoch_seconds,
        c.traffic.hour_scale,
        traffic_zones_token(&c.traffic)
    );
    if version >= 4 {
        out.push_str(&format!(
            " faults_seed={} faults_outage_every={} faults_outage_batches={} \
             faults_solver_budget={} faults_checkpoint_every={}",
            c.faults.seed,
            c.faults.outage_every,
            c.faults.outage_batches,
            c.faults.solver_node_budget,
            c.faults.checkpoint_every
        ));
    }
    out
}

impl Trace {
    /// Serializes the trace to its versioned text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let m = &self.meta;
        out.push_str(trace_header(m.version));
        out.push('\n');
        out.push_str(&format!("algorithm {}\n", m.algorithm));
        out.push_str(&format!("workload {}\n", m.workload));
        out.push_str(&format!(
            "config {}\n",
            config_to_tokens(&m.config, m.version)
        ));
        for (k, v) in &m.params {
            out.push_str(&format!("param {k} {v}\n"));
        }
        if let Some(s) = m.sp_stats {
            out.push_str(&format!(
                "sp_stats total={} hits={} index={}\n",
                s.total_queries, s.cache_hits, s.index_queries
            ));
        }
        if let Some(s) = m.build_stats {
            // BuildStats's Display is the trace rendering (single source of
            // truth shared with the replay binary's summary output).
            out.push_str(&format!("build_stats {s}\n"));
        }
        for b in &self.batches {
            out.push_str(&format!("batch {} now={}\n", b.index, b.now));
            for r in &b.requests {
                out.push_str(&request_to_line(r));
                out.push('\n');
            }
            out.push_str("fleet before\n");
            for v in &b.fleet_before {
                out.push_str(&vehicle_to_line(v));
                out.push('\n');
            }
            out.push_str(&format!(
                "outcome assigned={} insertion_evaluations={} groups_enumerated={} \
                 prescreen_pruned={}\n",
                ids_to_token(&b.assigned),
                b.scratch.insertion_evaluations,
                b.scratch.groups_enumerated,
                b.scratch.prescreen_pruned
            ));
            out.push_str("fleet after\n");
            for v in &b.fleet_after {
                out.push_str(&vehicle_to_line(v));
                out.push('\n');
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses a trace from its text form.
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        Parser::new(text).parse()
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

/// Magic first line of the checkpoint text format (see [`Checkpoint`]).
const CHECKPOINT_HEADER_V1: &str = "structride-checkpoint v1";

/// Run-level counters carried across a checkpoint boundary.  Monolithic runs
/// leave the sharded-only fields (handoffs, migrations, epoch/label rolls,
/// fault telemetry) at zero.
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
    /// Epoch rolls that rebuilt or repaired label state.
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

/// One shard's slice of a [`Checkpoint`] — or the entire state of a
/// monolithic run (which checkpoints as a single shard with empty `routed`
/// and `served` ledgers, since the monolithic simulator accounts globally).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardCheckpoint {
    /// Accumulated insertion-evaluation scratch counter.
    pub insertion_evaluations: u64,
    /// Accumulated group-enumeration scratch counter.
    pub groups_enumerated: u64,
    /// Accumulated certified-prescreen prune counter.
    pub prescreen_pruned: u64,
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
    pub fleet: Vec<VehicleState>,
    /// The shard dispatcher's carried pool and derived edges.
    pub pending: PendingSnapshot,
}

/// A full simulation snapshot at a batch boundary, handed to the
/// [`RunHooks::checkpoints`](crate::RunHooks) sink of
/// [`Simulator::run_with`](crate::Simulator::run_with) /
/// [`ShardedSimulator::run_with`](crate::ShardedSimulator::run_with)
/// whenever the fault plan's checkpoint cadence fires (see
/// [`FaultConfig::checkpoint_every`](crate::faults::FaultConfig)), and
/// consumed by the matching `resume` entry points.
///
/// The contract is **bit-identical resume**: a run restored from a
/// checkpoint must finish with exactly the decisions, served sets and
/// deterministic metrics of the uninterrupted run.  To that end the
/// checkpoint serializes every piece of decision-bearing state — clock,
/// stream cursor, fleets (floats in Rust's shortest round-trip form),
/// dispatcher pools *and* their derived shareability edges (edges are
/// epoch-dependent at evaluation time, so they must not be re-derived) —
/// while wall-clock diagnostics (dispatch seconds, shortest-path query
/// counts, memory estimates) are deliberately left out, exactly as replay
/// comparisons exclude them.
///
/// The *future* request stream is **not** serialized: resume requires the
/// caller to supply the same request slice as the original run (workloads
/// are deterministic generators), and `next_request` indexes into its
/// release-sorted order.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Dispatcher name (`RunMetrics::algorithm`).
    pub algorithm: String,
    /// Workload name the run was started with.
    pub workload: String,
    /// The framework configuration (includes the fault plan, so the resumed
    /// run re-derives the identical outage/budget/checkpoint schedule).
    pub config: StructRideConfig,
    /// Whether this snapshot came from the sharded driver.
    pub sharded: bool,
    /// Simulation clock at capture (the end of the last stepped batch).
    pub now: f64,
    /// Batches stepped so far == the index of the next batch to dispatch.
    pub batches: usize,
    /// Requests of the release-sorted stream already offered.
    pub next_request: usize,
    /// Globally served request ids, sorted.
    pub served: Vec<RequestId>,
    /// Run-level counters.
    pub counters: CheckpointCounters,
    /// Per-shard state (exactly one entry for monolithic runs).
    pub shards: Vec<ShardCheckpoint>,
}

fn routed_to_token(routed: &[(RequestId, f64)]) -> String {
    routed
        .iter()
        .map(|(id, cost)| format!("{id}:{cost}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn edges_to_token(edges: &[(RequestId, RequestId)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("{a}-{b}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn request_to_line(r: &Request) -> String {
    format!(
        "request {} {} {} {} {} {} {} {}",
        r.id,
        r.source,
        r.destination,
        r.riders,
        r.release,
        r.deadline,
        r.pickup_deadline,
        r.shortest_cost
    )
}

impl Checkpoint {
    /// Serializes the checkpoint to its line-oriented text form (floats in
    /// Rust's shortest round-trip representation, like traces).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_HEADER_V1);
        out.push('\n');
        out.push_str(&format!("algorithm {}\n", self.algorithm));
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!(
            "config {}\n",
            config_to_tokens(&self.config, TRACE_VERSION)
        ));
        out.push_str(&format!(
            "mode {}\n",
            if self.sharded { "sharded" } else { "mono" }
        ));
        out.push_str(&format!(
            "clock now={} batches={} next_request={}\n",
            self.now, self.batches, self.next_request
        ));
        out.push_str(&format!("served {}\n", ids_to_token(&self.served)));
        let c = &self.counters;
        out.push_str(&format!(
            "counters handoffs={} handoff_bids={} migrations={} epoch_rolls={} \
             labels_rescaled={} labels_rebuilt={} faults_injected={} batches_degraded={} \
             degraded_offered={} degraded_served={}\n",
            c.handoffs,
            c.handoff_bids,
            c.migrations,
            c.epoch_rolls,
            c.labels_rescaled,
            c.labels_rebuilt,
            c.faults_injected,
            c.batches_degraded,
            c.degraded_offered,
            c.degraded_served
        ));
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!("shard {i}\n"));
            out.push_str(&format!(
                "scratch insertion_evaluations={} groups_enumerated={} prescreen_pruned={} \
                 solver_fallbacks={}\n",
                s.insertion_evaluations,
                s.groups_enumerated,
                s.prescreen_pruned,
                s.solver_fallbacks
            ));
            out.push_str(&format!("routed {}\n", routed_to_token(&s.routed)));
            out.push_str(&format!("served {}\n", ids_to_token(&s.served)));
            out.push_str("fleet\n");
            for v in &s.fleet {
                out.push_str(&vehicle_to_line(v));
                out.push('\n');
            }
            out.push_str("pool\n");
            for r in &s.pending.pool {
                out.push_str(&request_to_line(r));
                out.push('\n');
            }
            out.push_str(&format!("edges {}\n", edges_to_token(&s.pending.edges)));
            out.push_str("end\n");
        }
        out
    }

    /// Parses a checkpoint from its text form.
    pub fn parse(text: &str) -> Result<Checkpoint, TraceParseError> {
        Parser::new(text).parse_checkpoint()
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

struct Parser<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().peekable(),
            line_no: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> TraceParseError {
        TraceParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Option<&'a str> {
        let line = self.lines.next();
        if line.is_some() {
            self.line_no += 1;
        }
        line
    }

    fn peek(&mut self) -> Option<&'a str> {
        self.lines.peek().copied()
    }

    fn parse_scalar<T: FromStr>(&self, token: &str, what: &str) -> Result<T, TraceParseError> {
        token
            .parse::<T>()
            .map_err(|_| self.err(format!("invalid {what}: {token:?}")))
    }

    /// Parses `key=value` out of a token, checking the key.
    fn parse_kv<T: FromStr>(&self, token: &str, key: &str) -> Result<T, TraceParseError> {
        let value = token
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected {key}=..., got {token:?}")))?;
        self.parse_scalar(value, key)
    }

    /// Parses the `traffic_profile=` token: `none`, `rush`, or
    /// `custom:<24 colon-joined hourly factors>`.
    fn parse_traffic_profile(&self, token: &str) -> Result<TrafficProfile, TraceParseError> {
        let value = token
            .strip_prefix("traffic_profile=")
            .ok_or_else(|| self.err(format!("expected traffic_profile=..., got {token:?}")))?;
        match value {
            "none" => Ok(TrafficProfile::None),
            "rush" => Ok(TrafficProfile::Rush),
            custom => {
                let factors = custom
                    .strip_prefix("custom:")
                    .ok_or_else(|| self.err(format!("unknown traffic profile {value:?}")))?;
                let parsed: Vec<f64> = factors
                    .split(':')
                    .map(|t| self.parse_scalar(t, "traffic profile factor"))
                    .collect::<Result<_, _>>()?;
                let hourly: [f64; 24] = parsed
                    .try_into()
                    .map_err(|_| self.err("custom traffic profile needs 24 factors"))?;
                Ok(TrafficProfile::Custom(hourly))
            }
        }
    }

    /// Parses the `traffic_zones=` token: `-` for none, else `;`-joined
    /// `minx,miny,maxx,maxy,factor,from,until` tuples.
    fn parse_traffic_zones(
        &self,
        token: &str,
    ) -> Result<[Option<CongestionZone>; MAX_TRAFFIC_ZONES], TraceParseError> {
        let value = token
            .strip_prefix("traffic_zones=")
            .ok_or_else(|| self.err(format!("expected traffic_zones=..., got {token:?}")))?;
        let mut zones: [Option<CongestionZone>; MAX_TRAFFIC_ZONES] = [None; MAX_TRAFFIC_ZONES];
        if value == "-" {
            return Ok(zones);
        }
        for (slot, tuple) in value.split(';').enumerate() {
            if slot >= MAX_TRAFFIC_ZONES {
                return Err(self.err(format!(
                    "at most {MAX_TRAFFIC_ZONES} congestion zones supported"
                )));
            }
            let parts: Vec<&str> = tuple.split(',').collect();
            if parts.len() != 7 {
                return Err(self.err(format!("malformed congestion zone {tuple:?}")));
            }
            zones[slot] = Some(CongestionZone {
                min_x: self.parse_scalar(parts[0], "zone min_x")?,
                min_y: self.parse_scalar(parts[1], "zone min_y")?,
                max_x: self.parse_scalar(parts[2], "zone max_x")?,
                max_y: self.parse_scalar(parts[3], "zone max_y")?,
                factor: self.parse_scalar(parts[4], "zone factor")?,
                active_from: self.parse_scalar(parts[5], "zone active_from")?,
                active_until: self.parse_scalar(parts[6], "zone active_until")?,
            });
        }
        Ok(zones)
    }

    fn parse_ids(&self, token: &str) -> Result<Vec<RequestId>, TraceParseError> {
        if token.is_empty() {
            return Ok(Vec::new());
        }
        token
            .split(',')
            .map(|t| self.parse_scalar(t, "request id"))
            .collect()
    }

    fn parse_waypoint(&self, token: &str) -> Result<Waypoint, TraceParseError> {
        let parts: Vec<&str> = token.split(':').collect();
        if parts.len() != 6 {
            return Err(self.err(format!("malformed waypoint token {token:?}")));
        }
        let kind = match parts[0] {
            "P" => WaypointKind::Pickup,
            "D" => WaypointKind::Dropoff,
            other => return Err(self.err(format!("unknown waypoint kind {other:?}"))),
        };
        Ok(Waypoint {
            request: self.parse_scalar(parts[1], "waypoint request")?,
            node: self.parse_scalar(parts[2], "waypoint node")?,
            kind,
            deadline: self.parse_scalar(parts[3], "waypoint deadline")?,
            earliest: self.parse_scalar(parts[4], "waypoint earliest")?,
            riders: self.parse_scalar(parts[5], "waypoint riders")?,
        })
    }

    fn parse_vehicle(&self, line: &str) -> Result<VehicleState, TraceParseError> {
        let rest = line
            .strip_prefix("vehicle ")
            .ok_or_else(|| self.err("expected a vehicle line"))?;
        let tokens: Vec<&str> = rest.split(' ').collect();
        if tokens.len() != 9 {
            return Err(self.err(format!("vehicle line needs 9 fields, got {}", tokens.len())));
        }
        let assigned = tokens[6]
            .strip_prefix("a=")
            .ok_or_else(|| self.err("expected a=<ids>"))?;
        let completed = tokens[7]
            .strip_prefix("c=")
            .ok_or_else(|| self.err("expected c=<ids>"))?;
        let sched = tokens[8]
            .strip_prefix("s=")
            .ok_or_else(|| self.err("expected s=<waypoints>"))?;
        let schedule = if sched.is_empty() {
            Vec::new()
        } else {
            sched
                .split(';')
                .map(|t| self.parse_waypoint(t))
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(VehicleState {
            id: self.parse_scalar(tokens[0], "vehicle id")?,
            capacity: self.parse_scalar(tokens[1], "vehicle capacity")?,
            node: self.parse_scalar(tokens[2], "vehicle node")?,
            free_at: self.parse_scalar(tokens[3], "vehicle free_at")?,
            onboard: self.parse_scalar(tokens[4], "vehicle onboard")?,
            executed_travel: self.parse_scalar(tokens[5], "vehicle executed_travel")?,
            assigned: self.parse_ids(assigned)?,
            completed: self.parse_ids(completed)?,
            schedule,
        })
    }

    /// Consumes the next line, which must be exactly `marker`.
    fn expect_marker(&mut self, marker: &str) -> Result<(), TraceParseError> {
        let line = self
            .next_line()
            .ok_or_else(|| self.err(format!("missing {marker:?} marker")))?;
        if line != marker {
            return Err(self.err(format!("expected {marker:?}, got {line:?}")));
        }
        Ok(())
    }

    /// Parses `marker` and the run of `vehicle ` lines below it.
    fn parse_fleet(&mut self, marker: &str) -> Result<Vec<VehicleState>, TraceParseError> {
        self.expect_marker(marker)?;
        let mut fleet = Vec::new();
        while let Some(line) = self.peek() {
            if !line.starts_with("vehicle ") {
                break;
            }
            let line = self.next_line().expect("peeked line exists");
            fleet.push(self.parse_vehicle(line)?);
        }
        Ok(fleet)
    }

    /// Parses the run of `request ` lines at the cursor — a trace batch's
    /// releases or a checkpoint shard's pool.
    fn parse_requests(&mut self) -> Result<Vec<Request>, TraceParseError> {
        let mut requests = Vec::new();
        while let Some(line) = self.peek() {
            let Some(rest) = line.strip_prefix("request ") else {
                break;
            };
            self.next_line();
            requests.push(self.parse_request(rest)?);
        }
        Ok(requests)
    }

    /// Parses a `request ` line body (8 space-separated fields).
    fn parse_request(&self, rest: &str) -> Result<Request, TraceParseError> {
        let tokens: Vec<&str> = rest.split(' ').collect();
        if tokens.len() != 8 {
            return Err(self.err("request line needs 8 fields"));
        }
        Ok(Request::new(
            self.parse_scalar(tokens[0], "request id")?,
            self.parse_scalar(tokens[1], "request source")?,
            self.parse_scalar(tokens[2], "request destination")?,
            self.parse_scalar(tokens[3], "request riders")?,
            self.parse_scalar(tokens[4], "request release")?,
            self.parse_scalar(tokens[5], "request deadline")?,
            self.parse_scalar(tokens[6], "request pickup_deadline")?,
            self.parse_scalar(tokens[7], "request shortest_cost")?,
        ))
    }

    /// Parses a `config ` line body of format `version` — shared by the
    /// trace and checkpoint formats (checkpoints are always at the current
    /// version).  The token count must be exactly the version's: a v3 line
    /// has no fault tokens and parses with the inert fault config.
    fn parse_config(&self, rest: &str, version: u32) -> Result<StructRideConfig, TraceParseError> {
        let tokens: Vec<&str> = rest.split(' ').collect();
        // v4 appends the five fault tokens to v3's sixteen.
        let expected = if version >= 4 { 21 } else { 16 };
        if tokens.len() != expected {
            return Err(self.err(format!(
                "a v{version} config line needs {expected} fields, got {}",
                tokens.len()
            )));
        }
        let ingest = crate::ingest::IngestConfig {
            max_batch_size: self.parse_kv(tokens[8], "ingest_max_batch")?,
            batch_deadline: self.parse_kv(tokens[9], "ingest_deadline")?,
            queue_capacity: self.parse_kv(tokens[10], "ingest_queue")?,
            time_scale: self.parse_kv(tokens[11], "ingest_time_scale")?,
        };
        let traffic = TrafficConfig {
            profile: self.parse_traffic_profile(tokens[12])?,
            epoch_seconds: self.parse_kv(tokens[13], "traffic_epoch_s")?,
            hour_scale: self.parse_kv(tokens[14], "traffic_hour_s")?,
            zones: self.parse_traffic_zones(tokens[15])?,
        };
        let faults = if version >= 4 {
            crate::faults::FaultConfig {
                seed: self.parse_kv(tokens[16], "faults_seed")?,
                outage_every: self.parse_kv(tokens[17], "faults_outage_every")?,
                outage_batches: self.parse_kv(tokens[18], "faults_outage_batches")?,
                solver_node_budget: self.parse_kv(tokens[19], "faults_solver_budget")?,
                checkpoint_every: self.parse_kv(tokens[20], "faults_checkpoint_every")?,
            }
        } else {
            crate::faults::FaultConfig::default()
        };
        Ok(StructRideConfig {
            batch_period: self.parse_kv(tokens[0], "batch_period")?,
            cost: structride_model::CostParams {
                alpha: self.parse_kv(tokens[1], "alpha")?,
                penalty_coefficient: self.parse_kv(tokens[2], "penalty")?,
            },
            shareability_capacity: self.parse_kv(tokens[3], "shareability_capacity")?,
            angle: structride_sharegraph::AnglePruning {
                enabled: self.parse_kv(tokens[4], "angle_enabled")?,
                threshold: self.parse_kv(tokens[5], "angle_threshold")?,
            },
            grid_cells: self.parse_kv(tokens[6], "grid_cells")?,
            max_candidate_vehicles: self.parse_kv(tokens[7], "max_candidate_vehicles")?,
            ingest,
            traffic,
            faults,
        })
    }

    fn parse(mut self) -> Result<Trace, TraceParseError> {
        let header = self.next_line().ok_or_else(|| self.err("empty trace"))?;
        let version = TRACE_VERSIONS
            .into_iter()
            .find(|&v| trace_header(v) == header)
            .ok_or_else(|| self.err(format!("unsupported trace header {header:?}")))?;
        let mut meta = TraceMeta {
            version,
            ..TraceMeta::default()
        };
        // Metadata lines, until the first `batch`.
        while let Some(line) = self.peek() {
            if line.starts_with("batch ") {
                break;
            }
            let line = self.next_line().expect("peeked line exists");
            if let Some(rest) = line.strip_prefix("algorithm ") {
                meta.algorithm = rest.to_string();
            } else if let Some(rest) = line.strip_prefix("workload ") {
                meta.workload = rest.to_string();
            } else if let Some(rest) = line.strip_prefix("config ") {
                meta.config = self.parse_config(rest, version)?;
            } else if let Some(rest) = line.strip_prefix("param ") {
                let (key, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| self.err("param line needs a key and a value"))?;
                meta.params.push((key.to_string(), value.to_string()));
            } else if let Some(rest) = line.strip_prefix("sp_stats ") {
                let tokens: Vec<&str> = rest.split(' ').collect();
                if tokens.len() != 3 {
                    return Err(self.err("sp_stats line needs 3 fields"));
                }
                meta.sp_stats = Some(SpStats {
                    total_queries: self.parse_kv(tokens[0], "total")?,
                    cache_hits: self.parse_kv(tokens[1], "hits")?,
                    index_queries: self.parse_kv(tokens[2], "index")?,
                });
            } else if let Some(rest) = line.strip_prefix("build_stats ") {
                let tokens: Vec<&str> = rest.split(' ').collect();
                if tokens.len() != 4 {
                    return Err(self.err("build_stats line needs 4 fields"));
                }
                meta.build_stats = Some(BuildStats {
                    candidate_pairs: self.parse_kv(tokens[0], "candidate_pairs")?,
                    angle_pruned: self.parse_kv(tokens[1], "angle_pruned")?,
                    shareability_checks: self.parse_kv(tokens[2], "shareability_checks")?,
                    edges_added: self.parse_kv(tokens[3], "edges_added")?,
                });
            } else if !line.trim().is_empty() {
                return Err(self.err(format!("unexpected metadata line {line:?}")));
            }
        }

        let mut batches = Vec::new();
        while let Some(line) = self.next_line() {
            if line.trim().is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("batch ")
                .ok_or_else(|| self.err(format!("expected a batch header, got {line:?}")))?;
            let (index_tok, now_tok) = rest
                .split_once(' ')
                .ok_or_else(|| self.err("batch header needs an index and now=..."))?;
            let index: usize = self.parse_scalar(index_tok, "batch index")?;
            let now: f64 = self.parse_kv(now_tok, "now")?;

            let requests = self.parse_requests()?;
            let fleet_before = self.parse_fleet("fleet before")?;

            let outcome_line = self
                .next_line()
                .ok_or_else(|| self.err("missing outcome line"))?;
            let rest = outcome_line.strip_prefix("outcome ").ok_or_else(|| {
                self.err(format!("expected an outcome line, got {outcome_line:?}"))
            })?;
            let tokens: Vec<&str> = rest.split(' ').collect();
            if tokens.len() != 4 {
                return Err(self.err("outcome line needs 4 fields"));
            }
            let assigned_tok = tokens[0]
                .strip_prefix("assigned=")
                .ok_or_else(|| self.err("expected assigned=<ids>"))?;
            let assigned = self.parse_ids(assigned_tok)?;
            let scratch = ScratchStats {
                insertion_evaluations: self.parse_kv(tokens[1], "insertion_evaluations")?,
                groups_enumerated: self.parse_kv(tokens[2], "groups_enumerated")?,
                prescreen_pruned: self.parse_kv(tokens[3], "prescreen_pruned")?,
            };

            let fleet_after = self.parse_fleet("fleet after")?;
            self.expect_marker("end")?;

            batches.push(BatchRecord {
                index,
                now,
                requests,
                fleet_before,
                assigned,
                fleet_after,
                scratch,
            });
        }

        Ok(Trace { meta, batches })
    }

    /// Consumes the next line, requiring prefix `what ` and returning the
    /// remainder; a bare `what` line (no payload) returns the empty string.
    fn expect_line(&mut self, what: &str) -> Result<&'a str, TraceParseError> {
        let line = self
            .next_line()
            .ok_or_else(|| self.err(format!("missing {what} line")))?;
        if line == what {
            return Ok("");
        }
        line.strip_prefix(what)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected a {what} line, got {line:?}")))
    }

    fn parse_routed(&self, token: &str) -> Result<Vec<(RequestId, f64)>, TraceParseError> {
        if token.is_empty() {
            return Ok(Vec::new());
        }
        token
            .split(';')
            .map(|t| {
                let (id, cost) = t
                    .split_once(':')
                    .ok_or_else(|| self.err("routed entry needs id:cost"))?;
                Ok((
                    self.parse_scalar(id, "routed id")?,
                    self.parse_scalar(cost, "routed cost")?,
                ))
            })
            .collect()
    }

    fn parse_edges(&self, token: &str) -> Result<Vec<(RequestId, RequestId)>, TraceParseError> {
        if token.is_empty() {
            return Ok(Vec::new());
        }
        token
            .split(';')
            .map(|t| {
                let (a, b) = t
                    .split_once('-')
                    .ok_or_else(|| self.err("edge entry needs a-b"))?;
                Ok((
                    self.parse_scalar(a, "edge endpoint")?,
                    self.parse_scalar(b, "edge endpoint")?,
                ))
            })
            .collect()
    }

    fn parse_checkpoint(mut self) -> Result<Checkpoint, TraceParseError> {
        let header = self
            .next_line()
            .ok_or_else(|| self.err("empty checkpoint"))?;
        if header != CHECKPOINT_HEADER_V1 {
            return Err(self.err(format!("unsupported checkpoint header {header:?}")));
        }
        let algorithm = self.expect_line("algorithm")?.to_string();
        let workload = self.expect_line("workload")?.to_string();
        let config_rest = self.expect_line("config")?;
        let config = self.parse_config(config_rest, TRACE_VERSION)?;
        let sharded = match self.expect_line("mode")? {
            "sharded" => true,
            "mono" => false,
            other => return Err(self.err(format!("unknown checkpoint mode {other:?}"))),
        };
        let clock: Vec<&str> = self.expect_line("clock")?.split(' ').collect();
        if clock.len() != 3 {
            return Err(self.err("clock line needs 3 fields"));
        }
        let now: f64 = self.parse_kv(clock[0], "now")?;
        let batches: usize = self.parse_kv(clock[1], "batches")?;
        let next_request: usize = self.parse_kv(clock[2], "next_request")?;
        let served_tok = self.expect_line("served")?;
        let served = self.parse_ids(served_tok)?;
        let counters: Vec<&str> = self.expect_line("counters")?.split(' ').collect();
        if counters.len() != 10 {
            return Err(self.err("counters line needs 10 fields"));
        }
        let counters = CheckpointCounters {
            handoffs: self.parse_kv(counters[0], "handoffs")?,
            handoff_bids: self.parse_kv(counters[1], "handoff_bids")?,
            migrations: self.parse_kv(counters[2], "migrations")?,
            epoch_rolls: self.parse_kv(counters[3], "epoch_rolls")?,
            labels_rescaled: self.parse_kv(counters[4], "labels_rescaled")?,
            labels_rebuilt: self.parse_kv(counters[5], "labels_rebuilt")?,
            faults_injected: self.parse_kv(counters[6], "faults_injected")?,
            batches_degraded: self.parse_kv(counters[7], "batches_degraded")?,
            degraded_offered: self.parse_kv(counters[8], "degraded_offered")?,
            degraded_served: self.parse_kv(counters[9], "degraded_served")?,
        };

        let mut shards = Vec::new();
        while let Some(line) = self.next_line() {
            if line.trim().is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("shard ")
                .ok_or_else(|| self.err(format!("expected a shard header, got {line:?}")))?;
            let index: usize = self.parse_scalar(rest, "shard index")?;
            if index != shards.len() {
                return Err(self.err(format!(
                    "shard sections must be in order: expected {}, got {index}",
                    shards.len()
                )));
            }
            let scratch: Vec<&str> = self.expect_line("scratch")?.split(' ').collect();
            if scratch.len() != 4 {
                return Err(self.err("scratch line needs 4 fields"));
            }
            let insertion_evaluations = self.parse_kv(scratch[0], "insertion_evaluations")?;
            let groups_enumerated = self.parse_kv(scratch[1], "groups_enumerated")?;
            let prescreen_pruned = self.parse_kv(scratch[2], "prescreen_pruned")?;
            let solver_fallbacks = self.parse_kv(scratch[3], "solver_fallbacks")?;
            let routed_tok = self.expect_line("routed")?;
            let routed = self.parse_routed(routed_tok)?;
            let served_tok = self.expect_line("served")?;
            let shard_served = self.parse_ids(served_tok)?;
            let fleet = self.parse_fleet("fleet")?;
            self.expect_marker("pool")?;
            let pool = self.parse_requests()?;
            let edges_tok = self.expect_line("edges")?;
            let edges = self.parse_edges(edges_tok)?;
            self.expect_marker("end")?;
            shards.push(ShardCheckpoint {
                insertion_evaluations,
                groups_enumerated,
                prescreen_pruned,
                solver_fallbacks,
                routed,
                served: shard_served,
                fleet,
                pending: PendingSnapshot { pool, edges },
            });
        }
        if shards.is_empty() {
            return Err(self.err("checkpoint needs at least one shard section"));
        }

        Ok(Checkpoint {
            algorithm,
            workload,
            config,
            sharded,
            now,
            batches,
            next_request,
            served,
            counters,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::testing::Greedy;
    use structride_model::insertion;
    use structride_roadnet::{Point, RoadNetworkBuilder};

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
            let (outcome, scratch) = lane.dispatch(&engine, &mut dispatcher, now, index, &batch);
            recorder.batch_finished(&outcome, &lane.vehicles, scratch);
        }
        let mut meta = TraceMeta::new("greedy", "unit-line", config);
        meta.params.push(("nodes".to_string(), "6".to_string()));
        meta.sp_stats = Some(engine.stats());
        (engine, recorder.into_trace(meta))
    }

    #[test]
    fn vehicle_state_roundtrips_through_capture_restore() {
        let engine = line_engine();
        let mut v = Vehicle::new(7, 0, 4);
        let r = req(1, 1, 3, 0.0, 20.0);
        let out = insertion::insert_request(&engine, &v, &r).unwrap();
        v.commit_schedule(out.schedule);
        v.advance_to(&engine, 15.0);
        let state = VehicleState::capture(&v);
        let restored = state.restore();
        assert_eq!(VehicleState::capture(&restored), state);
        assert_eq!(restored.schedule, v.schedule);
        assert_eq!(restored.free_at, v.free_at);
        assert_eq!(restored.onboard, v.onboard);
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

    #[test]
    fn checkpoint_text_roundtrips_exactly() {
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
        let ckpt = Checkpoint {
            algorithm: "SARD".into(),
            workload: "rush".into(),
            config: StructRideConfig::default().with_faults(faults),
            sharded: true,
            now: 25.0,
            batches: 5,
            next_request: 42,
            served: vec![1, 2, 7],
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
                    insertion_evaluations: 100,
                    groups_enumerated: 40,
                    prescreen_pruned: 8,
                    solver_fallbacks: 1,
                    routed: vec![(1, 1.5), (7, 0.30000000000000004)],
                    served: vec![1, 7],
                    fleet: vec![VehicleState::capture(&vehicle)],
                    pending: PendingSnapshot {
                        pool: vec![pool_req],
                        edges: vec![(11, 13)],
                    },
                },
                // An idle shard: every section empty.
                ShardCheckpoint::default(),
            ],
        };
        let text = ckpt.to_text();
        let parsed = Checkpoint::parse(&text).expect("parse checkpoint");
        assert_eq!(parsed, ckpt);
        // Serialization is stable: text -> checkpoint -> text is the identity.
        assert_eq!(parsed.to_text(), text);
        // The shared config tokens carry the fault plan through.
        assert_eq!(parsed.config.faults, faults);

        assert!(Checkpoint::parse("garbage").is_err());
        assert!(
            Checkpoint::parse(CHECKPOINT_HEADER_V1).is_err(),
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
    fn only_v3_and_v4_parse_and_the_header_fixes_the_line_shapes() {
        let (_engine, mut trace) = record_greedy();
        let v4_text = trace.to_text();
        trace.meta.version = 3;
        let v3_text = trace.to_text();

        // The two retired formats are refused by name, not half-read.
        for old in ["structride-trace v1", "structride-trace v2"] {
            let text = v4_text.replacen("structride-trace v4", old, 1);
            let err = Trace::parse(&text).expect_err("retired format");
            assert!(err.message.contains(old), "{err}");
            assert_eq!(err.line, 1);
        }

        // A header over the other version's config line is an error — not a
        // trace that silently drops (or invents) the fault plan and then
        // re-serializes to different bytes.
        let v3_config = v3_text.lines().nth(3).expect("config line");
        let v4_config = v4_text.lines().nth(3).expect("config line");
        assert!(v3_config.starts_with("config ") && v4_config.starts_with("config "));
        let err = Trace::parse(&v4_text.replacen(v4_config, v3_config, 1)).expect_err("v4 + v3");
        assert!(err.message.contains("v4 config line needs 21"), "{err}");
        let err = Trace::parse(&v3_text.replacen(v3_config, v4_config, 1)).expect_err("v3 + v4");
        assert!(err.message.contains("v3 config line needs 16"), "{err}");

        // Outcome lines always carry all three counters.
        let outcome = v4_text
            .lines()
            .find(|l| l.starts_with("outcome "))
            .expect("outcome line");
        let (three_tokens, _) = outcome.rsplit_once(' ').expect("four tokens");
        assert!(Trace::parse(&v4_text.replacen(outcome, three_tokens, 1)).is_err());
    }

    #[test]
    fn v3_traces_roundtrip_the_traffic_model() {
        let (_engine, mut trace) = record_greedy();
        // Render in the v3 format: the config line ends with the traffic
        // tokens, no fault tokens.
        trace.meta.version = 3;
        let text = trace.to_text();
        assert!(text.starts_with("structride-trace v3\n"), "{text}");
        assert!(
            text.contains(
                "traffic_profile=none traffic_epoch_s=3600 traffic_hour_s=3600 traffic_zones=-"
            ),
            "{text}"
        );
        assert!(!text.contains("faults_seed"), "{text}");
        let parsed = Trace::parse(&text).expect("parse v3 trace");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_text(), text);

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
    fn v4_traces_roundtrip_the_fault_config() {
        let (_engine, mut trace) = record_greedy();
        // Fresh recordings are v4: the fault tokens ride on the config line
        // so a faulted run's replay derives the identical injection schedule.
        assert_eq!(trace.meta.version, TRACE_VERSION);
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

        // Pre-fault (v3) traces parse with the inert config and re-serialize
        // byte-identically — the zero-drift guarantee for every trace
        // recorded before the fault injector existed.
        trace.meta.config.faults = crate::FaultConfig::default();
        trace.meta.version = 3;
        let v3_text = trace.to_text();
        let v3_parsed = Trace::parse(&v3_text).expect("parse v3 trace");
        assert!(v3_parsed.meta.config.faults.is_inert());
        assert_eq!(v3_parsed.to_text(), v3_text);
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
        let a = VehicleState {
            id: 1,
            capacity: 4,
            node: 0,
            free_at: 0.0,
            onboard: 0,
            executed_travel: 0.0,
            assigned: Vec::new(),
            completed: Vec::new(),
            schedule: Vec::new(),
        };
        let b = VehicleState {
            id: 2,
            capacity: 3,
            ..a.clone()
        };
        let mut deltas = Vec::new();
        diff_vehicle(&mut deltas, &a, &b);
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
    }

    #[test]
    fn meta_param_lookup() {
        let (_engine, trace) = record_greedy();
        assert_eq!(trace.meta.param("nodes"), Some("6"));
        assert_eq!(trace.meta.param("missing"), None);
    }
}
