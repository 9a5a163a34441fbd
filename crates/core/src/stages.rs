//! In-situ stage spans: where one batch's time goes, measured inside the run.
//!
//! Attach a [`RunObserver`] through [`RunHooks::observer`](crate::RunHooks)
//! and a clock-driven run reports, for every batch, the time each [`Stage`]
//! took and the batch's wall time.  Two kinds of stage are reported:
//!
//! * **Top-level stages** ([`Stage::parent`] is `None`) are wall time on the
//!   batch's control thread: the epoch roll, the advance sweep, trace
//!   recording, routing, dispatch and rebalancing.  They are one timeline
//!   (each ends at the instant the next one begins, from the batch's first
//!   clock read to its wall read), so they sum to the batch wall exactly.
//! * **Nested stages** belong to [`Stage::Dispatch`] and run on the worker
//!   pool: the four columns of a scoring pass,
//!   [`DispatchContext::score_pool`](crate::DispatchContext::score_pool),
//!   the three phases of the shareability-graph build, SARD's per-vehicle
//!   grouping and the exact assignment's LAP solve.  Each worker adds the
//!   time it spent, so a nested stage is CPU time summed over workers and
//!   can exceed its parent's wall.
//!
//! With no observer attached no clock is read: each span is one `Option`
//! test, and the run is the plain run.  Spans only read the clock, so an
//! observed run decides bit-identically to an unobserved one.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One timed stage of a batch.  See the module docs for the two kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The traffic-epoch roll: a uniform roll rescales the answers; a zoned
    /// roll fetches its memoized labels, or builds them once.
    Roll,
    /// The batch's fault plan, the fleet's advance sweep and fleet-index
    /// sync.
    Advance,
    /// Trace recording around dispatch (fleet snapshots, outcomes).
    Record,
    /// Sharded runs: outage failover and routing (home region or handoff).
    Route,
    /// The dispatcher call, the post-dispatch index sync and memo eviction,
    /// and the shard-order merge of the outcomes.
    Dispatch,
    /// Sharded runs: idle-vehicle migration between shards.
    Rebalance,
    /// Candidate prescreen: the fleet index's dense scan with the landmark
    /// pickup screen fused in.
    Prescreen,
    /// The score memo: a scoring pass's fleet validation and merge of new
    /// scores, and the lookups of the prescreen's survivors.
    MemoLookup,
    /// The exact pickup-cost `many_to_many` pass over memo misses.
    ManyToMany,
    /// The scoring loop: reach checks and `insert_request`.
    InsertLoop,
    /// Shareability graph: request registration and the cheap prefilters.
    GraphPrefilter,
    /// Shareability graph: the exact pairwise checks.
    GraphChecks,
    /// Shareability graph: inserting the discovered edges.
    GraphInsert,
    /// SARD's acceptance rounds: per-vehicle group enumeration and choice.
    Grouping,
    /// The exact assignment's per-round LAP solve (or greedy incumbent).
    Lap,
}

impl Stage {
    /// Every stage, top-level stages first, in report (declaration) order.
    pub const ALL: [Stage; 15] = [
        Stage::Roll,
        Stage::Advance,
        Stage::Record,
        Stage::Route,
        Stage::Dispatch,
        Stage::Rebalance,
        Stage::Prescreen,
        Stage::MemoLookup,
        Stage::ManyToMany,
        Stage::InsertLoop,
        Stage::GraphPrefilter,
        Stage::GraphChecks,
        Stage::GraphInsert,
        Stage::Grouping,
        Stage::Lap,
    ];

    /// The stage's column name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Roll => "roll",
            Stage::Advance => "advance",
            Stage::Record => "record",
            Stage::Route => "route",
            Stage::Dispatch => "dispatch",
            Stage::Rebalance => "rebalance",
            Stage::Prescreen => "prescreen",
            Stage::MemoLookup => "memo_lookup",
            Stage::ManyToMany => "many_to_many",
            Stage::InsertLoop => "insert_loop",
            Stage::GraphPrefilter => "graph_prefilter",
            Stage::GraphChecks => "graph_checks",
            Stage::GraphInsert => "graph_insert",
            Stage::Grouping => "grouping",
            Stage::Lap => "lap",
        }
    }

    /// The stage this one runs inside: `None` for top-level stages (wall
    /// time), [`Stage::Dispatch`] for nested ones (CPU summed over workers).
    pub fn parent(self) -> Option<Stage> {
        match self {
            Stage::Roll
            | Stage::Advance
            | Stage::Record
            | Stage::Route
            | Stage::Dispatch
            | Stage::Rebalance => None,
            _ => Some(Stage::Dispatch),
        }
    }

    /// The stage's index in [`Stage::ALL`].
    fn slot(self) -> usize {
        self as usize
    }
}

/// Receives a clock-driven run's stage spans, batch by batch.  Every method
/// defaults to doing nothing.  The calls come from the batch control
/// thread, in the order `on_batch_start`, `on_stage` once per [`Stage`] in
/// [`Stage::ALL`] order, `on_batch_end`; `on_finish` follows the last batch.
pub trait RunObserver {
    /// Batch `batch` starts at simulated time `now`.
    fn on_batch_start(&mut self, batch: usize, now: f64) {
        let _ = (batch, now);
    }

    /// `stage` took `nanos` in the batch that is ending (zero when it did
    /// not run).
    fn on_stage(&mut self, stage: Stage, nanos: u64) {
        let _ = (stage, nanos);
    }

    /// Batch `batch` ended after `wall_nanos` of wall time.
    fn on_batch_end(&mut self, batch: usize, wall_nanos: u64) {
        let _ = (batch, wall_nanos);
    }

    /// The run issued its last batch.
    fn on_finish(&mut self) {}
}

/// Per-stage nanosecond accumulators for the batch in flight, shared with
/// the worker pool (atomics; `Sync`).
#[derive(Debug, Default)]
pub struct StageClock {
    nanos: [AtomicU64; Stage::ALL.len()],
}

impl StageClock {
    /// Books `elapsed` to `stage`.
    pub(crate) fn add(&self, stage: Stage, elapsed: Duration) {
        self.nanos[stage.slot()].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A batch's top-level stages as one timeline on the control thread, so they
/// split the batch wall by construction: each stage ends at the instant the
/// next begins.  Inert (no clock read) without a clock.
pub(crate) struct Timeline<'c>(Option<(&'c StageClock, Instant, Stage, Instant)>);

impl<'c> Timeline<'c> {
    /// Starts a batch on `clock`, if any, in [`Stage::Roll`].
    pub(crate) fn start(clock: Option<&'c StageClock>) -> Self {
        Timeline(clock.map(|clock| {
            let t0 = Instant::now();
            (clock, t0, Stage::Roll, t0)
        }))
    }

    /// The clock the batch's nested spans book to.
    pub(crate) fn clock(&self) -> Option<&'c StageClock> {
        self.0.map(|(clock, ..)| clock)
    }

    /// Ends the open stage now and opens `stage` at the same instant.
    pub(crate) fn enter(&mut self, stage: Stage) {
        if let Some((clock, _, open, since)) = &mut self.0 {
            let now = Instant::now();
            clock.add(*open, now - *since);
            (*open, *since) = (stage, now);
        }
    }

    /// Ends the batch at one clock read, which closes the open stage and ends
    /// the wall (so the observer's callbacks are not part of it), then
    /// reports and resets every stage, then the wall.
    pub(crate) fn report(self, observer: &mut dyn RunObserver, batch: usize) {
        let Some((clock, t0, open, since)) = self.0 else {
            return;
        };
        let end = Instant::now();
        clock.add(open, end - since);
        let wall_nanos = (end - t0).as_nanos() as u64;
        for (stage, nanos) in Stage::ALL.into_iter().zip(&clock.nanos) {
            observer.on_stage(stage, nanos.swap(0, Ordering::Relaxed));
        }
        observer.on_batch_end(batch, wall_nanos);
    }
}

/// An open span: books the time from [`Span::open`] to its drop to one
/// stage.  Inert (no clock read) when opened without a clock.
#[must_use = "a span measures until it is dropped"]
pub(crate) struct Span<'c>(Option<(&'c StageClock, Stage, Instant)>);

impl<'c> Span<'c> {
    /// Starts timing `stage` on `clock`, if there is one.
    pub(crate) fn open(clock: Option<&'c StageClock>, stage: Stage) -> Self {
        Span(clock.map(|clock| (clock, stage, Instant::now())))
    }

    /// Ends the span (the same as dropping it).
    pub(crate) fn close(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((clock, stage, t0)) = self.0 {
            clock.add(stage, t0.elapsed());
        }
    }
}

/// One batch's row of a [`StageTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Zero-based batch index.
    pub batch: usize,
    /// Simulated time of the batch.
    pub now: f64,
    /// Batch wall time in nanoseconds.
    pub wall_nanos: u64,
    /// Nanoseconds per stage, in [`Stage::ALL`] order.
    pub stage_nanos: [u64; Stage::ALL.len()],
}

/// A [`RunObserver`] that keeps every batch's row and renders them as a
/// tab-separated table (`replay record --stages FILE` writes it).
#[derive(Debug, Clone, Default)]
pub struct StageTable {
    /// The finished batches, in order.
    pub rows: Vec<StageRow>,
    open: Option<StageRow>,
}

impl StageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds summed over every batch: the wall, then each stage in
    /// [`Stage::ALL`] order.
    pub fn totals(&self) -> (u64, [u64; Stage::ALL.len()]) {
        let mut stages = [0u64; Stage::ALL.len()];
        let mut wall = 0;
        for row in &self.rows {
            wall += row.wall_nanos;
            for (total, nanos) in stages.iter_mut().zip(row.stage_nanos) {
                *total += nanos;
            }
        }
        (wall, stages)
    }

    /// The table as TSV: two `#` comment lines, a header, one line per
    /// batch and a `total` line, times in milliseconds.
    pub fn to_tsv(&self) -> String {
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let mut out = String::from(
            "# top-level stages (roll..rebalance): wall ms on the batch thread\n\
             # nested stages (prescreen..lap): CPU ms summed over workers, inside dispatch\n\
             batch\tnow\twall_ms",
        );
        for stage in Stage::ALL {
            let _ = write!(out, "\t{}_ms", stage.name());
        }
        out.push('\n');
        let mut line = |label: String, wall: u64, stages: &[u64]| {
            let _ = write!(out, "{label}\t{:.3}", ms(wall));
            for &nanos in stages {
                let _ = write!(out, "\t{:.3}", ms(nanos));
            }
            out.push('\n');
        };
        for row in &self.rows {
            line(
                format!("{}\t{}", row.batch, row.now),
                row.wall_nanos,
                &row.stage_nanos,
            );
        }
        let (wall, stages) = self.totals();
        line("total\t-".to_string(), wall, &stages);
        out
    }
}

impl RunObserver for StageTable {
    fn on_batch_start(&mut self, batch: usize, now: f64) {
        self.open = Some(StageRow {
            batch,
            now,
            wall_nanos: 0,
            stage_nanos: [0; Stage::ALL.len()],
        });
    }

    fn on_stage(&mut self, stage: Stage, nanos: u64) {
        if let Some(row) = self.open.as_mut() {
            row.stage_nanos[stage.slot()] = nanos;
        }
    }

    fn on_batch_end(&mut self, _batch: usize, wall_nanos: u64) {
        if let Some(mut row) = self.open.take() {
            row.wall_nanos = wall_nanos;
            self.rows.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_without_a_clock_is_inert_and_one_with_a_clock_books_its_stage() {
        Span::open(None, Stage::Roll).close();
        let clock = StageClock::default();
        let span = Span::open(Some(&clock), Stage::GraphChecks);
        std::thread::sleep(Duration::from_millis(2));
        span.close();
        let mut table = StageTable::new();
        table.on_batch_start(0, 5.0);
        Timeline::start(Some(&clock)).report(&mut table, 0);
        let row = &table.rows[0];
        for stage in Stage::ALL {
            let booked = row.stage_nanos[stage.slot()];
            assert_eq!(
                booked >= 2_000_000,
                stage == Stage::GraphChecks,
                "{stage:?}"
            );
        }
        // Reporting resets the clock: the next batch books its open stage only.
        table.on_batch_start(1, 10.0);
        Timeline::start(Some(&clock)).report(&mut table, 1);
        let row = &table.rows[1];
        assert_eq!(row.stage_nanos[Stage::Roll.slot()], row.wall_nanos);
        assert!(row.stage_nanos[1..].iter().all(|&n| n == 0));
    }

    #[test]
    fn the_table_renders_one_line_per_batch_plus_header_and_total() {
        let mut table = StageTable::new();
        for batch in 0..3 {
            table.on_batch_start(batch, batch as f64 * 5.0);
            table.on_stage(Stage::Dispatch, 1_000_000);
            table.on_batch_end(batch, 2_000_000);
        }
        let tsv = table.to_tsv();
        let lines: Vec<&str> = tsv.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 1 + 3 + 1);
        let columns = 3 + Stage::ALL.len();
        assert!(lines.iter().all(|l| l.split('\t').count() == columns));
        assert!(lines[4].starts_with("total\t-\t6.000\t"));
        assert_eq!(table.totals().1[Stage::Dispatch.slot()], 3_000_000);
        assert!(Stage::ALL
            .iter()
            .enumerate()
            .all(|(i, s)| s.slot() == i && s.parent().is_none() == (i < 6)));
    }
}
