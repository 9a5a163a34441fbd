//! Async ingest front end: wall-clock adaptive batching over a bounded
//! arrival queue.
//!
//! The batch simulator ([`crate::Simulator`]) owns a *simulated* clock: it
//! slices a pre-materialised request stream into fixed Δ-second windows, so
//! batch cadence is a constant of the configuration no matter how long the
//! dispatcher actually takes.  That hides exactly the behavior a production
//! dispatcher exhibits under heavy load — arrivals keep coming while a batch
//! is mid-dispatch, queues build, and the next batch is bigger because the
//! last one was slow.  This module supplies the missing arrival model:
//!
//! * a **producer thread** replays a timestamped request stream in wall
//!   clock (release times compressed by [`IngestConfig::time_scale`]) into a
//!   **bounded** channel ([`std::sync::mpsc::sync_channel`]); when the
//!   queue is full the arrival is load-shed and counted, never blocked — the
//!   arrival process does not slow down because the dispatcher is busy;
//! * an **adaptive batcher** ([`AdaptiveBatcher`]) that closes each batch on
//!   whichever comes first of a wall-clock deadline
//!   ([`IngestConfig::batch_deadline`]) after the batch opens or a size cap
//!   ([`IngestConfig::max_batch_size`]), then tops up to the cap from
//!   whatever queued while the previous dispatch ran.  Batch cadence
//!   therefore tracks *dispatcher latency*: a slow dispatch means a fuller
//!   queue means a bigger next batch, with the cap bounding the worst case;
//! * `drive_ingest`, the driver behind [`crate::BatchSource::Ingest`] on
//!   both pipelines: it steps the very run the Δ-clock steps (the one
//!   crate-private `ShardedRun`, through the same per-batch observer
//!   bracket) from realized batches instead of Δ-windows and reports
//!   [`IngestStats`] (sustained throughput, p50/p99 batch latency, queue
//!   depth, drop/timeout counts) next to the usual [`RunMetrics`].
//!
//! # Replay semantics
//!
//! Realized batch boundaries depend on wall-clock scheduling and are **not**
//! reproducible run to run.  The replay invariant (see [`crate::replay`]) is
//! preserved one level up: a recorded ingested run captures the *realized*
//! arrival/batch boundaries — each batch's requests and its assigned
//! simulated `now` — into the trace, and replay re-feeds those recorded
//! batches.  Given the same batches, dispatch is deterministic regardless of
//! worker count, so a recorded ingested trace replays bit-identically under
//! any thread count: [`crate::replay::replay_trace`] re-feeds a monolithic
//! trace, and either pipeline re-runs whole from the recorded boundaries
//! ([`crate::BatchSource::Fed`]) for `diff_traces` against the recording.
//! The simulated clock handed to dispatchers is derived from wall time
//! (`elapsed × time_scale`), clamped to be monotone and never behind the
//! latest release in the batch.

use crate::config::StructRideConfig;
use crate::lane::{Offered, MAX_BATCHES};
use crate::metrics::RunMetrics;
use crate::shard::ShardedRun;
use crate::simulator::Stepper;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};
use structride_model::{Request, RequestId, Vehicle};

/// Smallest simulated-clock step between consecutive batches, seconds.
/// Keeps `now` strictly monotone even when two batches close within the
/// same wall-clock instant.
const MIN_CLOCK_STEP: f64 = 1e-3;

/// Knobs of the ingest front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Size cap: a batch closes immediately once it holds this many
    /// requests.
    pub max_batch_size: usize,
    /// Wall-clock deadline in seconds, measured from the arrival that opens
    /// a batch; the batch closes when it expires even if under the cap.
    pub batch_deadline: f64,
    /// Capacity of the bounded arrival queue; arrivals finding it full are
    /// load-shed (counted in [`IngestStats::dropped_queue_full`]).
    pub queue_capacity: usize,
    /// Simulated seconds per wall-clock second: the compression factor at
    /// which the producer replays release times (e.g. `60.0` replays a
    /// 10-minute stream in 10 wall seconds).
    pub time_scale: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_batch_size: 64,
            batch_deadline: 0.02,
            queue_capacity: 1024,
            time_scale: 60.0,
        }
    }
}

/// Ingest-level statistics of one run, reported next to the usual
/// [`RunMetrics`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestStats {
    /// Requests emitted by the arrival stream.
    pub arrivals: usize,
    /// Requests actually handed to a dispatcher (arrivals minus queue drops
    /// and pre-dispatch timeouts).
    pub dispatched: usize,
    /// Arrivals load-shed because the bounded queue was full.
    pub dropped_queue_full: usize,
    /// Requests whose pickup deadline had already passed (in simulated time)
    /// when their batch closed — they never reach a dispatcher.
    pub timed_out: usize,
    /// Batches dispatched during the ingest phase (excludes the carried-over
    /// tail batches issued after the stream ends).
    pub batches: usize,
    /// Largest queue depth observed at a batch boundary.  A sample is
    /// arrivals queued minus arrivals taken out, so it never exceeds the true
    /// occupancy (nor [`IngestConfig::queue_capacity`]).
    pub max_queue_depth: usize,
    /// Mean queue depth over all batch boundaries.
    pub mean_queue_depth: f64,
    /// Mean number of requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Median wall-clock from batch open to dispatch complete, milliseconds.
    pub batch_latency_p50_ms: f64,
    /// 99th-percentile wall-clock from batch open to dispatch complete,
    /// milliseconds.
    pub batch_latency_p99_ms: f64,
    /// Median end-to-end request latency — scheduled arrival to pickup
    /// commitment (the batch whose dispatch assigned the request, which for
    /// pool-holding dispatchers like SARD can be several batches after
    /// arrival) — in wall milliseconds (simulated delay decompressed by
    /// [`IngestConfig::time_scale`]).
    pub e2e_latency_p50_ms: f64,
    /// 99th-percentile end-to-end request latency, wall milliseconds.
    pub e2e_latency_p99_ms: f64,
    /// Wall-clock of the ingest phase (first arrival awaited → stream
    /// drained), seconds.
    pub wall_seconds: f64,
    /// Dispatched requests per wall-clock second of the ingest phase.
    pub throughput_rps: f64,
}

/// Failure of an ingested run.
///
/// The dispatch pipeline itself is infallible once the stream flows; what
/// can fail is the **producer thread** replaying the arrival stream (an
/// arrivals iterator is arbitrary caller code).  A panic there used to
/// cascade — `join().expect(...)` re-panicked the consumer, taking the
/// whole run (and every sibling shard) down with a double panic.  It now
/// surfaces as a structured error the caller can report or recover from;
/// the batches dispatched before the panic are simply abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The producer thread panicked while replaying the arrival stream;
    /// carries the panic message when the payload was a string (the
    /// `panic!("...")` / `expect` cases).
    ProducerPanicked(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::ProducerPanicked(msg) => {
                write!(f, "ingest producer thread panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Renders a panic payload's message — the `&str` / `String` cases every
/// `panic!`/`expect` produces; anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The output of one ingested run on the monolithic pipeline.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Run-level metrics (totals count every arrival, including drops).
    pub metrics: RunMetrics,
    /// Final vehicle states (schedules fully executed).
    pub vehicles: Vec<Vehicle>,
    /// Requests assigned to some vehicle.
    pub served: HashSet<RequestId>,
    /// Ingest-level statistics.
    pub ingest: IngestStats,
}

/// Replays `arrivals` in compressed wall-clock into `tx`; runs on the
/// producer thread.  Load-sheds (never blocks) when the queue is full, so
/// the arrival process is independent of dispatcher latency, and bumps
/// `sent` after every arrival the queue accepted.  Returns every
/// arrival in emission order — enough to account for unserved/dropped
/// requests and to bound the carried-over tail — and the load-shed count.
fn produce<I: Iterator<Item = Request>>(
    arrivals: I,
    tx: SyncSender<Request>,
    sent: &AtomicUsize,
    start: Instant,
    time_scale: f64,
) -> (Offered, usize) {
    let time_scale = time_scale.max(1e-9);
    let mut offered = Offered::default();
    let mut dropped_queue_full = 0usize;
    for request in arrivals {
        let due = Duration::from_secs_f64((request.release / time_scale).max(0.0));
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        offered.push(&request);
        if tx.try_send(request).is_ok() {
            sent.fetch_add(1, Ordering::Relaxed);
        } else {
            dropped_queue_full += 1;
        }
    }
    (offered, dropped_queue_full)
}

/// Closes batches on a wall-clock deadline or a size cap, whichever first.
///
/// [`AdaptiveBatcher::next_batch`] blocks for the arrival that opens the
/// batch, then keeps admitting arrivals until the deadline (measured from
/// the opening arrival) expires or the cap is reached, and finally tops up
/// to the cap from whatever queued while the previous batch was dispatching
/// — the mechanism that makes batch size track dispatcher latency.
pub struct AdaptiveBatcher<'a> {
    rx: &'a Receiver<Request>,
    max_batch_size: usize,
    deadline: Duration,
    /// Arrivals taken out of the queue so far.
    taken: usize,
}

impl<'a> AdaptiveBatcher<'a> {
    /// Creates a batcher reading from `rx` with `config`'s cap and deadline.
    pub fn new(rx: &'a Receiver<Request>, config: &IngestConfig) -> Self {
        AdaptiveBatcher {
            rx,
            max_batch_size: config.max_batch_size.max(1),
            deadline: Duration::from_secs_f64(config.batch_deadline.max(0.0)),
            taken: 0,
        }
    }

    /// The next realized batch and the instant it opened, or `None` once the
    /// stream has ended and the queue is drained.
    pub fn next_batch(&mut self) -> Option<(Vec<Request>, Instant)> {
        // Block for the opening arrival; a disconnect with an empty buffer
        // means the stream is over.
        let first = self.rx.recv().ok()?;
        let opened = Instant::now();
        let mut batch = vec![first];
        while batch.len() < self.max_batch_size {
            let Some(remaining) = self.deadline.checked_sub(opened.elapsed()) else {
                break;
            };
            if remaining.is_zero() {
                break;
            }
            match self.rx.recv_timeout(remaining) {
                Ok(request) => batch.push(request),
                // Deadline expired or stream ended: close the batch either
                // way (a final partial batch still dispatches).
                Err(_) => break,
            }
        }
        // Top up to the cap without blocking: the backlog that accumulated
        // while the consumer was busy joins this batch instead of waiting a
        // full deadline in the queue.
        if batch.len() < self.max_batch_size {
            for request in self.rx.try_iter() {
                batch.push(request);
                if batch.len() >= self.max_batch_size {
                    break;
                }
            }
        }
        self.taken += batch.len();
        Some((batch, opened))
    }

    /// The queue depth given `sent` arrivals queued so far.  The producer
    /// counts an arrival only after queueing it, so the result never
    /// exceeds the true occupancy.
    fn queue_depth(&self, sent: usize) -> usize {
        sent.saturating_sub(self.taken)
    }
}

/// Maps wall-clock onto the monotone simulated clock of an ingested run.
struct IngestClock {
    start: Instant,
    time_scale: f64,
    now: f64,
}

impl IngestClock {
    fn new(start: Instant, time_scale: f64) -> Self {
        IngestClock {
            start,
            time_scale: time_scale.max(1e-9),
            now: 0.0,
        }
    }

    /// The simulated time assigned to a batch: wall-elapsed compressed by
    /// `time_scale`, never behind the latest release in the batch (a request
    /// cannot be dispatched before it exists in simulated time) and always
    /// strictly after the previous batch.
    fn advance_past(&mut self, batch: &[Request]) -> f64 {
        let wall_now = self.start.elapsed().as_secs_f64() * self.time_scale;
        let max_release = batch.iter().map(|r| r.release).fold(0.0_f64, f64::max);
        self.now = (self.now + MIN_CLOCK_STEP).max(wall_now).max(max_release);
        self.now
    }

    /// Advances the clock by `delta` simulated seconds (the carried-over
    /// tail, where no arrivals pace the clock any more).
    fn tick(&mut self, delta: f64) -> f64 {
        self.now += delta.max(MIN_CLOCK_STEP);
        self.now
    }
}

/// Sorts `samples` and returns a percentile closure over them
/// (nearest-rank on the sorted order; `0.0` when empty).  Total order, not
/// partial: a NaN that sneaks into the samples (a pathological clock, a
/// `0.0/0.0` somewhere upstream) sorts to the positive end instead of
/// panicking the whole run — the low/mid percentiles stay finite and only
/// the extreme ones surface the NaN.
fn sorted_percentiles(mut samples: Vec<f64>) -> impl Fn(f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    move |p: f64| -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            let idx = (p * (samples.len() - 1) as f64).round() as usize;
            samples[idx.min(samples.len() - 1)]
        }
    }
}

/// Accumulates the per-batch observations behind [`IngestStats`].
#[derive(Default)]
struct IngestCollector {
    latencies_ms: Vec<f64>,
    queue_depths: Vec<usize>,
    dispatched: usize,
    timed_out: usize,
    batches: usize,
    /// Release instant of every request handed to the pipeline, pending its
    /// pickup commitment (drained into `e2e_latencies_ms` on assignment).
    pending_releases: std::collections::HashMap<RequestId, f64>,
    /// End-to-end (arrival → pickup commitment) latencies, wall ms.
    e2e_latencies_ms: Vec<f64>,
}

impl IngestCollector {
    fn observe_batch(&mut self, dispatched: usize, latency_ms: f64, queue_depth: usize) {
        self.dispatched += dispatched;
        self.latencies_ms.push(latency_ms);
        self.queue_depths.push(queue_depth);
        self.batches += 1;
    }

    /// Registers the scheduled arrival of every request in a dispatched
    /// batch, so a later commitment can be timed against it.
    fn observe_releases(&mut self, batch: &[Request]) {
        for r in batch {
            self.pending_releases.insert(r.id, r.release);
        }
    }

    /// Times the pickup commitments of `assigned` against their recorded
    /// arrivals: the simulated delay `now - release`, decompressed by
    /// `time_scale` into wall milliseconds.  A pool-holding dispatcher may
    /// commit a request many batches after its arrival — exactly the delay
    /// this metric exists to surface.
    fn observe_assigned<'a>(
        &mut self,
        now: f64,
        assigned: impl Iterator<Item = &'a RequestId>,
        time_scale: f64,
    ) {
        let time_scale = time_scale.max(1e-9);
        for id in assigned {
            if let Some(release) = self.pending_releases.remove(id) {
                self.e2e_latencies_ms
                    .push((now - release).max(0.0) / time_scale * 1000.0);
            }
        }
    }

    fn finish(
        self,
        offered: &Offered,
        dropped_queue_full: usize,
        wall_seconds: f64,
    ) -> IngestStats {
        let percentile = sorted_percentiles(self.latencies_ms);
        let e2e = sorted_percentiles(self.e2e_latencies_ms);
        let mean_depth = if self.queue_depths.is_empty() {
            0.0
        } else {
            self.queue_depths.iter().sum::<usize>() as f64 / self.queue_depths.len() as f64
        };
        IngestStats {
            arrivals: offered.ledger.len(),
            dispatched: self.dispatched,
            dropped_queue_full,
            timed_out: self.timed_out,
            batches: self.batches,
            max_queue_depth: self.queue_depths.iter().copied().max().unwrap_or(0),
            mean_queue_depth: mean_depth,
            mean_batch_size: if self.batches == 0 {
                0.0
            } else {
                self.dispatched as f64 / self.batches as f64
            },
            batch_latency_p50_ms: percentile(0.50),
            batch_latency_p99_ms: percentile(0.99),
            e2e_latency_p50_ms: e2e(0.50),
            e2e_latency_p99_ms: e2e(0.99),
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                self.dispatched as f64 / wall_seconds
            } else {
                0.0
            },
        }
    }
}

/// Splits a closed batch into the requests still worth dispatching and the
/// count of those whose pickup deadline already passed in simulated time.
fn drop_expired(batch: Vec<Request>, now: f64) -> (Vec<Request>, usize) {
    let before = batch.len();
    let live: Vec<Request> = batch.into_iter().filter(|r| !r.is_expired(now)).collect();
    let expired = before - live.len();
    (live, expired)
}

/// The ingest front end: replays `arrivals` on a producer thread, closes
/// realized batches with the [`AdaptiveBatcher`], steps `run` once per
/// batch, and — once the stream ends — keeps stepping empty batches at the
/// Δ cadence while the run still holds carried-over requests.  The
/// monolithic pipeline's run is a one-shard `ShardedRun`, so both pipelines
/// share it; every batch goes through `stepper`, the observer bracket all
/// sources share.
pub(crate) fn drive_ingest(
    run: &mut ShardedRun<'_>,
    config: &StructRideConfig,
    arrivals: Box<dyn Iterator<Item = Request> + Send + '_>,
    stepper: &mut Stepper<'_>,
) -> Result<Offered, IngestError> {
    let icfg = config.ingest;
    let (tx, rx) = sync_channel::<Request>(icfg.queue_capacity.max(1));
    let sent = AtomicUsize::new(0);
    // The caller built the run (fleet index, shard engines, hub labels)
    // *before* the wall clock starts here: setup time must not consume the
    // arrival stream's deadline budget.
    let start = Instant::now();
    let mut clock = IngestClock::new(start, icfg.time_scale);
    let mut collector = IngestCollector::default();

    let (mut offered, dropped_queue_full) = std::thread::scope(|scope| {
        let sent = &sent;
        let producer = scope.spawn(move || produce(arrivals, tx, sent, start, icfg.time_scale));
        let mut batcher = AdaptiveBatcher::new(&rx, &icfg);
        while let Some((batch, opened)) = batcher.next_batch() {
            let now = clock.advance_past(&batch);
            let (live, expired) = drop_expired(batch, now);
            collector.timed_out += expired;
            collector.observe_releases(&live);
            let assigned = stepper.step(run, now, &live);
            collector.observe_assigned(now, assigned.iter(), icfg.time_scale);
            collector.observe_batch(
                live.len(),
                opened.elapsed().as_secs_f64() * 1000.0,
                batcher.queue_depth(sent.load(Ordering::Relaxed)),
            );
            if run.batches() > MAX_BATCHES {
                break;
            }
        }
        // A panicked producer drops `tx`, which ends the batcher loop
        // above; surface the panic as a structured error instead of
        // re-panicking the consumer.
        producer
            .join()
            .map_err(|payload| IngestError::ProducerPanicked(panic_message(payload.as_ref())))
    })?;
    let wall_seconds = start.elapsed().as_secs_f64();

    // The carried-over tail: the stream is over, but a dispatcher with a
    // working pool may still assign held requests.  No arrivals pace the
    // clock any more, so fall back to the configured Δ cadence, bounded
    // by the last pickup deadline (past it nothing can be assigned).
    let delta = config.batch_period.max(1e-3);
    while run.pending() > 0 && clock.now < offered.horizon_end && run.batches() <= MAX_BATCHES {
        let now = clock.tick(delta);
        let assigned = stepper.step(run, now, &[]);
        collector.observe_assigned(now, assigned.iter(), icfg.time_scale);
    }
    offered.ingest = Some(collector.finish(&offered, dropped_queue_full, wall_seconds));
    Ok(offered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// The ledger of `arrivals` unit-cost arrivals.
    fn offered_of(arrivals: u32) -> Offered {
        let mut offered = Offered::default();
        (0..arrivals).for_each(|i| offered.push(&req(i, 0.0)));
        offered
    }

    fn req(id: u32, release: f64) -> Request {
        // 1 rider, node 0 → 1, generous deadlines relative to release.
        Request::new(id, 0, 1, 1, release, release + 600.0, release + 300.0, 10.0)
    }

    #[test]
    fn batcher_closes_on_size_cap() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(req(i, 0.0)).unwrap();
        }
        drop(tx);
        let cfg = IngestConfig {
            max_batch_size: 4,
            batch_deadline: 60.0, // never the trigger here
            ..IngestConfig::default()
        };
        let mut batcher = AdaptiveBatcher::new(&rx, &cfg);
        let sizes: Vec<usize> = std::iter::from_fn(|| batcher.next_batch())
            .map(|(b, _)| b.len())
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn batcher_closes_on_deadline_with_partial_batch() {
        let (tx, rx) = channel();
        tx.send(req(0, 0.0)).unwrap();
        let cfg = IngestConfig {
            max_batch_size: 1000,
            batch_deadline: 0.01,
            ..IngestConfig::default()
        };
        let mut batcher = AdaptiveBatcher::new(&rx, &cfg);
        let (batch, opened) = batcher.next_batch().expect("one batch");
        assert_eq!(batch.len(), 1);
        // The deadline, not the sender disconnect, closed this batch.
        assert!(opened.elapsed().as_secs_f64() >= 0.01);
        drop(tx);
        assert!(batcher.next_batch().is_none());
    }

    #[test]
    fn batcher_tops_up_backlog_after_slow_consumer() {
        let (tx, rx) = channel();
        for i in 0..6 {
            tx.send(req(i, 0.0)).unwrap();
        }
        drop(tx);
        let cfg = IngestConfig {
            max_batch_size: 8,
            batch_deadline: 0.0, // deadline already expired at open
            ..IngestConfig::default()
        };
        let mut batcher = AdaptiveBatcher::new(&rx, &cfg);
        // Even with a zero deadline the queued backlog joins the batch.
        let (batch, _) = batcher.next_batch().expect("one batch");
        assert_eq!(batch.len(), 6);
        assert!(batcher.next_batch().is_none());
    }

    #[test]
    fn clock_is_monotone_and_never_behind_releases() {
        let mut clock = IngestClock::new(Instant::now(), 1000.0);
        let b1 = [req(0, 5.0), req(1, 12.0)];
        let t1 = clock.advance_past(&b1);
        assert!(t1 >= 12.0);
        let t2 = clock.advance_past(&[req(2, 1.0)]);
        assert!(t2 > t1);
        let t3 = clock.tick(5.0);
        assert!((t3 - t2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn drop_expired_counts_and_keeps_order() {
        let batch = vec![req(0, 0.0), req(1, 100.0), req(2, 1.0)];
        // now = 400: ids 0 and 2 (pickup deadlines 300/301) expired.
        let (live, expired) = drop_expired(batch, 350.0);
        assert_eq!(expired, 2);
        assert_eq!(live.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn collector_percentiles_and_means() {
        let mut c = IngestCollector::default();
        for i in 0..100 {
            c.observe_batch(2, (i + 1) as f64, i % 7);
        }
        c.timed_out = 3;
        let stats = c.finish(&offered_of(210), 4, 2.0);
        assert_eq!(stats.arrivals, 210);
        assert_eq!(stats.dispatched, 200);
        assert_eq!(stats.dropped_queue_full, 4);
        assert_eq!(stats.timed_out, 3);
        assert_eq!(stats.batches, 100);
        assert_eq!(stats.mean_batch_size, 2.0);
        assert_eq!(stats.max_queue_depth, 6);
        // Index round(0.5 * 99) = 50 into the sorted 1..=100 samples.
        assert_eq!(stats.batch_latency_p50_ms, 51.0);
        assert_eq!(stats.batch_latency_p99_ms, 99.0);
        assert_eq!(stats.throughput_rps, 100.0);
    }

    #[test]
    fn e2e_latency_tracks_arrival_to_commitment() {
        let mut c = IngestCollector::default();
        // Simulated delays of 10/20/40 s at time_scale 2 decompress to
        // 5000/10000/20000 wall ms.
        c.observe_releases(&[req(1, 100.0), req(2, 100.0), req(3, 100.0)]);
        c.observe_assigned(110.0, [1u32].iter(), 2.0);
        c.observe_assigned(120.0, [2u32].iter(), 2.0);
        // id 3 committed batches later; id 99 never offered (ignored).
        c.observe_assigned(140.0, [3u32, 99].iter(), 2.0);
        let stats = c.finish(&offered_of(3), 0, 1.0);
        assert_eq!(stats.e2e_latency_p50_ms, 10000.0);
        assert_eq!(stats.e2e_latency_p99_ms, 20000.0);
    }

    #[test]
    fn percentiles_tolerate_nan_samples() {
        // Regression: the percentile sort used `partial_cmp(..).expect(..)`
        // and panicked the whole run on a single NaN sample.  total_cmp
        // sorts NaN to the positive end instead: the low/mid percentiles
        // stay finite and only the extreme ones surface the NaN.
        let p = sorted_percentiles(vec![4.0, f64::NAN, 1.0, 2.0, 3.0]);
        assert_eq!(p(0.0), 1.0);
        assert_eq!(p(0.5), 3.0);
        assert!(p(1.0).is_nan());
        // All-NaN input still answers (with NaN) rather than panicking.
        let p = sorted_percentiles(vec![f64::NAN]);
        assert!(p(0.5).is_nan());
    }

    #[test]
    fn empty_collector_finishes_cleanly() {
        let stats = IngestCollector::default().finish(&offered_of(0), 0, 0.0);
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.batch_latency_p50_ms, 0.0);
        assert_eq!(stats.throughput_rps, 0.0);
    }
}
