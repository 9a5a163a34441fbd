//! In-memory spans recorded by the benchmark's own files around calls into
//! each layer (the program under test carries no spans yet), the self-time
//! rule — a span's duration minus the *union* of its children, so parallel
//! per-shard dispatch spans are not double-subtracted — and the detection of
//! batch boundaries from interleaved per-shard dispatch stamps.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.  Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Free-form numeric attributes recorded at the same boundary (shard,
    /// batch index, batch clock, counters).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list with one clock origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's origin to `t` (0 for earlier instants).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends a finished span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
        attrs: Vec<(String, f64)>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs,
        });
        id
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        span.duration_ns() - union_ns(&children, span.start_ns, span.end_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("id".to_string(), Json::Num(s.id as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name".to_string(), Json::str(&s.name)),
                        ("start_us".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                        ("end_us".to_string(), Json::Num(s.end_ns as f64 / 1e3)),
                    ];
                    pairs.extend(s.attrs.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
/// Overlapping intervals (parallel shards) count once.
pub fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The start of every batch, from `(batch clock, dispatch entry)` stamps of
/// any number of shards in any order: stamps sharing a clock belong to one
/// batch, whose start is the earliest entry among them.  Returned ascending
/// by start; the batch interval is the difference of consecutive starts.
pub fn batch_starts(stamps: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let mut by_clock: Vec<(u64, u64)> = stamps
        .iter()
        .map(|&(now, entry)| (now.to_bits(), entry))
        .collect();
    // Positive finite clocks order the same by bits as by value.
    by_clock.sort_unstable();
    by_clock.dedup_by_key(|&mut (bits, _)| bits);
    let mut starts: Vec<(f64, u64)> = by_clock
        .into_iter()
        .map(|(bits, entry)| (f64::from_bits(bits), entry))
        .collect();
    starts.sort_by_key(|&(_, entry)| entry);
    starts
}

/// Intervals between consecutive batch starts, milliseconds.
pub fn batch_intervals_ms(starts: &[(f64, u64)]) -> Vec<f64> {
    starts
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(Option<usize>, u64, u64)]) -> SpanLog {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        for &(parent, s, e) in spans {
            log.push(
                parent,
                "s",
                origin + Duration::from_nanos(s),
                origin + Duration::from_nanos(e),
                Vec::new(),
            );
        }
        log
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; three shards dispatch in parallel over 10..40,
        // 20..50 and 45..60, then a sequential child over 70..80.  Union =
        // 10..60 + 70..80 = 60, not the 95 a plain sum would subtract.
        let log = log_with(&[
            (None, 0, 100),
            (Some(0), 10, 40),
            (Some(0), 20, 50),
            (Some(0), 45, 60),
            (Some(0), 70, 80),
            // A grandchild must not be subtracted from the root.
            (Some(1), 12, 38),
        ]);
        assert_eq!(log.self_ns(0), 40);
        assert_eq!(log.self_ns(1), 4);
        assert_eq!(log.self_ns(4), 10);
    }

    #[test]
    fn union_clips_to_the_parent_interval() {
        assert_eq!(union_ns(&[(0, 50), (40, 200)], 10, 100), 90);
        assert_eq!(union_ns(&[(5, 5), (300, 400)], 10, 100), 0);
        assert_eq!(union_ns(&[], 0, 10), 0);
        // A child fully inside another adds nothing.
        assert_eq!(union_ns(&[(10, 90), (20, 30)], 0, 100), 80);
    }

    #[test]
    fn batch_boundaries_from_interleaved_shard_stamps() {
        // Three shards, three batches; shard order differs per batch and the
        // stamps arrive shuffled.
        let stamps = [
            (10.0, 2_100),
            (5.0, 1_000),
            (15.0, 3_050),
            (5.0, 1_020),
            (10.0, 2_000),
            (5.0, 1_010),
            (15.0, 3_000),
            (10.0, 2_050),
            (15.0, 3_100),
        ];
        let starts = batch_starts(&stamps);
        assert_eq!(starts, vec![(5.0, 1_000), (10.0, 2_000), (15.0, 3_000)]);
        assert_eq!(batch_intervals_ms(&starts), vec![0.001, 0.001]);
        // One monolithic dispatcher is the degenerate case.
        assert_eq!(batch_starts(&[(5.0, 7)]), vec![(5.0, 7)]);
        assert!(batch_intervals_ms(&batch_starts(&[(5.0, 7)])).is_empty());
    }
}
