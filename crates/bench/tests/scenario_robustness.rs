//! `Scenario::from_meta` never panics on damaged `param` lines.
//!
//! Each of the five golden traces under `tests/data/` has its `param` block
//! cut after every line and hit with 300 deterministic single-byte ASCII
//! substitutions.  Only the trace's head (everything before the first batch)
//! is parsed, since a scenario reads nothing else.  Every damaged head the
//! trace parser accepts must give `Ok` or a `ScenarioError` that names a
//! key: a `Missing` key the metadata lacks, or an `Unknown`, `Duplicate` or
//! `BadValue` key it carries.  Heads the trace parser rejects are covered by
//! `structride-core`'s `parser_robustness` test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use structride_bench::scenario::{Scenario, ScenarioError};
use structride_core::{Trace, TraceMeta};

const GOLDENS: [&str; 5] = [
    "loop_sard_rush.trace",
    "pre_faults_assign.trace",
    "pre_faults_rtv_rush.trace",
    "pre_faults_sard.trace",
    "pre_faults_sharded_rush.trace",
];

/// Single-byte substitutions per file.
const SUBSTITUTIONS: usize = 300;

/// A deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Whether `err` names a key: one `meta` lacks for `Missing`, one it carries
/// otherwise.
fn names_a_key(meta: &TraceMeta, err: &ScenarioError) -> bool {
    let carried = |key: &str| meta.params.iter().any(|(k, _)| k == key);
    match err {
        ScenarioError::Missing(key) => !carried(key),
        ScenarioError::Unknown(key)
        | ScenarioError::Duplicate(key)
        | ScenarioError::BadValue(key, _) => carried(key),
    }
}

/// Outcomes over every damaged head.
#[derive(Default)]
struct Tally {
    read: usize,
    named: usize,
    unparsed: usize,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, label: String, head: &str) {
        let Ok(trace) = Trace::parse(head) else {
            self.unparsed += 1;
            return;
        };
        match catch_unwind(AssertUnwindSafe(|| Scenario::from_meta(&trace.meta))) {
            Err(_) => self.failures.push(format!("{label}: from_meta panicked")),
            Ok(Ok(_)) => self.read += 1,
            Ok(Err(err)) if names_a_key(&trace.meta, &err) => self.named += 1,
            Ok(Err(err)) => self
                .failures
                .push(format!("{label}: `{err}` names no key of the metadata")),
        }
    }
}

#[test]
fn damaged_param_blocks_read_or_name_a_key_without_panicking() {
    let mut tally = Tally::default();
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for file in GOLDENS {
        let path = format!("{}/tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("golden trace file exists");
        let head = &text[..text.find("\nbatch ").map_or(text.len(), |i| i + 1)];
        let meta = Trace::parse(head).expect("the golden's head parses").meta;
        assert!(
            Scenario::from_meta(&meta).is_ok(),
            "{file}: its params read"
        );
        // Byte ranges of the `param` lines, newline included.
        let mut params = Vec::new();
        let mut start = 0;
        for line in head.split_inclusive('\n') {
            if line.starts_with("param ") {
                params.push(start..start + line.len());
            }
            start += line.len();
        }
        let first = params.first().expect("the golden has params").start;
        let last = params.last().expect("the golden has params").end;

        tally.check(format!("{file} cut before its params"), &head[..first]);
        for (n, line) in params.iter().enumerate() {
            let label = format!("{file} cut after param line {}", n + 1);
            tally.check(label, &head[..line.end]);
        }
        for _ in 0..SUBSTITUTIONS {
            let at = first + rng.below(last - first);
            // Printable ASCII plus the newline, so line structure breaks too.
            let byte = match rng.below(96) {
                95 => b'\n',
                b => b' ' + b as u8,
            };
            let mut damaged = head.as_bytes().to_vec();
            damaged[at] = byte;
            let damaged = String::from_utf8(damaged).expect("ASCII substitution keeps UTF-8");
            tally.check(format!("{file} byte {at} -> {byte:?}"), &damaged);
        }
    }
    assert!(tally.failures.is_empty(), "{}", tally.failures.join("\n"));
    // Both sides of the contract were exercised.
    assert!(
        tally.read > 0 && tally.named > 0,
        "read {} named {} unparsed {}",
        tally.read,
        tally.named,
        tally.unparsed
    );
}
