//! The trace and checkpoint parsers never panic on damaged input.
//!
//! Each of the five golden traces under `crates/bench/tests/data/`, and a
//! checkpoint recorded here by a sharded run with a checkpoint cadence, is
//! fed to its parser three ways: cut at every line boundary of its first 300
//! lines, cut mid-token at a deterministic sample of byte offsets in the
//! same span, and with 2 000 deterministic single-byte ASCII substitutions
//! spread over the whole file.  Every input must come back `Ok`, or as an
//! `Err` whose line number lies within the input.
//!
//! A substitution is parsed as the file's head (the lines before its first
//! section) plus the sections up to the one it falls in: a trace's batches
//! stand alone, so a trace substitution costs one batch of parsing, not the
//! whole file — which keeps 12 000 parses well inside ten seconds in debug.

use structride_core::shard::{region_grid_for, ShardedSimulator};
use structride_core::{
    BatchSource, Checkpoint, FaultConfig, RunHooks, SardDispatcher, StructRideConfig, Trace,
    TraceParseError,
};
use structride_datagen::{CityProfile, MultiRegionParams, MultiRegionWorkload};

const GOLDENS: [&str; 5] = [
    "loop_sard_rush.trace",
    "pre_faults_assign.trace",
    "pre_faults_rtv_rush.trace",
    "pre_faults_sard.trace",
    "pre_faults_sharded_rush.trace",
];

/// Line boundaries cut at, counted from the top of the file.
const LINE_CUTS: usize = 300;
/// Mid-token cuts per file.
const TOKEN_CUTS: usize = 100;
/// Single-byte substitutions per file.
const SUBSTITUTIONS: usize = 2_000;

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

/// Parses `input`, which must not panic and must either succeed or name a
/// line inside the input.
fn check<T>(
    label: &str,
    input: &str,
    parse: fn(&str) -> Result<T, TraceParseError>,
) -> Result<(), String> {
    let outcome = std::panic::catch_unwind(|| parse(input).err());
    match outcome {
        Err(_) => Err(format!("{label}: the parser panicked")),
        Ok(Some(err)) if err.line == 0 || err.line > input.lines().count().max(1) => Err(format!(
            "{label}: error names line {} of a {}-line input: {err}",
            err.line,
            input.lines().count()
        )),
        Ok(_) => Ok(()),
    }
}

/// How a file splits into a head and sections, each section opening with a
/// line that starts with `tag`.
struct Layout {
    tag: &'static str,
    /// Whether a section parses after the head without the ones before it.
    standalone: bool,
}

const TRACE: Layout = Layout {
    tag: "batch ",
    standalone: true,
};
const CHECKPOINT: Layout = Layout {
    tag: "shard ",
    standalone: false,
};

/// Feeds every damaged form of `text` to `parse`, reporting each failure.
fn damaged_inputs_never_panic<T>(
    name: &str,
    text: &str,
    layout: Layout,
    parse: fn(&str) -> Result<T, TraceParseError>,
) -> Vec<String> {
    assert!(parse(text).is_ok(), "{name}: the undamaged text parses");
    let mut failures = Vec::new();
    let mut run = |label: String, input: &str| {
        if let Err(failure) = check(&label, input, parse) {
            failures.push(failure);
        }
    };

    let line_ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    for (n, &end) in line_ends.iter().take(LINE_CUTS).enumerate() {
        run(format!("{name} cut after line {}", n + 1), &text[..end]);
    }

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let span = line_ends[LINE_CUTS.min(line_ends.len()) - 1];
    for _ in 0..TOKEN_CUTS {
        let at = rng.below(span);
        if text.is_char_boundary(at) {
            run(format!("{name} cut at byte {at}"), &text[..at]);
        }
    }

    // Section starts, then the end of the text: section `j` is
    // `starts[j]..starts[j + 1]`, and the head is `..starts[0]`.
    let mut starts: Vec<usize> = std::iter::once(0)
        .chain(line_ends.iter().copied())
        .filter(|&i| text[i..].starts_with(layout.tag))
        .collect();
    assert!(!starts.is_empty(), "{name} has sections");
    starts.push(text.len());
    let head = &text[..starts[0]];
    for _ in 0..SUBSTITUTIONS {
        let at = rng.below(text.len());
        // Printable ASCII plus the newline, so line structure breaks too.
        let byte = match rng.below(96) {
            95 => b'\n',
            b => b' ' + b as u8,
        };
        if !text.as_bytes()[at].is_ascii() {
            continue;
        }
        // The section the byte falls in (the first one for a byte in the
        // head), preceded by the head and, unless it stands alone, by every
        // section before it.
        let section = starts.partition_point(|&s| s <= at).saturating_sub(1);
        let first = if layout.standalone { section } else { 0 };
        let body = starts[first]..starts[section + 1];
        let mut input = format!("{head}{}", &text[body.clone()]).into_bytes();
        let offset = if at < head.len() {
            at
        } else {
            at - body.start + head.len()
        };
        input[offset] = byte;
        let input = String::from_utf8(input).expect("ASCII substitution keeps UTF-8");
        run(format!("{name} byte {at} -> {byte:?}"), &input);
    }
    failures
}

/// The first checkpoint of a small 1×2-sharded run with a cadence, so its
/// text carries pools, edges and routed ledgers.
fn recorded_checkpoint() -> String {
    let config = StructRideConfig::default().with_faults(FaultConfig {
        checkpoint_every: 4,
        ..FaultConfig::default()
    });
    let w = MultiRegionWorkload::generate(MultiRegionParams {
        requests_per_region: 30,
        vehicles_per_region: 6,
        horizon: 120.0,
        scale: 0.15,
        ..MultiRegionParams::small(vec![CityProfile::ChengduLike, CityProfile::NycLike])
    });
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    ShardedSimulator::new(config)
        .execute(
            w.network(),
            &region_grid_for(w.network(), 1, 2),
            BatchSource::Clock(&w.requests),
            w.fresh_vehicles(),
            move |_| Box::new(SardDispatcher::new(config)),
            &w.name,
            RunHooks {
                checkpoints: Some(&mut |c| checkpoints.push(c)),
                ..RunHooks::default()
            },
        )
        .expect("a clock-driven run is never refused");
    let text = checkpoints.first().expect("the cadence fires").to_text();
    for tag in ["routed ", "request ", "edges "] {
        assert!(
            text.lines()
                .any(|l| l.len() > tag.len() && l.starts_with(tag)),
            "the checkpoint has a non-empty {tag}line"
        );
    }
    text
}

#[test]
fn damaged_traces_and_checkpoints_parse_or_name_a_line_without_panicking() {
    let mut failures = Vec::new();
    for file in GOLDENS {
        let path = format!("{}/../bench/tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("golden trace file exists");
        failures.extend(damaged_inputs_never_panic(file, &text, TRACE, Trace::parse));
    }
    let checkpoint = recorded_checkpoint();
    failures.extend(damaged_inputs_never_panic(
        "checkpoint",
        &checkpoint,
        CHECKPOINT,
        Checkpoint::parse,
    ));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
