//! The metric tables — every name `BENCHMARK.json` lists, with unit and
//! direction — and the value type results are reported in.  A unit test
//! holds `BENCHMARK.json` to these tables, so the two cannot drift apart.

use crate::json::Json;
use crate::stats;
use Better::{Higher, Lower};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the dispatch system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression: about three times the widest spread
    /// across ten seeds measured on the reference box, capped at the
    /// contract's 0.25 (see README.md).
    pub bound: f64,
}

/// The nine end-to-end metrics, reported on every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "batch_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "service_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.18,
    },
    EndToEnd {
        name: "unified_cost",
        unit: "cost",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "e2e_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "e2e_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, direction)`.  The layer is the name's
/// prefix (a crate or module of the workspace); README.md lists the public
/// function each one times and the end-to-end metric it should move.
pub type PerLayer = (&'static str, &'static str, Better);

/// Per-layer metrics, reported on every workload by the traced run.
pub const PER_LAYER: [PerLayer; 56] = [
    ("roadnet.label_build_s", "s", Lower),
    ("roadnet.label_bytes", "bytes", Lower),
    ("roadnet.sp_queries", "count", Lower),
    ("roadnet.cache_hit_ratio", "ratio", Higher),
    ("roadnet.sp_cold_ns", "ns", Lower),
    ("roadnet.sp_warm_ns", "ns", Lower),
    ("roadnet.m2m_ns_per_pair", "ns", Lower),
    ("roadnet.epoch_rolls", "count", Lower),
    ("roadnet.epoch_roll_ms_p50", "ms", Lower),
    ("roadnet.epoch_roll_ms_max", "ms", Lower),
    ("roadnet.prebuild_s", "s", Lower),
    ("roadnet.label_refresh_pct", "%", Lower),
    ("roadnet.labels_rescaled", "count", Lower),
    ("roadnet.labels_rebuilt", "count", Lower),
    ("roadnet.shards_refreshed", "count", Lower),
    ("roadnet.sp_fallback_queries", "count", Lower),
    ("spatial.range_query_ns", "ns", Lower),
    ("spatial.relocate_ns", "ns", Lower),
    ("model.insert_ns", "ns", Lower),
    ("model.advance_ms", "ms", Lower),
    ("sharegraph.build_ms_per_batch", "ms", Lower),
    ("sharegraph.candidate_pairs", "count", Lower),
    ("sharegraph.angle_pruned_ratio", "ratio", Higher),
    ("sharegraph.checks_per_edge", "ratio", Lower),
    ("core.dispatch_ms_p50", "ms", Lower),
    ("core.dispatch_ms_p95", "ms", Lower),
    ("core.dispatch_share", "ratio", Lower),
    ("core.sim_self_s", "s", Lower),
    ("core.insertion_evals", "count", Lower),
    ("core.groups_enumerated", "count", Lower),
    ("core.prescreen_pruned_ratio", "ratio", Higher),
    ("core.pending_mean", "count", Lower),
    ("core.fleet_sync_ms", "ms", Lower),
    ("core.prescreen_ns", "ns", Lower),
    ("core.grouping_ms_per_vehicle", "ms", Lower),
    ("core.lap_ms_per_solve", "ms", Lower),
    ("core.lap_fallbacks", "count", Lower),
    ("core.dispatch_unattributed_pct", "%", Lower),
    ("shard.handoffs", "count", Lower),
    ("shard.handoff_bids", "count", Lower),
    ("shard.migrations", "count", Lower),
    ("shard.imbalance", "ratio", Lower),
    ("shard.one_shard_tax_pct", "%", Lower),
    ("ingest.batches", "count", Lower),
    ("ingest.mean_batch", "count", Lower),
    ("ingest.queue_mean", "count", Lower),
    ("ingest.queue_max", "count", Lower),
    ("ingest.dispatch_ms_p50", "ms", Lower),
    ("ingest.wait_ms_p50", "ms", Lower),
    ("ingest.e2e_ms_p99", "ms", Lower),
    ("replay.encode_mb_s", "MB/s", Higher),
    ("replay.parse_mb_s", "MB/s", Higher),
    ("replay.trace_bytes", "bytes", Lower),
    ("replay.record_overhead_pct", "%", Lower),
    ("datagen.generate_s", "s", Lower),
    ("trace_overhead_pct", "%", Lower),
];

/// One reported number with the spread behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
    /// Samples the value summarises (repeats for medians, pooled samples for
    /// percentiles, 1 for a single reading).
    pub n: usize,
    /// Quartiles and spread of the per-repeat values.
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

impl MetricValue {
    /// A single reading.
    pub fn single(value: f64, unit: &str) -> Self {
        MetricValue {
            value,
            unit: unit.to_string(),
            n: 1,
            q1: value,
            q3: value,
            spread: 0.0,
        }
    }

    /// The median of per-repeat values.
    pub fn median_of(per_repeat: &[f64], unit: &str) -> Self {
        MetricValue::summarising(
            stats::median(per_repeat),
            per_repeat.len(),
            per_repeat,
            unit,
        )
    }

    /// A `value` computed over `n` pooled samples, with the per-repeat
    /// values it would have taken as the spread.
    pub fn summarising(value: f64, n: usize, per_repeat: &[f64], unit: &str) -> Self {
        let (q1, q3) = stats::quartiles(per_repeat);
        MetricValue {
            value,
            unit: unit.to_string(),
            n,
            q1,
            q3,
            spread: stats::spread(per_repeat),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(&self.unit)),
            ("n", Json::Num(self.n as f64)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("spread", Json::Num(self.spread)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Self> {
        Some(MetricValue {
            value: json.get("value")?.as_f64()?,
            unit: json.get("unit")?.as_str()?.to_string(),
            n: json.get("n")?.as_f64()? as usize,
            q1: json.get("q1")?.as_f64()?,
            q3: json.get("q3")?.as_f64()?,
            spread: json.get("spread")?.as_f64()?,
        })
    }
}

/// An ordered `name → value` table.
pub type MetricTable = Vec<(String, MetricValue)>;

pub fn table_to_json(table: &MetricTable) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, value)| (name.clone(), value.to_json()))
            .collect(),
    )
}

pub fn table_from_json(json: &Json) -> Option<MetricTable> {
    json.as_obj()?
        .iter()
        .map(|(name, value)| Some((name.clone(), MetricValue::from_json(value)?)))
        .collect()
}

/// The `{"value": .., "unit": ..}` form the acceptance driver reads.
pub fn table_to_driver_json(table: &MetricTable) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used once");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` sits one level above the package; the check is
    /// skipped where the package was copied without it.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), key(m.better).into(), m.bound))
            .collect();
        assert_eq!(listed, expected);
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), key(m.2).into()))
            .collect();
        assert_eq!(listed, expected);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|name| {
                let spec = crate::workloads::spec(name, crate::workloads::Size::Full).unwrap();
                (spec.name.to_string(), spec.why.to_string())
            })
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn metric_values_round_trip_through_json() {
        let table: MetricTable = vec![
            (
                "throughput_rps".into(),
                MetricValue::median_of(&[1375.2, 1401.9, 1390.0031], "1/s"),
            ),
            ("peak_rss_mb".into(), MetricValue::single(41.125, "MiB")),
            (
                "batch_ms_p95".into(),
                MetricValue::summarising(31.5, 870, &[30.1, 31.9, 33.0, 31.2], "ms"),
            ),
        ];
        let text = table_to_json(&table).render_pretty();
        let back = table_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, table);
        assert_eq!(back[0].1.value, 1390.0031);
        assert_eq!(back[0].1.n, 3);
        let driver = table_to_driver_json(&table).render();
        assert!(driver.contains("\"peak_rss_mb\":{\"value\":41.125,\"unit\":\"MiB\"}"));
    }
}
