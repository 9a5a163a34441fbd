//! Result files: what one workload's measurement looks like on disk, the
//! `results.json` the one command writes, and `compare`, which holds two
//! result files against the bounds of the end-to-end metric table.

use crate::json::Json;
use crate::metrics::{
    table_from_json, table_to_json, Better, MetricTable, MetricValue, END_TO_END,
};

/// Everything measured for one workload: the timed run's end-to-end table
/// and, once the traced run has been merged in, the per-layer tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub workload: String,
    /// Why the workload exists, and the parameters it ran with.
    pub why: String,
    pub params: String,
    pub threads: usize,
    pub correct: bool,
    /// Requests offered over the timed repeats, and how many failed.
    pub ops_attempted: usize,
    pub ops_failed: usize,
    pub repeats: usize,
    pub repeat_wall_s: f64,
    pub failures: Vec<String>,
    pub end_to_end: MetricTable,
    pub per_layer: MetricTable,
    pub extras: MetricTable,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("why", Json::str(&self.why)),
            ("params", Json::str(&self.params)),
            ("threads", Json::Num(self.threads as f64)),
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("repeats", Json::Num(self.repeats as f64)),
            ("repeat_wall_s", Json::Num(self.repeat_wall_s)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", table_to_json(&self.end_to_end)),
            ("per_layer", table_to_json(&self.per_layer)),
            ("extras", table_to_json(&self.extras)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        let missing = |key: &str| format!("workload result lacks a valid \"{key}\"");
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing(key))
        };
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing(key))
        };
        let table = |key: &str| {
            json.get(key)
                .and_then(table_from_json)
                .ok_or_else(|| missing(key))
        };
        Ok(WorkloadResult {
            workload: text("workload")?,
            why: text("why")?,
            params: text("params")?,
            threads: num("threads")? as usize,
            correct: matches!(json.get("correct"), Some(Json::Bool(true))),
            ops_attempted: num("ops_attempted")? as usize,
            ops_failed: num("ops_failed")? as usize,
            repeats: num("repeats")? as usize,
            repeat_wall_s: num("repeat_wall_s")?,
            failures: json
                .get("failures")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("failures"))?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            end_to_end: table("end_to_end")?,
            per_layer: table("per_layer")?,
            extras: table("extras")?,
        })
    }

    /// One `workload metric value unit n spread` line per metric.
    pub fn lines(&self) -> Vec<String> {
        let ops = [
            ("ops_attempted", self.ops_attempted),
            ("ops_failed", self.ops_failed),
        ];
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.extras)
            .map(|(name, m)| {
                format!(
                    "{} {} {} {} {} {:.4}",
                    self.workload, name, m.value, m.unit, m.n, m.spread
                )
            })
            .chain(
                ops.iter()
                    .map(|(name, n)| format!("{} {name} {n} count 1 0.0000", self.workload)),
            )
            .collect()
    }
}

/// The document `run` writes: the settings of the run and one result per
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub size: String,
    pub nproc: usize,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("structride-benchmark v1")),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("size", Json::str(&self.size)),
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text)?;
        if json.get("schema").and_then(Json::as_str) != Some("structride-benchmark v1") {
            return Err("not a structride-benchmark v1 results file".to_string());
        }
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results file lacks a numeric \"{key}\""))
        };
        Ok(Results {
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            size: json
                .get("size")
                .and_then(Json::as_str)
                .unwrap_or("full")
                .to_string(),
            nproc: num("nproc")? as usize,
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("results file lacks \"workloads\"")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// How one workload × end-to-end metric of `b` stands against `a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Outside,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "outside",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative = better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

pub fn verdict(a: &MetricValue, b: &MetricValue, better: Better, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, better) > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

/// Compares every workload × end-to-end metric both files hold.  Returns the
/// printed rows and whether any pairing is outside its bound.
pub fn compare(a: &Results, b: &Results) -> (Vec<String>, bool) {
    let mut rows = vec!["workload metric unit a b worse_by bound verdict".to_string()];
    let mut any_outside = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let find = |t: &MetricTable| {
                t.iter()
                    .find(|(n, _)| n == metric.name)
                    .map(|(_, m)| m.clone())
            };
            let (Some(ma), Some(mb)) = (find(&wa.end_to_end), find(&wb.end_to_end)) else {
                continue;
            };
            let v = verdict(&ma, &mb, metric.better, metric.bound);
            any_outside |= v == Verdict::Outside;
            rows.push(format!(
                "{} {} {} {} {} {:+.4} {} {}",
                wa.workload,
                metric.name,
                metric.unit,
                ma.value,
                mb.value,
                worse_by(ma.value, mb.value, metric.better),
                metric.bound,
                v.key()
            ));
        }
    }
    (rows, any_outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(throughput: f64, spread_of: &[f64]) -> Results {
        let mut per_repeat = spread_of.to_vec();
        per_repeat.push(throughput);
        Results {
            seed: 42,
            seconds: 16.0,
            size: "full".to_string(),
            nproc: 2,
            workloads: vec![WorkloadResult {
                workload: "city_sard".to_string(),
                why: "the paper's setting".to_string(),
                params: "NYC scale=4 \"quoted\"".to_string(),
                threads: 2,
                correct: true,
                ops_attempted: 7200,
                ops_failed: 0,
                repeats: 3,
                repeat_wall_s: 3.0625,
                failures: vec!["none\nreally".to_string()],
                end_to_end: vec![
                    (
                        "throughput_rps".to_string(),
                        MetricValue::summarising(throughput, 3, &per_repeat, "1/s"),
                    ),
                    ("setup_s".to_string(), MetricValue::single(1.2296, "s")),
                ],
                per_layer: vec![(
                    "model.insert_ns".to_string(),
                    MetricValue::single(1834.25, "ns"),
                )],
                extras: Vec::new(),
            }],
        }
    }

    #[test]
    fn results_round_trip_through_their_file_format() {
        let results = sample(784.1737005128, &[780.0, 790.5]);
        let text = results.to_json().render_pretty();
        assert_eq!(Results::parse(&text).unwrap(), results);
        assert!(Results::parse("{}").is_err());
        assert!(Results::parse("not json").is_err());
        let lines = results.workloads[0].lines();
        assert!(lines[0].starts_with("city_sard throughput_rps 784.1737005128 1/s 3 "));
        assert!(lines
            .iter()
            .any(|l| l == "city_sard ops_failed 0 count 1 0.0000"));
    }

    #[test]
    fn compare_tells_within_outside_and_unresolved_apart() {
        let base = sample(800.0, &[795.0, 805.0]);
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_rps")
            .unwrap()
            .bound;
        let verdict_of = |rows: &[String]| {
            let row = rows.iter().find(|r| r.contains("throughput_rps")).unwrap();
            row.rsplit(' ').next().unwrap().to_string()
        };
        // Slower by a third of the bound: within.
        let slower = 800.0 * (1.0 - bound / 3.0);
        let (rows, outside) = compare(&base, &sample(slower, &[slower - 2.0, slower + 3.0]));
        assert!(!outside);
        assert_eq!(verdict_of(&rows), "within");
        // Slower by twice the bound: outside.
        let slower = 800.0 * (1.0 - 2.0 * bound);
        let (rows, outside) = compare(&base, &sample(slower, &[slower - 2.0, slower + 3.0]));
        assert!(outside);
        assert_eq!(verdict_of(&rows), "outside");
        // Faster is never outside.
        assert!(!compare(&base, &sample(1200.0, &[1195.0, 1206.0])).1);
        // A spread wider than the bound cannot resolve a difference.
        let (rows, outside) = compare(&base, &sample(600.0, &[300.0, 900.0]));
        assert!(!outside);
        assert!(rows
            .iter()
            .any(|r| r.contains("throughput_rps") && r.ends_with("unresolved")));
        // Direction: a lower-is-better metric that grew is worse.
        assert!(worse_by(1.0, 1.3, Better::Lower) > 0.29);
        assert!(worse_by(1.0, 1.3, Better::Higher) < -0.29);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), 0.0);
    }
}
