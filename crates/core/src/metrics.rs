//! Run-level metrics: the quantities reported in every figure of §V.

use structride_model::CostParams;

/// Metrics of one simulated run of one dispatcher on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Algorithm name.
    pub algorithm: String,
    /// Workload name.
    pub workload: String,
    /// Total number of requests offered.
    pub total_requests: usize,
    /// Requests assigned to (and served by) some vehicle.
    pub served_requests: usize,
    /// Total driving time of the whole fleet, in seconds.
    pub total_travel: f64,
    /// Summed direct cost of the unserved requests (the penalty base).
    pub unserved_direct_cost: f64,
    /// The unified cost `U` of Equation (3).
    pub unified_cost: f64,
    /// Wall-clock time spent inside the dispatcher, in seconds.
    pub running_time: f64,
    /// Shortest-path index queries issued during the run.  With more than one
    /// worker thread this can differ by a handful between otherwise identical
    /// runs: two workers racing on the same missing cache key both consult
    /// the index (see the `structride_roadnet::engine` docs).  Dispatch
    /// decisions are unaffected.  The shards of a multi-shard run share one
    /// engine, so their run books the count once, on the aggregate, and
    /// every per-shard report reads 0 here.
    pub sp_queries: u64,
    /// Approximate dispatcher memory footprint in bytes (Fig. 14): the end of
    /// run's [`Dispatcher::memory_bytes`](crate::Dispatcher::memory_bytes),
    /// summed over shards; a function of the run, like the fields above.
    pub memory_bytes: usize,
    /// Number of batches processed.
    pub batches: usize,
    /// Tentative insertions actually evaluated while building candidate
    /// queues — post-prescreen (aggregated from the per-batch scratch
    /// counters; best-effort — only dispatchers that report through the
    /// context contribute).
    pub insertion_evaluations: u64,
    /// Candidate groups enumerated by the grouping tree (same caveat).
    pub groups_enumerated: u64,
    /// `(request, vehicle)` pairs pruned by the certified candidate
    /// prescreen before any exact insertion was attempted (same caveat).
    pub prescreen_pruned: u64,
    /// Degraded-mode solves: batches where an injected solver deadline
    /// (see [`crate::faults`]) made an exact dispatcher fall back to its
    /// seeded incumbent.  Always 0 under the inert default fault config.
    pub solver_fallbacks: u64,
    /// `(request, vehicle)` pairs candidate scoring looked up in the lane's
    /// score memo (see [`crate::score_memo`]).  Telemetry: not recorded in
    /// traces or checkpoints, and a resumed run counts from its resume point.
    pub memo_lookups: u64,
    /// Lookups the score memo answered without recomputing (same caveat).
    pub memo_hits: u64,
}

impl RunMetrics {
    /// Service rate = served / total (0 when no requests were offered).
    pub fn service_rate(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.served_requests as f64 / self.total_requests as f64
        }
    }

    /// Recomputes the unified cost for a different penalty coefficient without
    /// re-running the simulation (valid because the penalty only re-weights the
    /// already-measured unserved direct cost — exactly the argument the paper
    /// makes for why greedy methods are insensitive to `p_r`).
    pub fn unified_cost_with(&self, params: &CostParams) -> f64 {
        structride_model::unified_cost(params, self.total_travel, self.unserved_direct_cost)
    }

    /// Merges the metrics of two *disjoint* parts of one logical run — the
    /// shard-aggregation operation of the multi-region sharded simulator.
    ///
    /// Counts, travel, unserved direct cost, shortest-path queries, memory,
    /// the scratch counters and the memo counters add; `batches` takes the
    /// maximum (shards are batch-synchronous, so parts of one run share the
    /// batch clock);
    /// `running_time` adds (aggregate dispatcher CPU time — shards dispatch
    /// concurrently, so wall-clock is reported separately by the bench
    /// harness).  The unified cost is **recomputed** from the merged travel
    /// and unserved components via `params` — Equation (3) is linear in both,
    /// which is exactly why merge-of-parts equals the whole (see the unit
    /// tests).  String fields are kept when identical and joined with `+`
    /// otherwise.
    pub fn merge(&self, other: &RunMetrics, params: &CostParams) -> RunMetrics {
        let join = |a: &str, b: &str| {
            if a == b {
                a.to_string()
            } else {
                format!("{a}+{b}")
            }
        };
        let total_travel = self.total_travel + other.total_travel;
        let unserved_direct_cost = self.unserved_direct_cost + other.unserved_direct_cost;
        RunMetrics {
            algorithm: join(&self.algorithm, &other.algorithm),
            workload: join(&self.workload, &other.workload),
            total_requests: self.total_requests + other.total_requests,
            served_requests: self.served_requests + other.served_requests,
            total_travel,
            unserved_direct_cost,
            unified_cost: structride_model::unified_cost(
                params,
                total_travel,
                unserved_direct_cost,
            ),
            running_time: self.running_time + other.running_time,
            sp_queries: self.sp_queries + other.sp_queries,
            memory_bytes: self.memory_bytes + other.memory_bytes,
            batches: self.batches.max(other.batches),
            insertion_evaluations: self.insertion_evaluations + other.insertion_evaluations,
            groups_enumerated: self.groups_enumerated + other.groups_enumerated,
            prescreen_pruned: self.prescreen_pruned + other.prescreen_pruned,
            solver_fallbacks: self.solver_fallbacks + other.solver_fallbacks,
            memo_lookups: self.memo_lookups + other.memo_lookups,
            memo_hits: self.memo_hits + other.memo_hits,
        }
    }

    /// Folds [`RunMetrics::merge`] over all `parts` (`None` when empty).
    pub fn merge_all(parts: &[RunMetrics], params: &CostParams) -> Option<RunMetrics> {
        let (first, rest) = parts.split_first()?;
        Some(
            rest.iter()
                .fold(first.clone(), |acc, part| acc.merge(part, params)),
        )
    }

    /// One tab-separated row used by the experiment harness output.
    pub fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.3}\t{:.1}\t{:.1}\t{:.3}\t{}\t{}",
            self.workload,
            self.algorithm,
            self.total_requests,
            self.served_requests,
            self.service_rate(),
            self.total_travel,
            self.unified_cost,
            self.running_time,
            self.sp_queries,
            self.memory_bytes,
        )
    }

    /// Header matching [`RunMetrics::tsv_row`].
    pub fn tsv_header() -> &'static str {
        "workload\talgorithm\trequests\tserved\tservice_rate\ttravel\tunified_cost\truntime_s\tsp_queries\tmemory_bytes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_model::unified_cost;

    fn sample() -> RunMetrics {
        RunMetrics {
            algorithm: "SARD".into(),
            workload: "NYC".into(),
            total_requests: 200,
            served_requests: 150,
            total_travel: 10_000.0,
            unserved_direct_cost: 2_000.0,
            unified_cost: 30_000.0,
            running_time: 1.5,
            sp_queries: 12_345,
            memory_bytes: 1 << 20,
            batches: 40,
            insertion_evaluations: 900,
            groups_enumerated: 321,
            prescreen_pruned: 4_100,
            solver_fallbacks: 7,
            memo_lookups: 5_000,
            memo_hits: 4_000,
        }
    }

    #[test]
    fn service_rate_and_edge_cases() {
        let m = sample();
        assert!((m.service_rate() - 0.75).abs() < 1e-12);
        let empty = RunMetrics {
            total_requests: 0,
            served_requests: 0,
            ..sample()
        };
        assert_eq!(empty.service_rate(), 0.0);
    }

    #[test]
    fn unified_cost_reweighting() {
        let m = sample();
        let p5 = m.unified_cost_with(&CostParams::with_penalty(5.0));
        let p20 = m.unified_cost_with(&CostParams::with_penalty(20.0));
        assert_eq!(p5, 10_000.0 + 5.0 * 2_000.0);
        assert_eq!(p20, 10_000.0 + 20.0 * 2_000.0);
        assert!(p20 > p5);
    }

    /// Splits a "whole run" into per-shard parts and checks the merge
    /// reconstructs the whole exactly — the property shard aggregation
    /// relies on.
    #[test]
    fn merge_of_parts_equals_the_whole() {
        let params = CostParams::with_penalty(10.0);
        // The whole: one run over 300 requests.
        let whole = RunMetrics {
            algorithm: "SARD".into(),
            workload: "multi".into(),
            total_requests: 300,
            served_requests: 210,
            total_travel: 15_000.0,
            unserved_direct_cost: 3_000.0,
            unified_cost: unified_cost(&params, 15_000.0, 3_000.0),
            running_time: 2.5,
            sp_queries: 20_000,
            memory_bytes: 3 << 20,
            batches: 50,
            insertion_evaluations: 1_500,
            groups_enumerated: 600,
            prescreen_pruned: 9_000,
            solver_fallbacks: 60,
            memo_lookups: 0,
            memo_hits: 0,
        };
        // Three disjoint parts of the same run (batch-synchronous shards:
        // every part saw all 50 batches).
        let parts = [
            (
                100,
                80,
                5_000.0,
                1_000.0,
                0.5,
                4_000,
                1 << 20,
                500,
                100,
                3_000,
                10,
            ),
            (
                120,
                90,
                6_000.0,
                1_250.0,
                1.25,
                9_000,
                1 << 20,
                700,
                350,
                4_000,
                45,
            ),
            (
                80,
                40,
                4_000.0,
                750.0,
                0.75,
                7_000,
                1 << 20,
                300,
                150,
                2_000,
                5,
            ),
        ]
        .map(
            |(req, srv, travel, unserved, rt, sp, mem, ins, grp, pre, fb)| RunMetrics {
                algorithm: "SARD".into(),
                workload: "multi".into(),
                total_requests: req,
                served_requests: srv,
                total_travel: travel,
                unserved_direct_cost: unserved,
                unified_cost: unified_cost(&params, travel, unserved),
                running_time: rt,
                sp_queries: sp,
                memory_bytes: mem,
                batches: 50,
                insertion_evaluations: ins,
                groups_enumerated: grp,
                prescreen_pruned: pre,
                solver_fallbacks: fb,
                memo_lookups: 0,
                memo_hits: 0,
            },
        );
        let merged = RunMetrics::merge_all(&parts, &params).expect("non-empty parts");
        assert_eq!(merged, whole);
        // Merging a single part is the identity.
        let one = RunMetrics::merge_all(&parts[..1], &params).unwrap();
        assert_eq!(one, parts[0]);
        assert_eq!(RunMetrics::merge_all(&[], &params), None);
    }

    #[test]
    fn merge_joins_mismatched_names_and_keeps_batch_max() {
        let params = CostParams::default();
        let a = RunMetrics {
            batches: 40,
            ..sample()
        };
        let b = RunMetrics {
            algorithm: "GAS".into(),
            batches: 55,
            ..sample()
        };
        let m = a.merge(&b, &params);
        assert_eq!(m.algorithm, "SARD+GAS");
        assert_eq!(m.workload, "NYC");
        assert_eq!(m.batches, 55);
        assert_eq!(m.total_requests, 400);
        // The unified cost is recomputed from the merged components, not
        // summed from the (possibly stale) part values.
        assert_eq!(
            m.unified_cost,
            unified_cost(&params, m.total_travel, m.unserved_direct_cost)
        );
    }

    /// A zeroed part (an empty shard: no requests routed, no travel) must be
    /// the identity of `merge` on every numeric field — the property that
    /// lets the sharded simulator keep empty shards in the aggregation
    /// without skewing the report.
    #[test]
    fn merge_with_empty_metrics_is_numeric_identity() {
        let params = CostParams::with_penalty(10.0);
        let mut a = sample();
        a.unified_cost = a.unified_cost_with(&params);
        let empty = RunMetrics {
            algorithm: a.algorithm.clone(),
            workload: a.workload.clone(),
            total_requests: 0,
            served_requests: 0,
            total_travel: 0.0,
            unserved_direct_cost: 0.0,
            unified_cost: 0.0,
            running_time: 0.0,
            sp_queries: 0,
            memory_bytes: 0,
            batches: 0,
            insertion_evaluations: 0,
            groups_enumerated: 0,
            prescreen_pruned: 0,
            solver_fallbacks: 0,
            memo_lookups: 0,
            memo_hits: 0,
        };
        let merged = a.merge(&empty, &params);
        assert_eq!(merged, a);
        // Identity holds from the left too.
        assert_eq!(empty.merge(&a, &params), a);
        // Two empties merge into an empty with a recomputed (zero) cost.
        let both = empty.merge(&empty, &params);
        assert_eq!(both.total_requests, 0);
        assert_eq!(both.unified_cost, 0.0);
        assert_eq!(both.service_rate(), 0.0);
    }

    /// Merging a run with itself doubles every additive field, keeps
    /// `batches` (max of equals) and recomputes the unified cost from the
    /// doubled components — a self-consistency check that would catch a
    /// field accidentally taken from only one side.
    #[test]
    fn merge_with_self_doubles_additive_fields() {
        let params = CostParams::with_penalty(10.0);
        let a = sample();
        let doubled = a.merge(&a, &params);
        assert_eq!(doubled.algorithm, a.algorithm, "same name joins to itself");
        assert_eq!(doubled.total_requests, 2 * a.total_requests);
        assert_eq!(doubled.served_requests, 2 * a.served_requests);
        assert_eq!(doubled.total_travel, 2.0 * a.total_travel);
        assert_eq!(doubled.unserved_direct_cost, 2.0 * a.unserved_direct_cost);
        assert_eq!(doubled.running_time, 2.0 * a.running_time);
        assert_eq!(doubled.sp_queries, 2 * a.sp_queries);
        assert_eq!(doubled.memory_bytes, 2 * a.memory_bytes);
        assert_eq!(doubled.insertion_evaluations, 2 * a.insertion_evaluations);
        assert_eq!(doubled.groups_enumerated, 2 * a.groups_enumerated);
        assert_eq!(doubled.prescreen_pruned, 2 * a.prescreen_pruned);
        assert_eq!(doubled.solver_fallbacks, 2 * a.solver_fallbacks);
        assert_eq!(doubled.memo_lookups, 2 * a.memo_lookups);
        assert_eq!(doubled.memo_hits, 2 * a.memo_hits);
        assert_eq!(doubled.batches, a.batches, "batches is a max, not a sum");
        assert_eq!(
            doubled.unified_cost,
            unified_cost(&params, doubled.total_travel, doubled.unserved_direct_cost)
        );
        // Service rate is invariant under self-merge.
        assert_eq!(doubled.service_rate(), a.service_rate());
    }

    /// Every numeric field of `merge` is commutative; the *string* fields
    /// are the one documented exception (they join in argument order:
    /// `"SARD+GAS"` vs `"GAS+SARD"`).  Pinning both directions keeps a
    /// refactor from silently making a numeric field order-dependent — the
    /// regression that would break shard-order-independent aggregation.
    #[test]
    fn merge_numeric_fields_are_commutative_strings_are_not() {
        let params = CostParams::with_penalty(7.0);
        let a = sample();
        let b = RunMetrics {
            algorithm: "GAS".into(),
            workload: "CHD".into(),
            total_requests: 17,
            served_requests: 5,
            total_travel: 123.5,
            unserved_direct_cost: 88.25,
            unified_cost: 0.0,
            running_time: 0.75,
            sp_queries: 999,
            memory_bytes: 4096,
            batches: 77,
            insertion_evaluations: 13,
            groups_enumerated: 2,
            prescreen_pruned: 41,
            solver_fallbacks: 3,
            memo_lookups: 60,
            memo_hits: 50,
        };
        let ab = a.merge(&b, &params);
        let ba = b.merge(&a, &params);
        let numeric = |m: &RunMetrics| {
            (
                m.total_requests,
                m.served_requests,
                m.total_travel.to_bits(),
                m.unserved_direct_cost.to_bits(),
                m.unified_cost.to_bits(),
                m.running_time.to_bits(),
                m.sp_queries,
                m.memory_bytes,
                m.batches,
                m.insertion_evaluations,
                m.groups_enumerated,
                (
                    m.prescreen_pruned,
                    m.solver_fallbacks,
                    m.memo_lookups,
                    m.memo_hits,
                ),
            )
        };
        assert_eq!(numeric(&ab), numeric(&ba));
        // The documented non-commutative fields.
        assert_eq!(ab.algorithm, "SARD+GAS");
        assert_eq!(ba.algorithm, "GAS+SARD");
        assert_eq!(ab.workload, "NYC+CHD");
        assert_eq!(ba.workload, "CHD+NYC");
    }

    #[test]
    fn tsv_row_has_all_columns() {
        let m = sample();
        let row = m.tsv_row();
        assert_eq!(
            row.split('\t').count(),
            RunMetrics::tsv_header().split('\t').count()
        );
        assert!(row.contains("SARD"));
        assert!(row.contains("0.750"));
    }
}
