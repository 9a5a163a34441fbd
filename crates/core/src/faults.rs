//! Deterministic fault injection: the degraded-mode contract of the
//! framework.
//!
//! A production dispatcher has to answer "what happens when a region's
//! solver dies mid-rush-hour?" — and in this codebase the answer must be
//! *measurable and replay-pinned*, not an ops anecdote.  This module follows
//! the same purity contract as `structride_roadnet::traffic`: every injected
//! fault is a pure function of `(FaultConfig, batch clock)` alone.  No RNG
//! state, no wall clock, no worker-count dependence — so a faulted run
//! records and replays bit-identically, and two processes derive the exact
//! same failure schedule from the config serialized into the trace.
//!
//! Three failure classes are modelled, each with a graceful-degradation
//! path implemented by the layer that owns the state:
//!
//! * **Shard outage** ([`FaultPlan::down_shard`]): a shard is marked down
//!   for a window of batches.  `ShardedRun` reroutes the requests that
//!   would have been routed to it through the existing handoff-bid auction
//!   to the best live shard, freezes the dead shard's fleet, and on
//!   recovery re-syncs its fleet index and re-admits the region.
//! * **Solver deadline** ([`FaultPlan::solver_node_budget`]): the exact
//!   solvers (`AssignDispatcher`'s LAP rounds, RTV's B&B group choice) get
//!   a per-batch node budget.  On trip they fall back to their seeded
//!   incumbent (greedy assignment / greedy+swap), recording a
//!   [`SolverStats::fallbacks`](crate::lap::SolverStats) count — anytime
//!   behavior with a never-worse-than-incumbent floor.
//! * **Checkpoint boundary** ([`FaultPlan::checkpoint`]): the simulators
//!   serialize full state at these batch boundaries (see
//!   [`crate::replay`]'s checkpoint codec), so a crashed run resumes
//!   bit-identically instead of losing everything since batch 0.

/// Configuration of the deterministic fault injector.
///
/// The default is **inert**: no outages, no solver budget, no checkpoint
/// cadence.  Every pre-fault pipeline is bit-identical under the inert
/// config — the same "default is a no-op" guarantee
/// [`TrafficConfig::is_static`](structride_roadnet::TrafficConfig::is_static)
/// gives the traffic model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into the outage schedule (which shard goes down in which
    /// window).  Irrelevant while `outage_every` is 0.
    pub seed: u64,
    /// Outage cadence: every `outage_every` batches a new outage window
    /// opens (0 disables outages).  The first window is skipped so every
    /// run starts healthy.
    pub outage_every: u32,
    /// How many batches each outage lasts (clamped to the cadence so
    /// windows never overlap).
    pub outage_batches: u32,
    /// Per-batch node budget for the exact solvers (0 = unlimited).  When
    /// the budget trips, the dispatcher falls back to its seeded incumbent
    /// and counts a fallback.
    pub solver_node_budget: u64,
    /// Checkpoint cadence in batches (0 = never).  A checkpoint boundary
    /// falls *before* dispatching batch `k·checkpoint_every` (k ≥ 1), i.e.
    /// it captures the state left by the previous batch.
    pub checkpoint_every: u32,
}

/// The faults scheduled for one batch: a pure function of
/// `(FaultConfig, batch index, shard count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The shard that is down this batch, if any.
    pub down_shard: Option<usize>,
    /// `true` when this batch opens a new outage window (the injection
    /// event itself, as opposed to an ongoing outage) — what the
    /// `faults_injected` counters count.
    pub outage_starts: bool,
    /// `true` when the down shard comes back next batch — the recovery
    /// boundary where the fleet index is re-synced.
    pub last_down_batch: bool,
    /// The per-batch node budget for exact solvers (`None` = unlimited).
    pub solver_node_budget: Option<u64>,
    /// `true` when a checkpoint is due at the *start* of this batch.
    pub checkpoint: bool,
}

/// SplitMix64: the tiny, seedable, stateless mixer used to pick the down
/// shard per outage window.  Chosen for the same reason the datagen crate
/// uses stateless hashing: identical output on every platform and call
/// order, with no shared RNG state to race on.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultConfig {
    /// True when this config injects nothing: the inert default under which
    /// every pipeline is bit-identical to its pre-fault behavior.
    pub fn is_inert(&self) -> bool {
        self.outage_every == 0 && self.solver_node_budget == 0 && self.checkpoint_every == 0
    }

    /// The effective outage length: windows never overlap, so an outage
    /// lasts at most `outage_every - 1` batches (the window's last batch is
    /// always healthy, giving the recovered shard a re-admission batch
    /// before the next window can open).
    fn effective_outage_batches(&self) -> u32 {
        self.outage_batches.min(self.outage_every.saturating_sub(1))
    }

    /// The fault plan for `batch` of a run with `n_shards` shards (pass 1
    /// for the monolithic simulator — it has no shard to lose, so only the
    /// solver budget and checkpoint cadence apply).
    ///
    /// Purity contract: this is a pure function of its arguments — same
    /// `(config, batch, n_shards)` ⇒ same plan, on any thread, any worker
    /// count, any process (property-tested below and in
    /// `crates/core/tests/`).
    pub fn plan_at(&self, batch: usize, n_shards: usize) -> FaultPlan {
        let mut plan = FaultPlan {
            solver_node_budget: (self.solver_node_budget > 0).then_some(self.solver_node_budget),
            checkpoint: self.checkpoint_every > 0
                && batch > 0
                && batch.is_multiple_of(self.checkpoint_every as usize),
            ..FaultPlan::default()
        };
        let len = self.effective_outage_batches();
        if self.outage_every > 0 && len > 0 && n_shards > 1 {
            let every = self.outage_every as usize;
            let window = batch / every;
            let offset = batch % every;
            // Window 0 is skipped: runs start healthy.
            if window >= 1 && offset < len as usize {
                let victim = (splitmix64(self.seed ^ window as u64) % n_shards as u64) as usize;
                plan.down_shard = Some(victim);
                plan.outage_starts = offset == 0;
                plan.last_down_batch = offset + 1 == len as usize;
            }
        }
        plan
    }

    /// The deterministic "chaos" preset: all three failure classes at once
    /// — periodic shard outages, a solver node budget tight enough to trip
    /// on busy batches, and a checkpoint cadence.  The replay CLI's
    /// `--chaos` flag and the bench chaos row share this exact schedule, so
    /// the plan they derive is the one serialized into traces, checkpoints
    /// and baselines.
    pub fn chaos() -> Self {
        FaultConfig {
            seed: 7,
            outage_every: 10,
            outage_batches: 3,
            solver_node_budget: 500,
            checkpoint_every: 8,
        }
    }

    /// The solver node budget for `batch` (`None` = unlimited) — the
    /// channel dispatchers read through
    /// [`DispatchContext`](crate::context::DispatchContext):
    /// `ctx.config.faults.solver_budget_at(ctx.batch_index)`.
    pub fn solver_budget_at(&self, batch: usize) -> Option<u64> {
        self.plan_at(batch, 1).solver_node_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> FaultConfig {
        FaultConfig::chaos()
    }

    #[test]
    fn default_is_inert_and_plans_nothing() {
        let config = FaultConfig::default();
        assert!(config.is_inert());
        for batch in 0..100 {
            for shards in [1, 3, 8] {
                assert_eq!(config.plan_at(batch, shards), FaultPlan::default());
            }
            assert_eq!(config.solver_budget_at(batch), None);
        }
    }

    #[test]
    fn first_window_is_healthy_and_outages_respect_the_cadence() {
        let config = chaos();
        // Window 0 (batches 0..10): never down.
        for batch in 0..10 {
            assert_eq!(config.plan_at(batch, 3).down_shard, None, "batch {batch}");
        }
        // Window 1: down for batches 10, 11, 12, healthy 13..20.
        for batch in 10..13 {
            let plan = config.plan_at(batch, 3);
            assert!(plan.down_shard.is_some(), "batch {batch}");
            assert_eq!(plan.outage_starts, batch == 10);
            assert_eq!(plan.last_down_batch, batch == 12);
        }
        for batch in 13..20 {
            assert_eq!(config.plan_at(batch, 3).down_shard, None, "batch {batch}");
        }
        // The victim is constant within a window.
        let victims: Vec<_> = (10..13)
            .map(|b| config.plan_at(b, 3).down_shard.unwrap())
            .collect();
        assert!(victims.windows(2).all(|w| w[0] == w[1]));
        assert!(victims[0] < 3);
    }

    #[test]
    fn outage_never_fills_a_whole_window() {
        // outage_batches >= outage_every clamps: the last batch of every
        // window stays healthy so recovery always gets a re-admission batch.
        let config = FaultConfig {
            outage_every: 4,
            outage_batches: 9,
            ..chaos()
        };
        for window in 1..5 {
            let last = window * 4 + 3;
            assert_eq!(config.plan_at(last, 3).down_shard, None, "batch {last}");
            assert!(config.plan_at(last - 1, 3).down_shard.is_some());
        }
    }

    #[test]
    fn monolithic_and_single_shard_runs_never_lose_a_shard() {
        let config = chaos();
        for batch in 0..60 {
            assert_eq!(config.plan_at(batch, 1).down_shard, None);
            // The solver budget and checkpoints still apply.
            assert_eq!(config.plan_at(batch, 1).solver_node_budget, Some(500));
        }
    }

    #[test]
    fn checkpoints_fall_on_the_cadence_and_never_at_batch_zero() {
        let config = chaos();
        for batch in 0..40 {
            let due = config.plan_at(batch, 3).checkpoint;
            assert_eq!(due, batch > 0 && batch % 8 == 0, "batch {batch}");
        }
    }

    /// The purity contract: the full injection schedule is identical across
    /// re-derivations and across threads (the cross-worker-count half is
    /// exercised end-to-end in `crates/core/tests/`).
    #[test]
    fn plan_is_pure_across_rederivation_and_threads() {
        let config = chaos();
        let schedule = |shards: usize| -> Vec<FaultPlan> {
            (0..200).map(|b| config.plan_at(b, shards)).collect()
        };
        let reference = schedule(3);
        assert_eq!(schedule(3), reference, "re-derivation");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reference = reference.clone();
                std::thread::spawn(move || {
                    let again: Vec<FaultPlan> = (0..200).map(|b| chaos().plan_at(b, 3)).collect();
                    assert_eq!(again, reference);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("purity check thread");
        }
    }

    #[test]
    fn different_seeds_eventually_pick_different_victims() {
        let a = FaultConfig { seed: 1, ..chaos() };
        let b = FaultConfig { seed: 2, ..chaos() };
        let victims = |c: &FaultConfig| -> Vec<usize> {
            (1..40)
                .filter_map(|w| c.plan_at(w * 10, 8).down_shard)
                .collect()
        };
        assert_ne!(victims(&a), victims(&b));
    }
}
