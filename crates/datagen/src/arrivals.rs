//! Streaming arrival processes: timestamped requests, one at a time.
//!
//! The batch simulator consumes pre-materialised request vectors whose
//! release times were drawn up front.  The ingest front end
//! (`structride_core::ingest`) instead consumes a *stream* — requests that
//! become visible only at their arrival instant, at whatever rate the
//! arrival process produces them.  [`ArrivalStream`] is that producer: a
//! lazy iterator drawing inter-arrival gaps from an [`ArrivalProfile`]
//! (homogeneous Poisson, or a bursty surge profile that alternates calm and
//! surge rates) and sampling each trip through the shared
//! [`TripSampler`], so streamed and
//! pre-materialised workloads follow the identical spatial model.
//!
//! Everything is seeded: a stream is a pure function of
//! `(engine, profile, request params, count, seed)`, which is what lets the
//! replay harness regenerate the exact arrival stream of a recorded
//! ingested run from trace metadata.

use crate::distributions;
use crate::requests::{RequestGenParams, TripSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use structride_model::Request;
use structride_roadnet::SpEngine;

/// The arrival-rate profile of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProfile {
    /// Homogeneous Poisson arrivals at `rate` requests per second.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Calm/surge alternation: each `period` seconds begin with a surge
    /// lasting `surge_fraction * period` seconds at `surge_rate`, followed by
    /// calm at `base_rate` — the demand spike shape (concert lets out, rain
    /// starts) that batch-synchronous release schedules cannot express.
    BurstySurge {
        /// Arrival rate outside surges, requests per second.
        base_rate: f64,
        /// Arrival rate during surges, requests per second.
        surge_rate: f64,
        /// Length of one calm+surge cycle, seconds.
        period: f64,
        /// Fraction of each period spent surging, in `(0, 1)`.
        surge_fraction: f64,
    },
}

impl ArrivalProfile {
    /// The instantaneous arrival rate at time `t` (requests per second).
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalProfile::Poisson { rate } => rate,
            ArrivalProfile::BurstySurge {
                base_rate,
                surge_rate,
                period,
                surge_fraction,
            } => {
                let phase = (t.rem_euclid(period.max(1e-9))) / period.max(1e-9);
                if phase < surge_fraction.clamp(0.0, 1.0) {
                    surge_rate
                } else {
                    base_rate
                }
            }
        }
    }

    /// The maximum instantaneous rate (the thinning envelope).
    fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProfile::Poisson { rate } => rate,
            ArrivalProfile::BurstySurge {
                base_rate,
                surge_rate,
                ..
            } => base_rate.max(surge_rate),
        }
    }

    /// Draws the next arrival instant strictly after `t` by Lewis–Shedler
    /// thinning: candidate gaps from an exponential at the peak rate, each
    /// accepted with probability `rate_at(candidate) / peak`.  For the
    /// homogeneous profile every candidate is accepted, so this reduces to
    /// plain exponential gaps.
    pub fn next_arrival(&self, rng: &mut StdRng, t: f64) -> f64 {
        let peak = self.peak_rate().max(1e-9);
        let mut now = t;
        loop {
            now += distributions::exponential(rng, peak);
            if rng.gen::<f64>() * peak <= self.rate_at(now) {
                return now;
            }
        }
    }
}

/// Parameters of one streamed arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalStreamParams {
    /// The arrival-rate profile.
    pub profile: ArrivalProfile,
    /// The spatial trip model (hotspots, trip distances, deadlines).
    pub request: RequestGenParams,
    /// Number of requests the stream emits before ending.
    pub count: usize,
    /// First request id; ids are consecutive in emission order.
    pub first_id: u32,
}

/// A lazy, seeded stream of timestamped requests.
///
/// `next()` draws the next arrival instant from the profile and the trip
/// from the shared spatial sampler; requests come out in strictly
/// non-decreasing release order with consecutive ids.  The stream holds only
/// the sampler state — nothing is pre-materialised, so a million-request
/// stream costs a million-request iteration, not a million-request
/// allocation.
pub struct ArrivalStream<'a> {
    engine: &'a SpEngine,
    sampler: TripSampler,
    rng: StdRng,
    profile: ArrivalProfile,
    remaining: usize,
    next_id: u32,
    clock: f64,
}

impl<'a> ArrivalStream<'a> {
    /// Opens a stream over `engine` described by `params`.
    pub fn new(engine: &'a SpEngine, params: &ArrivalStreamParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.request.seed);
        let sampler = TripSampler::new(engine, &params.request, None, &mut rng);
        ArrivalStream {
            engine,
            sampler,
            rng,
            profile: params.profile,
            remaining: params.count,
            next_id: params.first_id,
            clock: 0.0,
        }
    }

    /// The simulated time of the most recently emitted arrival.
    pub fn clock(&self) -> f64 {
        self.clock
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        while self.remaining > 0 {
            self.clock = self.profile.next_arrival(&mut self.rng, self.clock);
            let id = self.next_id;
            // A degenerate trip (no reachable distinct destination) consumes
            // its arrival slot but not its id, keeping ids consecutive over
            // the emitted requests.
            if let Some(request) = self
                .sampler
                .sample(self.engine, &mut self.rng, id, self.clock)
            {
                self.next_id += 1;
                self.remaining -= 1;
                return Some(request);
            }
        }
        None
    }
}

/// Materialises the whole stream — the bridge back to every API that takes a
/// release-ordered request slice.
pub fn stream_requests(engine: &SpEngine, params: &ArrivalStreamParams) -> Vec<Request> {
    ArrivalStream::new(engine, params).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{synthetic_city_network, NetworkParams};

    fn small_engine() -> SpEngine {
        let net = synthetic_city_network(&NetworkParams {
            rows: 10,
            cols: 10,
            seed: 4,
            ..Default::default()
        });
        SpEngine::new(net)
    }

    fn poisson_params(count: usize, rate: f64, seed: u64) -> ArrivalStreamParams {
        ArrivalStreamParams {
            profile: ArrivalProfile::Poisson { rate },
            request: RequestGenParams {
                seed,
                trip_log_mean: 6.5,
                ..Default::default()
            },
            count,
            first_id: 0,
        }
    }

    #[test]
    fn stream_emits_count_ordered_consecutive_requests() {
        let engine = small_engine();
        let reqs = stream_requests(&engine, &poisson_params(150, 1.0, 9));
        assert_eq!(reqs.len(), 150);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u32);
            assert!(r.shortest_cost > 0.0 && r.shortest_cost.is_finite());
            assert_ne!(r.source, r.destination);
        }
        for w in reqs.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
    }

    #[test]
    fn stream_is_deterministic_and_lazy_matches_collected() {
        let engine = small_engine();
        let params = poisson_params(60, 2.0, 33);
        let collected = stream_requests(&engine, &params);
        let mut lazy = ArrivalStream::new(&engine, &params);
        for expected in &collected {
            assert_eq!(lazy.next().as_ref(), Some(expected));
        }
        assert!(lazy.next().is_none());
    }

    #[test]
    fn poisson_rate_controls_mean_gap() {
        let engine = small_engine();
        let slow = stream_requests(&engine, &poisson_params(200, 0.5, 7));
        let fast = stream_requests(&engine, &poisson_params(200, 4.0, 7));
        let span = |reqs: &[Request]| reqs.last().unwrap().release - reqs[0].release;
        // 8x the rate compresses the span considerably (same seed, same
        // number of gaps).
        assert!(
            span(&fast) < span(&slow) / 3.0,
            "{} vs {}",
            span(&fast),
            span(&slow)
        );
    }

    #[test]
    fn bursty_profile_rate_shape_and_clustering() {
        let profile = ArrivalProfile::BurstySurge {
            base_rate: 0.5,
            surge_rate: 8.0,
            period: 60.0,
            surge_fraction: 0.25,
        };
        // Rate shape: surging during the first quarter of each period.
        assert_eq!(profile.rate_at(1.0), 8.0);
        assert_eq!(profile.rate_at(14.9), 8.0);
        assert_eq!(profile.rate_at(15.1), 0.5);
        assert_eq!(profile.rate_at(59.9), 0.5);
        assert_eq!(profile.rate_at(61.0), 8.0);

        // Arrivals cluster inside the surge windows: over many draws, far
        // more than surge_fraction of them land in the surge quarter.
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = 0.0;
        let mut in_surge = 0usize;
        let total = 600;
        for _ in 0..total {
            t = profile.next_arrival(&mut rng, t);
            if (t.rem_euclid(60.0)) / 60.0 < 0.25 {
                in_surge += 1;
            }
        }
        assert!(
            in_surge as f64 > 0.6 * total as f64,
            "only {in_surge}/{total} arrivals in the surge window"
        );
    }

    #[test]
    fn streamed_trips_follow_the_shared_spatial_model() {
        // Same request seed: the streamed trips and the pre-materialised
        // generator's trips come from the same sampler; with identical RNG
        // consumption patterns the hotspot centres match, so origins
        // concentrate identically.
        let engine = small_engine();
        let params = ArrivalStreamParams {
            profile: ArrivalProfile::Poisson { rate: 1.0 },
            request: RequestGenParams {
                hotspots: 1,
                hotspot_concentration: 1.0,
                hotspot_radius_frac: 0.03,
                seed: 11,
                ..Default::default()
            },
            count: 80,
            first_id: 0,
        };
        let reqs = stream_requests(&engine, &params);
        let mut sources: Vec<u32> = reqs.iter().map(|r| r.source).collect();
        sources.sort_unstable();
        sources.dedup();
        // A single tight hotspot at full concentration: few distinct origins.
        assert!(sources.len() < 20, "{} distinct origins", sources.len());
    }
}
