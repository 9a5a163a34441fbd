//! Time-dependent travel times: traffic profiles, congestion zones, and the
//! derived traffic epoch.
//!
//! The reproduction's scenario families need rush hour and incident spikes
//! (ROADMAP north-star, open item 1), but every dispatch decision must stay
//! replayable.  The resolution is the **traffic epoch**: a pure function of
//! `(TrafficConfig, batch clock)`.  Time is divided into fixed windows of
//! `epoch_seconds`; all traffic quantities for a window are derived from the
//! window's *start* instant, so any two processes (or worker-thread counts)
//! that agree on the batch clock agree bit-for-bit on every profile factor,
//! every reweighted edge, and every zone artifact's hub labels.
//!
//! Two multiplicative components make up an epoch's travel times:
//!
//! * a **profile** factor — `None` (free flow), `Rush` (a built-in double-peak
//!   weekday curve) or `Custom` (24 hourly factors), sampled at the epoch
//!   start mapped through `hour_scale` (simulated seconds per profile hour).
//!   It scales every road alike, so it changes no shortest path: the epoch's
//!   travel time is the zone-weighted answer times this factor
//!   ([`TrafficEpoch::scale`]), rounded once;
//! * **congestion zones** — up to [`MAX_TRAFFIC_ZONES`] axis-aligned boxes,
//!   each with its own factor and active window `[active_from, active_until)`
//!   in simulation seconds.  A zone applies to an edge when the edge's
//!   midpoint lies inside the box and the epoch start is inside the window,
//!   and reweights that edge ([`TrafficEpoch::zone_multiplier`]).
//!
//! Factors multiply *travel times*, so `> 1.0` means congestion (slower) and
//! `< 1.0` free-flowing overnight roads.  Each component is clamped to at
//! least [`MIN_MULTIPLIER`] so a zero/negative factor can never produce a
//! zero or negative travel time.
//!
//! [`TrafficConfig`] is `Copy` (zones live in a fixed-size array) so it can
//! ride inside the simulation config and the trace metadata by value, exactly
//! like every other knob replay pins.

use crate::graph::Point;

/// Maximum number of congestion zones a config can carry.  A fixed cap keeps
/// [`TrafficConfig`] `Copy` and the trace text format bounded.
pub const MAX_TRAFFIC_ZONES: usize = 4;

/// Lower clamp for the combined edge multiplier: a malformed factor can slow
/// an edge down arbitrarily but can never make it free or negative.
pub const MIN_MULTIPLIER: f64 = 0.05;

/// The built-in rush-hour curve: hourly travel-time multipliers with a
/// morning peak at 08:00 and an evening peak at 17:00, free flow overnight.
pub const RUSH_PROFILE: [f64; 24] = [
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, // 00:00 – 05:59 free flow
    1.15, 1.45, 1.75, 1.4, // 06:00 – 09:59 morning peak
    1.1, 1.1, 1.1, 1.1, 1.1, 1.15, // 10:00 – 15:59 daytime background
    1.4, 1.75, 1.55, 1.25, // 16:00 – 19:59 evening peak
    1.1, 1.0, 1.0, 1.0, // 20:00 – 23:59 tail-off
];

/// Which time-of-day curve scales edge travel times.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficProfile {
    /// Free flow: every hour's factor is exactly 1.0.  The engine treats a
    /// config with this profile and no zones as *static* and keeps the
    /// pre-traffic fast path (no epoch state at all).
    #[default]
    None,
    /// The built-in [`RUSH_PROFILE`] double-peak weekday curve.
    Rush,
    /// Caller-supplied hourly travel-time multipliers (index = hour of day).
    Custom([f64; 24]),
}

impl TrafficProfile {
    /// The travel-time multiplier for `hour` (0–23).
    pub fn factor(&self, hour: usize) -> f64 {
        match self {
            TrafficProfile::None => 1.0,
            TrafficProfile::Rush => RUSH_PROFILE[hour % 24],
            TrafficProfile::Custom(hours) => hours[hour % 24],
        }
    }
}

/// An axis-aligned congestion box with its own travel-time factor and an
/// active window in simulation seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CongestionZone {
    /// West edge of the box (meters, projected).
    pub min_x: f64,
    /// South edge of the box.
    pub min_y: f64,
    /// East edge of the box.
    pub max_x: f64,
    /// North edge of the box.
    pub max_y: f64,
    /// Travel-time multiplier applied to edges whose midpoint is inside.
    pub factor: f64,
    /// First simulation second the zone is active (inclusive).
    pub active_from: f64,
    /// Last simulation second the zone is active (exclusive).
    pub active_until: f64,
}

impl CongestionZone {
    /// True when the zone is active for an epoch starting at `epoch_start`.
    pub fn active_at(&self, epoch_start: f64) -> bool {
        self.active_from <= epoch_start && epoch_start < self.active_until
    }

    /// True when `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.min_x <= p.x && p.x <= self.max_x && self.min_y <= p.y && p.y <= self.max_y
    }
}

/// The complete time-dependent travel-time model: profile + zones + epoch
/// granularity.  `Copy`, `PartialEq`, and fully serialized into trace
/// metadata so replay reconstructs the identical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Time-of-day curve.
    pub profile: TrafficProfile,
    /// Up to [`MAX_TRAFFIC_ZONES`] congestion boxes (empty slots are `None`).
    pub zones: [Option<CongestionZone>; MAX_TRAFFIC_ZONES],
    /// Epoch width in simulation seconds: multipliers change only at
    /// multiples of this, and each change triggers one label refresh.
    pub epoch_seconds: f64,
    /// Simulated seconds per *profile hour*.  With the default 3600 a
    /// 24-hour curve spans a day of simulation time; benches compress it
    /// (e.g. 30) so a short horizon sweeps the whole curve.
    pub hour_scale: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            profile: TrafficProfile::None,
            zones: [None; MAX_TRAFFIC_ZONES],
            epoch_seconds: 3600.0,
            hour_scale: 3600.0,
        }
    }
}

impl TrafficConfig {
    /// A free-flow config (the default): static engine fast path.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the model can never change an edge weight: profile `None`
    /// and no zones.  Engines skip all epoch machinery in this case, which
    /// is what keeps pre-traffic traces bit-identical.
    pub fn is_static(&self) -> bool {
        matches!(self.profile, TrafficProfile::None) && self.zones.iter().all(Option::is_none)
    }

    /// Returns the config with `zone` added in the first free slot.
    ///
    /// # Panics
    /// Panics if all [`MAX_TRAFFIC_ZONES`] slots are taken.
    pub fn with_zone(mut self, zone: CongestionZone) -> Self {
        let slot = self
            .zones
            .iter_mut()
            .find(|z| z.is_none())
            .expect("all congestion-zone slots are taken");
        *slot = Some(zone);
        self
    }

    /// The zones in slot order, skipping empty slots.
    pub fn zones(&self) -> impl Iterator<Item = &CongestionZone> {
        self.zones.iter().flatten()
    }

    /// Derives the traffic epoch covering simulation instant `now`.
    ///
    /// This is **the** purity point of the whole layer: the result depends
    /// only on `(self, now)` — no wall clock, no thread count, no iteration
    /// order — and every quantity is derived from the epoch's *start*
    /// instant, so all instants inside one epoch produce identical epochs.
    pub fn epoch_at(&self, now: f64) -> TrafficEpoch {
        let width = if self.epoch_seconds.is_finite() && self.epoch_seconds > 0.0 {
            self.epoch_seconds
        } else {
            3600.0
        };
        let index = (now / width).floor().max(0.0) as u64;
        let start = index as f64 * width;
        let hour = if self.hour_scale.is_finite() && self.hour_scale > 0.0 {
            ((start / self.hour_scale).floor() as i64).rem_euclid(24) as usize
        } else {
            0
        };
        let raw = self.profile.factor(hour);
        let profile_multiplier = if raw.is_finite() && raw > 0.0 {
            raw
        } else {
            1.0
        };
        let mut active_zones = [None; MAX_TRAFFIC_ZONES];
        for (slot, zone) in active_zones.iter_mut().zip(self.zones.iter()) {
            if let Some(zone) = zone {
                if zone.active_at(start) {
                    *slot = Some(*zone);
                }
            }
        }
        TrafficEpoch {
            index,
            start,
            profile_multiplier,
            active_zones,
        }
    }
}

/// The resolved traffic state for one epoch window: everything needed to
/// reweight the network, derived purely from `(TrafficConfig, epoch start)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEpoch {
    /// Epoch number: `floor(now / epoch_seconds)`.
    pub index: u64,
    /// The epoch's start instant (`index * epoch_seconds`) — the instant all
    /// time-dependent quantities are sampled at.
    pub start: f64,
    /// The profile factor for this epoch's hour of day.
    pub profile_multiplier: f64,
    active_zones: [Option<CongestionZone>; MAX_TRAFFIC_ZONES],
}

impl TrafficEpoch {
    /// The zones active during this epoch, in slot order.
    pub fn active_zones(&self) -> impl Iterator<Item = &CongestionZone> {
        self.active_zones.iter().flatten()
    }

    /// The factor every travel time of this epoch scales by: the profile
    /// factor, clamped to at least [`MIN_MULTIPLIER`].  Exactly 1.0 in a
    /// free-flow hour.
    pub fn scale(&self) -> f64 {
        self.profile_multiplier.max(MIN_MULTIPLIER)
    }

    /// The zone multiplier for an edge running `from -> to`: the factor of
    /// every active zone containing the edge midpoint, multiplied up from
    /// exactly 1.0 and clamped to at least [`MIN_MULTIPLIER`].  An edge no
    /// zone covers gets exactly 1.0.  Using the midpoint makes the
    /// multiplier symmetric in `(from, to)`, so a bidirectional road pair
    /// stays symmetric under congestion.
    pub fn zone_multiplier(&self, from: Point, to: Point) -> f64 {
        let mid = Point::new((from.x + to.x) * 0.5, (from.y + to.y) * 0.5);
        let mut m = 1.0;
        for zone in self.effective_zones() {
            if zone.contains(mid) {
                m *= zone.factor;
            }
        }
        m.max(MIN_MULTIPLIER)
    }

    /// True when every travel time is the free-flow one: profile factor 1.0
    /// and no active zone.
    pub fn is_free_flow(&self) -> bool {
        self.profile_multiplier == 1.0 && self.active_zones().next().is_none()
    }

    /// The zones of this epoch that can actually change an edge weight:
    /// active, with a finite positive factor.
    fn effective_zones(&self) -> impl Iterator<Item = &CongestionZone> {
        self.active_zones()
            .filter(|z| z.factor.is_finite() && z.factor > 0.0)
    }

    /// A bit-exact fingerprint of the epoch's zone activity: the geometry
    /// and factor of every effective zone.  Two epochs with equal
    /// signatures produce bit-identical zone-reweighted networks regardless
    /// of their indices, start instants or profile factors — the key the
    /// epoch-artifact memo is indexed by.
    pub fn signature(&self) -> EpochSignature {
        let mut zones = [None; MAX_TRAFFIC_ZONES];
        for (slot, zone) in zones.iter_mut().zip(self.effective_zones()) {
            *slot = Some([
                zone.min_x.to_bits(),
                zone.min_y.to_bits(),
                zone.max_x.to_bits(),
                zone.max_y.to_bits(),
                zone.factor.to_bits(),
            ]);
        }
        EpochSignature { zones }
    }
}

/// See [`TrafficEpoch::signature`].  `Eq`/`Hash` over raw float bits, so the
/// fingerprint distinguishes exactly what the zone reweighting
/// distinguishes.  The default is the zone-free signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EpochSignature {
    zones: [Option<[u64; 5]>; MAX_TRAFFIC_ZONES],
}

impl EpochSignature {
    /// True when no effective zone participates: every edge keeps its
    /// free-flow weight, and travel times are the free-flow ones times the
    /// epoch's [`TrafficEpoch::scale`].
    pub fn is_uniform(&self) -> bool {
        self.zones.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(factor: f64, from: f64, until: f64) -> CongestionZone {
        CongestionZone {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 100.0,
            max_y: 100.0,
            factor,
            active_from: from,
            active_until: until,
        }
    }

    #[test]
    fn default_config_is_static_and_free_flow() {
        let config = TrafficConfig::default();
        assert!(config.is_static());
        let epoch = config.epoch_at(12345.0);
        assert!(epoch.is_free_flow());
        assert_eq!(
            epoch.zone_multiplier(Point::new(0.0, 0.0), Point::new(50.0, 50.0)),
            1.0
        );
    }

    #[test]
    fn rush_profile_peaks_morning_and_evening() {
        assert_eq!(RUSH_PROFILE.len(), 24);
        assert!(RUSH_PROFILE.iter().all(|&f| (1.0..=2.0).contains(&f)));
        assert_eq!(RUSH_PROFILE[8], 1.75);
        assert_eq!(RUSH_PROFILE[17], 1.75);
        assert_eq!(RUSH_PROFILE[3], 1.0);
        let config = TrafficConfig {
            profile: TrafficProfile::Rush,
            ..TrafficConfig::default()
        };
        assert!(!config.is_static());
        // hour_scale 3600: epoch at 8h of simulation time samples hour 8.
        let epoch = config.epoch_at(8.0 * 3600.0 + 10.0);
        assert_eq!(epoch.profile_multiplier, 1.75);
    }

    #[test]
    fn epochs_quantize_to_their_start_instant() {
        let config = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 600.0,
            hour_scale: 600.0, // one profile hour per epoch
            ..TrafficConfig::default()
        };
        // Every instant inside an epoch yields the identical epoch.
        let a = config.epoch_at(1200.0);
        let b = config.epoch_at(1799.999);
        assert_eq!(a, b);
        assert_eq!(a.index, 2);
        assert_eq!(a.start, 1200.0);
        assert_eq!(a.profile_multiplier, RUSH_PROFILE[2]);
        // The next instant starts epoch 3.
        assert_eq!(config.epoch_at(1800.0).index, 3);
        // The hour wraps modulo 24.
        assert_eq!(
            config.epoch_at(600.0 * 25.0).profile_multiplier,
            RUSH_PROFILE[1]
        );
    }

    #[test]
    fn zones_apply_by_midpoint_and_window() {
        let config = TrafficConfig {
            epoch_seconds: 500.0,
            ..TrafficConfig::default()
        }
        .with_zone(zone(2.0, 1000.0, 2000.0));
        assert!(!config.is_static());
        // Outside the active window: free flow.
        assert!(config.epoch_at(0.0).is_free_flow());
        assert!(config.epoch_at(2000.0).is_free_flow());
        // Inside: edges whose midpoint is in the box are doubled.
        let epoch = config.epoch_at(1500.0);
        let inside = epoch.zone_multiplier(Point::new(10.0, 10.0), Point::new(30.0, 30.0));
        assert_eq!(inside, 2.0);
        // Midpoint outside the box (edge straddles far past it): unaffected.
        let outside = epoch.zone_multiplier(Point::new(90.0, 90.0), Point::new(300.0, 300.0));
        assert_eq!(outside, 1.0);
    }

    #[test]
    fn zone_factors_stack_multiplicatively_and_clamp() {
        let config = TrafficConfig::default()
            .with_zone(zone(2.0, 0.0, 1e9))
            .with_zone(zone(1.5, 0.0, 1e9));
        let epoch = config.epoch_at(100.0);
        let m = epoch.zone_multiplier(Point::new(10.0, 10.0), Point::new(20.0, 20.0));
        assert!((m - 3.0).abs() < 1e-12);
        // A pathological tiny factor clamps at MIN_MULTIPLIER.
        let crushed = TrafficConfig::default().with_zone(zone(1e-9, 0.0, 1e9));
        let m = crushed
            .epoch_at(0.0)
            .zone_multiplier(Point::new(10.0, 10.0), Point::new(20.0, 20.0));
        assert_eq!(m, MIN_MULTIPLIER);
    }

    #[test]
    fn scale_and_signature_split_profile_from_zone_activity() {
        let config = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 100.0,
            hour_scale: 100.0,
            ..TrafficConfig::default()
        }
        .with_zone(zone(2.0, 1000.0, 2000.0));
        // Zone inactive: the epoch scales every travel time by its profile
        // factor, and no edge is reweighted.
        let uniform = config.epoch_at(850.0);
        assert_eq!(uniform.scale().to_bits(), RUSH_PROFILE[8].to_bits());
        assert!(uniform.signature().is_uniform());
        assert_eq!(uniform.signature(), EpochSignature::default());
        assert_eq!(
            uniform
                .zone_multiplier(Point::new(10.0, 10.0), Point::new(20.0, 20.0))
                .to_bits(),
            1.0f64.to_bits()
        );
        // Zone active: edges in the box are reweighted, the profile factor
        // still scales the answer.
        let mixed = config.epoch_at(1500.0);
        assert!(!mixed.signature().is_uniform());
        assert_ne!(mixed.signature(), uniform.signature());
        assert_eq!(
            mixed.zone_multiplier(Point::new(10.0, 10.0), Point::new(20.0, 20.0)),
            2.0
        );
        assert_eq!(mixed.scale(), RUSH_PROFILE[15]);
        // Same hour re-derived later (rush hour 8 == hour 32 mod 24): the
        // signatures match even though index/start differ.
        let again = config.epoch_at(850.0 + 2400.0);
        assert_ne!(again.index, uniform.index);
        assert_eq!(again.signature(), uniform.signature());
        // A profile change moves the scale but not the signature.
        let other_hour = config.epoch_at(650.0);
        assert_eq!(other_hour.signature(), uniform.signature());
        assert_ne!(other_hour.scale(), uniform.scale());
        // A weight-inert zone (non-finite / non-positive factor) does not
        // break uniformity: zone_multiplier skips it, so must the signature.
        let inert = TrafficConfig::default().with_zone(zone(-3.0, 0.0, 1e9));
        let epoch = inert.epoch_at(10.0);
        assert!(!epoch.is_free_flow(), "zone is active, just inert");
        assert!(epoch.signature().is_uniform());
        assert_eq!(
            epoch.zone_multiplier(Point::new(10.0, 10.0), Point::new(20.0, 20.0)),
            1.0
        );
    }

    #[test]
    fn epoch_derivation_is_a_pure_function_of_config_and_clock() {
        // Satellite: re-deriving the epoch for the same (config, clock) pair
        // must be bit-identical across arbitrarily many re-runs, for a
        // deterministic pseudo-random spread of configs and clocks.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let mut custom = [0.0; 24];
            for slot in custom.iter_mut() {
                *slot = 0.5 + 2.0 * next();
            }
            let config = TrafficConfig {
                profile: match (next() * 3.0) as u32 {
                    0 => TrafficProfile::None,
                    1 => TrafficProfile::Rush,
                    _ => TrafficProfile::Custom(custom),
                },
                epoch_seconds: 1.0 + next() * 5000.0,
                hour_scale: 1.0 + next() * 5000.0,
                ..TrafficConfig::default()
            }
            .with_zone(zone(
                0.5 + next() * 3.0,
                next() * 1000.0,
                1000.0 + next() * 9000.0,
            ));
            let now = next() * 100_000.0;
            let first = config.epoch_at(now);
            for _ in 0..5 {
                assert_eq!(config.epoch_at(now), first);
            }
            // Multipliers derived from the epoch are pure too.
            let a = Point::new(next() * 200.0, next() * 200.0);
            let b = Point::new(next() * 200.0, next() * 200.0);
            let m = first.zone_multiplier(a, b);
            assert_eq!(m.to_bits(), first.zone_multiplier(a, b).to_bits());
            assert!(m >= MIN_MULTIPLIER);
        }
    }
}
