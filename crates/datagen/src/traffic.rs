//! Traffic scenario presets: ready-made [`TrafficConfig`]s for the two
//! time-dependent evaluation scenarios the bench and replay tooling exercise.
//!
//! The configs here only *parameterize* `structride_roadnet::traffic` — the
//! epoch derivation, profile factors and zone stacking all live there.  The
//! presets compress the traffic clock so short synthetic horizons (a few
//! simulated minutes) still sweep several distinct epochs: `epoch_seconds`
//! and `hour_scale` are inputs, not fixed at the real-world 3600 s.

use structride_roadnet::{CongestionZone, TrafficConfig, TrafficProfile};

/// A rush-hour scenario: the built-in [`TrafficProfile::Rush`] double-peaked
/// hourly curve on a compressed clock.
///
/// `epoch_seconds` sets how often the engines refresh their epoch artifacts;
/// `hour_scale` sets how many simulated seconds one "profile hour" lasts.
/// With e.g. `epoch_seconds = 40` and `hour_scale = 20`, a 200-second
/// horizon sweeps profile hours 0..=10 and crosses the morning peak (×1.75
/// at hour 8) — every epoch boundary rescaling the engines' answers.
pub fn rush_hour(epoch_seconds: f64, hour_scale: f64) -> TrafficConfig {
    TrafficConfig {
        profile: TrafficProfile::Rush,
        epoch_seconds,
        hour_scale,
        ..TrafficConfig::default()
    }
}

/// An incident-spike scenario: free-flow background with one severe
/// localized slowdown that switches on at `from` and clears at `until`
/// (simulated seconds), covering the axis-aligned box
/// `(min_x, min_y) .. (max_x, max_y)`.
///
/// Models a crash or closure: edges whose midpoint falls inside the box cost
/// `factor`× while the zone is active, everything else stays free flow.
/// Epochs roll at `epoch_seconds`, so activation takes effect at the first
/// epoch boundary at or after `from` — exactly the quantization the epoch
/// model defines.
#[allow(clippy::too_many_arguments)]
pub fn incident_spike(
    bbox: (f64, f64, f64, f64),
    factor: f64,
    from: f64,
    until: f64,
    epoch_seconds: f64,
) -> TrafficConfig {
    TrafficConfig {
        epoch_seconds,
        ..TrafficConfig::default()
    }
    .with_zone(CongestionZone {
        min_x: bbox.0,
        min_y: bbox.1,
        max_x: bbox.2,
        max_y: bbox.3,
        factor,
        active_from: from,
        active_until: until,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::Point;

    #[test]
    fn rush_hour_preset_sweeps_the_morning_peak() {
        let traffic = rush_hour(40.0, 20.0);
        assert!(!traffic.is_static());
        // Epoch starting at t=160 is profile hour 8: the ×1.75 peak.
        let epoch = traffic.epoch_at(165.0);
        assert_eq!(epoch.index, 4);
        assert_eq!(epoch.profile_multiplier, 1.75);
        // Overnight hours stay free flow.
        assert!(traffic.epoch_at(0.0).is_free_flow());
    }

    #[test]
    fn incident_spike_activates_only_inside_its_window_and_box() {
        let traffic = incident_spike((0.0, 0.0, 100.0, 100.0), 3.0, 100.0, 300.0, 50.0);
        assert!(!traffic.is_static());
        let inside = (Point::new(10.0, 10.0), Point::new(30.0, 30.0));
        let outside = (Point::new(500.0, 500.0), Point::new(600.0, 600.0));
        // Before the incident and after it clears: free flow everywhere.
        assert_eq!(
            traffic.epoch_at(60.0).zone_multiplier(inside.0, inside.1),
            1.0
        );
        assert_eq!(
            traffic.epoch_at(320.0).zone_multiplier(inside.0, inside.1),
            1.0
        );
        // During: only edges whose midpoint is inside the box slow down.
        let during = traffic.epoch_at(120.0);
        assert!(!during.is_free_flow());
        assert_eq!(during.zone_multiplier(inside.0, inside.1), 3.0);
        assert_eq!(during.zone_multiplier(outside.0, outside.1), 1.0);
    }
}
