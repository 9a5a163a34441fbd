//! Small sampling helpers built directly on `rand`.
//!
//! Only the distributions the workload generator needs are implemented:
//! standard normal (Box–Muller), normal, log-normal (the paper's trip-distance
//! model) and exponential (Poisson inter-arrival times).

use rand::Rng;

/// Draws a standard-normal sample using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws from `N(mean, std_dev²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Draws from a log-normal distribution with underlying normal `N(mu, sigma²)`.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draws an exponential inter-arrival time with the given rate (events per
/// second).  A non-positive rate yields infinity (no more arrivals).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_is_positive_and_skewed() {
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<f64> = (0..10_000)
            .map(|_| log_normal(&mut rng, 0.0, 0.7))
            .collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        // Log-normal distributions have mean > median.
        assert!(mean > median);
        assert!((median - 1.0).abs() < 0.1, "median {median}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(9);
        let rate = 0.5;
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!(exponential(&mut rng, 0.0).is_infinite());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| log_normal(&mut rng, 1.0, 0.5)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| log_normal(&mut rng, 1.0, 0.5)).collect()
        };
        assert_eq!(a, b);
    }
}
