//! Planar geometry used by the angle-pruning strategy (§III-B).

/// A 2-D vector in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from components.
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The vector pointing from `from` to `to`, given as `(x, y)` pairs.
    pub fn from_points(from: (f64, f64), to: (f64, f64)) -> Self {
        Vec2 {
            x: to.0 - from.0,
            y: to.1 - from.1,
        }
    }

    /// Dot product.
    pub fn dot(&self, other: &Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// True if the vector has (numerically) zero length.
    pub fn is_zero(&self) -> bool {
        self.norm() < 1e-12
    }
}

/// Angle in radians, in `[0, π]`, between two vectors.
///
/// This is the `θ` of Theorem III.1: the angle between `−→s_b e_a` and
/// `−→s_b e_b`.  If either vector is degenerate (zero length — e.g. the new
/// request's destination coincides with the candidate's source) the angle is
/// defined as `0`, i.e. the pair is never pruned on direction alone.
pub fn angle_between(a: Vec2, b: Vec2) -> f64 {
    if a.is_zero() || b.is_zero() {
        return 0.0;
    }
    let cos = (a.dot(&b) / (a.norm() * b.norm())).clamp(-1.0, 1.0);
    cos.acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn orthogonal_vectors_are_half_pi() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 3.0);
        assert!((angle_between(a, b) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn parallel_vectors_are_zero() {
        let a = Vec2::new(2.0, 2.0);
        let b = Vec2::new(4.0, 4.0);
        // acos is extremely sensitive near cos = 1, so use a loose tolerance.
        assert!(angle_between(a, b).abs() < 1e-6);
    }

    #[test]
    fn opposite_vectors_are_pi() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(-5.0, 0.0);
        assert!((angle_between(a, b) - PI).abs() < 1e-9);
    }

    #[test]
    fn degenerate_vectors_are_zero_angle() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 1.0);
        assert_eq!(angle_between(a, b), 0.0);
        assert!(a.is_zero());
        assert!(!b.is_zero());
    }

    #[test]
    fn from_points_builds_direction() {
        let v = Vec2::from_points((1.0, 1.0), (4.0, 5.0));
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert!((v.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn angle_is_symmetric() {
        let a = Vec2::new(1.0, 0.2);
        let b = Vec2::new(-0.3, 0.9);
        assert!((angle_between(a, b) - angle_between(b, a)).abs() < 1e-12);
    }
}
