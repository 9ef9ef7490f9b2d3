//! Constraints and reward functions (paper §2.1 and §4.2).
//!
//! A constraint pairs a metric (cardinality or cost) with a target (a point
//! or a range). The reward design is the paper's, verbatim:
//!
//! * point `C: metric = c`: `r = min(ĉ/c, c/ĉ)` for executable queries
//!   (0 if either side is 0), `r = 0` otherwise;
//! * range `C: metric ∈ [l, r]`: `r = 1` inside the range,
//!   `r = max(min(ĉ/l, l/ĉ), min(ĉ/r, r/ĉ))` outside, `r = 0` if not
//!   executable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which query property the constraint talks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Result-set size (estimated by the DB estimator).
    Cardinality,
    /// Optimizer cost units.
    Cost,
    /// Real execution latency in microseconds (paper Remark 3: latency is
    /// hardware-sensitive, which is why the paper — and our defaults — use
    /// cost instead; provided as an opt-in extension).
    Latency,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Cardinality => write!(f, "Cardinality"),
            Metric::Cost => write!(f, "Cost"),
            Metric::Latency => write!(f, "Latency(us)"),
        }
    }
}

/// Point or range target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Target {
    Point(f64),
    Range(f64, f64),
}

/// A user constraint, e.g. `Cardinality ∈ [1k, 2k]` or `Cost = 10⁴`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    pub metric: Metric,
    pub target: Target,
}

/// Relative tolerance for point constraints: the paper counts a query as
/// satisfied when its metric is within `±10%` of the point (§7.1).
pub const POINT_TOLERANCE: f64 = 0.1;

impl Constraint {
    /// Builds a constraint from untrusted values (CLI flags, request
    /// bodies): every target value must be a finite number `>= 0`, and a
    /// range needs `min <= max`.
    pub fn checked(metric: Metric, target: Target) -> Result<Constraint, String> {
        let (lo, hi) = match target {
            Target::Point(p) => (p, p),
            Target::Range(lo, hi) => (lo, hi),
        };
        if !(lo.is_finite() && hi.is_finite() && lo >= 0.0 && hi >= 0.0) {
            return Err("constraint values must be finite numbers >= 0".to_string());
        }
        if lo > hi {
            return Err("constraint min > max".to_string());
        }
        Ok(Constraint { metric, target })
    }

    pub fn cardinality_point(c: f64) -> Self {
        Constraint {
            metric: Metric::Cardinality,
            target: Target::Point(c),
        }
    }

    pub fn cardinality_range(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "range constraint with lo > hi");
        Constraint {
            metric: Metric::Cardinality,
            target: Target::Range(lo, hi),
        }
    }

    pub fn cost_point(c: f64) -> Self {
        Constraint {
            metric: Metric::Cost,
            target: Target::Point(c),
        }
    }

    pub fn cost_range(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "range constraint with lo > hi");
        Constraint {
            metric: Metric::Cost,
            target: Target::Range(lo, hi),
        }
    }

    /// Latency range in microseconds (requires
    /// [`crate::SqlGenEnv::with_database`]).
    pub fn latency_range_us(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "range constraint with lo > hi");
        Constraint {
            metric: Metric::Latency,
            target: Target::Range(lo, hi),
        }
    }

    /// The §4.2 reward for an executable query whose measured metric is
    /// `measured`. Call only for executable queries; non-executable partial
    /// queries receive 0 at the environment level.
    pub fn reward(&self, measured: f64) -> f64 {
        match self.target {
            Target::Point(c) => ratio_closeness(measured, c),
            Target::Range(lo, hi) => {
                if measured >= lo && measured <= hi {
                    1.0
                } else {
                    ratio_closeness(measured, lo).max(ratio_closeness(measured, hi))
                }
            }
        }
    }

    /// Whether a measured metric satisfies the constraint (point: within the
    /// ±10% tolerance band; range: inside the range).
    pub fn satisfied(&self, measured: f64) -> bool {
        match self.target {
            Target::Point(c) => (measured - c).abs() <= POINT_TOLERANCE * c,
            Target::Range(lo, hi) => measured >= lo && measured <= hi,
        }
    }

    /// A representative value inside the constraint (used by the meta-critic
    /// experiments to order tasks).
    pub fn center(&self) -> f64 {
        match self.target {
            Target::Point(c) => c,
            Target::Range(lo, hi) => 0.5 * (lo + hi),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            Target::Point(c) => write!(f, "{} = {c}", self.metric),
            Target::Range(lo, hi) => write!(f, "{} in [{lo}, {hi}]", self.metric),
        }
    }
}

/// `min(a/b, b/a)`, with 0 when either side is 0 (paper: "If c or ĉ is
/// zero, we set δ as 0").
fn ratio_closeness(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        0.0
    } else {
        (a / b).min(b / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Example 3: point constraint Card = 10 000.
    #[test]
    fn point_reward_matches_paper_example_3() {
        let c = Constraint::cardinality_point(10_000.0);
        assert!((c.reward(100.0) - 0.01).abs() < 1e-9);
        assert!((c.reward(11_000.0) - 10_000.0 / 11_000.0).abs() < 1e-9);
        assert_eq!(c.reward(10_000.0), 1.0);
        assert_eq!(c.reward(0.0), 0.0);
    }

    /// Paper Example 4: range constraint Card ∈ [1k, 2k].
    #[test]
    fn range_reward_matches_paper_example_4() {
        let c = Constraint::cardinality_range(1_000.0, 2_000.0);
        assert_eq!(c.reward(1_500.0), 1.0);
        assert!((c.reward(10_000.0) - 0.2).abs() < 1e-9);
        // Below the range: closeness to the left bound dominates.
        assert!((c.reward(500.0) - 0.5).abs() < 1e-9);
        assert_eq!(c.reward(1_000.0), 1.0);
        assert_eq!(c.reward(2_000.0), 1.0);
    }

    #[test]
    fn reward_is_monotone_toward_the_target() {
        let c = Constraint::cost_point(1_000.0);
        assert!(c.reward(900.0) > c.reward(500.0));
        assert!(c.reward(1_100.0) > c.reward(2_000.0));
        let r = Constraint::cost_range(100.0, 200.0);
        assert!(r.reward(90.0) > r.reward(10.0));
        assert!(r.reward(250.0) > r.reward(2_500.0));
    }

    #[test]
    fn reward_bounds() {
        let c = Constraint::cardinality_range(10.0, 20.0);
        for m in [0.0, 1.0, 10.0, 15.0, 20.0, 1e9] {
            let r = c.reward(m);
            assert!((0.0..=1.0).contains(&r), "reward {r} for {m}");
        }
    }

    #[test]
    fn satisfaction_tolerance() {
        let p = Constraint::cardinality_point(100.0);
        assert!(p.satisfied(95.0));
        assert!(p.satisfied(110.0));
        assert!(!p.satisfied(111.0));
        assert!(!p.satisfied(89.0));
        let r = Constraint::cardinality_range(100.0, 200.0);
        assert!(r.satisfied(100.0));
        assert!(r.satisfied(200.0));
        assert!(!r.satisfied(99.9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Constraint::cardinality_range(1000.0, 2000.0).to_string(),
            "Cardinality in [1000, 2000]"
        );
        assert_eq!(Constraint::cost_point(10.0).to_string(), "Cost = 10");
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn rejects_inverted_range() {
        Constraint::cardinality_range(10.0, 1.0);
    }
}
