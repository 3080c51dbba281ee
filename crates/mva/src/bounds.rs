//! Asymptotic (bottleneck) bounds for single-class closed networks.
//!
//! Operational-law bounds need only the total demand per station — no
//! recursion — and bracket the exact MVA solution. The test suites use
//! them as an independent oracle for the solver, and they make quick
//! capacity estimates ("how many terminals can this site possibly
//! carry?") without simulating.

/// Asymptotic bounds on throughput and response time for a single-class
/// closed interactive system: `n` customers, think time `think`, and
/// per-station service demands `demands` (single-server stations).
///
/// Returned as `(x_lo, x_hi, r_lo, r_hi)`:
///
/// * `x_hi = min(n / (D + Z), 1 / D_max)` — customers can't cycle faster
///   than with zero queueing, nor faster than the bottleneck empties;
/// * `x_lo = n / (Z + n·D)` — even if every visit queues behind everyone;
/// * `r_lo = max(D, n·D_max − Z)` — response is at least the raw demand
///   and at least what the bottleneck forces at this population;
/// * `r_hi = n·D` — at worst every customer waits for all others at every
///   station.
///
/// # Panics
///
/// Panics if `demands` is empty, any demand is negative/non-finite,
/// `think` is negative, or `n` is zero.
///
/// # Example
///
/// ```
/// use dqa_mva::bounds::asymptotic_bounds;
///
/// let (x_lo, x_hi, r_lo, r_hi) = asymptotic_bounds(&[1.0, 0.5], 10.0, 4);
/// assert!(x_lo <= x_hi);
/// assert!(r_lo <= r_hi);
/// // Bottleneck law: never more than 1 completion per bottleneck-demand.
/// assert!(x_hi <= 1.0 / 1.0 + 1e-12);
/// ```
#[must_use]
pub fn asymptotic_bounds(demands: &[f64], think: f64, n: u32) -> (f64, f64, f64, f64) {
    assert!(!demands.is_empty(), "need at least one station");
    assert!(think >= 0.0 && think.is_finite(), "invalid think time");
    assert!(n > 0, "need at least one customer");
    let mut total = 0.0;
    let mut max = 0.0f64;
    for &d in demands {
        assert!(d.is_finite() && d >= 0.0, "invalid demand {d}");
        total += d;
        max = max.max(d);
    }
    let nf = f64::from(n);
    let x_hi = if max > 0.0 {
        (nf / (total + think)).min(1.0 / max)
    } else {
        nf / (total + think).max(f64::MIN_POSITIVE)
    };
    let x_lo = nf / (think + nf * total);
    let r_lo = total.max(nf * max - think);
    let r_hi = nf * total;
    (x_lo, x_hi, r_lo, r_hi)
}

/// The population beyond which the bottleneck saturates:
/// `n* = (D + Z) / D_max`. Below `n*` the optimistic bound governs; above
/// it the bottleneck does. (The knee of the classic throughput curve.)
///
/// # Panics
///
/// Panics on empty or invalid demands, or if every demand is zero.
#[must_use]
pub fn saturation_population(demands: &[f64], think: f64) -> f64 {
    assert!(!demands.is_empty(), "need at least one station");
    let total: f64 = demands.iter().sum();
    let max = demands.iter().cloned().fold(0.0f64, f64::max);
    assert!(max > 0.0, "at least one demand must be positive");
    (total + think) / max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Network, StationKind};

    fn exact(demands: &[f64], think: f64, n: u32) -> (f64, f64) {
        let mut b = Network::builder(1);
        if think > 0.0 {
            b = b.station("think", StationKind::Delay, [think]);
        }
        for (k, &d) in demands.iter().enumerate() {
            b = b.station(&format!("q{k}"), StationKind::Queueing, [d]);
        }
        let sol = solve(&b.build().unwrap(), &[n]);
        let x = sol.throughput(0);
        let r = f64::from(n) / x - think;
        (x, r)
    }

    #[test]
    fn bounds_bracket_exact_mva() {
        for demands in [vec![1.0], vec![1.0, 0.5], vec![0.3, 0.3, 0.9]] {
            for think in [0.0, 5.0, 50.0] {
                for n in [1u32, 2, 5, 10, 20] {
                    let (x_lo, x_hi, r_lo, r_hi) = asymptotic_bounds(&demands, think, n);
                    let (x, r) = exact(&demands, think, n);
                    assert!(
                        x_lo - 1e-9 <= x && x <= x_hi + 1e-9,
                        "X {x} outside [{x_lo}, {x_hi}] for {demands:?} Z={think} n={n}"
                    );
                    assert!(
                        r_lo - 1e-9 <= r && r <= r_hi + 1e-9,
                        "R {r} outside [{r_lo}, {r_hi}] for {demands:?} Z={think} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_customer_bounds_are_tight() {
        let (x_lo, x_hi, r_lo, _) = asymptotic_bounds(&[1.0, 2.0], 7.0, 1);
        assert!((x_lo - 0.1).abs() < 1e-12);
        assert!((x_hi - 0.1).abs() < 1e-12);
        assert!((r_lo - 3.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_knee() {
        // D = 3, Z = 7, Dmax = 2: n* = 5. The optimistic bound switches
        // from N-limited to bottleneck-limited there.
        let n_star = saturation_population(&[1.0, 2.0], 7.0);
        assert!((n_star - 5.0).abs() < 1e-12);
        let below = asymptotic_bounds(&[1.0, 2.0], 7.0, 4).1;
        assert!((below - 0.4).abs() < 1e-12, "below knee: N/(D+Z)");
        let above = asymptotic_bounds(&[1.0, 2.0], 7.0, 9).1;
        assert!((above - 0.5).abs() < 1e-12, "above knee: 1/Dmax");
    }

    #[test]
    fn exact_approaches_bottleneck_asymptote() {
        let (x, _) = exact(&[1.0, 2.0], 7.0, 60);
        assert!((x - 0.5).abs() < 1e-3, "X(60) = {x} should be near 1/Dmax");
    }

    #[test]
    #[should_panic(expected = "at least one customer")]
    fn zero_population_rejected() {
        let _ = asymptotic_bounds(&[1.0], 0.0, 0);
    }
}
