//! Concentration-bound thresholds.
//!
//! The paper converts probabilistic precision/recall constraints into
//! deterministic slack terms in two ways:
//!
//! * **Hoeffding** (§3.2.1, perfect selectivities): the constraint LHS is a
//!   sum of independent bounded per-tuple variables, so it stays within
//!   `h = sqrt(ln(1/(1-ρ)) · Σ width_i² / 2)` of its expectation with
//!   probability ≥ ρ. The paper's printed formulas
//!   (`h^p_ρ = sqrt(log(1-ρ)Σt_a/2)`) have a sign garble (log of a value
//!   < 1 is negative) and an unsquared `(1-β)` factor; we implement the
//!   rigorous form derived in the paper's own appendix (10.1), where the
//!   per-tuple ranges are width 1 (precision) and width `1-β` (recall).
//! * **Chebyshev** (§3.3.1, estimated selectivities): a constraint
//!   `Q ≥ 0` holds with probability ≥ ρ whenever
//!   `E[Q] ≥ Dev(Q)/sqrt(1-ρ)`; the multiplier `e_ρ = 1/sqrt(1-ρ)` is
//!   [`chebyshev_scale`].
//!
//! And one bound the other way round, for checking the guarantee from
//! outside: [`wilson_lower`], the Wilson score interval's lower end on a
//! rate observed over independent runs.

/// Hoeffding threshold for a sum of independent variables with the given
/// total squared range width: with probability ≥ `rho` the sum is within
/// `hoeffding_threshold(sum_sq_widths, rho)` of its expectation (one-sided).
///
/// `sum_sq_widths` is `Σ_i (b_i - a_i)²` where variable `i` is supported on
/// `[a_i, b_i]`.
///
/// Panics unless `rho ∈ [0, 1)` and `sum_sq_widths ≥ 0`.
pub fn hoeffding_threshold(sum_sq_widths: f64, rho: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&rho),
        "satisfaction probability must be in [0,1), got {rho}"
    );
    assert!(sum_sq_widths >= 0.0, "squared widths must be nonnegative");
    // P(S - E[S] <= -t) <= exp(-2 t^2 / sum_sq_widths)  =>
    // t = sqrt( ln(1/(1-rho)) * sum_sq_widths / 2 ).
    (((1.0 - rho).recip()).ln() * sum_sq_widths / 2.0).sqrt()
}

/// Hoeffding slack for the **precision** constraint of LinearProg 3.4:
/// per-tuple indicator `I^p ∈ [-α, 1-α]` has width 1, so the squared width
/// total is just the number of tuples `n`.
pub fn precision_slack(total_tuples: f64, rho: f64) -> f64 {
    hoeffding_threshold(total_tuples.max(0.0), rho)
}

/// Hoeffding slack for the **recall** constraint of LinearProg 3.4:
/// per-tuple indicator `I^r ∈ [0, 1-β]` has width `1-β`, so the squared
/// width total is `n (1-β)²`.
pub fn recall_slack(total_tuples: f64, beta: f64, rho: f64) -> f64 {
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
    let w = 1.0 - beta;
    hoeffding_threshold((total_tuples * w * w).max(0.0), rho)
}

/// Chebyshev multiplier `e_ρ = 1/sqrt(1-ρ)` (paper §3.3.1): a one-sided
/// constraint `Q ≥ 0` holds with probability ≥ ρ if
/// `E[Q] ≥ e_ρ · Dev(Q)`.
///
/// Panics unless `rho ∈ [0, 1)`.
pub fn chebyshev_scale(rho: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&rho),
        "satisfaction probability must be in [0,1), got {rho}"
    );
    (1.0 - rho).sqrt().recip()
}

/// The lower end of the 95 % Wilson score interval on the success rate
/// behind `successes` of `trials` independent runs: the rate a gate can
/// claim the runs clear, not only the rate they showed. With `p̂ =
/// successes/trials`, `n = trials` and `z = 1.959964` (the two-sided
/// 95 % normal quantile), it is
/// `(p̂ + z²/2n − z·sqrt(p̂(1−p̂)/n + z²/4n²)) / (1 + z²/n)`.
///
/// Panics unless `successes ≤ trials` and `trials > 0`.
pub fn wilson_lower(successes: u64, trials: u64) -> f64 {
    assert!(trials > 0, "a rate needs at least one trial");
    assert!(successes <= trials, "successes cannot exceed trials");
    let z = 1.959_963_984_540_054_f64;
    let (n, z2) = (trials as f64, z * z);
    let p = successes as f64 / n;
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((p + z2 / (2.0 * n) - margin) / (1.0 + z2 / n)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoeffding_zero_when_certain_of_nothing() {
        // rho = 0 demands nothing, so no slack is needed.
        assert_eq!(hoeffding_threshold(100.0, 0.0), 0.0);
    }

    #[test]
    fn hoeffding_grows_with_rho_and_n() {
        let a = hoeffding_threshold(1000.0, 0.8);
        let b = hoeffding_threshold(1000.0, 0.95);
        let c = hoeffding_threshold(4000.0, 0.8);
        assert!(b > a, "more confidence needs more slack");
        assert!((c - 2.0 * a).abs() < 1e-9, "slack scales as sqrt(n)");
    }

    #[test]
    fn hoeffding_known_value() {
        // n = 2, rho = 1 - e^{-2}: t = sqrt(2 * 2 / 2) ... compute directly:
        let rho = 1.0 - (-2.0f64).exp();
        let t = hoeffding_threshold(2.0, rho);
        assert!((t - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn recall_slack_shrinks_as_beta_tightens() {
        // Counterintuitive but correct: the recall indicator range is
        // [0, 1-beta], so larger beta means tighter indicators and a
        // smaller required slack.
        let loose = recall_slack(10_000.0, 0.2, 0.8);
        let tight = recall_slack(10_000.0, 0.9, 0.8);
        assert!(tight < loose);
        assert_eq!(recall_slack(10_000.0, 1.0, 0.8), 0.0);
    }

    #[test]
    fn precision_slack_matches_raw_threshold() {
        assert_eq!(
            precision_slack(5000.0, 0.9),
            hoeffding_threshold(5000.0, 0.9)
        );
    }

    #[test]
    fn chebyshev_scale_known_values() {
        assert!((chebyshev_scale(0.0) - 1.0).abs() < 1e-12);
        assert!((chebyshev_scale(0.75) - 2.0).abs() < 1e-12);
        assert!((chebyshev_scale(0.96) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn chebyshev_rejects_rho_one() {
        chebyshev_scale(1.0);
    }

    #[test]
    fn wilson_lower_known_values() {
        // Closed forms evaluated in f64 elsewhere, and the textbook
        // interval for 81 of 263, (0.2553, 0.3662).
        for (successes, trials, want) in [
            (50, 100, 0.403_831_530_365_995_7),
            (10, 10, 0.722_467_200_137_110_6),
            (190, 200, 0.910_421_851_861_223_9),
            (172, 200, 0.805_101_191_342_924_3),
            (81, 263, 0.255_288_519_878_274_2),
        ] {
            let got = wilson_lower(successes, trials);
            assert!((got - want).abs() < 1e-12, "{successes}/{trials}: {got}");
        }
        assert_eq!(wilson_lower(0, 10), 0.0);
    }

    #[test]
    fn wilson_lower_sits_below_the_rate_and_tightens_with_trials() {
        for trials in [1u64, 7, 200, 10_000] {
            for successes in [0, trials / 3, trials / 2, trials] {
                let rate = successes as f64 / trials as f64;
                // Up to rounding: at no successes both terms are z²/2n.
                assert!(wilson_lower(successes, trials) <= rate + 1e-15);
            }
        }
        assert!(wilson_lower(900, 1_000) > wilson_lower(180, 200));
    }

    #[test]
    #[should_panic(expected = "successes cannot exceed trials")]
    fn wilson_lower_rejects_excess_successes() {
        wilson_lower(3, 2);
    }

    #[test]
    #[should_panic]
    fn hoeffding_rejects_negative_widths() {
        hoeffding_threshold(-1.0, 0.5);
    }
}
