//! Skew overhead analysis (Section 4.1 of the paper).
//!
//! Consider one operation executed with `a` activations and `n` threads,
//! where `P` is the average activation processing time and `Pmax` the
//! processing time of the most expensive activation. The paper derives:
//!
//! ```text
//! Tideal  = a · P / n                                         (eq. 1)
//! Tworst ≤ (a · P − Pmax) / n + Pmax                          (eq. 2)
//! v      ≤ (Pmax / P) · (n − 1) / a                           (eq. 3)
//! ```
//!
//! where `Tworst = (1 + v) · Tideal`. The overhead `v` is what the figures
//! of Section 5 plot as `vworst`, and what Expt 3 measures as
//! `v0.6 = T0.6 / T0 − 1`.

/// Equation 1: the ideal execution time `a · P / n`, reached when all
/// threads complete simultaneously.
pub fn ideal_time(activations: u64, avg_cost: f64, threads: usize) -> f64 {
    assert!(threads > 0, "at least one thread is required");
    (activations as f64 * avg_cost) / threads as f64
}

/// Equation 2: the worst-case execution time. In the worst case one thread
/// starts consuming the most expensive activation exactly when every other
/// thread runs out of work, so the first phase processes `a · P − Pmax`
/// work on `n` threads and the second phase is `Pmax` on a single thread.
pub fn worst_time(activations: u64, avg_cost: f64, max_cost: f64, threads: usize) -> f64 {
    assert!(threads > 0, "at least one thread is required");
    let total = activations as f64 * avg_cost;
    // Pmax can exceed the average total/n; the formula still holds because
    // the second phase dominates.
    ((total - max_cost) / threads as f64).max(0.0) + max_cost
}

/// Equation 3: the bound on the relative overhead
/// `v ≤ (Pmax / P) · (n − 1) / a`.
pub fn overhead_bound(activations: u64, skew_factor: f64, threads: usize) -> f64 {
    assert!(threads > 0, "at least one thread is required");
    if activations == 0 {
        return 0.0;
    }
    skew_factor * (threads as f64 - 1.0) / activations as f64
}

/// The overhead actually observed between a measured time and a reference
/// (unskewed or ideal) time: `v = T / Tref − 1`. This is how Expt 3 defines
/// `v0.6 = T0.6 / T0 − 1`.
pub fn skew_overhead(measured: f64, reference: f64) -> f64 {
    assert!(reference > 0.0, "reference time must be positive");
    measured / reference - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_time_divides_work_evenly() {
        assert!((ideal_time(200, 0.5, 10) - 10.0).abs() < 1e-12);
        assert!((ideal_time(1, 7.0, 1) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn worst_time_reduces_to_ideal_without_skew() {
        // If Pmax == P, the worst time is Tideal + Pmax·(1 - 1/n), which for
        // many activations is barely above Tideal.
        let t_ideal = ideal_time(1000, 1.0, 10);
        let t_worst = worst_time(1000, 1.0, 1.0, 10);
        assert!(t_worst >= t_ideal);
        assert!(t_worst - t_ideal < 1.0);
    }

    #[test]
    fn worst_time_dominated_by_longest_activation() {
        // When Pmax exceeds the ideal time, the operation cannot finish
        // before Pmax no matter how many threads it has.
        let t = worst_time(200, 1.0, 100.0, 70);
        assert!(t >= 100.0);
    }

    #[test]
    fn paper_assocjoin_worst_case_value() {
        // Paper, Section 5.5 footnote: "With Zipf = 1 and a = 200 buckets, we
        // have Pmax = 34 P. With 70 threads, we have
        // v = 34 x 69 / 20000 = 0.117".
        let v = overhead_bound(20_000, 34.0, 70);
        assert!((v - 0.1173).abs() < 1e-3, "v = {v}");
    }

    #[test]
    fn overhead_bound_zero_for_single_thread() {
        assert_eq!(overhead_bound(500, 10.0, 1), 0.0);
    }

    #[test]
    fn overhead_bound_shrinks_with_more_activations() {
        let few = overhead_bound(200, 34.0, 70);
        let many = overhead_bound(20_000, 34.0, 70);
        assert!(many < few);
        // Triggered operation (a = 200): the bound is large...
        assert!(few > 5.0);
        // ...pipelined operation (a = 20_000): the bound is small.
        assert!(many < 0.2);
    }

    #[test]
    fn worst_is_consistent_with_bound() {
        // Tworst ≤ (1 + v) · Tideal must hold for the analytic v.
        for &(a, pmax, n) in &[
            (200u64, 34.0f64, 10usize),
            (200, 10.6, 20),
            (20_000, 34.0, 70),
        ] {
            let avg = 1.0;
            let t_ideal = ideal_time(a, avg, n);
            let t_worst = worst_time(a, avg, pmax * avg, n);
            let v = overhead_bound(a, pmax, n);
            assert!(
                t_worst <= (1.0 + v) * t_ideal + 1e-9,
                "a={a} pmax={pmax} n={n}: {t_worst} > {}",
                (1.0 + v) * t_ideal
            );
        }
    }

    #[test]
    fn skew_overhead_relative() {
        assert!((skew_overhead(12.0, 10.0) - 0.2).abs() < 1e-12);
        assert!((skew_overhead(10.0, 10.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reference time must be positive")]
    fn skew_overhead_rejects_zero_reference() {
        skew_overhead(1.0, 0.0);
    }
}
