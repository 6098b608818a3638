//! Order statistics, and the always-on engine counters the benchmark
//! reads around a measured region.

use gillian_gil::intern::InternStats;
use gillian_telemetry::{names, registry};

/// The nearest-rank `p`-th percentile of ascending `sorted` samples: the
/// sample at rank `ceil(p/100 · n)`, so `n - rank` samples lie above it
/// (10 of 100 for the 90th percentile).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The Harrell–Davis estimate of the `p`-th percentile (0 < p < 100) of
/// ascending `sorted` samples: a weighted mean of all of them, where the
/// i-th of n weighs the probability that a Beta(p(n+1)/100,
/// (100-p)(n+1)/100) variable falls in ((i-1)/n, i/n]. The weight
/// concentrates on the ranks around `p` (for n = 100 and p = 90, 90% of
/// it on ranks 86–95), so the estimate does not rest on the single
/// sample at the rank: the timing noise of that one sample averages out
/// with its neighbours'.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside (0, 100).
pub fn harrell_davis(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p < 100.0, "Harrell–Davis needs 0 < p < 100");
    let n = sorted.len() as f64;
    let (a, b) = (p / 100.0 * (n + 1.0), (1.0 - p / 100.0) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function I_x(a, b): the probability
/// that a Beta(a, b) variable is at most `x`. The continued fraction of
/// Numerical Recipes (§6.4), on whichever side of the mean converges.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of I_x(a, b), by the modified Lentz method.
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0, by the Lanczos approximation (g = 7, nine terms;
/// relative error below 1e-13).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 - x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |s, (i, g)| s + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The smallest sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The samples in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (nearest rank, so an odd count picks the middle sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Process-wide engine counters from the telemetry registry, plus the
/// calling thread's interner counters. Reading them costs a few atomic
/// loads and one histogram copy; differences of two readings attribute
/// the work done between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub sat_queries: u64,
    pub sat_cache_hits: u64,
    pub sat_incremental_hits: u64,
    pub sat_implication_hits: u64,
    pub sat_unknowns: u64,
    /// Solves that missed the exact cache (the `sat_micros` count).
    pub sat_solves: u64,
    /// Their summed wall time in µs (the `sat_micros` sum).
    pub sat_solve_us: u64,
    pub exec_cmds: u64,
    pub exec_blocks: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub difftest_replays: u64,
    pub intern_mints: u64,
    pub intern_hits: u64,
}

impl Counters {
    /// The current values.
    pub fn read() -> Counters {
        let r = registry();
        let c = |name| r.counter(name).get();
        let sat = r.histogram(names::SAT_MICROS).snapshot();
        let intern = InternStats::thread_snapshot();
        Counters {
            sat_queries: c(names::SAT_QUERIES),
            sat_cache_hits: c(names::SAT_CACHE_HITS),
            sat_incremental_hits: c(names::SAT_INCREMENTAL_HITS),
            sat_implication_hits: c(names::SAT_IMPLICATION_HITS),
            sat_unknowns: c(names::SAT_UNKNOWNS),
            sat_solves: sat.count,
            sat_solve_us: sat.sum,
            exec_cmds: c(names::EXEC_CMDS),
            exec_blocks: c(names::EXEC_BLOCKS),
            ic_hits: c(names::EXEC_IC_HITS),
            ic_misses: c(names::EXEC_IC_MISSES),
            difftest_replays: c(names::DIFFTEST_REPLAYS),
            intern_mints: intern.mints,
            intern_hits: intern.hits,
        }
    }

    /// The field-wise combination of `self` and `other` under `f`.
    fn zip(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            sat_queries: f(self.sat_queries, other.sat_queries),
            sat_cache_hits: f(self.sat_cache_hits, other.sat_cache_hits),
            sat_incremental_hits: f(self.sat_incremental_hits, other.sat_incremental_hits),
            sat_implication_hits: f(self.sat_implication_hits, other.sat_implication_hits),
            sat_unknowns: f(self.sat_unknowns, other.sat_unknowns),
            sat_solves: f(self.sat_solves, other.sat_solves),
            sat_solve_us: f(self.sat_solve_us, other.sat_solve_us),
            exec_cmds: f(self.exec_cmds, other.exec_cmds),
            exec_blocks: f(self.exec_blocks, other.exec_blocks),
            ic_hits: f(self.ic_hits, other.ic_hits),
            ic_misses: f(self.ic_misses, other.ic_misses),
            difftest_replays: f(self.difftest_replays, other.difftest_replays),
            intern_mints: f(self.intern_mints, other.intern_mints),
            intern_hits: f(self.intern_hits, other.intern_hits),
        }
    }

    /// The work done since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Adds `other` in place.
    pub fn add(&mut self, other: &Counters) {
        *self = self.zip(other, u64::wrapping_add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_above() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
    }

    #[test]
    fn percentile_of_small_samples_stays_in_range() {
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        // 10 samples: rank ceil(9.0) = 9, one sample above.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
    }

    #[test]
    fn a_tests_latency_is_its_fastest_execution() {
        assert_eq!(fastest(&[5.0, 2.0, 3.0]), 2.0);
        assert_eq!(fastest(&[0.25]), 0.25);
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let ln_fact = |n: u32| (1..=n).map(|k| f64::from(k).ln()).sum::<f64>();
        for n in [0, 1, 4, 10, 100, 2000] {
            assert!(
                close(ln_gamma(f64::from(n) + 1.0), ln_fact(n), 1e-12),
                "{n}"
            );
        }
        let half = 0.5 * std::f64::consts::PI.ln();
        assert!(close(ln_gamma(0.5), half, 1e-12));
    }

    #[test]
    fn beta_cdf_matches_the_binomial_sum_for_whole_parameters() {
        // I_x(a, b) = P(at least a of a+b-1 trials succeed at rate x).
        let binomial_tail = |a: u32, b: u32, x: f64| -> f64 {
            let n = a + b - 1;
            (a..=n)
                .map(|j| {
                    let ln_choose = ln_gamma(f64::from(n) + 1.0)
                        - ln_gamma(f64::from(j) + 1.0)
                        - ln_gamma(f64::from(n - j) + 1.0);
                    (ln_choose + f64::from(j) * x.ln() + f64::from(n - j) * (1.0 - x).ln()).exp()
                })
                .sum()
        };
        for (a, b, x) in [(3, 2, 0.4), (91, 10, 0.88), (91, 10, 0.93), (51, 51, 0.5)] {
            let want = binomial_tail(a, b, x);
            assert!(
                close(beta_cdf(x, a.into(), b.into()), want, 1e-10),
                "{a} {b} {x}"
            );
        }
        assert_eq!(beta_cdf(0.0, 2.0, 3.0), 0.0);
        assert_eq!(beta_cdf(1.0, 2.0, 3.0), 1.0);
    }

    #[test]
    fn harrell_davis_weighs_the_ranks_around_the_percentile() {
        // One sample's weight: the estimate over a sample that is 1 there.
        let weight = |n: usize, rank: usize, p: f64| {
            let mut v = vec![0.0; n];
            v[rank - 1] = 1.0;
            harrell_davis(&v, p)
        };
        let total: f64 = (1..=100).map(|r| weight(100, r, 90.0)).sum();
        assert!(close(total, 1.0, 1e-12));
        let band: f64 = (86..=95).map(|r| weight(100, r, 90.0)).sum();
        assert!(band >= 0.9, "ranks 86-95 weigh {band}");
        // Constant samples give the constant; symmetric ones their middle.
        assert!(close(harrell_davis(&[2.5; 7], 90.0), 2.5, 1e-12));
        let ranks: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!(close(harrell_davis(&ranks, 50.0), 51.0, 1e-12));
        // On evenly spaced ranks, the expected rank p(n+1)/100, give or
        // take half a rank.
        let ranks: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = harrell_davis(&ranks, 90.0);
        assert!((90.4..=91.0).contains(&p90), "{p90}");
        // One sample, and 2000 of them, stay in range.
        assert!(close(harrell_davis(&[7.0], 90.0), 7.0, 1e-12));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p90 = harrell_davis(&many, 90.0);
        assert!((1800.0..=1802.0).contains(&p90), "{p90}");
    }

    #[test]
    fn median_of_five_is_the_middle_sample() {
        assert_eq!(median(&[0.9, 0.1, 0.5, 0.3, 0.7]), 0.5);
    }

    #[test]
    fn counter_deltas_subtract_field_wise() {
        let a = Counters {
            sat_queries: 10,
            intern_mints: 3,
            ..Default::default()
        };
        let b = Counters {
            sat_queries: 25,
            intern_mints: 4,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!((d.sat_queries, d.intern_mints), (15, 1));
        let mut sum = d;
        sum.add(&d);
        assert_eq!(sum.sat_queries, 30);
    }
}
