//! The statistics the benchmark reports, kept apart so the unit tests
//! can pin every rule.
//!
//! Host timings on this shared sandbox are disturbed in one direction
//! only: the machine runs slower for a while (plateaus of seconds, up to
//! 1.5x on memory-bound code), nothing makes it faster. A run therefore
//! repeats *identical* units of work — the same operation of the same
//! input set in a closed loop, the same batch in a batch workload — and
//! keeps the fastest time seen for each ([`BestOf`]); rates and latency
//! percentiles are computed over those. The median and interquartile
//! range across rounds are kept beside every reported value ([`Spread`]),
//! so the disturbance a run saw is on record.

/// Nearest-rank quantile of a sorted slice: the smallest element with at
/// least `q` of the sample at or below it. `q` in `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "q out of range: {q}");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle elements for even counts.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// How a per-round timing varied across the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    /// Interquartile range across rounds (nearest-rank q3 − q1).
    pub iqr: f64,
    pub rounds: usize,
}

pub fn spread(per_round: &[f64]) -> Spread {
    let s = sorted(per_round);
    Spread {
        median: median(&s),
        iqr: nearest_rank(&s, 0.75) - nearest_rank(&s, 0.25),
        rounds: s.len(),
    }
}

/// The fastest time seen for each unit of one input set, over all the
/// rounds that ran that set. A unit is one operation (closed loop: the
/// set has as many units as operations) or the whole batch (one unit).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BestOf {
    ns: Vec<u64>,
    repeats: usize,
}

impl BestOf {
    /// Fold in one more round of the same set: `unit_ns[i]` is the time of
    /// unit `i` in that round.
    pub fn absorb(&mut self, unit_ns: &[u64]) {
        if self.repeats == 0 {
            self.ns = unit_ns.to_vec();
        } else {
            assert_eq!(self.ns.len(), unit_ns.len(), "a set's rounds have the same units");
            for (best, &ns) in self.ns.iter_mut().zip(unit_ns) {
                *best = (*best).min(ns);
            }
        }
        self.repeats += 1;
    }

    /// Best time of each unit.
    pub fn units(&self) -> &[u64] {
        &self.ns
    }

    /// The set's time with every unit at its best.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Quantile of integer-valued data (virtual ticks) read as grouped data:
/// each integer `v` stands for the unit interval `[v − ½, v + ½)` and the
/// quantile is interpolated inside the interval that holds it. Every
/// occurrence is counted exactly (this is not a histogram estimate); the
/// interpolation only keeps the value from jumping a whole tick when the
/// seed moves a handful of occurrences across the quantile.
pub fn grouped_quantile(values: &mut [u64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "q out of range: {q}");
    values.sort_unstable();
    let n = values.len() as f64;
    let target = q * n;
    let mut below = 0usize;
    let mut i = 0usize;
    while i < values.len() {
        let v = values[i];
        let mut j = i;
        while j < values.len() && values[j] == v {
            j += 1;
        }
        let count = j - i;
        if (below + count) as f64 >= target {
            let inside = (target - below as f64) / count as f64;
            return v as f64 - 0.5 + inside;
        }
        below += count;
        i = j;
    }
    values[values.len() - 1] as f64 + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_elements() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.001), 1.0);
        // 1 000 operations leave exactly 10 beyond p99.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&k, 0.99), 990.0);
        // A 62-operation round: p99 is its slowest operation.
        let r: Vec<f64> = (1..=62).map(f64::from).collect();
        assert_eq!(nearest_rank(&r, 0.99), 62.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_reports_median_and_nearest_rank_iqr() {
        let rounds: Vec<f64> = (1..=24).map(f64::from).collect();
        let s = spread(&rounds);
        assert_eq!(s, Spread { median: 12.5, iqr: 18.0 - 6.0, rounds: 24 });
    }

    #[test]
    fn best_of_keeps_the_fastest_time_per_unit() {
        let mut b = BestOf::default();
        b.absorb(&[10, 20, 30]);
        b.absorb(&[12, 15, 31]);
        b.absorb(&[11, 50, 29]);
        assert_eq!(b.units(), &[10, 15, 29]);
        assert_eq!(b.total_ns(), 54);
    }

    #[test]
    fn best_of_ignores_a_slow_plateau() {
        // Ten rounds at 1.5x and two undisturbed: the best is the clean time.
        let mut b = BestOf::default();
        for _ in 0..10 {
            b.absorb(&[150, 300]);
        }
        b.absorb(&[100, 210]);
        b.absorb(&[104, 200]);
        assert_eq!(b.total_ns(), 300);
    }

    #[test]
    #[should_panic(expected = "same units")]
    fn best_of_rejects_rounds_of_different_shape() {
        let mut b = BestOf::default();
        b.absorb(&[1, 2]);
        b.absorb(&[1]);
    }

    #[test]
    fn grouped_quantile_interpolates_inside_the_tick() {
        // 10 values: four 7s, six 8s. The median (5th of 10) falls 1/6 of
        // the way into the 8 interval [7.5, 8.5).
        let mut v = vec![7, 7, 7, 7, 8, 8, 8, 8, 8, 8];
        let m = grouped_quantile(&mut v, 0.5);
        assert!((m - (7.5 + 1.0 / 6.0)).abs() < 1e-12, "{m}");
        // All equal: the median is the value itself.
        let mut same = vec![5u64; 9];
        assert!((grouped_quantile(&mut same, 0.5) - 5.0).abs() < 1e-12);
        // Moving one occurrence across the median moves it by a fraction
        // of a tick, not a whole one.
        let mut w = vec![7, 7, 7, 7, 7, 8, 8, 8, 8, 8];
        let m2 = grouped_quantile(&mut w, 0.5);
        assert!((m2 - 7.5).abs() < 1e-12, "{m2}");
        assert!((m - m2).abs() < 0.2);
    }

    #[test]
    fn grouped_quantile_extremes() {
        let mut v = vec![1, 2, 3, 4];
        assert!((grouped_quantile(&mut v, 0.0) - 0.5).abs() < 1e-12);
        assert!((grouped_quantile(&mut v, 1.0) - 4.5).abs() < 1e-12);
    }
}
