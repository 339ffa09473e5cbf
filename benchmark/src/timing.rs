//! The arithmetic behind every timing the benchmark reports: nearest-rank
//! percentiles of one slot's times across rounds, and the sum of those
//! over a workload's slots.
//!
//! The gated figure reads the *low end* of each slot's times, not the
//! median: this host flips between speed states for seconds to minutes at
//! a time, so a run's median mostly reads which state filled more than
//! half of it. The issue set out with the 10th percentile — hence the
//! name `round_p10_ms` — and directed that, should that not repeat within
//! a third of its bound, the steadier statistic of the logged slot times
//! take its place under the same name. Over the sets of `run.sh spread`
//! that is each slot's fastest round ([`FAST_STATE`]): host noise only
//! ever adds time, so the minimum is the estimate of what the work itself
//! costs, and the lower the quantile the better two sets of runs agreed
//! (README.md has the spreads side by side).

/// The quantile every gated and per-layer host time is read at: 0, each
/// slot's fastest round.
pub const FAST_STATE: f64 = 0.0;

/// The ⌈q·n⌉-th smallest of `samples` (nearest rank; the smallest for
/// `q = 0`). `None` when there are no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Times of every slot of a workload, one vector per slot, one sample per
/// round in which the slot's output was correct. Slots may hold unequal
/// counts: a failed slot contributes no sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotSamples(pub Vec<Vec<f64>>);

impl SlotSamples {
    /// Empty samples for `slots` slots.
    pub fn new(slots: usize) -> Self {
        Self(vec![Vec::new(); slots])
    }

    /// Σ over slots of the slot's `q`-quantile: what one round costs when
    /// every slot runs at its own `q`-quantile speed. A slot without
    /// samples contributes nothing.
    pub fn sum_of_quantiles(&self, q: f64) -> f64 {
        // `+ 0.0`: an empty sum is -0.0, which would print as "-0".
        self.0
            .iter()
            .filter_map(|s| nearest_rank(s, q))
            .sum::<f64>()
            + 0.0
    }

    /// Σ over slots of the slot's fastest round: what one round costs when
    /// the host is in its fast state throughout.
    pub fn fast_sum(&self) -> f64 {
        self.sum_of_quantiles(FAST_STATE)
    }

    /// Σ over slots of the slot's mean.
    pub fn sum_of_means(&self) -> f64 {
        self.0
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.iter().sum::<f64>() / s.len() as f64)
            .sum()
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_qn_th_smallest() {
        // n = 20: ⌈0.1·20⌉ = 2, the second smallest.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&twenty, 0.1), Some(2.0));
        assert_eq!(nearest_rank(&twenty, 0.5), Some(10.0));
        assert_eq!(nearest_rank(&twenty, 0.9), Some(18.0));
        // n = 21: ⌈2.1⌉ = 3.
        let mut twenty_one = twenty.clone();
        twenty_one.push(0.5);
        assert_eq!(nearest_rank(&twenty_one, 0.1), Some(2.0));
        // n = 10: the minimum; n = 1: the only sample.
        assert_eq!(nearest_rank(&twenty[..10], 0.1), Some(11.0));
        assert_eq!(nearest_rank(&[7.0], 0.1), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.1), None);
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
    }

    #[test]
    fn round_cost_is_the_sum_of_per_slot_deciles() {
        // Two slots whose fast rounds do not coincide: the sum of slot
        // deciles is below every single round's total.
        let a: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 10.0 } else { 15.0 })
            .collect();
        let b: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 30.0 } else { 20.0 })
            .collect();
        let samples = SlotSamples(vec![a, b]);
        assert_eq!(samples.fast_sum(), 30.0);
        assert_eq!(samples.sum_of_quantiles(0.1), 30.0);
        assert_eq!(samples.sum_of_quantiles(0.5), 30.0);
        assert_eq!(samples.sum_of_quantiles(0.9), 45.0);
        assert_eq!(samples.sum_of_means(), 12.5 + 25.0);
    }

    #[test]
    fn a_failed_round_leaves_unequal_slot_counts() {
        // Slot 1 failed once: it has 19 samples, ⌈1.9⌉ = 2nd smallest.
        let a: Vec<f64> = (1..=20).map(f64::from).collect();
        let b: Vec<f64> = (1..=19).map(|i| f64::from(i) * 10.0).collect();
        let samples = SlotSamples(vec![a, b, Vec::new()]);
        assert_eq!(samples.sum_of_quantiles(0.1), 2.0 + 20.0);
        assert_eq!(samples.fast_sum(), 1.0 + 10.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
