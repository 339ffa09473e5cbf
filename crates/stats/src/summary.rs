//! The means and the mode that the suite and its harnesses reduce series to.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive values. Returns 0.0 for an empty slice.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Statistical mode of a discrete series: the most frequent value; ties are
/// broken toward the smallest value. Returns `None` for an empty slice.
///
/// The probabilistic cache-size algorithm (paper Fig. 3) returns "the
/// statistical mode of CS using the five elements of div with the lowest
/// values".
pub fn mode<T: Ord + Copy>(xs: &[T]) -> Option<T> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort();
    let mut best = sorted[0];
    let mut best_count = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        let count = j - i;
        if count > best_count {
            best = sorted[i];
            best_count = count;
        }
        i = j;
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mode_picks_most_frequent() {
        assert_eq!(mode(&[1, 2, 2, 3]), Some(2));
        assert_eq!(mode::<u32>(&[]), None);
        assert_eq!(mode(&[7]), Some(7));
    }

    #[test]
    fn mode_tie_breaks_low() {
        assert_eq!(mode(&[4, 4, 9, 9, 1]), Some(4));
    }
}
