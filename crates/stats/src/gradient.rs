//! Gradients of a measurement series and peak detection.
//!
//! The paper's cache-level detection (Fig. 4) works on the *gradient* of the
//! mcalibrator output — `G[k] = C[k+1] / C[k]` — and looks for its peaks:
//! array sizes where the cycles-per-access curve turns upward because a cache
//! level has been exhausted.

/// Gradient of a positive series: `G[k] = c[k+1] / c[k]`, length `n - 1`.
///
/// Zero (or negative) denominators yield a gradient of 1.0 — a flat segment —
/// rather than infinities, so downstream peak detection stays well-behaved on
/// degenerate measurements.
pub fn gradient(c: &[f64]) -> Vec<f64> {
    c.windows(2).map(|w| step(w[0], w[1])).collect()
}

/// One gradient step, `next / prev`, under [`gradient`]'s rule for
/// degenerate denominators.
pub fn step(prev: f64, next: f64) -> f64 {
    if prev > 0.0 {
        next / prev
    } else {
        1.0
    }
}

/// A detected peak in a gradient series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the peak's maximum within the gradient array.
    pub index: usize,
    /// Gradient value at the maximum.
    pub value: f64,
    /// First index of the contiguous above-threshold region containing the
    /// peak.
    pub start: usize,
    /// Last index (inclusive) of that region.
    pub end: usize,
}

impl Peak {
    /// Whether the above-threshold region spans a single sample.
    ///
    /// The paper's Fig. 4 branches on this: a sharp single-size peak means
    /// the cache behaves as virtually indexed (or the OS applies page
    /// coloring) and its position gives the size directly; a wide region
    /// requires the probabilistic algorithm.
    pub fn is_sharp(&self) -> bool {
        self.start == self.end
    }

    /// Number of samples in the above-threshold region.
    pub fn width(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Find peaks in a gradient series.
///
/// A peak is a contiguous run of samples with value `> threshold`; the
/// reported `index`/`value` is the run's maximum. The paper treats any
/// gradient meaningfully above 1.0 as a rise; callers typically pass a
/// threshold like `1.0 + margin` where the margin rejects measurement noise.
pub fn find_peaks(g: &[f64], threshold: f64) -> Vec<Peak> {
    let mut peaks = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, &v) in g.iter().enumerate() {
        if v > threshold {
            if run_start.is_none() {
                run_start = Some(i);
            }
        } else if let Some(start) = run_start.take() {
            peaks.push(summarize_run(g, start, i - 1));
        }
    }
    if let Some(start) = run_start {
        peaks.push(summarize_run(g, start, g.len() - 1));
    }
    peaks
}

/// Merge peaks whose above-threshold regions are separated by at most
/// `max_gap` below-threshold samples.
///
/// Real miss-rate transitions of physically indexed caches are sampled
/// binomials: a wide rise can dip under the threshold for a sample or two
/// in the middle. Merging reunites such wobbly regions before the Fig. 4
/// classification decides sharp-vs-wide.
pub fn merge_peaks(peaks: Vec<Peak>, g: &[f64], max_gap: usize) -> Vec<Peak> {
    let mut out: Vec<Peak> = Vec::with_capacity(peaks.len());
    for p in peaks {
        match out.last_mut() {
            Some(prev) if p.start - prev.end - 1 <= max_gap => {
                *prev = summarize_run(g, prev.start, p.end);
            }
            _ => out.push(p),
        }
    }
    out
}

fn summarize_run(g: &[f64], start: usize, end: usize) -> Peak {
    let (index, value) = (start..=end)
        .map(|i| (i, g[i]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty run");
    Peak {
        index,
        value,
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_of_constant_is_one() {
        let g = gradient(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(g, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn gradient_length() {
        assert_eq!(gradient(&[1.0]).len(), 0);
        assert_eq!(gradient(&[1.0, 2.0, 4.0]).len(), 2);
    }

    #[test]
    fn gradient_values() {
        let g = gradient(&[2.0, 4.0, 4.0, 8.0]);
        assert_eq!(g, vec![2.0, 1.0, 2.0]);
    }

    #[test]
    fn gradient_zero_denominator_is_flat() {
        let g = gradient(&[0.0, 5.0]);
        assert_eq!(g, vec![1.0]);
    }

    #[test]
    fn no_peaks_in_flat_series() {
        assert!(find_peaks(&[1.0, 1.0, 1.0], 1.05).is_empty());
    }

    #[test]
    fn single_sharp_peak() {
        let g = [1.0, 1.0, 3.0, 1.0, 1.0];
        let peaks = find_peaks(&g, 1.1);
        assert_eq!(peaks.len(), 1);
        let p = peaks[0];
        assert_eq!(p.index, 2);
        assert_eq!(p.value, 3.0);
        assert!(p.is_sharp());
        assert_eq!(p.width(), 1);
    }

    #[test]
    fn wide_peak_region() {
        // Like Dempsey's smeared L2 transition: several consecutive sizes
        // with gradient > 1.
        let g = [1.0, 1.2, 1.5, 1.3, 1.0, 1.0];
        let peaks = find_peaks(&g, 1.1);
        assert_eq!(peaks.len(), 1);
        let p = peaks[0];
        assert_eq!((p.start, p.end), (1, 3));
        assert_eq!(p.index, 2);
        assert!(!p.is_sharp());
        assert_eq!(p.width(), 3);
    }

    #[test]
    fn multiple_separate_peaks() {
        let g = [1.0, 2.0, 1.0, 1.0, 1.8, 1.9, 1.0];
        let peaks = find_peaks(&g, 1.1);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 1);
        assert_eq!((peaks[1].start, peaks[1].end), (4, 5));
        assert_eq!(peaks[1].index, 5);
    }

    #[test]
    fn trailing_peak_is_reported() {
        // Gradient still above threshold at the largest sizes — the paper's
        // Fig. 4 sends this case to the probabilistic algorithm.
        let g = [1.0, 1.0, 1.4, 1.6];
        let peaks = find_peaks(&g, 1.1);
        assert_eq!(peaks.len(), 1);
        assert_eq!((peaks[0].start, peaks[0].end), (2, 3));
    }

    #[test]
    fn merge_bridges_small_gaps() {
        let g = [1.0, 1.5, 1.0, 1.6, 1.0, 1.0, 1.0, 1.7, 1.0];
        let peaks = find_peaks(&g, 1.1);
        assert_eq!(peaks.len(), 3);
        let merged = merge_peaks(peaks, &g, 1);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].start, merged[0].end), (1, 3));
        assert_eq!(merged[0].index, 3); // max of the merged span
        assert_eq!((merged[1].start, merged[1].end), (7, 7));
    }

    #[test]
    fn merge_with_zero_gap_keeps_separate_runs() {
        let g = [1.5, 1.0, 1.5];
        let peaks = find_peaks(&g, 1.1);
        let merged = merge_peaks(peaks.clone(), &g, 0);
        assert_eq!(merged.len(), 2);
        let merged = merge_peaks(peaks, &g, 1);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn merge_empty_is_empty() {
        assert!(merge_peaks(Vec::new(), &[], 3).is_empty());
    }

    #[test]
    fn threshold_is_exclusive() {
        let g = [1.5, 1.5];
        assert!(find_peaks(&g, 1.5).is_empty());
        assert_eq!(find_peaks(&g, 1.49).len(), 1);
    }
}
