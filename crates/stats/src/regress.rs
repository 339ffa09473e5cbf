//! Least-squares line fitting.
//!
//! Used by the baseline communication models of §III-D: Hockney's linear
//! model `T(s) = L + s / B` is an ordinary least-squares fit of latency
//! against message size, and the LogGP fit reuses the same kernel per
//! protocol segment.

use crate::summary::mean;

/// Result of fitting `y = intercept + slope * x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// `y` value at `x = 0`.
    pub intercept: f64,
    /// Change in `y` per unit `x`.
    pub slope: f64,
}

/// Ordinary least-squares fit of `y` on `x`.
///
/// Returns `None` for fewer than two points or when all `x` are identical
/// (vertical line).
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Option<LineFit> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    if xs.len() < 2 {
        return None;
    }
    let (mean_x, mean_y) = (mean(xs), mean(ys));
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    Some(LineFit { intercept, slope })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 + 0.5 * x).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.intercept - 2.5).abs() < 1e-12);
        assert!((fit.slope - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_few_points() {
        assert!(fit_line(&[1.0], &[2.0]).is_none());
        assert!(fit_line(&[], &[]).is_none());
    }

    #[test]
    fn vertical_line_rejected() {
        assert!(fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn constant_y() {
        let fit = fit_line(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]).unwrap();
        assert!((fit.slope).abs() < 1e-12);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hockney_misfits_piecewise_data() {
        // Latency with a protocol switch at s = 8: a single line cannot fit
        // both segments well — this is the paper's argument for the layered
        // characterization.
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let ys: Vec<f64> = xs
            .iter()
            .map(|&s| {
                if s < 8.0 {
                    1.0 + 0.1 * s
                } else {
                    10.0 + 0.5 * s
                }
            })
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        let errors: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| ((fit.intercept + fit.slope * x - y) / y).abs())
            .collect();
        assert!(mean(&errors) > 0.2);
    }
}
