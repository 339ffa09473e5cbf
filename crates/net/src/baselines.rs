//! Baseline communication models: Hockney and LogGP.
//!
//! §III-D: "Traditionally, the characterization of the communication
//! overhead has been done using extensions either of the LogP model or of
//! the Hockney's linear model. However, both of them show poor accuracy on
//! current communication middleware on multicore clusters." These fits are
//! implemented so the ablation benchmark can quantify that inaccuracy
//! against Servet's per-layer piecewise characterization.

use serde::{Deserialize, Serialize};
use servet_stats::fit_line;

/// Mean relative error of a model's `predict_us` over `(size_bytes,
/// latency_us)` samples; 0 for no samples.
pub fn mean_relative_error(predict_us: impl Fn(usize) -> f64, samples: &[(usize, f64)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples
        .iter()
        .map(|&(s, t)| ((predict_us(s) - t) / t).abs())
        .sum::<f64>()
        / samples.len() as f64
}

/// Hockney's linear model: `T(s) = latency + s / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HockneyModel {
    /// Startup latency in µs.
    pub latency_us: f64,
    /// Asymptotic bandwidth in bytes/µs (equal to MB/s ÷ 1, i.e. 1e-3 GB/s
    /// per unit).
    pub bytes_per_us: f64,
}

impl HockneyModel {
    /// Least-squares fit over `(size_bytes, latency_us)` samples. Returns
    /// `None` when the samples cannot determine a line or imply
    /// non-positive bandwidth.
    pub fn fit(samples: &[(usize, f64)]) -> Option<Self> {
        let xs: Vec<f64> = samples.iter().map(|&(s, _)| s as f64).collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, t)| t).collect();
        let fit = fit_line(&xs, &ys)?;
        if fit.slope <= 0.0 {
            return None;
        }
        Some(Self {
            latency_us: fit.intercept,
            bytes_per_us: 1.0 / fit.slope,
        })
    }

    /// Predicted latency for a `size`-byte message, µs.
    pub fn predict_us(&self, size: usize) -> f64 {
        self.latency_us + size as f64 / self.bytes_per_us
    }
}

/// A LogGP-style fit: `T(s) = L + 2o + (s - 1) * G`, with the small-message
/// overhead `o` and per-byte gap `G` estimated separately from small and
/// large message samples.
///
/// LogGP extends LogP with a large-message gap-per-byte `G`; like Hockney it
/// remains a *single* line per network and therefore cannot express protocol
/// switches or per-layer differences.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogGpModel {
    /// Combined constant term `L + 2o`, µs.
    pub l_plus_2o_us: f64,
    /// Gap per byte `G`, µs.
    pub gap_per_byte_us: f64,
}

impl LogGpModel {
    /// Fit: the constant term from the smallest-message sample, the gap
    /// from a least-squares slope over all samples.
    pub fn fit(samples: &[(usize, f64)]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let min = samples
            .iter()
            .min_by_key(|&&(s, _)| s)
            .expect("non-empty samples");
        let xs: Vec<f64> = samples.iter().map(|&(s, _)| s as f64).collect();
        let ys: Vec<f64> = samples.iter().map(|&(_, t)| t).collect();
        let fit = fit_line(&xs, &ys)?;
        if fit.slope <= 0.0 {
            return None;
        }
        Some(Self {
            l_plus_2o_us: min.1.min(fit.intercept.max(0.0)),
            gap_per_byte_us: fit.slope,
        })
    }

    /// Predicted latency for a `size`-byte message, µs.
    pub fn predict_us(&self, size: usize) -> f64 {
        self.l_plus_2o_us + (size.saturating_sub(1)) as f64 * self.gap_per_byte_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_samples() -> Vec<(usize, f64)> {
        // Perfect Hockney network: 2 µs + s / 1000 bytes-per-µs.
        [64usize, 256, 1024, 4096, 16384]
            .iter()
            .map(|&s| (s, 2.0 + s as f64 / 1000.0))
            .collect()
    }

    #[test]
    fn hockney_recovers_linear_network() {
        let m = HockneyModel::fit(&linear_samples()).unwrap();
        assert!((m.latency_us - 2.0).abs() < 1e-6);
        assert!((m.bytes_per_us - 1000.0).abs() < 1e-3);
        assert!(mean_relative_error(|s| m.predict_us(s), &linear_samples()) < 1e-9);
    }

    #[test]
    fn hockney_rejects_degenerate_input() {
        assert!(HockneyModel::fit(&[(64, 1.0)]).is_none());
        assert!(HockneyModel::fit(&[(64, 5.0), (128, 4.0), (256, 3.0)]).is_none());
    }

    #[test]
    fn hockney_misfits_piecewise_network() {
        // Protocol switch at 8 KB: eager 1 µs + 0.1 ns/B, rendezvous
        // 20 µs + 0.4 ns/B. One line cannot capture both.
        let samples: Vec<(usize, f64)> = [256usize, 1024, 4096, 8192, 32768, 131072, 1 << 20]
            .iter()
            .map(|&s| {
                let t = if s <= 8192 {
                    1.0 + s as f64 * 0.1 / 1000.0
                } else {
                    20.0 + s as f64 * 0.4 / 1000.0
                };
                (s, t)
            })
            .collect();
        let m = HockneyModel::fit(&samples).unwrap();
        assert!(
            mean_relative_error(|s| m.predict_us(s), &samples) > 0.5,
            "err = {}",
            mean_relative_error(|s| m.predict_us(s), &samples)
        );
    }

    #[test]
    fn loggp_predicts_monotonically() {
        let m = LogGpModel::fit(&linear_samples()).unwrap();
        assert!(m.predict_us(64) < m.predict_us(4096));
        assert!(mean_relative_error(|s| m.predict_us(s), &linear_samples()) < 0.5);
    }

    #[test]
    fn loggp_rejects_degenerate_input() {
        assert!(LogGpModel::fit(&[(64, 1.0)]).is_none());
    }
}
