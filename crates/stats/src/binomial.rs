//! Binomial distribution with numerically stable tail probabilities.
//!
//! The probabilistic cache-size algorithm (paper Fig. 3) models the number of
//! virtual pages `X` that land in one *page set* of a physically indexed
//! cache as `X ~ B(NP, K*PS/CS)`, where `NP` is the number of pages touched,
//! `K` the associativity, `PS` the page size and `CS` the tentative cache
//! size. The predicted steady-state miss rate of a cyclic traversal is then
//! `P(X > K)`: a set holding more than `K` pages thrashes under LRU.
//!
//! `NP` can reach tens of thousands (a 64 MB array of 4 KB pages), so the
//! probability mass function is evaluated in log space via a Lanczos
//! log-gamma — but only **once per tail sum**: interior terms follow the
//! incremental recurrence `pmf(k+1) = pmf(k)·((n−k)/(k+1))·(p/(1−p))`
//! seeded at the mode, which costs one multiply where the naive kernel
//! paid three transcendental log-gamma evaluations. The [`sf_curve`]
//! batch API goes further for the Fig. 3 fit: it produces the whole
//! predicted miss-rate curve of a candidate in a single `O(max NP)` pass
//! using the companion recurrence in `n`,
//! `P(B(n+1,p) > k) = P(B(n,p) > k) + p·P(B(n,p) = k)`.
//!
//! The pre-recurrence per-term kernels survive in [`mod@reference`] as the
//! ground truth for the property tests.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 for positive arguments, which is far more than the
/// divergence comparison in the cache-size search needs.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for the Lanczos approximation with g = 7.
    const COEF: [f64; 9] = [
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
    debug_assert!(x > 0.0, "ln_gamma domain error: x = {x}");
    if x < 0.5 {
        // Reflection formula keeps small arguments accurate.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln C(n, k)` — log of the binomial coefficient.
///
/// Not computed as `lnΓ(n+1) − lnΓ(k+1) − lnΓ(n−k+1)`: those three terms
/// grow like `n·ln n` while their difference stays `O(n·H(k/n))`, so the
/// cancellation wipes out up to five digits for `n ~ 1e5` and the pmf
/// built on it cannot meet the 1e-12 agreement the recurrence kernels are
/// property-tested to. Instead:
///
/// * `min(k, n−k) ≤ 64`: the exact product form
///   `ln C(n,k) = Σ ln((n−m+i)/i)` — every term is `O(ln n)`, no
///   cancellation at all;
/// * otherwise a Stirling expansion combined *analytically*, so each term
///   is already of the result's magnitude and nothing large cancels:
///   with `A = n+1`, `B = k+1`, `C = n−k+1` (note `B + C = A + 1`),
///   `ln C(n,k) = (B−½)ln(A/B) + (C−½)ln(A/C) − ½ln(2πA) + 1
///                + σ(A) − σ(B) − σ(C)`
///   where `σ(x) = 1/12x − 1/360x³ + 1/1260x⁵ − 1/1680x⁷` is the Stirling
///   correction; for arguments ≥ 65 the truncation error is below 1e-16.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let m = k.min(n - k);
    if m == 0 {
        return 0.0;
    }
    if m <= 64 {
        let mut acc = 0.0f64;
        for i in 1..=m {
            acc += ((n - m + i) as f64 / i as f64).ln();
        }
        return acc;
    }
    fn sigma(x: f64) -> f64 {
        let x2 = x * x;
        (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * x2)) / x2) / x2) / x
    }
    let a = (n + 1) as f64;
    let b = (k + 1) as f64;
    let c = (n - k + 1) as f64;
    (b - 0.5) * (a / b).ln() + (c - 0.5) * (a / c).ln()
        - 0.5 * (2.0 * std::f64::consts::PI * a).ln()
        + 1.0
        + sigma(a)
        - sigma(b)
        - sigma(c)
}

/// A binomial distribution `B(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Create `B(n, p)`. `p` is clamped to `[0, 1]` so callers sweeping
    /// tentative cache sizes never panic on a degenerate candidate.
    pub fn new(n: u64, p: f64) -> Self {
        Self {
            n,
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Expected value `n * p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n * p * (1 - p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Probability mass function `P(X = k)`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let ln = ln_choose(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln();
        ln.exp()
    }

    /// Cumulative distribution `P(X <= k)`.
    ///
    /// Sums from the lighter tail for both speed and accuracy: the cache-size
    /// search evaluates this for every `(CS, K)` candidate and every array
    /// size, so the sum is truncated once terms become negligible relative to
    /// the accumulated mass.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mean = self.mean();
        if (k as f64) < mean {
            // Left tail is the lighter one: sum it directly.
            self.sum_pmf_range(0, k)
        } else {
            1.0 - self.sum_pmf_range(k + 1, self.n)
        }
    }

    /// Survival function `P(X > k)` — the predicted miss rate of the paper's
    /// Fig. 3 when `k` is the cache associativity.
    pub fn sf(&self, k: u64) -> f64 {
        (1.0 - self.cdf(k)).clamp(0.0, 1.0)
    }

    /// Sum `P(X = i)` for `i` in `[lo, hi]`, walking outward from the mode so
    /// that the largest terms are accumulated first and the walk can stop
    /// early once terms underflow relative to the running sum.
    ///
    /// Only the seed term at the mode is evaluated in log space; every
    /// other term follows the one-multiply recurrence
    /// `pmf(k±1) = pmf(k) · ratio(k)`, which is what makes the Fig. 3
    /// candidate sweep cheap (`NP` in the tens of thousands means millions
    /// of terms per smeared window).
    fn sum_pmf_range(&self, lo: u64, hi: u64) -> f64 {
        debug_assert!(lo <= hi);
        let n = self.n;
        let p = self.p;
        // Degenerate distributions put all mass on one point; the ratio
        // recurrence would divide by zero, so answer directly.
        if p == 0.0 {
            return if lo == 0 { 1.0 } else { 0.0 };
        }
        if p == 1.0 {
            return if lo <= n && n <= hi { 1.0 } else { 0.0 };
        }
        if lo > n {
            return 0.0;
        }
        let hi = hi.min(n);
        let q = 1.0 - p;
        let down = q / p;
        let up = p / q;
        let mode = (self.mean().floor() as u64).clamp(lo, hi);
        let seed = self.pmf(mode);
        // Walk down from the in-range point closest to the mode, then up.
        let mut total = 0.0f64;
        let mut term = seed;
        let mut k = mode;
        loop {
            total += term;
            if term < total * 1e-16 && k < mode {
                break;
            }
            if k == lo {
                break;
            }
            // pmf(k-1) = pmf(k) · (k / (n-k+1)) · (q/p); k ≥ 1 here
            // because the `k == lo` check above bounds the walk.
            term *= (k as f64 / (n - k + 1) as f64) * down;
            k -= 1;
        }
        let mut term = seed;
        let mut k = mode;
        while k < hi {
            // pmf(k+1) = pmf(k) · ((n-k) / (k+1)) · (p/q); k < hi ≤ n.
            term *= ((n - k) as f64 / (k + 1) as f64) * up;
            k += 1;
            total += term;
            if term < total * 1e-16 {
                break;
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// `P(X = i)` for every `i` in `[lo, hi]`, via the same mode-seeded
    /// incremental recurrence as the tail sums — one log-gamma evaluation
    /// for the whole range. The property tests pin this against the
    /// per-point log-gamma [`Self::pmf`].
    pub fn pmf_range(&self, lo: u64, hi: u64) -> Vec<f64> {
        assert!(lo <= hi, "pmf_range: lo {lo} > hi {hi}");
        let len = usize::try_from(hi - lo).expect("range fits in memory") + 1;
        let mut out = vec![0.0f64; len];
        let n = self.n;
        let p = self.p;
        if p == 0.0 || p == 1.0 {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.pmf(lo + i as u64);
            }
            return out;
        }
        if lo > n {
            return out;
        }
        let hi = hi.min(n);
        let q = 1.0 - p;
        let down = q / p;
        let up = p / q;
        let mode = (self.mean().floor() as u64).clamp(lo, hi);
        let seed = self.pmf(mode);
        let mut term = seed;
        let mut k = mode;
        loop {
            out[(k - lo) as usize] = term;
            if k == lo {
                break;
            }
            term *= (k as f64 / (n - k + 1) as f64) * down;
            k -= 1;
        }
        let mut term = seed;
        let mut k = mode;
        while k < hi {
            term *= ((n - k) as f64 / (k + 1) as f64) * up;
            k += 1;
            out[(k - lo) as usize] = term;
        }
        out
    }
}

/// Survival curve `P(B(n, p) > k)` for every `n` in `np_values`, computed
/// in one `O(max(np_values))` pass.
///
/// The Fig. 3 fit evaluates one `(CS, K)` candidate against *every* array
/// size of a smeared transition window; calling [`Binomial::sf`] per size
/// repeats the tail walk from scratch each time. This batch form instead
/// advances the pair of recurrences in the trial count `n`
///
/// ```text
/// P(B(n+1,p) > k) = P(B(n,p) > k) + p · P(B(n,p) = k)
/// P(B(n+1,p) = k) = P(B(n,p) = k) · (1-p) · (n+1) / (n+1-k)
/// ```
///
/// from `n = k` upward, reading off the curve at each requested page
/// count. `np_values` may be in any order (results come back positionally)
/// and `p` is clamped to `[0, 1]` like [`Binomial::new`].
pub fn sf_curve(np_values: &[u64], p: f64, k: u64) -> Vec<f64> {
    let p = p.clamp(0.0, 1.0);
    let mut out = vec![0.0f64; np_values.len()];
    if np_values.is_empty() || p == 0.0 {
        // With p = 0, X is identically 0 and P(X > k) = 0 for every k ≥ 0.
        return out;
    }
    if p == 1.0 {
        for (slot, &n) in out.iter_mut().zip(np_values) {
            *slot = if n > k { 1.0 } else { 0.0 };
        }
        return out;
    }
    let mut order: Vec<usize> = (0..np_values.len()).collect();
    order.sort_by_key(|&i| np_values[i]);
    let q = 1.0 - p;
    // State at trial count m ≥ k: `sf = P(B(m,p) > k)`, `pmfk = P(B(m,p) = k)`.
    // Seeded at m = k, where sf = 0 and pmfk = p^k.
    let mut m = k;
    let mut sf = 0.0f64;
    let mut pmfk = (k as f64 * p.ln()).exp();
    for &i in &order {
        let target = np_values[i];
        // target ≤ k leaves the seed state: P(B(n,p) > k) = 0 for n ≤ k.
        while m < target {
            // Once past the peak of P(B(m,p) = k) (at m ≈ k/p) the term
            // decays geometrically; when it underflows toward subnormal
            // range it can no longer move `sf`, and grinding through
            // subnormal multiplies costs a microcode trap per step. Freeze
            // the converged state and jump to the target.
            if pmfk < f64::MIN_POSITIVE && (m as f64) * p > k as f64 {
                pmfk = 0.0;
                m = target;
                break;
            }
            sf += p * pmfk;
            pmfk *= q * (m + 1) as f64 / (m + 1 - k) as f64;
            m += 1;
        }
        out[i] = sf.min(1.0);
    }
    out
}

/// The pre-recurrence kernels: every pmf term pays its own three
/// log-gamma evaluations.
///
/// Kept as the ground truth the property tests compare the incremental
/// recurrence against. Not used on any hot path.
pub mod reference {
    use super::Binomial;

    /// Per-point log-gamma pmf (identical to [`Binomial::pmf`]).
    pub fn pmf(n: u64, p: f64, k: u64) -> f64 {
        Binomial::new(n, p).pmf(k)
    }

    /// Survival `P(X > k)` with every term of the tail sum evaluated
    /// independently in log space — the kernel `sum_pmf_range` used
    /// before the recurrence rewrite.
    pub fn sf(n: u64, p: f64, k: u64) -> f64 {
        (1.0 - cdf(n, p, k)).clamp(0.0, 1.0)
    }

    /// Cumulative `P(X <= k)` over per-term log-gamma pmfs.
    pub fn cdf(n: u64, p: f64, k: u64) -> f64 {
        let b = Binomial::new(n, p);
        if k >= n {
            return 1.0;
        }
        if (k as f64) < b.mean() {
            sum_pmf_range(&b, 0, k)
        } else {
            1.0 - sum_pmf_range(&b, k + 1, n)
        }
    }

    fn sum_pmf_range(b: &Binomial, lo: u64, hi: u64) -> f64 {
        let mode = (b.mean().floor() as u64).clamp(lo, hi);
        let mut total = 0.0f64;
        let mut k = mode;
        loop {
            let term = b.pmf(k);
            total += term;
            if term < total * 1e-16 && k < mode {
                break;
            }
            if k == lo {
                break;
            }
            k -= 1;
        }
        let mut k = mode + 1;
        while k <= hi {
            let term = b.pmf(k);
            total += term;
            if term < total * 1e-16 {
                break;
            }
            k += 1;
        }
        total.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n+1) = n!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma(n as f64 + 1.0);
            assert!(
                close(got, f.ln(), 1e-10),
                "ln_gamma({}) = {got}, want {}",
                n + 1,
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi)
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10
        ));
    }

    #[test]
    fn ln_choose_small_values() {
        assert!(close(ln_choose(5, 2), 10.0f64.ln(), 1e-10));
        assert!(close(ln_choose(10, 5), 252.0f64.ln(), 1e-10));
        assert_eq!(ln_choose(3, 7), f64::NEG_INFINITY);
        assert!(close(ln_choose(7, 0), 0.0, 1e-12));
        assert!(close(ln_choose(7, 7), 0.0, 1e-12));
    }

    #[test]
    fn ln_choose_stirling_matches_exact_product() {
        // The m > 64 Stirling path against the exact product form, across
        // the threshold and up to the n = 1e5 the property tests cover.
        // Tolerance is relative to the (large) log value.
        for &(n, k) in &[
            (130u64, 65u64),
            (200, 100),
            (4_096, 70),
            (4_096, 2_048),
            (100_000, 65),
            (100_000, 1_000),
            (100_000, 50_000),
        ] {
            let m = k.min(n - k);
            // Kahan-summed product form, so the oracle's own rounding
            // stays far below the tolerance even at 50 000 terms.
            let (mut exact, mut carry) = (0.0f64, 0.0f64);
            for i in 1..=m {
                let term = ((n - m + i) as f64 / i as f64).ln() - carry;
                let next = exact + term;
                carry = (next - exact) - term;
                exact = next;
            }
            let got = ln_choose(n, k);
            assert!(
                close(got, exact, 1e-12 * exact.abs().max(1.0)),
                "ln_choose({n}, {k}) = {got}, exact sum {exact}"
            );
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let b = Binomial::new(40, 0.3);
        let total: f64 = (0..=40).map(|k| b.pmf(k)).sum();
        assert!(close(total, 1.0, 1e-12), "total = {total}");
    }

    #[test]
    fn pmf_degenerate_p() {
        let b0 = Binomial::new(10, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        let b1 = Binomial::new(10, 1.0);
        assert_eq!(b1.pmf(10), 1.0);
        assert_eq!(b1.pmf(9), 0.0);
    }

    #[test]
    fn cdf_exact_small_case() {
        // B(4, 0.5): P(X <= 1) = (1 + 4) / 16
        let b = Binomial::new(4, 0.5);
        assert!(close(b.cdf(1), 5.0 / 16.0, 1e-12));
        assert!(close(b.sf(1), 11.0 / 16.0, 1e-12));
    }

    #[test]
    fn cdf_saturates() {
        let b = Binomial::new(12, 0.7);
        assert_eq!(b.cdf(12), 1.0);
        assert_eq!(b.cdf(100), 1.0);
        assert_eq!(b.sf(100), 0.0);
    }

    #[test]
    fn sf_large_n_is_stable() {
        // 64 MB of 4 KB pages = 16384 pages; must not overflow or NaN.
        let b = Binomial::new(16_384, 8.0 * 4096.0 / (12.0 * 1024.0 * 1024.0));
        let sf = b.sf(8);
        assert!(sf.is_finite());
        assert!((0.0..=1.0).contains(&sf));
        // Mean ~ 42.7 >> 8, so almost every set overflows.
        assert!(sf > 0.999, "sf = {sf}");
    }

    #[test]
    fn sf_matches_papers_dempsey_intuition() {
        // Dempsey: 2 MB 8-way cache, 4 KB pages. At 512 KB (128 pages) the
        // expected pages per page-set is 2, so overflow is rare; at 4 MB
        // (1024 pages, mean 16) overflow is near-certain.
        let p = 8.0 * 4096.0 / (2.0 * 1024.0 * 1024.0);
        let small = Binomial::new(128, p).sf(8);
        let large = Binomial::new(1024, p).sf(8);
        assert!(small < 0.01, "small = {small}");
        assert!(large > 0.95, "large = {large}");
    }

    #[test]
    fn mean_and_variance() {
        let b = Binomial::new(100, 0.25);
        assert!(close(b.mean(), 25.0, 1e-12));
        assert!(close(b.variance(), 18.75, 1e-12));
    }

    /// Exact enumeration oracle: `P(X > k)` summed from u128 binomial
    /// coefficients, exact for small `n`.
    fn sf_exact(n: u64, p: f64, k: u64) -> f64 {
        fn choose(n: u64, k: u64) -> u128 {
            let mut acc: u128 = 1;
            for i in 0..k.min(n - k) {
                acc = acc * (n - i) as u128 / (i + 1) as u128;
            }
            acc
        }
        if k >= n {
            return 0.0;
        }
        let q = 1.0 - p;
        ((k + 1)..=n)
            .map(|i| choose(n, i) as f64 * p.powi(i as i32) * q.powi((n - i) as i32))
            .sum()
    }

    #[test]
    fn sf_matches_exact_enumeration_small_n() {
        for n in 1u64..=20 {
            for &p in &[0.0, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0] {
                let b = Binomial::new(n, p);
                for k in 0..=n {
                    let got = b.sf(k);
                    let want = sf_exact(n, p, k);
                    assert!(
                        close(got, want, 1e-12),
                        "sf(n={n}, p={p}, k={k}) = {got}, exact {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn recurrence_pmf_matches_log_gamma_pmf() {
        // The incremental recurrence must track the per-point log-gamma
        // evaluation to ≤ 1e-12 absolute across the whole support, for n
        // up to 1e5 and the full spread of Fig. 3 candidate probabilities.
        for &n in &[1u64, 7, 100, 4_096, 100_000] {
            for &p in &[1e-4, 0.01, 0.5, 0.99] {
                let b = Binomial::new(n, p);
                let got = b.pmf_range(0, n);
                for (k, &term) in got.iter().enumerate() {
                    let want = b.pmf(k as u64);
                    assert!(
                        close(term, want, 1e-12),
                        "pmf_range(n={n}, p={p})[{k}] = {term}, log-gamma {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn recurrence_pmf_partial_ranges_and_degenerates() {
        let b = Binomial::new(50, 0.3);
        let got = b.pmf_range(10, 20);
        for (i, &term) in got.iter().enumerate() {
            assert!(close(term, b.pmf(10 + i as u64), 1e-13));
        }
        // Ranges past n are zero-padded, not a panic.
        let tail = b.pmf_range(48, 55);
        assert_eq!(tail.len(), 8);
        assert!(tail[3..].iter().all(|&t| t == 0.0));
        assert!(Binomial::new(9, 0.5)
            .pmf_range(12, 14)
            .iter()
            .all(|&t| t == 0.0));
        // Degenerate p delegates to the exact point masses.
        assert_eq!(
            Binomial::new(5, 0.0).pmf_range(0, 5),
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
        assert_eq!(Binomial::new(5, 1.0).pmf_range(4, 5), vec![0.0, 1.0]);
    }

    #[test]
    fn sf_curve_matches_per_point_sf() {
        // The n-direction recurrence must agree with the k-direction tail
        // walk at every page count of a realistic window, across the
        // candidate-probability spread of the default grid.
        let np: Vec<u64> = (1..=16).map(|i| i * 1024).collect();
        for &p in &[1e-4, 1e-3, 0.01, 0.1, 0.5, 0.99] {
            for &k in &[0u64, 2, 8, 18, 32] {
                let curve = sf_curve(&np, p, k);
                for (i, &n) in np.iter().enumerate() {
                    let want = Binomial::new(n, p).sf(k);
                    assert!(
                        close(curve[i], want, 1e-9),
                        "sf_curve(n={n}, p={p}, k={k}) = {}, sf {want}",
                        curve[i]
                    );
                }
            }
        }
    }

    #[test]
    fn sf_curve_handles_order_duplicates_and_degenerates() {
        // Unsorted and duplicated page counts come back positionally.
        let np = vec![900u64, 100, 900, 5, 0];
        let curve = sf_curve(&np, 0.02, 8);
        assert!(close(curve[0], Binomial::new(900, 0.02).sf(8), 1e-9));
        assert!(close(curve[1], Binomial::new(100, 0.02).sf(8), 1e-9));
        assert_eq!(curve[0], curve[2]);
        assert_eq!(curve[3], 0.0, "n ≤ k ⇒ sf = 0");
        assert_eq!(curve[4], 0.0);
        assert_eq!(sf_curve(&[], 0.3, 4), Vec::<f64>::new());
        assert_eq!(sf_curve(&[10, 20], 0.0, 4), vec![0.0, 0.0]);
        assert_eq!(sf_curve(&[10, 3, 4], 1.0, 4), vec![1.0, 0.0, 0.0]);
        // Out-of-range p is clamped like Binomial::new.
        assert_eq!(sf_curve(&[10], -0.5, 4), vec![0.0]);
        assert_eq!(sf_curve(&[10], 7.5, 4), vec![1.0]);
    }

    #[test]
    fn reference_kernels_agree_with_fast_kernels() {
        // The retained pre-recurrence kernels and the rewritten ones are
        // the same function, merely at different cost.
        for &(n, p) in &[
            (40u64, 0.3f64),
            (16_384, 8.0 * 4096.0 / (12.0 * 1024.0 * 1024.0)),
        ] {
            let b = Binomial::new(n, p);
            for k in [0u64, 1, 8, 40, 200] {
                assert!(close(reference::sf(n, p, k), b.sf(k), 1e-12));
                assert!(close(reference::pmf(n, p, k), b.pmf(k), 1e-15));
            }
        }
    }
}
