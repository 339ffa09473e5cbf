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
//! probability mass function is evaluated in log space, through a
//! cancellation-free `ln C(n, k)` — but only **once per tail sum**:
//! interior terms follow the incremental recurrence
//! `pmf(k+1) = pmf(k)·((n−k)/(k+1))·(p/(1−p))` seeded at the mode, which
//! costs one multiply where the naive kernel paid a transcendental
//! evaluation per term. The [`sf_curves`]
//! batch API goes further for the Fig. 3 fit: it produces the whole
//! predicted miss-rate curves of up to eight candidates that share `K` in
//! a single `O(max NP)` pass, one lane per candidate, using the companion
//! recurrence in `n`, `P(B(n+1,p) > k) = P(B(n,p) > k) + p·P(B(n,p) = k)`,
//! and stops it once no curve can change any more.
//! [`sf_curve`] is its one-candidate case.
//!
//! The pre-recurrence per-term kernels survive in [`mod@reference`] as the
//! ground truth for the property tests.

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
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
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

    /// Expected value `n * p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
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
}

/// Survival curve `P(B(n, p) > k)` for every `n` in `np_values`, computed
/// in one `O(max(np_values))` pass: the one-candidate case of
/// [`sf_curves`].
///
/// `np_values` may be in any order (results come back positionally) and
/// `p` is clamped to `[0, 1]` like [`Binomial::new`].
pub fn sf_curve(np_values: &[u64], p: f64, k: u64) -> Vec<f64> {
    sf_curves(np_values, &[p], k)
}

/// Candidates one pass of the recurrence advances in lockstep.
const LANES: usize = 8;

/// Survival curves `P(B(n, p) > k)` of several candidates that share `k`,
/// for every `n` in `np_values`: row `i` of the result (`np_values.len()`
/// values) is the curve of `ps[i]`.
///
/// The Fig. 3 fit evaluates every `(CS, K)` candidate against *every*
/// array size of a smeared transition window; calling [`Binomial::sf`]
/// per size repeats the tail walk from scratch each time. This batch form
/// instead advances the pair of recurrences in the trial count `n`
///
/// ```text
/// P(B(n+1,p) > k) = P(B(n,p) > k) + p · P(B(n,p) = k)
/// P(B(n+1,p) = k) = P(B(n,p) = k) · (1-p) · (n+1) / (n+1-k)
/// ```
///
/// from `n = k` upward, reading off the curves at each requested page
/// count. Candidates with the same `k` step through the same `n`, so up
/// to eight of them share one pass, each lane performing exactly the
/// operations a pass of its own would: the curves are the same bits
/// whatever `ps` holds beside them. A lane whose curve can no longer
/// change past its peak is settled at the next of the checks made every
/// 64 steps, and the pass stops once all of its lanes are, so its cost
/// follows the last candidate's settle point, not the largest page count.
/// `np_values` may be in any order and each `p` is clamped to `[0, 1]`
/// like [`Binomial::new`].
pub fn sf_curves(np_values: &[u64], ps: &[f64], k: u64) -> Vec<f64> {
    let len = np_values.len();
    let mut out = vec![0.0f64; ps.len() * len];
    if len == 0 {
        return out;
    }
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by_key(|&i| np_values[i]);
    let mut pack: Vec<(usize, f64)> = Vec::with_capacity(LANES);
    for (row, &p) in ps.iter().enumerate() {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            // X is identically 0, so P(X > k) = 0 for every k ≥ 0.
            continue;
        }
        if p == 1.0 {
            for (slot, &n) in out[row * len..][..len].iter_mut().zip(np_values) {
                *slot = if n > k { 1.0 } else { 0.0 };
            }
            continue;
        }
        pack.push((row, p));
        if pack.len() == LANES {
            advance::<LANES>(np_values, &order, &pack, k, &mut out);
            pack.clear();
        }
    }
    match pack.len() {
        0 => {}
        1 => advance::<1>(np_values, &order, &pack, k, &mut out),
        _ => advance::<LANES>(np_values, &order, &pack, k, &mut out),
    }
    out
}

/// Steps [`advance`] takes between two settle checks.
const CHECK_EVERY: u64 = 64;

#[cfg(test)]
thread_local! {
    /// Recurrence steps [`advance`] has taken on this thread.
    static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Advance the recurrence of every `(row, p)` of `pack` (at most `N`,
/// each `p` in `(0, 1)`) through `np_values` in ascending `order`,
/// writing each candidate's curve into its row of `out`.
///
/// Each step is the scalar recurrence alone, in its order, in every lane:
/// `sf += p·pmfk`, then `pmfk *= (q·(m+1)) / (m+1−k)`, where `(m+1)` and
/// `(m+1−k)` are exact `f64` counters (integers below 2⁵³). Every
/// [`CHECK_EVERY`] steps a lane past its peak (`m·p ≥ k + 1`) whose curve
/// can no longer change is *settled*: its `pmfk` is set to `0`, so it adds
/// `+0.0` from then on. It settles when its term is below
/// `f64::MIN_POSITIVE` (the scalar pass's subnormal freeze, checked late),
/// when `sf ≥ 1` (the curve reads `1` for good), or when the next addend
/// would leave `sf` unchanged. Past the peak the computed ratio is at most
/// `1`, so no later addend is larger, and by monotone rounding none
/// changes `sf` either; a freeze found late adds only terms far below half
/// an ulp of `sf`. DESIGN.md §7 gives both arguments, which hold for page
/// counts below 2²⁷. The pass stops stepping once every lane holds
/// `pmfk = 0`; unused lanes start there.
fn advance<const N: usize>(
    np_values: &[u64],
    order: &[usize],
    pack: &[(usize, f64)],
    k: u64,
    out: &mut [f64],
) {
    let len = np_values.len();
    let kf = k as f64;
    let (mut p, mut q) = ([0.0f64; N], [1.0f64; N]);
    // State at trial count m ≥ k: `sf = P(B(m,p) > k)`, `pmfk = P(B(m,p) = k)`.
    // Seeded at m = k, where sf = 0 and pmfk = p^k.
    let (mut sf, mut pmfk) = ([0.0f64; N], [0.0f64; N]);
    for (lane, &(_, pl)) in pack.iter().enumerate() {
        p[lane] = pl;
        q[lane] = 1.0 - pl;
        pmfk[lane] = (kf * pl.ln()).exp();
    }
    let mut m = k;
    let mut mf = kf;
    let mut check_at = k + CHECK_EVERY;
    // Set once every lane holds pmfk = 0: no further step can move a sum.
    let mut settled = pmfk.iter().all(|&t| t == 0.0);
    for &i in order {
        let target = np_values[i];
        // target ≤ k leaves the seed state: P(B(n,p) > k) = 0 for n ≤ k.
        while !settled && m < target {
            let stop = target.min(check_at);
            #[cfg(test)]
            STEPS.with(|steps| steps.set(steps.get() + (stop - m)));
            while m < stop {
                let next = mf + 1.0;
                let fresh = next - kf;
                for lane in 0..N {
                    sf[lane] += p[lane] * pmfk[lane];
                    pmfk[lane] *= q[lane] * next / fresh;
                }
                m += 1;
                mf = next;
            }
            if m == check_at {
                check_at += CHECK_EVERY;
                for lane in 0..N {
                    let past_peak = mf * p[lane] >= kf + 1.0;
                    let spent = pmfk[lane] < f64::MIN_POSITIVE
                        || sf[lane] >= 1.0
                        || sf[lane] + p[lane] * pmfk[lane] == sf[lane];
                    if past_peak && spent {
                        pmfk[lane] = 0.0;
                    }
                }
                settled = pmfk.iter().all(|&t| t == 0.0);
            }
        }
        for (lane, &(row, _)) in pack.iter().enumerate() {
            out[row * len + i] = sf[lane].min(1.0);
        }
    }
}

/// The pre-recurrence kernels: every pmf term pays its own three
/// log-gamma evaluations.
///
/// Kept as the ground truth the property tests compare the incremental
/// recurrence against. Not used on any hot path.
pub mod reference {
    use super::Binomial;

    /// Survival `P(X > k)` with every term of the tail sum evaluated
    /// independently in log space — the kernel `sum_pmf_range` used
    /// before the recurrence rewrite.
    pub fn sf(n: u64, p: f64, k: u64) -> f64 {
        (1.0 - cdf(n, p, k)).clamp(0.0, 1.0)
    }

    /// Cumulative `P(X <= k)` over per-term log-gamma pmfs.
    pub(crate) fn cdf(n: u64, p: f64, k: u64) -> f64 {
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
    fn mean_is_n_p() {
        let b = Binomial::new(100, 0.25);
        assert!(close(b.mean(), 25.0, 1e-12));
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

    /// Recurrence steps `f` makes [`advance`] take on this thread.
    fn steps_of(f: impl FnOnce()) -> u64 {
        let before = STEPS.with(std::cell::Cell::get);
        f();
        STEPS.with(std::cell::Cell::get) - before
    }

    /// The first trial count at which a lane of `p` is past its peak and
    /// spent, by the rules of [`advance`]'s check tested at every step.
    fn settle_point(p: f64, k: u64) -> u64 {
        let (q, kf) = (1.0 - p, k as f64);
        let (mut sf, mut pmfk) = (0.0f64, (kf * p.ln()).exp());
        let mut m = k;
        loop {
            let mf = m as f64;
            let spent = pmfk < f64::MIN_POSITIVE || sf >= 1.0 || sf + p * pmfk == sf;
            if mf * p >= kf + 1.0 && spent {
                return m;
            }
            sf += p * pmfk;
            pmfk *= q * (mf + 1.0) / (mf + 1.0 - kf);
            m += 1;
        }
    }

    #[test]
    fn a_settled_pack_stops_within_one_check_of_its_last_lane() {
        // Every lane settles far below the 2^17 pages asked for, so a pass
        // that stepped to the target would take over 130 000 steps.
        let np = [1u64 << 17];
        let pool = [0.5, 0.1, 0.02, 1.0 / 64.0, 0.3, 0.05, 0.2, 0.01];
        for k in [0u64, 1, 8, 31] {
            for lanes in [1, 3, 8] {
                let ps = &pool[..lanes];
                let last = ps.iter().map(|&p| settle_point(p, k)).max().unwrap() - k;
                assert!(last + CHECK_EVERY < np[0], "k={k}: {last}");
                let steps = steps_of(|| drop(sf_curves(&np, ps, k)));
                assert!(
                    (last..last + CHECK_EVERY).contains(&steps),
                    "k={k}, {lanes} lanes: {steps} steps, the last lane settles {last} in"
                );
            }
        }
        // Lanes that never settle keep the pass to the target.
        assert_eq!(
            steps_of(|| drop(sf_curves(&np, &[1e-6, 0.5], 8))),
            np[0] - 8
        );
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
            }
        }
    }
}
