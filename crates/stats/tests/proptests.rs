//! Property tests for the statistics substrate: each property loops a
//! fixed number of cases drawn from its own seeded stream, and names the
//! drawn inputs in its failure message.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use servet_stats::binomial::{reference, sf_curve, Binomial};
use servet_stats::cluster::{cluster_by_tolerance, within_tolerance};
use servet_stats::gradient::{find_peaks, gradient};
use servet_stats::groups::{groups_from_pairs, DisjointSet};
use servet_stats::regress::fit_line;
use servet_stats::summary::{mean, median, mode, percentile, stddev};
use std::ops::Range;

/// Cases per property.
const CASES: usize = 256;

/// A vector whose length is drawn from `len` and whose items come from `item`.
fn vec_of<T>(
    rng: &mut ChaCha8Rng,
    len: Range<usize>,
    mut item: impl FnMut(&mut ChaCha8Rng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A probability over the closed unit interval: both endpoints on the
/// first two cases, uniform draws after.
fn unit_closed(rng: &mut ChaCha8Rng, case: usize) -> f64 {
    match case {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

#[test]
fn binomial_sf_in_unit_interval() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for case in 0..CASES {
        let n = rng.gen_range(0u64..5000);
        let p = unit_closed(&mut rng, case);
        let k = rng.gen_range(0u64..5100);
        let sf = Binomial::new(n, p).sf(k);
        assert!((0.0..=1.0).contains(&sf), "sf(n={n}, p={p}, k={k}) = {sf}");
        assert!(sf.is_finite());
    }
}

#[test]
fn binomial_cdf_monotone_in_k() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let n = rng.gen_range(1u64..2000);
        let p = rng.gen_range(0.01..0.99);
        let b = Binomial::new(n, p);
        let mut prev = -1.0;
        for k in 0..=n.min(50) {
            let c = b.cdf(k);
            assert!(
                c + 1e-12 >= prev,
                "cdf(n={n}, p={p}) not monotone at k={k}: {c} < {prev}"
            );
            prev = c;
        }
    }
}

#[test]
fn binomial_cdf_plus_sf_is_one() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for case in 0..CASES {
        let n = rng.gen_range(1u64..2000);
        let p = unit_closed(&mut rng, case);
        let k = rng.gen_range(0u64..2000);
        let b = Binomial::new(n, p);
        let total = b.cdf(k) + b.sf(k);
        assert!(
            (total - 1.0).abs() < 1e-9,
            "cdf+sf(n={n}, p={p}, k={k}) = {total}"
        );
    }
}

#[test]
fn recurrence_pmf_tracks_log_gamma_pmf() {
    // Tentpole invariant: the mode-seeded incremental recurrence and
    // the per-point log-gamma kernel are the same pmf to ≤ 1e-12,
    // for n up to 1e5 across the Fig. 3 probability spread.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for case in 0..CASES {
        let n = rng.gen_range(1u64..100_000);
        let p = [1e-4, 0.01, 0.5, 0.99][case % 4];
        let b = Binomial::new(n, p);
        // The full support would be O(n) log-gamma calls per case; check
        // a window around the mode (where mass lives) plus both edges.
        let mode = (b.mean().floor() as u64).min(n);
        let lo = mode.saturating_sub(64);
        let hi = (mode + 64).min(n);
        let range = b.pmf_range(lo, hi);
        for (i, &term) in range.iter().enumerate() {
            let k = lo + i as u64;
            let want = b.pmf(k);
            assert!(
                (term - want).abs() <= 1e-12,
                "pmf(n={n}, p={p}, k={k}) recurrence {term} vs log-gamma {want}"
            );
        }
        for k in [0u64, n / 2, n] {
            let got = b.pmf_range(k, k)[0];
            assert!(
                (got - b.pmf(k)).abs() <= 1e-12,
                "pmf_range(n={n}, p={p}, k={k}) = {got}"
            );
        }
    }
}

#[test]
fn sf_curve_tracks_per_point_sf() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for case in 0..CASES {
        let np = vec_of(&mut rng, 1..24, |r| r.gen_range(0u64..20_000));
        let p = [1e-4, 0.01, 0.1, 0.5, 0.99][case % 5];
        let k = rng.gen_range(0u64..33);
        let curve = sf_curve(&np, p, k);
        assert_eq!(curve.len(), np.len());
        for (i, &n) in np.iter().enumerate() {
            let want = Binomial::new(n, p).sf(k);
            assert!(
                (curve[i] - want).abs() <= 1e-9,
                "sf_curve(n={n}, p={p}, k={k}) = {} vs sf {want}",
                curve[i]
            );
            assert!((0.0..=1.0).contains(&curve[i]));
        }
    }
}

#[test]
fn fast_sf_matches_reference_kernel() {
    // The rewritten tail sum and the retained pre-recurrence kernel
    // must be interchangeable.
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for case in 0..CASES {
        let n = rng.gen_range(0u64..30_000);
        let p = unit_closed(&mut rng, case);
        let k = rng.gen_range(0u64..64);
        let fast = Binomial::new(n, p).sf(k);
        let slow = reference::sf(n, p, k);
        assert!(
            (fast - slow).abs() <= 1e-12,
            "sf(n={n}, p={p}, k={k}): fast {fast} vs reference {slow}"
        );
    }
}

#[test]
fn binomial_sf_monotone_in_n() {
    // More pages -> more overflow: sf(k) must not decrease with n.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..CASES {
        let p = rng.gen_range(0.05..0.5);
        let k = rng.gen_range(1u64..8);
        let mut prev = 0.0;
        for n in [10u64, 50, 100, 500, 1000] {
            let sf = Binomial::new(n, p).sf(k);
            assert!(sf + 1e-9 >= prev, "sf(p={p}, k={k}) not monotone at n={n}");
            prev = sf;
        }
    }
}

#[test]
fn gradient_positive_series() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    for _ in 0..CASES {
        let c = vec_of(&mut rng, 2..64, |r| r.gen_range(0.1..1e6));
        let g = gradient(&c);
        assert_eq!(g.len(), c.len() - 1);
        for (k, &v) in g.iter().enumerate() {
            assert!((v - c[k + 1] / c[k]).abs() < 1e-9, "k={k} of {c:?}");
        }
    }
}

#[test]
fn peaks_are_above_threshold_and_disjoint() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for _ in 0..CASES {
        let g = vec_of(&mut rng, 0..64, |r| r.gen_range(0.5..3.0));
        let threshold = rng.gen_range(0.9..2.0);
        let peaks = find_peaks(&g, threshold);
        for p in &peaks {
            assert!(p.value > threshold, "threshold {threshold} over {g:?}");
            assert!(p.start <= p.index && p.index <= p.end);
            for &v in &g[p.start..=p.end] {
                assert!(v > threshold);
            }
            // Region is maximal.
            if p.start > 0 {
                assert!(g[p.start - 1] <= threshold);
            }
            if p.end + 1 < g.len() {
                assert!(g[p.end + 1] <= threshold);
            }
        }
        for w in peaks.windows(2) {
            assert!(w[0].end < w[1].start, "threshold {threshold} over {g:?}");
        }
    }
}

#[test]
fn clusters_partition_items() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    for _ in 0..CASES {
        let values = vec_of(&mut rng, 0..40, |r| r.gen_range(0.1..100.0));
        let tol = rng.gen_range(0.0..0.5);
        let items: Vec<(f64, usize)> = values.iter().copied().zip(0..values.len()).collect();
        let clusters = cluster_by_tolerance(items, tol);
        let mut seen: Vec<usize> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..values.len()).collect::<Vec<_>>(),
            "tol {tol} over {values:?}"
        );
        for c in &clusters {
            assert!(!c.is_empty());
        }
    }
}

#[test]
fn within_tolerance_is_symmetric() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..CASES {
        let a = rng.gen_range(-1e6..1e6);
        let b = rng.gen_range(-1e6..1e6);
        let tol = rng.gen_range(0.0..1.0);
        assert_eq!(
            within_tolerance(a, b, tol),
            within_tolerance(b, a, tol),
            "a={a}, b={b}, tol={tol}"
        );
    }
}

#[test]
fn groups_cover_only_paired_elements() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for _ in 0..CASES {
        let pairs: Vec<(usize, usize)> = vec_of(&mut rng, 0..64, |r| {
            (r.gen_range(0usize..32), r.gen_range(0usize..32))
        })
        .into_iter()
        .filter(|&(a, b)| a != b)
        .collect();
        let groups = groups_from_pairs(&pairs);
        // Every paired element appears exactly once across groups.
        let mut paired: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        paired.sort_unstable();
        paired.dedup();
        let mut grouped: Vec<usize> = groups.iter().flatten().copied().collect();
        grouped.sort_unstable();
        assert_eq!(grouped, paired, "pairs {pairs:?}");
        // Both endpoints of every pair are in the same group.
        for &(a, b) in &pairs {
            let ga = groups.iter().position(|g| g.contains(&a));
            let gb = groups.iter().position(|g| g.contains(&b));
            assert_eq!(ga, gb, "pair ({a}, {b}) of {pairs:?}");
        }
    }
}

#[test]
fn disjoint_set_components_decrease_only() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..64);
        let ops = vec_of(&mut rng, 0..128, |r| {
            (r.gen_range(0usize..64), r.gen_range(0usize..64))
        });
        let mut ds = DisjointSet::new(n);
        let mut prev = ds.components();
        for (a, b) in ops {
            let (a, b) = (a % n, b % n);
            let merged = ds.union(a, b);
            let now = ds.components();
            if merged {
                assert_eq!(now, prev - 1);
            } else {
                assert_eq!(now, prev);
            }
            assert!(ds.connected(a, b));
            prev = now;
        }
        let total: usize = ds.sets().iter().map(|s| s.len()).sum();
        assert_eq!(total, n);
    }
}

#[test]
fn fit_line_recovers_exact_lines() {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    for _ in 0..CASES {
        let intercept = rng.gen_range(-100.0..100.0);
        let slope = rng.gen_range(-10.0..10.0);
        let n = rng.gen_range(3usize..20);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| intercept + slope * x).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        let line = format!("{intercept} + {slope}·x over {n} points");
        assert!((fit.intercept - intercept).abs() < 1e-6, "{line}");
        assert!((fit.slope - slope).abs() < 1e-6, "{line}");
    }
}

#[test]
fn median_between_min_and_max() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    for _ in 0..CASES {
        let xs = vec_of(&mut rng, 1..64, |r| r.gen_range(-1e6..1e6));
        let m = median(&xs);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo && m <= hi, "median {m} of {xs:?}");
    }
}

#[test]
fn percentile_monotone() {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    for _ in 0..CASES {
        let xs = vec_of(&mut rng, 1..32, |r| r.gen_range(-1e3..1e3));
        let p25 = percentile(&xs, 0.25);
        let p50 = percentile(&xs, 0.50);
        let p75 = percentile(&xs, 0.75);
        assert!(p25 <= p50 && p50 <= p75, "{p25} {p50} {p75} of {xs:?}");
        assert!((p50 - median(&xs)).abs() < 1e-9);
    }
}

#[test]
fn mode_is_a_member() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for _ in 0..CASES {
        let xs = vec_of(&mut rng, 1..64, |r| r.gen_range(0u64..10));
        let m = mode(&xs).unwrap();
        assert!(xs.contains(&m), "mode {m} of {xs:?}");
    }
}

#[test]
fn stddev_nonnegative_and_shift_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    for _ in 0..CASES {
        let xs = vec_of(&mut rng, 2..32, |r| r.gen_range(-1e3..1e3));
        let shift = rng.gen_range(-1e3..1e3);
        let s = stddev(&xs);
        assert!(s >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|&x| x + shift).collect();
        assert!(
            (stddev(&shifted) - s).abs() < 1e-6,
            "shift {shift} of {xs:?}"
        );
        let _ = mean(&xs);
    }
}
