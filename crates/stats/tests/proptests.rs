//! Property tests for the statistics substrate: each property loops a
//! fixed number of cases drawn from its own seeded stream, and names the
//! drawn inputs in its failure message.

use servet_stats::binomial::{reference, sf_curve, sf_curves, Binomial};
use servet_stats::cluster::{cluster_by_tolerance, within_tolerance};
use servet_stats::rng::ChaCha8Rng;
use servet_stats::summary::mode;
use servet_stats::{find_peaks, fit_line, gradient, groups_from_pairs};
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

/// Drawn cases of the lane kernel's bit-identity property: the release
/// build (CI's "Lane kernel against the scalar recurrence") draws ten
/// times as many.
const LANE_CASES: usize = if cfg!(debug_assertions) { 200 } else { 2000 };

/// The specification [`sf_curves`] is tested against: the scalar
/// one-candidate recurrence in `n` it replaced, one pass per `p`.
fn sf_curve_spec(np_values: &[u64], p: f64, k: u64) -> Vec<f64> {
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
            // Past the peak of P(B(m,p) = k), once the term underflows
            // toward subnormal range it can no longer move `sf`: freeze
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

/// Every lane of `sf_curves(np, ps, k)` must equal the specification's
/// curve for its `p`, bit for bit.
fn assert_lanes_match_spec(np: &[u64], ps: &[f64], k: u64) {
    let batch = sf_curves(np, ps, k);
    assert_eq!(
        batch.len(),
        ps.len() * np.len(),
        "np={np:?} ps={ps:?} k={k}"
    );
    for (lane, &p) in ps.iter().enumerate() {
        let want = sf_curve_spec(np, p, k);
        let got = &batch[lane * np.len()..][..np.len()];
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "lane {lane} of {} (p={p}, k={k}) at n={}: {g} vs spec {w}",
                ps.len(),
                np[i]
            );
        }
    }
}

/// A drawn probability: the degenerate endpoints, out-of-range values,
/// tiny values whose seed `p^k` is subnormal or zero, and the spread the
/// Fig. 3 grid uses.
fn lane_p(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0u64..10) {
        0 => 0.0,
        1 => 1.0,
        2 => [-0.5, 1.5][rng.gen_range(0usize..2)],
        3 => 10f64.powf(-rng.gen_range(20.0..320.0)),
        4..=6 => 10f64.powf(-rng.gen_range(0.0..4.0)),
        _ => rng.gen_range(0.0..1.0),
    }
}

#[test]
fn lane_kernel_matches_the_scalar_recurrence() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for case in 0..LANE_CASES {
        let k = if case % 8 == 0 {
            rng.gen_range(0u64..300)
        } else {
            rng.gen_range(0u64..40)
        };
        let mut np = vec_of(&mut rng, 0..40, |r| r.gen_range(0u64..4000));
        // Duplicates and page counts at or below k, in any position.
        for _ in 0..rng.gen_range(0usize..4) {
            if !np.is_empty() {
                let dup = np[rng.gen_range(0..np.len())];
                np.push(dup);
            }
            np.push(rng.gen_range(0..k + 1));
        }
        rng.shuffle(&mut np);
        let lanes = 1 + case % 17;
        let ps: Vec<f64> = (0..lanes).map(|_| lane_p(&mut rng)).collect();
        assert_lanes_match_spec(&np, &ps, k);
    }
}

#[test]
fn lane_kernel_matches_the_scalar_recurrence_on_edge_cases() {
    let np: Vec<u64> = vec![4000, 5, 900, 0, 900, 3, 2500, 64, 4000, 1];
    // p = 0 and p = 1 among ordinary lanes; a lane whose seed p^k is
    // subnormal (1e-310 at k = 1); lanes that freeze (p = 0.5 underflows
    // P(B(m,p) = k) long before m = 4000) beside lanes that never do;
    // and every lane count from 1 to 17.
    let pool = [0.0, 0.5, 1.0, 1e-310, 0.02, 0.9, 1e-4, 0.3, 0.75];
    for k in [0u64, 1, 3, 8, 31] {
        for lanes in 1..=17 {
            let ps: Vec<f64> = pool.iter().copied().cycle().take(lanes).collect();
            assert_lanes_match_spec(&np, &ps, k);
        }
        // Every lane frozen early: the pass settles and jumps.
        assert_lanes_match_spec(&np, &[0.5, 0.6, 0.7, 0.8, 0.9, 0.95], k);
        // np ≤ k everywhere, and no page counts at all.
        assert_lanes_match_spec(&[0, k, k / 2], &[0.3, 0.5, 0.99], k);
        assert_lanes_match_spec(&[], &[0.3, 0.5], k);
    }
    assert_lanes_match_spec(&np, &[], 4);
    // The freeze is reached: past the peak at m ≈ k/p, P(B(m,0.5) = 3)
    // at m = 4000 is far below f64::MIN_POSITIVE.
    assert!(Binomial::new(4000, 0.5).pmf(3) < f64::MIN_POSITIVE);
    // And the curve matches the one-candidate form bit for bit.
    let one = sf_curve(&np, 0.02, 8);
    assert_eq!(one, sf_curve_spec(&np, 0.02, 8));
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
        // No group is over-merged: the pairs with both endpoints in a
        // group connect all of its members.
        for g in &groups {
            let mut reached = vec![g[0]];
            let mut grew = true;
            while grew {
                grew = false;
                for &(a, b) in &pairs {
                    if !(g.contains(&a) && g.contains(&b)) {
                        continue;
                    }
                    match (reached.contains(&a), reached.contains(&b)) {
                        (true, false) => reached.push(b),
                        (false, true) => reached.push(a),
                        _ => continue,
                    }
                    grew = true;
                }
            }
            reached.sort_unstable();
            assert_eq!(&reached, g, "group {g:?} of {pairs:?}");
        }
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
fn mode_is_a_member() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for _ in 0..CASES {
        let xs = vec_of(&mut rng, 1..64, |r| r.gen_range(0u64..10));
        let m = mode(&xs).unwrap();
        assert!(xs.contains(&m), "mode {m} of {xs:?}");
    }
}
