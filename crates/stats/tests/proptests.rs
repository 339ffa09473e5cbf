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

/// Steps between the lane kernel's settle checks, counted from `m = k`.
const CHECK: u64 = 64;

/// Where the scalar recurrence of one lane meets the lane kernel's settle
/// check, and which of its rules hold there.
#[derive(Debug, Clone, Copy)]
struct Settle {
    /// Trial count of the check.
    at: u64,
    /// (a) `pmf` below `f64::MIN_POSITIVE`.
    underflow: bool,
    /// (b) `sf ≥ 1`.
    saturated: bool,
    /// (c) the next addend leaves `sf` unchanged.
    no_op: bool,
}

/// The specification's freeze point for `(p, k)` (the first trial count
/// at which it zeroes `pmf`) and the first settle check, every [`CHECK`]
/// steps from `m = k`, at which the lane is past its peak (`m·p ≥ k + 1`)
/// and one rule holds. Either is `None` when it falls at or past `limit`.
fn freeze_and_settle(p: f64, k: u64, limit: u64) -> (Option<u64>, Option<Settle>) {
    let (q, kf) = (1.0 - p, k as f64);
    let (mut sf, mut pmfk) = (0.0f64, (kf * p.ln()).exp());
    let (mut freeze, mut settle) = (None, None);
    for m in k..limit {
        let mf = m as f64;
        if freeze.is_none() && pmfk < f64::MIN_POSITIVE && mf * p > kf {
            freeze = Some(m);
        }
        if settle.is_none() && m > k && (m - k).is_multiple_of(CHECK) && mf * p >= kf + 1.0 {
            let s = Settle {
                at: m,
                underflow: pmfk < f64::MIN_POSITIVE,
                saturated: sf >= 1.0,
                no_op: sf + p * pmfk == sf,
            };
            if s.underflow || s.saturated || s.no_op {
                settle = Some(s);
            }
        }
        if freeze.is_some() && settle.is_some() {
            break;
        }
        sf += p * pmfk;
        pmfk *= q * (mf + 1.0) / (mf + 1.0 - kf);
    }
    (freeze, settle)
}

/// Page counts around each of `points` (settle checks, all at or past
/// `CHECK`): one below, at and above it, and one check interval on either
/// side.
fn around(points: impl IntoIterator<Item = u64>) -> Vec<u64> {
    points
        .into_iter()
        .flat_map(|s| [s - CHECK, s - 1, s, s + 1, s + CHECK])
        .collect()
}

/// A lane drawn to settle early: near 1 (its term underflows within a
/// check or two of its peak), small (its term decays by little between
/// two checks, so one of them finds the next addend within an ulp or two
/// of `sf`) or anywhere across the unit interval.
fn settling_p(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0u64..4) {
        0 => 1.0 - 10f64.powf(-rng.gen_range(3.0..9.0)),
        1 => 10f64.powf(-rng.gen_range(0.5..2.5)),
        _ => rng.gen_range(0.01..1.0),
    }
}

#[test]
fn lane_kernel_settles_by_each_rule() {
    // Lanes that settle with (a) holding (their spec freeze falls at or
    // before the check), with only (b) holding and with only (c) holding,
    // each run in packs of one such kind and checked around every settle
    // point.
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let mut kinds: [Vec<(f64, u64, u64)>; 3] = Default::default();
    for _ in 0..LANE_CASES * 4 {
        let (p, k) = (settling_p(&mut rng), rng.gen_range(0u64..40));
        let Some(s) = freeze_and_settle(p, k, 100_000).1 else {
            continue;
        };
        let kind = match (s.underflow, s.saturated, s.no_op) {
            (true, _, _) => 0,
            (false, true, false) => 1,
            (false, false, true) => 2,
            _ => continue,
        };
        if kinds[kind].len() < 24 {
            kinds[kind].push((p, k, s.at));
        }
    }
    for (kind, lanes) in kinds.iter().enumerate() {
        assert!(
            lanes.len() >= 4,
            "rule {} settled {} drawn lanes",
            ["(a)", "(b)", "(c)"][kind],
            lanes.len()
        );
        for &(p, k, at) in lanes {
            let mut np = around([at]);
            np.extend([0, k, 4 * at]);
            // The lane alone, in a short pack and in a full one beside
            // other lanes of its kind that share its k.
            let same_k: Vec<f64> = lanes.iter().filter(|l| l.1 == k).map(|l| l.0).collect();
            assert_lanes_match_spec(&np, &[p], k);
            assert_lanes_match_spec(&np, &[p, 0.5, 1e-6], k);
            assert_lanes_match_spec(&np, &same_k, k);
        }
    }
}

#[test]
fn lane_kernel_matches_a_freeze_between_checks() {
    // The specification freezes at a step that is no multiple of CHECK
    // past k; the kernel keeps stepping to its next check. Every page
    // count from k to two checks past the freeze is read off.
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut seen = 0;
    for _ in 0..LANE_CASES {
        let p = 1.0 - 10f64.powf(-rng.gen_range(1.0..9.0));
        let k = rng.gen_range(0u64..40);
        let (Some(freeze), Some(settle)) = freeze_and_settle(p, k, 100_000) else {
            continue;
        };
        if (freeze - k).is_multiple_of(CHECK) {
            continue;
        }
        // A check that finds the term underflowed comes after the freeze.
        assert!(
            !settle.underflow || settle.at > freeze,
            "p={p}, k={k}: froze at {freeze}, settled at {}",
            settle.at
        );
        seen += 1;
        let np: Vec<u64> = (0..=freeze + 2 * CHECK).collect();
        assert_lanes_match_spec(&np, &[p], k);
        assert_lanes_match_spec(&np, &[p, settling_p(&mut rng), 1e-7, 0.25], k);
    }
    assert!(seen >= LANE_CASES / 4, "{seen} freezes between checks");
}

#[test]
fn lane_kernel_mixes_settling_and_unsettled_lanes() {
    // Packs of every size from 1 to 17 (short packs, full packs and a
    // short remainder) whose lanes either settle early or never settle
    // (the peak k/p lies past every page count), with page counts around
    // the settling lanes' checks.
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let mut mixed = 0;
    for case in 0..LANE_CASES {
        let k = rng.gen_range(1u64..40);
        let lanes = 1 + case % 17;
        let ps: Vec<f64> = (0..lanes)
            .map(|_| match rng.gen_range(0u64..3) {
                0 => 10f64.powf(-rng.gen_range(5.0..8.0)),
                1 => lane_p(&mut rng),
                _ => settling_p(&mut rng),
            })
            .collect();
        let settles: Vec<u64> = ps
            .iter()
            .filter_map(|&p| freeze_and_settle(p.clamp(0.0, 1.0), k, 20_000).1)
            .map(|s| s.at)
            .collect();
        mixed += usize::from(!settles.is_empty() && settles.len() < lanes);
        let mut np = around(settles.iter().copied());
        np.extend(vec_of(&mut rng, 0..12, |r| r.gen_range(0u64..20_000)));
        rng.shuffle(&mut np);
        assert_lanes_match_spec(&np, &ps, k);
    }
    assert!(mixed >= LANE_CASES / 4, "{mixed} packs mixed the two");
}

#[test]
fn lane_kernel_matches_up_to_2_17_pages() {
    // A 64 MB window on 1 KB pages: the Fig. 3 grid's p = K·PS/CS over
    // tentative sizes from 256 KB to 64 MB, and drawn lanes.
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let cases = LANE_CASES / 50;
    for case in 0..cases {
        let k = [1u64, 2, 4, 8, 16, 24, 32][case % 7];
        let mut np = vec_of(&mut rng, 1..16, |r| r.gen_range(0u64..(1 << 17) + 1));
        np.push(1 << 17);
        let ps: Vec<f64> = (0..1 + case % 9)
            .map(|_| {
                if rng.gen_range(0u64..2) == 0 {
                    let cs = 1u64 << rng.gen_range(18u64..27);
                    (k * 1024) as f64 / cs as f64
                } else {
                    lane_p(&mut rng)
                }
            })
            .collect();
        assert_lanes_match_spec(&np, &ps, k);
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
