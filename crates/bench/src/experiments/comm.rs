//! Fig. 10: communication cost determination, plus the model-accuracy
//! ablation against Hockney / LogGP.

use crate::report::{fmt_size, Report};
use servet_core::platform::Platform;
use servet_core::{characterize_communication, CommConfig, CommResult, SimPlatform};
use servet_net::{mean_relative_error, HockneyModel, LogGpModel};
use servet_sim::KB;
use servet_stats::summary::mean;

fn dunnington_comm() -> (SimPlatform, CommResult) {
    let mut p = SimPlatform::dunnington();
    let r = characterize_communication(&mut p, &CommConfig::with_l1_size(32 * KB));
    (p, r)
}

fn finis_terrae_comm() -> (SimPlatform, CommResult) {
    let mut p = SimPlatform::finis_terrae(2);
    let r = characterize_communication(&mut p, &CommConfig::with_l1_size(16 * KB));
    (p, r)
}

/// Fig. 10(a): message-passing latency from core 0 to every other core,
/// message size = L1.
pub(crate) fn fig10a() -> Report {
    let mut report = Report::new(
        "fig10a",
        "message-passing latency from core 0, L1-sized messages (paper Fig. 10a)",
    );

    let (_, dun) = dunnington_comm();
    report.section(
        "dunnington: core 0 -> k, 32K messages",
        &["dest", "latency us", "layer"],
    );
    for b in 1..24 {
        let lat = dun
            .pair_latency
            .iter()
            .find(|&&((x, y), _)| x == 0 && y == b)
            .map(|&(_, l)| l)
            .expect("probed");
        let layer = dun.layer_of(0, b).expect("layered");
        report.row(&[b.to_string(), format!("{lat:.2}"), layer.to_string()]);
    }
    report.check("dunnington: three layers", dun.num_layers() == 3);
    let l = |b: usize| dun.predicted_latency_us(0, b, 32 * KB).expect("known");
    report.check(
        "dunnington: shared-L2 partner (core 12) is the fastest",
        l(12) < l(1) && l(1) < l(3),
    );
    report.check(
        "dunnington: layer of (0,12) is the fastest layer",
        dun.layer_of(0, 12) == Some(0),
    );
    report.check(
        "dunnington: cross-processor pairs in the slowest layer",
        dun.layer_of(0, 3) == Some(2),
    );

    let (_, ft) = finis_terrae_comm();
    report.section(
        "finis terrae (2 nodes): core 0 -> k, 16K messages",
        &["dest", "latency us", "layer"],
    );
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for b in 1..32 {
        let lat = ft
            .pair_latency
            .iter()
            .find(|&&((x, y), _)| x == 0 && y == b)
            .map(|&(_, l)| l)
            .expect("probed");
        let layer = ft.layer_of(0, b).expect("layered");
        report.row(&[b.to_string(), format!("{lat:.2}"), layer.to_string()]);
        if b < 16 {
            intra.push(lat);
        } else {
            inter.push(lat);
        }
    }
    report.check("ft: four layers", ft.num_layers() == 4);
    let ratio = mean(&inter) / mean(&intra);
    report.check_range(
        "ft: inter-node ~2x slower than intra-node (paper: 'around two times')",
        ratio,
        1.6,
        3.0,
    );
    report
}

/// Fig. 10(b): latency of concurrent messages across the slowest
/// interconnect of each machine.
pub(crate) fn fig10b() -> Report {
    let mut report = Report::new(
        "fig10b",
        "latency scalability with concurrent messages (paper Fig. 10b)",
    );

    let (_, dun) = dunnington_comm();
    let bus_layer = dun.layers.last().expect("layers");
    report.section(
        "dunnington inter-processor: concurrent messages",
        &["messages", "mean latency us", "slowdown"],
    );
    for &(n, lat, slow) in &bus_layer.scalability {
        report.rowf(&[&n, &format!("{lat:.2}"), &format!("{slow:.2}")]);
    }
    let last = bus_layer.scalability.last().expect("swept");
    report.check(
        "dunnington: swept to >= 16 concurrent messages",
        last.0 >= 16,
    );
    report.check_range(
        "dunnington: moderate degradation at full load",
        last.2,
        2.0,
        10.0,
    );

    let (_, ft) = finis_terrae_comm();
    let ib_layer = ft.layers.last().expect("layers");
    report.section(
        "finis terrae InfiniBand: concurrent messages",
        &["messages", "mean latency us", "slowdown"],
    );
    for &(n, lat, slow) in &ib_layer.scalability {
        report.rowf(&[&n, &format!("{lat:.2}"), &format!("{slow:.2}")]);
    }
    let at32 = ib_layer
        .scalability
        .iter()
        .find(|&&(n, _, _)| n == 32)
        .expect("32 concurrent messages swept");
    report.check_range(
        "ft: one of 32 concurrent InfiniBand messages is ~7x slower (paper: 7x)",
        at32.2,
        6.0,
        8.0,
    );
    let monotone = ib_layer
        .scalability
        .windows(2)
        .all(|w| w[1].2 >= w[0].2 - 0.15);
    report.check("ft: slowdown grows with concurrency", monotone);
    report
}

fn p2p_report(id: &str, title: &str, comm: &CommResult, layer_names: &[&str]) -> Report {
    let mut report = Report::new(id, title);
    for (layer, name) in comm.layers.iter().zip(layer_names) {
        report.section(
            &format!("{name} (representative pair {:?})", layer.representative),
            &["size", "latency us", "bandwidth GB/s"],
        );
        for p in &layer.p2p {
            report.row(&[
                fmt_size(p.size),
                format!("{:.2}", p.latency_us),
                format!("{:.3}", p.bandwidth_gbs),
            ]);
        }
    }
    report
}

/// Fig. 10(c): point-to-point bandwidth per layer, Dunnington.
pub(crate) fn fig10c() -> Report {
    let (_, dun) = dunnington_comm();
    let mut report = p2p_report(
        "fig10c",
        "point-to-point bandwidth by layer, Dunnington (paper Fig. 10c)",
        &dun,
        &["shared-L2 pair", "intra-processor", "inter-processor"],
    );
    let bw_at = |layer: usize, size: usize| {
        dun.layers[layer]
            .p2p
            .iter()
            .find(|p| p.size == size)
            .map(|p| p.bandwidth_gbs)
            .expect("size swept")
    };
    report.check(
        "shared-cache layer has the highest bandwidth at 1M",
        bw_at(0, 1 << 20) > bw_at(1, 1 << 20) && bw_at(1, 1 << 20) > bw_at(2, 1 << 20),
    );
    report.check(
        "eager->rendezvous knee visible on the shared-cache layer",
        bw_at(0, 64 * KB) > bw_at(0, 128 * KB),
    );
    report.check(
        "bandwidth grows from small to medium messages on every layer",
        (0..3).all(|l| bw_at(l, 1 << 20) > bw_at(l, 1 << 10)),
    );
    report
}

/// Fig. 10(d): point-to-point bandwidth per layer, Finis Terrae.
pub(crate) fn fig10d() -> Report {
    let (_, ft) = finis_terrae_comm();
    let mut report = p2p_report(
        "fig10d",
        "point-to-point bandwidth by layer, Finis Terrae (paper Fig. 10d)",
        &ft,
        &["intra-processor", "intra-cell", "intra-node", "InfiniBand"],
    );
    let ib = ft.layers.last().expect("layers");
    let peak = ib
        .p2p
        .iter()
        .map(|p| p.bandwidth_gbs)
        .fold(f64::NEG_INFINITY, f64::max);
    report.check_range(
        "InfiniBand saturates near its 20 Gbps (~2.5 GB/s) limit",
        peak,
        2.0,
        3.0,
    );
    let shm_peak = ft.layers[0]
        .p2p
        .iter()
        .map(|p| p.bandwidth_gbs)
        .fold(f64::NEG_INFINITY, f64::max);
    report.check("shared memory outruns InfiniBand at peak", shm_peak > peak);
    report.check(
        "small-message bandwidth ordering follows the layer ordering",
        {
            let bw16k: Vec<f64> = ft
                .layers
                .iter()
                .map(|l| {
                    l.p2p
                        .iter()
                        .find(|p| p.size == 16 * KB)
                        .expect("16K swept")
                        .bandwidth_gbs
                })
                .collect();
            bw16k.windows(2).all(|w| w[0] > w[1])
        },
    );
    report
}

/// Ablation: the paper's §III-D claim that Hockney / LogP-family models
/// "show poor accuracy on current communication middleware on multicore
/// clusters", quantified against Servet's layered characterization.
pub(crate) fn ablation_models() -> Report {
    let mut report = Report::new(
        "ablation_models",
        "single-line models vs Servet's layered characterization (paper §III-D)",
    );
    let (mut platform, servet) = finis_terrae_comm();

    // Fresh evaluation samples: three pairs per layer (or as many as the
    // layer has), sizes from 256 B to 4 MB.
    let sizes: Vec<usize> = (8..=22).step_by(2).map(|e| 1usize << e).collect();
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut servet_err_acc = Vec::new();
    for layer in &servet.layers {
        for &(a, b) in layer.pairs.iter().take(3) {
            for &s in &sizes {
                let measured = platform.message_latency_us(a, b, s);
                samples.push((s, measured));
                let predicted = servet
                    .predicted_latency_us(a, b, s)
                    .expect("pair was characterized");
                servet_err_acc.push(((predicted - measured) / measured).abs());
            }
        }
    }
    let servet_err = mean(&servet_err_acc);
    let hockney = HockneyModel::fit(&samples).expect("fit succeeds");
    let hockney_err = mean_relative_error(|s| hockney.predict_us(s), &samples);
    let loggp = LogGpModel::fit(&samples).expect("fit succeeds");
    let loggp_err = mean_relative_error(|s| loggp.predict_us(s), &samples);

    report.section(
        "mean relative prediction error over all layers and sizes",
        &["model", "error"],
    );
    report.row(&[
        "hockney (single line)".into(),
        format!("{:.1}%", hockney_err * 100.0),
    ]);
    report.row(&[
        "logGP (single line)".into(),
        format!("{:.1}%", loggp_err * 100.0),
    ]);
    report.row(&[
        "servet layered".into(),
        format!("{:.1}%", servet_err * 100.0),
    ]);
    report.note(format!(
        "hockney fit: L = {:.2} us, B = {:.2} GB/s",
        hockney.latency_us,
        hockney.bytes_per_us / 1000.0
    ));
    report.check("servet error under 10%", servet_err < 0.10);
    report.check(
        "single-line models are at least 5x worse",
        hockney_err > 5.0 * servet_err && loggp_err > 5.0 * servet_err,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiment logic on the tiny cluster (fast in debug mode).
    #[test]
    fn comm_experiment_logic_small() {
        let mut p = SimPlatform::tiny_cluster();
        let r = characterize_communication(&mut p, &CommConfig::small(8 * KB));
        assert_eq!(r.num_layers(), 4);
        // Layer latencies ordered; every layer has a p2p sweep.
        assert!(r
            .layers
            .windows(2)
            .all(|w| w[0].latency_us < w[1].latency_us));
        assert!(r.layers.iter().all(|l| !l.p2p.is_empty()));
    }
}
