//! Communication tuner: use the measured communication layers to make the
//! two decisions the paper motivates in §III-D and §V — whether to gather
//! small messages on a poorly scalable interconnect, and which broadcast
//! algorithm fits the machine's hierarchy.
//!
//! ```text
//! cargo run --release --example comm_tuner
//! ```

use servet::autotune::{aggregation_decision, select_broadcast, slowdown_at};
use servet::prelude::*;

fn main() {
    println!("measuring a 2-node Finis Terrae ...");
    let mut platform = SimPlatform::finis_terrae(2);
    let config = SuiteConfig {
        skip_shared: true,
        skip_memory: true,
        ..SuiteConfig::default()
    };
    let profile = run_full_suite(&mut platform, &config).profile;
    let comm = profile.communication.as_ref().expect("comm ran");

    println!("\ninterconnect scalability (measured):");
    for (i, layer) in comm.layers.iter().enumerate() {
        let worst = layer
            .scalability
            .last()
            .map(|&(n, _, s)| format!("{s:.1}x at {n} msgs"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  layer {i} ({:.1} us, {} pairs): degradation {worst}",
            layer.latency_us,
            layer.pairs.len()
        );
    }

    // Decision 1: gather or not? 16 ranks each sending one tiny (256 B)
    // message across the InfiniBand layer — the startup-dominated case
    // where gathering pays on a poorly scalable network.
    let ib = comm.layers.len() - 1;
    println!("\nshould 16 x 256 B InfiniBand messages be gathered into one?");
    let decision = aggregation_decision(comm, ib, 16, 256, 0.3);
    println!(
        "  concurrent: {:.1} us   aggregated: {:.1} us   -> {}",
        decision.concurrent_us,
        decision.aggregated_us,
        if decision.aggregate {
            "GATHER"
        } else {
            "send separately"
        }
    );
    println!(
        "  (measured slowdown of 16 concurrent messages: {:.1}x)",
        slowdown_at(comm, ib, 16)
    );

    // Same question for bulky messages inside a node: the rendezvous
    // cost of one huge message plus the packing copy loses there.
    println!("\nand 16 x 64 KB messages inside a node?");
    let decision = aggregation_decision(comm, 0, 16, 64 * 1024, 0.3);
    println!(
        "  concurrent: {:.1} us   aggregated: {:.1} us   -> {}",
        decision.concurrent_us,
        decision.aggregated_us,
        if decision.aggregate {
            "GATHER"
        } else {
            "send separately"
        }
    );

    // Decision 2: broadcast algorithm for 32 ranks.
    println!("\nbroadcast of 32 KB to all 32 ranks — predicted cost per algorithm:");
    for prediction in select_broadcast(&profile, 32, 32 * 1024) {
        println!(
            "  {:>12}: {:>8.1} us",
            prediction.algorithm.name(),
            prediction.predicted_us
        );
    }
    let winner = select_broadcast(&profile, 32, 32 * 1024)[0].algorithm;
    println!("  -> use the '{}' algorithm on this machine", winner.name());
}
