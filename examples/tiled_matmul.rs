//! Tiled matrix multiplication: pick the tile size from the *measured*
//! cache sizes and verify the choice by replaying the kernel's exact
//! access trace through the simulated hierarchy ([`SimOracle`] at one
//! thread).
//!
//! "Tiling is one of the most widely used optimization techniques and our
//! suite can help to this technique by providing all the cache sizes in a
//! portable way" (paper §V).
//!
//! ```text
//! cargo run --release --example tiled_matmul
//! ```

use servet::autotune::tiling::{
    DEFAULT_ELEM_SIZE as ELEM, DEFAULT_MATRICES as TILES, DEFAULT_OCCUPANCY as FILL,
};
use servet::prelude::*;
use servet::tune::{Config, PAD, PLACEMENT, THREADS, TILE};

fn main() {
    // 1. Measure the machine (cache sizes are all tiling needs).
    println!("measuring cache sizes on a simulated Dempsey ...");
    let mut platform = SimPlatform::dempsey();
    let sweep = mcalibrator(&mut platform, 0, &McalibratorConfig::default());
    let levels = detect_cache_levels(&sweep, platform.page_size(), &DetectConfig::default());
    let profile = MachineProfile {
        schema_version: servet::core::SCHEMA_VERSION,
        machine: "dempsey".into(),
        cores_per_node: 2,
        total_cores: 2,
        page_size: platform.page_size(),
        mcalibrator: Some(sweep),
        cache_levels: levels,
        shared_caches: None,
        memory: None,
        communication: None,
        micro: None,
        false_sharing: None,
    };
    for l in &profile.cache_levels {
        println!("  L{}: {} KB", l.level, l.size / 1024);
    }

    // 2. Choose tiles for each level with the tile query's defaults (f64
    //    elements, A, B and C tiles live together, keep 25 % headroom).
    println!("\ntile choices ({TILES} tiles of f64, {FILL} occupancy):");
    let mut choices = Vec::new();
    for level in 1..=profile.num_cache_levels() as u8 {
        if let Some(choice) = select_tile(&profile, level, ELEM, TILES, FILL) {
            println!(
                "  target L{}: {} x {} elements ({} KB working set)",
                level,
                choice.tile,
                choice.tile,
                TILES * choice.tile * choice.tile * ELEM / 1024
            );
            choices.push(choice);
        }
    }

    // 3. Verify on the simulator: replay the blocked matmul on one thread
    //    for a few candidate tiles, including the selected ones.
    let n = 192;
    println!("\nreplaying {n}x{n} f64 matmul traces through the simulated hierarchy:");
    let oracle = SimOracle::new(servet::sim::presets::dempsey(), 0x5EED, n);
    let cycles_of = |tile: usize| {
        let config: Config = [(TILE, tile as u64), (THREADS, 1), (PLACEMENT, 0), (PAD, 64)]
            .map(|(name, v)| (name.to_string(), v))
            .into();
        oracle.evaluate(&config)
    };
    let mut candidates: Vec<usize> = vec![8, 16, 32, 64, n];
    for c in &choices {
        candidates.push(c.tile.min(n)); // a tile >= n degenerates to untiled
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut best = (0usize, f64::INFINITY);
    for &tile in &candidates {
        let cycles = cycles_of(tile);
        let label = if tile >= n {
            "untiled".into()
        } else {
            format!("{tile:>3}")
        };
        let chosen = if choices.iter().any(|c| c.tile == tile) {
            "  <- selected from measured caches"
        } else {
            ""
        };
        println!("  tile {label}: {:7.2} Mcycles{chosen}", cycles / 1e6);
        if cycles < best.1 {
            best = (tile, cycles);
        }
    }
    println!(
        "\nbest sampled tile: {} ({:.2} Mcycles)",
        best.0,
        best.1 / 1e6
    );
    let l1_choice = choices.first().expect("has L1");
    let l1_cycles = cycles_of(l1_choice.tile);
    println!(
        "selected L1 tile {} is within {:.0}% of the best sampled",
        l1_choice.tile,
        (l1_cycles / best.1 - 1.0) * 100.0
    );
}
