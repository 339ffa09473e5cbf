//! Host probe: run the Servet cache-size benchmark on the *real* machine
//! this program executes on — the portable measurement the paper is
//! about, no simulator involved.
//!
//! ```text
//! cargo run --release --example host_probe
//! ```
//!
//! On a multicore machine, the shared-cache and memory-overhead
//! benchmarks run too; on a unicore container only the cache-size stage
//! is meaningful.

use servet::prelude::*;

fn main() {
    let mut host = HostPlatform::new();
    println!(
        "probing '{}' ({} cores, {} B pages)\n",
        host.name(),
        host.num_cores(),
        host.page_size()
    );

    // Real measurements are noisy: sweep up to 64 MB with the paper's
    // schedule and report both the raw curve and the detection result.
    println!("mcalibrator (this takes a minute) ...");
    let sweep = mcalibrator(&mut host, 0, &McalibratorConfig::default());
    println!("{:>10}  {:>12}", "size", "ns/access");
    for i in 0..sweep.len() {
        if sweep.sizes[i].is_power_of_two() {
            println!(
                "{:>10}  {:>12.2}",
                if sweep.sizes[i] >= 1024 * 1024 {
                    format!("{}M", sweep.sizes[i] / (1024 * 1024))
                } else {
                    format!("{}K", sweep.sizes[i] / 1024)
                },
                sweep.cycles[i]
            );
        }
    }

    // Real hardware wants a slightly higher gradient threshold than the
    // noise-free simulator.
    let config = DetectConfig {
        gradient_threshold: 1.2,
        ..DetectConfig::default()
    };
    let levels = detect_cache_levels(&sweep, host.page_size(), &config);
    if levels.is_empty() {
        println!("\nno clear cache transitions detected (very noisy environment?)");
    } else {
        println!("\ndetected cache hierarchy:");
        for level in &levels {
            println!(
                "  L{}: {} KB  ({:?})",
                level.level,
                level.size / 1024,
                level.method
            );
        }
    }

    // Cross-check against the OS's sysfs view where available.
    let reported = servet::host::reported_caches(0);
    if !reported.is_empty() {
        let measured: Vec<(u8, usize)> = levels.iter().map(|l| (l.level, l.size)).collect();
        println!("\nOS-reported hierarchy (sysfs) for comparison:");
        for r in &reported {
            println!(
                "  L{} {}: {} KB{}",
                r.level,
                r.cache_type,
                r.size / 1024,
                r.associativity
                    .map(|w| format!(", {w}-way"))
                    .unwrap_or_default()
            );
        }
        for (level, m, r) in servet::host::compare_with_reported(&measured, &reported) {
            let verdict = if m == r { "exact" } else { "differs" };
            println!(
                "  L{level}: measured {} KB vs reported {} KB ({verdict})",
                m / 1024,
                r / 1024
            );
        }
    }

    if host.num_cores() >= 2 {
        println!("\nmemory bandwidth (STREAM-like copy):");
        let reference = host.copy_bandwidth_gbs(&[0])[0];
        println!("  1 core : {reference:.2} GB/s");
        let pair = host.copy_bandwidth_gbs(&[0, 1]);
        println!(
            "  2 cores: {:.2} GB/s per core ({:.0}% of isolated)",
            pair[0],
            100.0 * pair[0] / reference
        );
    } else {
        println!("\nsingle core available: pair benchmarks skipped");
    }
}
