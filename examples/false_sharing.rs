//! False-sharing detection end to end: sweep the separation between two
//! cores' write streams, watch the MESI invalidation traffic fall off,
//! and turn the quiet stride into padding advice for per-thread data.
//!
//! The paper's stages see cross-core effects only through aggregate
//! timings; the coherence layer lets Servet also *count* the line
//! ping-pong that makes false sharing expensive, so the advice is backed
//! by protocol events rather than a timing heuristic.
//!
//! ```text
//! cargo run --release --example false_sharing
//! ```

use servet::autotune::advise_padding;
use servet::core::{detect_false_sharing, run_full_suite, SuiteConfig};
use servet::prelude::*;

fn main() {
    // 1. The sweep alone: two cores write 16 interleaved streams whose
    //    separation shrinks from 256 B down to 8 B. Sub-line separations
    //    ping-pong every line between the cores' caches.
    println!("false-sharing sweep on a simulated 4-core SMP ...");
    let mut platform = SimPlatform::tiny().with_noise(0.002);
    let sweep = detect_false_sharing(&mut platform);
    println!(
        "  baseline (well-separated streams): {:.1} cycles/access",
        sweep.baseline_cycles
    );
    println!("  separation  cycles/access   ratio   invalidations");
    for p in &sweep.points {
        let inv = p
            .traffic
            .as_ref()
            .map(|t| t.invalidations.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:>7} B   {:>10.1}   {:>6.2}   {:>12}",
            p.stride, p.cycles_per_access, p.ratio, inv
        );
    }
    match sweep.advised_padding {
        Some(pad) => println!("  quiet from {pad} B: that is the detected line-transfer grain"),
        None => println!("  no quiet separation found in the sweep"),
    }
    if let Some(m) = &sweep.comm_model {
        println!(
            "  cache-mediated handoff: {:.1} cycles per {} B line (1 KB message ~ {:.0} cycles)",
            m.per_line_cycles,
            m.line_bytes,
            m.predicted_handoff_cycles(1024)
        );
    }

    // 2. The same result through the suite and the advice engine, the way
    //    `servet advise padding` consumes it from a stored profile.
    println!("\nfull suite with the false-sharing stage enabled ...");
    let mut platform = SimPlatform::tiny().with_noise(0.002);
    let config = SuiteConfig {
        run_false_sharing: true,
        ..SuiteConfig::small(256 * 1024)
    };
    let profile = run_full_suite(&mut platform, &config).profile;
    match advise_padding(&profile) {
        Some(advice) => {
            println!(
                "  advice: pad per-thread data to {} B, align to {} B ({})",
                advice.pad_bytes,
                advice.align_bytes,
                if advice.measured {
                    "from the measured sweep"
                } else {
                    "line-size fallback"
                }
            );
            // A 24-byte per-thread accumulator struct, padded:
            let elem = 24;
            println!(
                "  a {elem}-byte per-thread struct should occupy {} B per slot",
                advice.padded_stride(elem)
            );
            if let Some(r) = advice.worst_ratio {
                println!("  unpadded worst case measured at {r:.1}x the quiet cost");
            }
        }
        None => println!("  no padding advice (profile carries no sweep or line size)"),
    }
}
