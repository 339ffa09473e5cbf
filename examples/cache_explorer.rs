//! Cache explorer: watch the mcalibrator curve and the detection
//! algorithms work on any of the paper's machines.
//!
//! ```text
//! cargo run --release --example cache_explorer [dempsey|athlon|dunnington|finis_terrae]
//! ```
//!
//! Prints the paper's Fig. 2 data — cycles per access and gradients per
//! array size — then the detected levels (Fig. 4) including which ones
//! needed the probabilistic algorithm (Fig. 3).

use servet::core::cache_detect::DetectionMethod;
use servet::prelude::*;

fn main() {
    let machine = std::env::args().nth(1).unwrap_or_else(|| "dempsey".into());
    let mut platform = match machine.as_str() {
        "dempsey" => SimPlatform::dempsey(),
        "athlon" => SimPlatform::athlon3200(),
        "dunnington" => SimPlatform::dunnington(),
        "finis_terrae" => SimPlatform::finis_terrae(1),
        other => {
            eprintln!("unknown machine '{other}'");
            std::process::exit(2);
        }
    };

    println!("mcalibrator on '{}' (1 KB stride):\n", platform.name());
    // Fig. 2 plots every size of the paper's Fig. 1 loop, not the subset
    // the suite's bracketed default measures.
    let sweep = mcalibrator(&mut platform, 0, &McalibratorConfig::paper());
    let gradients = sweep.gradients();

    println!("{:>10}  {:>14}  {:>9}", "size", "cycles/access", "gradient");
    for (i, (&size, &cycles)) in sweep.sizes.iter().zip(&sweep.cycles).enumerate() {
        let bar_len = (cycles.ln().max(0.0) * 8.0) as usize;
        // One gradient fewer than sizes: the last row has none.
        let gradient = match gradients.get(i) {
            Some(g) => format!("{g:9.3}"),
            None => format!("{:>9}", "-"),
        };
        println!(
            "{:>10}  {:>14.2}  {}  {}",
            if size >= 1024 * 1024 {
                format!("{}M", size / (1024 * 1024))
            } else {
                format!("{}K", size / 1024)
            },
            cycles,
            gradient,
            "#".repeat(bar_len)
        );
    }

    let levels = detect_cache_levels(&sweep, platform.page_size(), &DetectConfig::default());
    println!("\ndetected cache hierarchy:");
    for level in &levels {
        let how = match level.method {
            DetectionMethod::GradientPeak => "sharp gradient peak",
            DetectionMethod::Probabilistic => "probabilistic algorithm (physically indexed)",
        };
        println!("  L{}: {} KB  [{how}]", level.level, level.size / 1024);
    }
}
