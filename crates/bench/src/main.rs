//! `servet-bench [id…]`: regenerate the named paper artifacts (all of
//! them when none is named), printing each report and writing its series
//! under `results/`. A non-zero exit means some shape check failed — the
//! harness doubles as an end-to-end regression test.

use servet_bench::experiments::{run, ALL};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !ALL.iter().any(|(known, _)| known == id))
    {
        let known: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment '{unknown}'; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let started = std::time::Instant::now();
    let reports = run(&ids);
    let mut checks = 0;
    for report in &reports {
        report.print();
        println!();
        report
            .save_tsv("results")
            .expect("writing results/ succeeds");
        checks += report.num_checks();
    }
    println!(
        "{} experiment(s) done, {} shape checks passed, {:.1}s",
        reports.len(),
        checks,
        started.elapsed().as_secs_f64()
    );
}
