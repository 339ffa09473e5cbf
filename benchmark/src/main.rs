//! The repository's benchmark: one command runs one named workload,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions. README.md is the glossary; `--describe` prints
//! `BENCHMARK.json`.

mod direct;
mod harness;
mod machines;
mod metrics;
mod platform;
mod sys;
mod timing;
mod trace;
mod workloads;

#[cfg(test)]
mod shim_tests;

use harness::Outcome;
use serde::{Number, Value};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => trace = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: match trace {
            Some(0) => false,
            Some(1) => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// the table this kind of run prints, each with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let table: Vec<(&str, &str)> = if trace {
        metrics::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let entries = table
        .into_iter()
        .map(|(name, unit)| {
            let entry = vec![
                (
                    "value".to_string(),
                    Value::Number(Number::F(outcome.values.get(name))),
                ),
                ("unit".to_string(), Value::String(unit.to_string())),
            ];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.failed == 0)),
        (
            "attempted".to_string(),
            Value::Number(Number::U(outcome.attempted)),
        ),
        (
            "failed".to_string(),
            Value::Number(Number::U(outcome.failed)),
        ),
        ("metrics".to_string(), Value::Object(entries)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

fn main() -> ExitCode {
    let arguments: Vec<String> = std::env::args().skip(1).collect();
    if arguments == ["--describe"] {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(arguments.into_iter()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servet-benchmark: {message}");
            eprintln!("usage: --workload W --seed N --seconds S --trace 0|1   (or --describe)");
            return ExitCode::from(2);
        }
    };
    // Only untraced runs read the peak resident set, and only they need
    // the allocator pinned down for it; a traced run measures scorer
    // scaling, which one arena would turn into allocator-lock contention.
    if !args.trace {
        sys::single_malloc_arena();
    }
    use workloads::{
        pipeline::Pipeline, registry_session::RegistrySession, suite_replay::SuiteReplay,
        tune_search::TuneSearch,
    };
    let run = match args.workload.as_str() {
        "pipeline" => harness::run::<Pipeline>,
        "suite_replay" => harness::run::<SuiteReplay>,
        "tune_search" => harness::run::<TuneSearch>,
        "registry_session" => harness::run::<RegistrySession>,
        other => {
            let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!(
                "servet-benchmark: unknown workload {other}; known: {}",
                known.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    match run(args.seed, args.seconds, args.trace) {
        Ok(outcome) => {
            println!("{}", result_line(&outcome, args.trace));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        // A set-up whose outputs are wrong prints no result.
        Err(message) => {
            eprintln!("servet-benchmark: {}: {message}", args.workload);
            ExitCode::FAILURE
        }
    }
}
