//! The `servet` command-line tool: measure machines (simulated or real),
//! inspect profiles, and ask for autotuning advice.
//!
//! ```text
//! servet simulate dunnington --out dun.json     # run the suite on a preset
//! servet suite                                  # shorthand: simulate tiny
//! servet probe --max-mb 64 --out here.json      # run it on THIS machine
//! servet show dun.json                          # summarize a profile
//! servet advise threads --profile dun.json      # memory-concurrency advice
//! servet advise tile --profile dun.json --level 2
//! servet advise bcast --profile dun.json --ranks 24 --bytes 32768
//! servet tune --machine tiny_smp --strategy line     # search the kernel space
//! servet tune --zoo --machines 64 --check            # search vs analytic, population-wide
//! servet serve --dir ~/.servet --addr 127.0.0.1:7431
//! servet query put --profile dun.json --name dunnington
//! servet query advise tile --key dunnington --level 2 --json
//! servet zoo --machines 128 --workers 8 --seed 42  # batch-measure a population
//! servet --trace suite                          # span tree on stderr at exit
//! ```
//!
//! `servet help` lists every command with its flags. `--out FILE` also
//! writes a `FILE → *.manifest.json` sibling recording how the profile was
//! measured (config, span tree, counters).

use servet::obs::format_ns;
use servet::prelude::*;
use servet::registry::{serve, AdviceOutcome, AdviceQuery, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Default address for `servet serve` / `servet query`.
const DEFAULT_ADDR: &str = "127.0.0.1:7431";

/// How a command ends: `Err` carries the process exit code (2 for a
/// usage error, 1 for a failed run).
type Exit = Result<(), i32>;

/// A row of [`COMMANDS`].
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&[String]) -> Exit,
    &'static str,
);

const SUITE: &str = "[--micro] [--false-sharing] [--out FILE]";
const THREADS: &str = "[--tolerance T]";
const TILE: &str = "[--level L] [--elem-size B] [--matrices N] [--occupancy F]";
const BCAST: &str = "[--ranks N] [--bytes B]";
const SEARCH: &str = "[--strategy S] [--n N] [--seed S] [--sweeps N] [--steps N] [--samples N]";

/// One row per `servet` command: the words that select it, what follows
/// them, the function that runs it on everything after those words, and a
/// description. This is the only place a command's grammar is written:
/// `servet help`, usage errors, flag validation and dispatch all read it.
///
/// The synopsis comes in pieces so that commands can share flag groups (a
/// usage too long for one line gives each piece its own). In it `--flag X`
/// takes a value and a bare `--flag` is a switch; a piece that begins
/// outside brackets, with `<positional>` or `--flag X`, begins with
/// something that must be given.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("simulate", &["<machine>", SUITE], |args| cmd_simulate(&args[0], args),
     "run the suite on a simulated preset (see 'servet machines')"),
    ("suite", &["[machine]", SUITE], |args| cmd_simulate(positional(args).unwrap_or("tiny"), args),
     "like simulate; the machine defaults to 'tiny'"),
    ("probe", &["[--max-mb N]", SUITE], cmd_probe, "run the suite on this machine"),
    ("show", &["<profile.json>"], |args| cmd_show(&args[0]), "summarize a stored profile"),
    ("advise threads", &["--profile FILE", THREADS, "[--json]"], |args| cmd_advise("threads", args),
     "how many threads should touch memory at once"),
    ("advise tile", &["--profile FILE", TILE, "[--json]"], |args| cmd_advise("tile", args),
     "the tile edge of a blocked matmul that fits one cache level"),
    ("advise bcast", &["--profile FILE", BCAST, "[--json]"], |args| cmd_advise("bcast", args),
     "rank the broadcast algorithms (0 ranks, the default: every measured core)"),
    ("advise padding", &["--profile FILE [--json]"], |args| cmd_advise("padding", args),
     "per-thread padding and alignment against false sharing"),
    ("tune", &["[--machine PRESET | --profile FILE] [--workers N] [--json] [--out FILE]", SEARCH,
               "[--zoo [--machines N] [--strategies A,B] [--epsilon E] [--check] [--min-parity P]]"],
     cmd_tune, "search the blocked-matmul space (strategies: exhaustive, line, neighborhood, monte-carlo);\n\
                with --zoo, race them against the analytic advice across the machine zoo"),
    ("serve", &["--dir DIR [--addr HOST:PORT] [--read-timeout-ms N] [--workers N]",
                "[--backlog N] [--max-conns N] [--drain-grace-ms N]"],
     cmd_serve, "run the profile registry daemon"),
    ("query put", &["--profile FILE [--name NAME] [--addr HOST:PORT]"], query_put,
     "store a profile in the registry"),
    ("query get", &["--key KEY [--json] [--addr HOST:PORT]"], query_get,
     "fetch a profile by digest or name"),
    ("query list", &["[--json] [--addr HOST:PORT]"], query_list, "list the stored profiles"),
    ("query advise threads", &["--key KEY", THREADS, "[--json] [--addr HOST:PORT]"],
     |args| query_advise("threads", args), "'advise threads' on a stored profile, memoized by the registry"),
    ("query advise tile", &["--key KEY", TILE, "[--json] [--addr HOST:PORT]"],
     |args| query_advise("tile", args), "'advise tile', likewise"),
    ("query advise bcast", &["--key KEY", BCAST, "[--json] [--addr HOST:PORT]"],
     |args| query_advise("bcast", args), "'advise bcast', likewise"),
    ("query advise padding", &["--key KEY [--json] [--addr HOST:PORT]"],
     |args| query_advise("padding", args), "'advise padding', likewise"),
    ("query tune", &["--key KEY", SEARCH, "[--json] [--addr HOST:PORT]"], query_tune,
     "a memoized search priced against a stored profile"),
    ("query stats", &["[--json] [--addr HOST:PORT]"], query_stats,
     "cache counters and per-op request latencies"),
    ("zoo", &["[--machines N] [--mb N] [--workers N] [--seed S] [--out FILE]",
              "[--addr HOST:PORT | --dir DIR | --no-stream]"],
     cmd_zoo, "measure a population of perturbed machines (plus --mb MB-range ones), stream the\n\
               profiles to a registry, score detection accuracy"),
    ("loadgen", &["[--addr HOST:PORT] [--conns N] [--ops N] [--op-workers N] [--mode closed|open --rate R]",
                  "[--hold-ms N] [--out FILE] [--check] [--max-p99-ms N] [--seed S]"],
     cmd_loadgen, "hold N connections against a registry while driving request traffic; report\n\
                   throughput and p50/p99/p999 latency"),
    ("machines", &[], |_| cmd_machines(), "list the simulated presets"),
    ("help", &[], |_| print_help(), "print this listing (also --help, -h)"),
];

/// The flags a synopsis declares, each with whether it takes a value.
fn declared_flags(synopsis: &[&'static str]) -> Vec<(&'static str, bool)> {
    let mut tokens = synopsis.iter().flat_map(|p| p.split(' ')).peekable();
    let mut flags = Vec::new();
    while let Some(token) = tokens.next() {
        let word = token.trim_matches(['[', ']']);
        if word.starts_with("--") {
            let value_next = |next: &&str| !next.starts_with(['[', '|', '-']);
            let valued = !token.ends_with(']') && tokens.peek().is_some_and(value_next);
            flags.push((word, valued));
        }
    }
    flags
}

/// `<prefix>servet NAME SYNOPSIS`, on one line if it fits 100 columns and
/// on one per piece if not.
fn usage(prefix: &str, name: &str, synopsis: &[&str]) -> String {
    let line = format!("{prefix}servet {name} {}", synopsis.join(" "));
    if line.len() <= 100 {
        return line.trim_end().to_string();
    }
    format!("{prefix}servet {name} {}", synopsis.join("\n          "))
}

fn print_help() -> Exit {
    println!("servet — measure the hardware parameters autotuned codes need\n\nUSAGE:");
    for (name, synopsis, _, about) in COMMANDS {
        println!("{}", usage("  ", name, synopsis));
        println!("      {}", about.replace('\n', "\n      "));
    }
    println!(
        "\nGLOBAL FLAGS:\n\
         \x20 --trace    render the measurement span tree and metric summary on stderr at exit;\n\
         \x20            --out FILE also writes FILE's *.manifest.json measurement record"
    );
    Ok(())
}

fn main() {
    // `--trace` is a global flag: accept it anywhere on the line.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    if args.is_empty() || ["--help", "-h"].contains(&args[0].as_str()) {
        args = vec!["help".to_string()];
    }
    let outcome = dispatch(&args);
    if trace {
        print_trace();
    }
    std::process::exit(outcome.err().unwrap_or(0));
}

/// Find the command whose words lead `args` and run it, once the line is
/// known to fit its synopsis: every usage error the table can tell is
/// reported here, before anything runs.
fn dispatch(args: &[String]) -> Exit {
    let leading = |name: &str| {
        let matched = name.split(' ').zip(args).take_while(|(w, a)| w == a);
        matched.count()
    };
    // No command's words are the beginning of another's: at most one fits.
    let fits = |c: &&Command| leading(c.0) == c.0.split(' ').count();
    let Some(&(name, synopsis, run, _)) = COMMANDS.iter().find(fits) else {
        // Not a command: show the ones that begin like the line, if any do.
        let closest = COMMANDS.iter().map(|c| leading(c.0)).max();
        let closest = closest.filter(|&words| words > 0);
        if closest.is_none() {
            eprintln!("unknown command '{}'; try 'servet help'", args[0]);
        }
        for c in COMMANDS.iter().filter(|c| Some(leading(c.0)) == closest) {
            eprintln!("{}", usage("usage: ", c.0, c.1));
        }
        return Err(2);
    };
    let args = &args[name.split(' ').count()..];
    let flags = declared_flags(synopsis);
    // A `--flag` the command does not take, or a value flag with no value
    // after it (the end of the line or another `--flag`; `-1` is a value).
    let mut line = args.iter().map(String::as_str);
    while let Some(arg) = line.next() {
        match flags.iter().find(|(flag, _)| *flag == arg) {
            Some((_, true)) if line.next().is_none_or(|value| value.starts_with("--")) => {
                eprintln!("missing value for {arg}");
                return Err(2);
            }
            None if arg.starts_with("--") => {
                eprintln!("unknown flag '{arg}' for '{name}'");
                return Err(2);
            }
            _ => {}
        }
    }
    let given = |piece: &&str| match piece.split(' ').next() {
        Some(flag) if flag.starts_with("--") => has_flag(args, flag),
        Some(word) if word.starts_with('<') => positional(args).is_some(),
        _ => true,
    };
    if !synopsis.iter().all(given) {
        eprintln!("{}", usage("usage: ", name, synopsis));
        return Err(2);
    }
    run(args)
}

/// The word right after the command's name, unless it is a flag.
fn positional(args: &[String]) -> Option<&str> {
    args.first()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
}

/// Render everything `servet-obs` accumulated during the run: the span
/// tree of the measurement phases, then the counter/histogram summary.
/// Goes to stderr so `--json` outputs on stdout stay machine-parseable.
fn print_trace() {
    let spans = servet::obs::spans_snapshot();
    if spans.is_empty() {
        eprintln!("--trace: no spans recorded");
    } else {
        eprint!("{}", servet::obs::render_span_tree(&spans));
    }
    eprint!("{}", servet::obs::summary());
}

/// Value of `--flag VALUE` in `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Value of a flag the command's synopsis requires.
fn required<'a>(args: &'a [String], flag: &str) -> &'a str {
    flag_value(args, flag).expect("dispatch refuses a line without its required flags")
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// `--flag VALUE` parsed as `T`, or `default` when the flag is absent. A
/// value that does not parse is a usage error, never the default.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, i32> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            eprintln!("invalid value '{v}' for {flag}");
            2
        }),
    }
}

/// `--flag MILLISECONDS` as a `Duration`, or `default` when the flag is absent.
fn parsed_ms(args: &[String], flag: &str, default: Duration) -> Result<Duration, i32> {
    parsed_flag(args, flag, default.as_millis() as u64).map(Duration::from_millis)
}

/// Worker threads when `--workers` is not given: one per CPU, at most 8.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// The simulated presets: name, what it is, how to build it, whether it is
/// small enough for [`SuiteConfig::small`]. `machines` prints the table;
/// `simulate` and `tune --machine` look their machine up in it.
#[rustfmt::skip]
const PRESETS: &[Preset] = &[
    ("dunnington", "24-core 4x Xeon E7450 node (paper SS IV)", SimPlatform::dunnington, false),
    ("finis_terrae", "2 nodes x 16 Itanium2 cores over InfiniBand", || SimPlatform::finis_terrae(2), false),
    ("dempsey", "dual-core Xeon 5060", SimPlatform::dempsey, false),
    ("athlon3200", "unicore AMD Athlon", SimPlatform::athlon3200, false),
    ("tiny", "fast 2x4-core demo cluster", SimPlatform::tiny_cluster, true),
    ("tiny_smp", "one node of it: 4 cores, private 8 KB L1 and 64 KB L2", SimPlatform::tiny, true),
    ("tiny_shared_l2", "the same with a 128 KB L2 per core pair", SimPlatform::tiny_shared_l2, true),
    ("tiny_numa", "8 such cores in two cells, a bus per core pair", SimPlatform::tiny_numa, true),
];

type Preset = (&'static str, &'static str, fn() -> SimPlatform, bool);

fn cmd_machines() -> Exit {
    println!("simulated machine presets:");
    for (name, about, ..) in PRESETS {
        println!("  {name:<15}{about}");
    }
    Ok(())
}

/// The preset called `name` with its suite configuration; an unknown name
/// is a usage error that lists the ones there are.
fn preset(name: &str) -> Result<(SimPlatform, SuiteConfig), i32> {
    let Some(&(.., build, small)) = PRESETS.iter().find(|(n, ..)| *n == name) else {
        let names: Vec<&str> = PRESETS.iter().map(|(n, ..)| *n).collect();
        eprintln!("unknown machine '{name}'; use {}", names.join(" | "));
        return Err(2);
    };
    let config = if small {
        SuiteConfig::small(256 * 1024)
    } else {
        SuiteConfig::default()
    };
    Ok((build(), config))
}

fn run_and_save(platform: &mut dyn Platform, config: &SuiteConfig, out: Option<&str>) -> Exit {
    eprintln!("running the Servet suite on '{}' ...", platform.name());
    // The scoped entry point: the manifest holds exactly this run's
    // spans and counters even if other measurements share the process.
    let (report, manifest) = run_suite(platform, config);
    print_profile(&report.profile);
    println!(
        "\nvirtual/wall benchmark time: {:.1} min",
        report.timings.total_s() / 60.0
    );
    if let Some(path) = out {
        report.profile.save(path).map_err(|e| {
            eprintln!("cannot write {path}: {e}");
            1
        })?;
        println!("profile written to {path}");
        // The manifest records how the profile was measured: the exact
        // config plus the observed span tree and counters.
        let mpath = servet::core::manifest_path(path);
        manifest.save(&mpath).map_err(|e| {
            eprintln!("cannot write {}: {e}", mpath.display());
            1
        })?;
        println!("run manifest written to {}", mpath.display());
    }
    Ok(())
}

/// Write a JSON report atomically, reporting a failure on stderr.
fn write_report(path: &str, json: &str) -> Exit {
    servet::core::profile::write_atomic(path, json.as_bytes()).map_err(|e| {
        eprintln!("cannot write {path}: {e}");
        1
    })
}

fn cmd_simulate(machine: &str, args: &[String]) -> Exit {
    let (mut platform, mut config) = preset(machine)?;
    config.run_micro = has_flag(args, "--micro");
    config.run_false_sharing = has_flag(args, "--false-sharing");
    run_and_save(&mut platform, &config, flag_value(args, "--out"))
}

fn cmd_probe(args: &[String]) -> Exit {
    let max_mb: usize = parsed_flag(args, "--max-mb", 64)?;
    let config = SuiteConfig {
        mcalibrator: McalibratorConfig {
            max_size: max_mb.saturating_mul(1024 * 1024),
            ..Default::default()
        },
        detect: DetectConfig {
            gradient_threshold: 1.2, // real machines are noisier
            ..Default::default()
        },
        run_micro: has_flag(args, "--micro"),
        run_false_sharing: has_flag(args, "--false-sharing"),
        ..Default::default()
    };
    if let Err(why) = config.mcalibrator.validate() {
        eprintln!("invalid value '{max_mb}' for --max-mb: {why}");
        return Err(2);
    }
    let mut platform = HostPlatform::new();
    run_and_save(&mut platform, &config, flag_value(args, "--out"))
}

fn load_profile(path: &str) -> Result<MachineProfile, i32> {
    MachineProfile::load(path).map_err(|e| {
        eprintln!("cannot load {path}: {e}");
        1
    })
}

fn cmd_show(path: &str) -> Exit {
    print_profile(&load_profile(path)?);
    Ok(())
}

/// The `kind` of advice query the flags in `args` ask for, in the shared
/// query type the registry protocol speaks (the CLI and the server answer
/// identically). A flag left out takes the value the wire protocol gives a
/// field left out.
fn parse_advice_query(kind: &str, args: &[String]) -> Result<AdviceQuery, i32> {
    let defaults = serde_json::from_str(&format!(r#"{{"kind":"{kind}"}}"#));
    Ok(match defaults.expect("a kind alone is a whole query") {
        AdviceQuery::Threads { tolerance } => AdviceQuery::Threads {
            tolerance: parsed_flag(args, "--tolerance", tolerance)?,
        },
        AdviceQuery::Tile {
            level,
            elem_size,
            matrices,
            occupancy,
        } => AdviceQuery::Tile {
            level: parsed_flag(args, "--level", level)?,
            elem_size: parsed_flag(args, "--elem-size", elem_size)?,
            matrices: parsed_flag(args, "--matrices", matrices)?,
            occupancy: parsed_flag(args, "--occupancy", occupancy)?,
        },
        // ranks 0 means "every measured core"; the engine resolves it.
        AdviceQuery::Bcast { ranks, bytes } => AdviceQuery::Bcast {
            ranks: parsed_flag(args, "--ranks", ranks)?,
            bytes: parsed_flag(args, "--bytes", bytes)?,
        },
        AdviceQuery::Padding => AdviceQuery::Padding,
    })
}

/// Human rendering of an advice outcome (the `--json` path prints the
/// serde struct instead).
fn print_outcome(outcome: &AdviceOutcome) {
    match outcome {
        AdviceOutcome::Threads { advice: Some(a) } => {
            println!(
                "memory-bound regions: use {} concurrent thread(s) per group {:?}",
                a.threads_per_group, a.group
            );
            println!(
                "  aggregate {:.2} GB/s (full group would get {:.2} GB/s)",
                a.aggregate_gbs, a.full_aggregate_gbs
            );
        }
        AdviceOutcome::Threads { advice: None } => {
            println!("no memory contention measured: use every core");
        }
        AdviceOutcome::Tile { choice } => {
            println!(
                "blocked matmul over f64: tile {} x {} targets the {} KB L{}",
                choice.tile,
                choice.tile,
                choice.cache_size / 1024,
                choice.level
            );
        }
        AdviceOutcome::Bcast {
            ranks,
            bytes,
            predictions,
        } => {
            println!("broadcast of {bytes} B to {ranks} ranks — predicted:");
            for p in predictions {
                println!("  {:>12}: {:>9.1} us", p.algorithm.name(), p.predicted_us);
            }
        }
        AdviceOutcome::Padding { advice } => {
            let source = if advice.measured {
                "measured false-sharing sweep"
            } else {
                "micro-probe line size"
            };
            println!(
                "pad per-thread data to {} B, align to {} B ({source})",
                advice.pad_bytes, advice.align_bytes
            );
            if let Some(r) = advice.worst_ratio {
                println!("  unpadded writers were {r:.1}x slower in the sweep");
            }
            if let Some(c) = advice.handoff_cycles_per_line {
                println!("  on-chip handoff: {c:.0} cycles per line");
            }
        }
    }
}

fn emit_outcome(outcome: &AdviceOutcome, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(outcome).expect("outcome serializes")
        );
    } else {
        print_outcome(outcome);
    }
}

fn cmd_advise(kind: &str, args: &[String]) -> Exit {
    let query = parse_advice_query(kind, args)?;
    let profile = load_profile(required(args, "--profile"))?;
    let outcome = servet::registry::compute_advice(&profile, &query).map_err(|e| {
        eprintln!("{e}");
        1
    })?;
    emit_outcome(&outcome, has_flag(args, "--json"));
    Ok(())
}

/// Parse the shared search flags (`--strategy`, `--seed`, budget knobs)
/// into the [`servet::tune::TuneOptions`] both the local searcher and
/// the registry `tune` op consume.
fn parse_tune_options(args: &[String]) -> Result<servet::tune::TuneOptions, i32> {
    use servet::tune::{Strategy, TuneOptions};
    let strategy = match flag_value(args, "--strategy") {
        None => Strategy::Line,
        Some(s) => Strategy::parse(s).ok_or_else(|| {
            eprintln!("unknown strategy '{s}'; use exhaustive | line | neighborhood | monte-carlo");
            2
        })?,
    };
    let defaults = TuneOptions::new(strategy);
    Ok(TuneOptions {
        strategy,
        seed: parsed_flag(args, "--seed", defaults.seed)?,
        sweeps: parsed_flag(args, "--sweeps", defaults.sweeps)?,
        steps: parsed_flag(args, "--steps", defaults.steps)?,
        samples: parsed_flag(args, "--samples", defaults.samples)?,
    })
}

/// Human rendering of a tuning outcome; `analytic` is the baseline
/// `(config, score)` when the caller could derive one.
fn print_tune_outcome(
    outcome: &servet::tune::TuneOutcome,
    analytic: Option<(&servet::tune::Config, f64)>,
) {
    println!(
        "{} search over {} ({} points, digest {}):",
        outcome.strategy.name(),
        outcome.oracle,
        outcome.space_len,
        &outcome.space_digest[..8.min(outcome.space_digest.len())]
    );
    let show = |config: &servet::tune::Config| {
        config
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "  best: {}  score {:.1} ({} evaluations)",
        show(&outcome.best),
        outcome.best_score,
        outcome.evaluations
    );
    if let Some((config, score)) = analytic {
        let verdict = if outcome.best_score <= score * 1.001 {
            "search matched or beat the advice"
        } else {
            "analytic advice won"
        };
        println!(
            "  analytic: {}  score {score:.1}  ratio {:.3} — {verdict}",
            show(config),
            outcome.best_score / score
        );
    }
}

fn cmd_tune(args: &[String]) -> Exit {
    use servet::tune::{analytic_config, compare, tune, Oracle, ProfileOracle, SimOracle};

    if has_flag(args, "--zoo") {
        return cmd_tune_zoo(args);
    }
    let options = parse_tune_options(args)?;
    let n: usize = parsed_flag(args, "--n", 32)?.max(8);
    let workers: usize = parsed_flag(args, "--workers", default_workers())?.max(1);
    let seed: u64 = parsed_flag(args, "--seed", 42)?;

    // Two oracles: a measured profile prices the kernel with the
    // closed-form model; a simulated preset replays its access trace.
    // The baseline is what an analytically-advised code would run: advice
    // from the profile (for a preset, its ground-truth profile), snapped
    // onto the same grid.
    let (space, truth, oracle): (_, _, Box<dyn Oracle>) = match flag_value(args, "--profile") {
        Some(path) => {
            let oracle = ProfileOracle::new(load_profile(path)?, n);
            (oracle.space(), oracle.profile().clone(), Box::new(oracle))
        }
        None => {
            let (platform, _) = preset(flag_value(args, "--machine").unwrap_or("tiny_smp"))?;
            let oracle = SimOracle::new(platform.machine().spec().clone(), seed, n);
            let truth = compare::ground_truth_profile(oracle.spec());
            (oracle.space(), truth, Box::new(oracle))
        }
    };
    let advised = analytic_config(&truth, &space);
    let advised_score = oracle.evaluate(&advised);
    let outcome = tune(oracle.as_ref(), &space, &options, workers);

    if has_flag(args, "--json") {
        println!("{}", outcome.to_json());
    } else {
        print_tune_outcome(&outcome, Some((&advised, advised_score)));
    }
    if let Some(out) = flag_value(args, "--out") {
        write_report(out, &outcome.to_json())?;
        println!("tune report written to {out}");
    }
    Ok(())
}

/// `servet tune --zoo`: race the search strategies against the analytic
/// advice across the seeded machine population, write the comparison to
/// `--out FILE` when given, and (with `--check`) gate on parity.
fn cmd_tune_zoo(args: &[String]) -> Exit {
    use servet::tune::{run_compare, CompareConfig, Strategy};

    let machines: usize = parsed_flag(args, "--machines", 64)?;
    let workers: usize = parsed_flag(args, "--workers", default_workers())?;
    let seed: u64 = parsed_flag(args, "--seed", 42)?;
    let mut config = CompareConfig::new(machines, workers, seed);
    config.n = parsed_flag(args, "--n", config.n)?;
    config.epsilon = parsed_flag(args, "--epsilon", config.epsilon)?;
    let min_parity: f64 = parsed_flag(args, "--min-parity", 0.9)?;
    if let Some(list) = flag_value(args, "--strategies") {
        let mut strategies = Vec::new();
        for name in list.split(',').filter(|s| !s.is_empty()) {
            match Strategy::parse(name) {
                Some(s) => strategies.push(s),
                None => {
                    eprintln!("unknown strategy '{name}' in --strategies");
                    return Err(2);
                }
            }
        }
        if strategies.is_empty() {
            eprintln!("--strategies lists no strategies");
            return Err(2);
        }
        config.strategies = strategies;
    }

    eprintln!(
        "tune zoo: {machines} machines (seed {seed}), kernel n={}, {} worker(s), \
         strategies {} ...",
        config.n,
        config.workers,
        config
            .strategies
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let report = run_compare(&config);
    for s in &report.summary {
        println!(
            "{:<12} parity {:>5.1}%  ({} matched, {} improved, of {})  \
             geo-mean ratio {:.3}  {:.0} evals/machine",
            s.strategy.name(),
            100.0 * s.parity,
            s.matched,
            s.improved,
            s.total,
            s.mean_ratio,
            s.mean_evaluations
        );
    }
    if let Some(out) = flag_value(args, "--out") {
        write_report(out, &report.to_json())?;
        println!("tune comparison written to {out}");
    }

    if has_flag(args, "--check") {
        let mut failed = false;
        for s in &report.summary {
            if s.parity < min_parity {
                eprintln!(
                    "tune --check FAILED: {} parity {:.1}% below {:.1}%",
                    s.strategy.name(),
                    100.0 * s.parity,
                    100.0 * min_parity
                );
                failed = true;
            }
        }
        if failed {
            return Err(1);
        }
        println!(
            "tune --check passed: every strategy at or above {:.1}% parity",
            100.0 * min_parity
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Exit {
    let dir = required(args, "--dir");
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let defaults = ServerConfig::default();
    let read_timeout = parsed_ms(args, "--read-timeout-ms", defaults.read_timeout)?;
    // backlog 0 is meaningful (rendezvous: admit only when a worker is
    // already waiting), so it is passed through unclamped.
    let config = ServerConfig {
        read_timeout: read_timeout.max(Duration::from_millis(1)),
        workers: parsed_flag(args, "--workers", defaults.workers)?.max(1),
        backlog: parsed_flag(args, "--backlog", defaults.backlog)?,
        max_conns: parsed_flag(args, "--max-conns", defaults.max_conns)?.max(1),
        drain_grace: parsed_ms(args, "--drain-grace-ms", defaults.drain_grace)?,
        ..defaults
    };
    let (workers, backlog, max_conns) = (config.workers, config.backlog, config.max_conns);
    let registry = Arc::new(Registry::open(dir).map_err(|e| {
        eprintln!("cannot open registry at {dir}: {e}");
        1
    })?);
    let handle = serve(registry, addr, config).map_err(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        1
    })?;
    println!(
        "servet-registry: serving profiles from {dir} on {} \
         ({workers} workers, queue {backlog}, up to {max_conns} connections)",
        handle.addr(),
    );
    handle.join();
    Ok(())
}

fn connect(args: &[String]) -> Result<RegistryClient, i32> {
    let addr = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    RegistryClient::connect(addr).map_err(|e| {
        eprintln!("cannot connect to registry at {addr}: {e}");
        1
    })
}

/// `map_err` adapter: report `<what> failed: <error>` on stderr, exit 1.
fn failed<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> i32 {
    move |e| {
        eprintln!("{what} failed: {e}");
        1
    }
}

fn query_put(args: &[String]) -> Exit {
    let profile = load_profile(required(args, "--profile"))?;
    let digest = connect(args)?
        .put(&profile, flag_value(args, "--name"))
        .map_err(failed("put"))?;
    println!("stored {digest}");
    Ok(())
}

fn query_get(args: &[String]) -> Exit {
    let (digest, profile) = connect(args)?
        .get_profile(required(args, "--key"))
        .map_err(failed("get"))?;
    if has_flag(args, "--json") {
        println!("{}", profile.to_json());
    } else {
        println!("digest {digest}");
        print_profile(&profile);
    }
    Ok(())
}

fn query_list(args: &[String]) -> Exit {
    let entries = connect(args)?.list().map_err(failed("list"))?;
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&entries).expect("entries serialize")
        );
    } else if entries.is_empty() {
        println!("registry is empty");
    } else {
        for e in entries {
            println!(
                "{}  {:<16} {:>3} cores  {} cache level(s)  {}",
                &e.digest[..12],
                e.machine,
                e.total_cores,
                e.cache_levels,
                e.aliases.join(", ")
            );
        }
    }
    Ok(())
}

fn query_advise(kind: &str, args: &[String]) -> Exit {
    let query = parse_advice_query(kind, args)?;
    let (digest, cached, outcome) = connect(args)?
        .advise(required(args, "--key"), &query)
        .map_err(failed("advise"))?;
    let json = has_flag(args, "--json");
    if !json {
        let origin = if cached { "memoized" } else { "computed" };
        println!("profile {digest} ({origin}):");
    }
    emit_outcome(&outcome, json);
    Ok(())
}

fn query_tune(args: &[String]) -> Exit {
    let query = servet::registry::TuneQuery {
        space: None,
        options: parse_tune_options(args)?,
        n: parsed_flag(args, "--n", 64)?,
    };
    let (digest, cached, outcome) = connect(args)?
        .tune(required(args, "--key"), &query)
        .map_err(failed("tune"))?;
    if has_flag(args, "--json") {
        println!("{}", outcome.to_json());
    } else {
        let origin = if cached { "memoized" } else { "computed" };
        println!("profile {digest} ({origin}):");
        print_tune_outcome(&outcome, None);
    }
    Ok(())
}

fn query_stats(args: &[String]) -> Exit {
    let stats = connect(args)?.stats().map_err(failed("stats"))?;
    if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("stats serialize")
        );
        return Ok(());
    }
    println!(
        "profiles {}  requests {}  advice hits/misses/evictions {}/{}/{}  \
         profile-cache hits/misses {}/{}",
        stats.profiles,
        stats.requests,
        stats.advice_hits,
        stats.advice_misses,
        stats.advice_evictions,
        stats.profile_hits,
        stats.profile_misses
    );
    println!(
        "accept queue: accepted {}  rejected {}  depth {}  high-water {}  \
         drain-killed {}",
        stats.accept.accepted,
        stats.accept.rejected,
        stats.accept.queue_depth,
        stats.accept.queue_depth_max,
        stats.accept.drain_killed
    );
    println!(
        "event loop: conns {}/{} (open/peak)  ready {}  wakeups {}  \
         partial-reads {}  deadline-kills {}  oversized {}",
        stats.events.conns_open,
        stats.events.conns_peak,
        stats.events.ready_events,
        stats.events.wakeups,
        stats.events.partial_reads,
        stats.events.deadline_kills,
        stats.events.oversized_rejected
    );
    if !stats.ops.is_empty() {
        println!("request latency per op:");
        for op in &stats.ops {
            println!(
                "  {:<8} n={:<8} mean={:<10} p50={:<10} p99={:<10} \
                 p999={:<10} max={}",
                op.op,
                op.count,
                format_ns(op.total_ns.checked_div(op.count).unwrap_or(0)),
                format_ns(op.p50_ns),
                format_ns(op.p99_ns),
                format_ns(op.p999_ns),
                format_ns(op.max_ns),
            );
        }
    }
    Ok(())
}

/// Streams each zoo machine's measured profile into a registry, riding
/// out overload rejections and dropped connections with the retrying
/// client. One sink per worker, so no synchronization is needed.
struct RegistrySink {
    client: servet::registry::RetryingRegistryClient,
}

impl servet::core::zoo::ProfileSink for RegistrySink {
    fn publish(
        &mut self,
        machine: &servet::core::zoo::ZooMachine,
        report: &servet::core::SuiteReport,
        _manifest: &servet::core::RunManifest,
    ) -> std::io::Result<()> {
        self.client
            .put(&report.profile, Some(&machine.spec.name))
            .map(|_digest| ())
    }
}

fn cmd_zoo(args: &[String]) -> Exit {
    use servet::core::zoo::{run_zoo, ProfileSink, ZooConfig};
    use servet::registry::{serve, RetryPolicy, RetryingRegistryClient, ServerConfig};

    let machines: usize = parsed_flag(args, "--machines", 64)?;
    let mb: usize = parsed_flag(args, "--mb", 0)?;
    let workers: usize = parsed_flag(args, "--workers", default_workers())?;
    let seed: u64 = parsed_flag(args, "--seed", 42)?;
    let out = flag_value(args, "--out").unwrap_or("zoo_report.json");
    let no_stream = has_flag(args, "--no-stream");

    // Where profiles stream to: an external registry (--addr), a
    // self-hosted one over --dir or a temp dir (the default), or
    // nowhere (--no-stream).
    let mut embedded: Option<servet::registry::ServerHandle> = None;
    let stream_addr: Option<std::net::SocketAddr> = if no_stream {
        None
    } else if let Some(addr) = flag_value(args, "--addr") {
        match std::net::ToSocketAddrs::to_socket_addrs(&addr) {
            Ok(mut addrs) => addrs.next(),
            Err(e) => {
                eprintln!("cannot resolve {addr}: {e}");
                return Err(2);
            }
        }
    } else {
        let dir = flag_value(args, "--dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("servet-zoo-{}", std::process::id()))
            });
        let registry = Arc::new(Registry::open(&dir).map_err(|e| {
            eprintln!("cannot open registry at {}: {e}", dir.display());
            1
        })?);
        let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).map_err(|e| {
            eprintln!("cannot self-host a registry: {e}");
            1
        })?;
        eprintln!(
            "zoo: self-hosted registry on {} (store: {})",
            handle.addr(),
            dir.display()
        );
        let addr = handle.addr();
        embedded = Some(handle);
        Some(addr)
    };

    let mut config = ZooConfig::new(machines, workers, seed);
    config.mb_machines = mb;
    eprintln!(
        "zoo: measuring {} machines ({machines} standard + {mb} MB-range, seed {seed}) on {} worker(s) ...",
        config.population_size(),
        config.workers.max(1)
    );
    let report = run_zoo(&config, |worker| {
        Ok(stream_addr.map(|addr| {
            // Decorrelate the workers' retry backoff streams: a shared
            // seed would make every rejected worker sleep in lockstep
            // and re-collide on the same accept queue.
            let policy = RetryPolicy {
                jitter_seed: seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..RetryPolicy::default()
            };
            Box::new(RegistrySink {
                client: RetryingRegistryClient::new(addr, policy),
            }) as Box<dyn ProfileSink>
        }))
    })
    .map_err(|e| {
        eprintln!("zoo run failed: {e}");
        1
    })?;

    let acc = &report.accuracy;
    println!(
        "cache-size detection: {}/{} sizes correct ({:.1}%), level count right on {}/{} machines",
        acc.cache_sizes_correct,
        acc.cache_sizes_total,
        100.0 * acc.cache_size_accuracy(),
        acc.level_count_correct,
        acc.machines
    );
    println!(
        "sharing detection:    {}/{} levels correct ({:.1}%)",
        acc.sharing_correct,
        acc.sharing_total,
        100.0 * acc.sharing_accuracy()
    );
    if acc.padding_total > 0 {
        println!(
            "padding advice:       {}/{} machines advised >= their line size ({:.1}%)",
            acc.padding_correct,
            acc.padding_total,
            100.0 * acc.padding_accuracy()
        );
    }
    println!(
        "comm probe-size fallbacks (no cache detected): {}",
        acc.probe_fallbacks
    );
    if !report.stage_times.is_empty() {
        println!("stage times over the population (virtual seconds):");
        for (stage, stats) in &report.stage_times {
            println!(
                "  {:<16} min {:>8.2}  mean {:>8.2}  max {:>8.2}  total {:>9.1}",
                stage, stats.min_s, stats.mean_s, stats.max_s, stats.total_s
            );
        }
    }

    // Registry-side accounting: how many profiles landed and how the
    // accept queue coped with the fan-in.
    if let Some(addr) = stream_addr {
        let mut client = RetryingRegistryClient::new(addr, RetryPolicy::default());
        match client.stats() {
            Ok(stats) => println!(
                "registry after streaming: {} profiles, {} requests, \
                 accept rejected {} (queue high-water {})",
                stats.profiles, stats.requests, stats.accept.rejected, stats.accept.queue_depth_max
            ),
            Err(e) => eprintln!("registry stats unavailable: {e}"),
        }
    }
    if let Some(handle) = embedded {
        handle.shutdown();
    }

    write_report(out, &report.to_json())?;
    println!("zoo report written to {out}");
    Ok(())
}

/// `servet loadgen`: hold a connection plateau against a registry while
/// driving request traffic through it, then report the latency
/// trajectory. `--check` turns the report into a pass/fail gate for CI.
fn cmd_loadgen(args: &[String]) -> Exit {
    use servet::registry::loadgen::{self, LoadgenConfig, Mode};

    let addr_str = flag_value(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let addr = match std::net::ToSocketAddrs::to_socket_addrs(&addr_str).map(|mut a| a.next()) {
        Ok(Some(addr)) => addr,
        _ => {
            eprintln!("cannot resolve {addr_str}");
            return Err(2);
        }
    };
    let defaults = LoadgenConfig::default();
    let conns: usize = parsed_flag(args, "--conns", defaults.conns)?;
    let ops: u64 = parsed_flag(args, "--ops", defaults.ops)?;
    let op_workers: usize = parsed_flag(args, "--op-workers", defaults.op_workers)?;
    let hold = parsed_ms(args, "--hold-ms", defaults.hold)?;
    let seed: u64 = parsed_flag(args, "--seed", defaults.seed)?;
    // No --max-p99-ms, no bound.
    let max_p99_ms: u64 = parsed_flag(args, "--max-p99-ms", u64::MAX)?;
    let mode = match flag_value(args, "--mode").unwrap_or("closed") {
        "closed" => Mode::Closed,
        "open" => Mode::Open {
            rate_hz: parsed_flag(args, "--rate", 1000.0)?,
        },
        other => {
            eprintln!("unknown --mode '{other}' (closed|open)");
            return Err(2);
        }
    };
    let config = LoadgenConfig {
        addr,
        conns,
        ops,
        op_workers: op_workers.max(1),
        mode,
        hold,
        seed,
    };

    eprintln!(
        "loadgen: holding {conns} connection(s) against {addr} for {} ms, \
         {ops} op(s) over {} worker(s) ...",
        hold.as_millis(),
        config.op_workers
    );
    let report = loadgen::run(&config).map_err(failed("loadgen"))?;

    println!(
        "held {}/{} conns  connect-failures {}  busy-rejects {}  early-closes {}",
        report.conns_opened,
        report.conns_target,
        report.connect_failures,
        report.busy_rejects,
        report.early_closes
    );
    if report.ops_requested > 0 {
        println!(
            "ops {}/{} ok ({} failed)  {:.0} ops/s",
            report.ops_done, report.ops_requested, report.ops_failed, report.throughput_ops_per_s
        );
        if let Some(l) = &report.latency {
            println!(
                "latency: mean={} p50={} p99={} p999={} max={}",
                format_ns(l.mean_ns),
                format_ns(l.p50_ns),
                format_ns(l.p99_ns),
                format_ns(l.p999_ns),
                format_ns(l.max_ns)
            );
        }
    }
    if let Some(out) = flag_value(args, "--out") {
        write_report(out, &report.to_json())?;
        println!("loadgen report written to {out}");
    }

    // CI gates: --check demands a clean steady state, --max-p99-ms
    // bounds the request-latency tail.
    let mut breached = false;
    if has_flag(args, "--check") && !report.clean() {
        eprintln!("loadgen --check FAILED: rejects, early closes, or failed ops observed");
        breached = true;
    }
    let p99_ns = report.latency.map(|l| l.p99_ns).unwrap_or(0);
    if p99_ns > max_p99_ms.saturating_mul(1_000_000) {
        eprintln!(
            "loadgen --max-p99-ms FAILED: p99 {} exceeds {} ms",
            format_ns(p99_ns),
            max_p99_ms
        );
        breached = true;
    }
    if breached {
        Err(1)
    } else {
        Ok(())
    }
}

fn print_profile(profile: &MachineProfile) {
    println!(
        "machine '{}': {} cores/node, {} total, {} B pages",
        profile.machine, profile.cores_per_node, profile.total_cores, profile.page_size
    );
    println!("cache hierarchy:");
    for level in &profile.cache_levels {
        let shared = profile.cores_sharing_cache(level.level, 0);
        let sharing = if shared.is_empty() {
            "private".to_string()
        } else {
            format!("core 0 shares with {shared:?}")
        };
        println!(
            "  L{}: {:>8} KB  [{:?}] {}",
            level.level,
            level.size / 1024,
            level.method,
            sharing
        );
    }
    if let Some(micro) = &profile.micro {
        if let Some(line) = micro.line_size {
            println!("  line size: {line} B");
        }
        if let Some(ways) = micro.l1_associativity {
            println!("  L1 associativity: {ways}-way");
        }
        if let Some(entries) = micro.tlb_entries {
            println!("  data TLB: >= {entries} entries");
        }
    }
    if let Some(fs) = &profile.false_sharing {
        match fs.advised_padding {
            Some(pad) => println!("false sharing: pad per-thread data to {pad} B"),
            None => println!("false sharing: no quiet stride found in the sweep"),
        }
        if let Some(model) = &fs.comm_model {
            println!(
                "  on-chip handoff: {:.0} cycles per {} B line",
                model.per_line_cycles, model.line_bytes
            );
        }
    }
    if let Some(memory) = &profile.memory {
        println!(
            "memory: {:.2} GB/s isolated, {} contention class(es)",
            memory.reference_gbs,
            memory.overheads.len()
        );
        for class in &memory.overheads {
            println!(
                "  {:.2} GB/s within groups of {:?}",
                class.bandwidth_gbs,
                class.groups.iter().map(Vec::len).collect::<Vec<_>>()
            );
        }
    }
    if let Some(comm) = &profile.communication {
        println!("communication layers (probe {} B):", comm.probe_size);
        for (i, layer) in comm.layers.iter().enumerate() {
            let degradation = layer
                .scalability
                .last()
                .map(|&(n, _, s)| format!(", {s:.1}x at {n} concurrent msgs"))
                .unwrap_or_default();
            println!(
                "  layer {i}: {:.2} us, {} pairs{degradation}",
                layer.latency_us,
                layer.pairs.len()
            );
        }
    }
}
