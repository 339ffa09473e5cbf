//! The `servet` binary's command line: an unknown flag, a flag without
//! its value and a value that does not parse are usage errors (exit 2)
//! reported before anything runs, never a silent fall-back to the flag's
//! default; and what `servet help` lists is what the binary accepts.

use std::path::PathBuf;
use std::process::Command;

/// `servet args…`, ready to run.
fn servet(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_servet"));
    command.args(args);
    command
}

/// A path under the temp directory that does not exist yet.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("servet-it-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// Run `servet args…` and demand the usage error `message` and nothing
/// else: exit 2, no stdout, no progress line on stderr.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = servet(args).output().expect("servet runs");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("{message}\n"),
        "{args:?}"
    );
}

/// What a run that must succeed printed.
fn stdout_of(args: &[&str]) -> String {
    let out = servet(args).output().expect("servet runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Every `--flag` spelt in `text`.
fn flags_in(text: &str) -> std::collections::BTreeSet<&str> {
    text.split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
        .filter(|word| word.len() > 2 && word.starts_with("--") && !word.ends_with('-'))
        .collect()
}

/// The usage error for a `value` that `flag` cannot parse.
fn assert_rejected(args: &[&str], flag: &str, value: &str) {
    assert_usage_error(args, &format!("invalid value '{value}' for {flag}"));
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    // usize: the sweep must not start with the 64 MB default.
    assert_rejected(&["probe", "--max-mb", "abc"], "--max-mb", "abc");
    // A number that parses but describes no sweep: a typed error from
    // `McalibratorConfig::validate`, not a backtrace out of `sizes()`.
    assert_usage_error(
        &["probe", "--max-mb", "0"],
        "invalid value '0' for --max-mb: min_size 4096 above max_size 0",
    );

    // usize again, where the default would have served: no store opened.
    let dir = scratch("serve");
    let dir_arg = dir.to_str().unwrap();
    assert_rejected(
        &["serve", "--dir", dir_arg, "--max-conns", "10k"],
        "--max-conns",
        "10k",
    );
    assert!(!dir.exists(), "serve opened its store before parsing");

    // u64: no comparison run, no report written.
    let report = scratch("tune.json");
    let report_arg = report.to_str().unwrap();
    assert_rejected(
        &["tune", "--zoo", "--seed", "-1", "--out", report_arg],
        "--seed",
        "-1",
    );
    assert!(!report.exists(), "tune --zoo wrote a report");

    // u8: out of range is rejected rather than wrapped, and before the
    // (missing) profile is looked at, which would be exit 1.
    assert_rejected(
        &[
            "advise",
            "tile",
            "--level",
            "300",
            "--profile",
            "missing.json",
        ],
        "--level",
        "300",
    );

    // f64: no connection attempted (that failure would be exit 1).
    assert_rejected(
        &[
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--mode",
            "open",
            "--rate",
            "fast",
        ],
        "--rate",
        "fast",
    );
}

/// A flag the command does not take, and a value flag with nothing after
/// it, stop the run: the misspelt `--max-con` used to serve with the
/// default cap, the bare `--n` used to tune n = 32.
#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let dir = scratch("serve-typo");
    let dir_arg = dir.to_str().unwrap();
    assert_usage_error(
        &["serve", "--dir", dir_arg, "--max-con", "3"],
        "unknown flag '--max-con' for 'serve'",
    );
    assert!(
        !dir.exists(),
        "serve opened its store before checking flags"
    );
    assert_usage_error(
        &["simulate", "tiny", "--bogus"],
        "unknown flag '--bogus' for 'simulate'",
    );

    // At the end of the line, and with another flag where the value goes.
    assert_usage_error(
        &["tune", "--machine", "tiny_smp", "--n"],
        "missing value for --n",
    );
    assert_usage_error(
        &["loadgen", "--conns", "--check"],
        "missing value for --conns",
    );
}

/// A flag of a sibling command is as unknown as any other.
#[test]
fn each_command_takes_only_its_own_flags() {
    assert_usage_error(
        &["advise", "threads", "--level", "2"],
        "unknown flag '--level' for 'advise threads'",
    );
    assert_usage_error(
        &["query", "advise", "bcast", "--level", "1"],
        "unknown flag '--level' for 'query advise bcast'",
    );
}

/// `servet help` is the grammar: a command takes a flag exactly when its
/// entry lists it, every flag the source reads is listed somewhere, and
/// `--help` / `-h` print the same listing.
#[test]
fn help_lists_exactly_the_flags_each_command_takes() {
    let help = stdout_of(&["help"]);
    assert_eq!(stdout_of(&["--help"]), help);
    assert_eq!(stdout_of(&["-h"]), help);
    let listed = flags_in(&help);
    let read: Vec<&str> = include_str!("../src/main.rs")
        .split('"')
        .filter(|literal| flags_in(literal).contains(literal))
        .collect();
    assert!(read.len() > 40, "{read:?}");
    for flag in read {
        assert!(
            listed.contains(flag),
            "{flag} is read but not in 'servet help'"
        );
    }

    // An entry is a `servet WORDS… SYNOPSIS` line and the synopsis lines
    // (ten spaces deep) under it. Probe each command with each flag,
    // followed by a flag nobody takes: the complaint tells whether the
    // first one was accepted, and nothing runs either way.
    let mut commands = 0;
    let mut lines = help.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(entry) = line.strip_prefix("  servet ") else {
            continue;
        };
        let mut entry = entry.to_string();
        while let Some(more) = lines.peek().and_then(|l| l.strip_prefix("          ")) {
            entry.push_str(more);
            lines.next();
        }
        let words: Vec<&str> = entry
            .split(' ')
            .take_while(|word| !word.starts_with(['-', '[', '<']))
            .collect();
        let (name, takes) = (words.join(" "), flags_in(&entry));
        commands += 1;
        for &flag in listed.iter().filter(|&&flag| flag != "--trace") {
            let args: Vec<&str> = words.iter().copied().chain([flag, "--zzz"]).collect();
            let out = servet(&args).output().expect("servet runs");
            assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
            let refused = format!("unknown flag '{flag}' for '{name}'\n");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr) != refused,
                takes.contains(flag),
                "'{name}' and {flag}: {out:?}"
            );
        }
    }
    assert!(commands > 20, "{help}");
}

/// `machines`, `simulate` and `tune --machine` know the same presets.
#[test]
fn every_preset_is_taken_wherever_a_preset_is_taken() {
    let names: Vec<String> = stdout_of(&["machines"])
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .map(|line| line.split(' ').next().unwrap().to_string())
        .collect();
    assert!(names.len() >= 8, "{names:?}");
    let unknown = format!("unknown machine 'nosuch'; use {}", names.join(" | "));
    assert_usage_error(&["simulate", "nosuch"], &unknown);
    assert_usage_error(&["tune", "--machine", "nosuch"], &unknown);
}

/// README.md shows `servet help` verbatim between two marker comments.
#[test]
fn readme_shows_the_current_help() {
    let readme = include_str!("../README.md");
    let (begin, end) = ("<!-- servet help -->\n", "<!-- /servet help -->");
    let block = readme
        .split(begin)
        .nth(1)
        .and_then(|rest| rest.split(end).next());
    assert_eq!(
        block.expect("README.md has both markers"),
        format!("```text\n{}```\n", stdout_of(&["help"])),
        "README.md's listing is stale; regenerate it with:\n{REGENERATE}"
    );
}

/// Rewrites the block `readme_shows_the_current_help` checks.
const REGENERATE: &str = "{ echo '```text'; cargo run -q --bin servet -- help; echo '```'; } | \
    sed -i -e '/<!-- servet help -->/r /dev/stdin' \
    -e '/<!-- servet help -->/,/<!-- \\/servet help -->/{/servet help -->/!d}' README.md";

/// `servet tune --zoo` writes a report only where `--out` says.
#[test]
fn tune_zoo_without_out_writes_nothing() {
    let cwd = scratch("cwd");
    std::fs::create_dir_all(&cwd).unwrap();
    let out = servet(&[
        "tune",
        "--zoo",
        "--machines",
        "2",
        "--n",
        "16",
        "--workers",
        "1",
    ])
    .current_dir(&cwd)
    .output()
    .expect("servet runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parity"), "{stdout}");
    assert!(!stdout.contains("written"), "{stdout}");
    let left_behind: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left_behind.is_empty(), "{left_behind:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Every JSON report the binary emits is its type's serde form: `tune
/// --json`, `query tune --json` and `loadgen --out` parse back.
#[test]
fn json_outputs_parse_back_into_their_types() {
    use servet::registry::{serve, LoadgenReport, Registry, RegistryClient, ServerConfig};
    use servet::tune::{compare::ground_truth_profile, TuneOutcome};

    let run = stdout_of;

    let local = run(&["tune", "--machine", "tiny_smp", "--n", "16", "--json"]);
    let local: TuneOutcome = serde_json::from_str(&local).expect("tune --json parses");
    assert!(local.evaluations > 0);

    let dir = scratch("store");
    let registry = std::sync::Arc::new(Registry::open(&dir).unwrap());
    let server = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let profile = ground_truth_profile(&servet::sim::presets::tiny_smp());
    RegistryClient::connect(server.addr())
        .unwrap()
        .put(&profile, Some("tiny"))
        .unwrap();

    let served = run(&["query", "tune", "--key", "tiny", "--json", "--addr", &addr]);
    let served: TuneOutcome = serde_json::from_str(&served).expect("query tune --json parses");
    assert!(served.evaluations > 0);

    let report = scratch("loadgen.json");
    run(&[
        "loadgen",
        "--addr",
        &addr,
        "--conns",
        "4",
        "--ops",
        "20",
        "--hold-ms",
        "50",
        "--check",
        "--out",
        report.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&report).unwrap();
    let parsed: LoadgenReport = serde_json::from_str(&text).expect("loadgen --out parses");
    assert_eq!(parsed.ops_done, 20);
    assert!(parsed.clean());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&report);
}
