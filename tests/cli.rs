//! The `servet` binary's flag parsing: an unknown flag, a flag without
//! its value and a value that does not parse are usage errors (exit 2)
//! reported before anything runs, never a silent fall-back to the flag's
//! default.

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

/// The usage error for a `value` that `flag` cannot parse.
fn assert_rejected(args: &[&str], flag: &str, value: &str) {
    assert_usage_error(args, &format!("invalid value '{value}' for {flag}"));
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    // usize: the sweep must not start with the 64 MB default.
    assert_rejected(&["probe", "--max-mb", "abc"], "--max-mb", "abc");

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

    let run = |args: &[&str]| {
        let out = servet(args).output().expect("servet runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

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
