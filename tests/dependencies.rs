//! Build guard: the workspace builds from this checkout alone. Its two
//! external crates, serde and serde_json (with serde_derive), are patched
//! to the stand-ins under `benchmark/shims/`, `Cargo.lock` pins every
//! package without a registry source, the plain `cargo build` /
//! `cargo test` cover every crate, and every crate inherits the
//! workspace lints.

use std::fs;
use std::path::Path;

const STAND_INS: [&str; 3] = ["serde", "serde_derive", "serde_json"];

fn read(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The non-blank, non-comment lines of the root manifest's `[header]` table.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != format!("[{header}]"))
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The quoted strings on a line, in order.
fn quoted(line: &str) -> Vec<&str> {
    line.split('"').skip(1).step_by(2).collect()
}

#[test]
fn every_locked_package_builds_from_this_checkout() {
    let lock = read("Cargo.lock");
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(
        packages.len() > STAND_INS.len(),
        "Cargo.lock lists no packages"
    );
    for package in packages {
        let name = package
            .lines()
            .find_map(|line| line.strip_prefix("name = "))
            .map(|value| value.trim_matches('"'))
            .expect("every locked package has a name");
        assert!(
            !package.lines().any(|line| line.starts_with("source = ")),
            "Cargo.lock takes `{name}` from a registry; the build must need only this checkout"
        );
        assert!(
            name.starts_with("servet") || STAND_INS.contains(&name),
            "Cargo.lock pins `{name}`; only {STAND_INS:?} may come from outside the workspace"
        );
    }
}

#[test]
fn the_external_crates_are_patched_to_the_stand_ins() {
    let manifest = read("Cargo.toml");
    let mut names = Vec::new();
    for line in table(&manifest, "patch.crates-io") {
        let (name, spec) = line.split_once('=').expect("a patch is `name = { ... }`");
        let name = name.trim();
        let stand_in = format!("benchmark/shims/{name}");
        assert!(spec.contains("path ="), "`{line}` is not a path patch");
        assert_eq!(quoted(spec), [stand_in.as_str()], "`{line}`");
        names.push(name);
    }
    names.sort_unstable();
    assert_eq!(names, STAND_INS, "root [patch.crates-io]");
}

#[test]
fn the_plain_commands_cover_every_crate() {
    let manifest = read("Cargo.toml");
    let line = table(&manifest, "workspace")
        .into_iter()
        .find(|line| line.starts_with("default-members"))
        .expect("[workspace] sets default-members");
    let members = quoted(line);
    for wanted in [".", "crates/*"] {
        assert!(
            members.contains(&wanted),
            "default-members {members:?} leaves out `{wanted}`"
        );
    }
}

/// `unreachable_pub` is set once, in the root manifest, and reaches a crate
/// only through `[lints] workspace = true`: a manifest without that line
/// drops out of the check without a word from clippy.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = read("Cargo.toml");
    assert!(
        table(&root, "workspace.lints.rust")
            .iter()
            .any(|line| line.starts_with("unreachable_pub")),
        "the root [workspace.lints.rust] table does not set unreachable_pub"
    );
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(&crates).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").file_name();
        manifests.push(format!("crates/{}/Cargo.toml", dir.to_string_lossy()));
    }
    assert!(manifests.len() > 1, "no crate under crates/");
    for manifest in manifests {
        let text = read(&manifest);
        let lints = table(&text, "lints");
        assert!(
            lints
                .iter()
                .any(|line| line.replace(' ', "") == "workspace=true"),
            "{manifest} does not inherit the workspace lints ([lints] workspace = true)"
        );
    }
}
