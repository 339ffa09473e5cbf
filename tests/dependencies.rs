//! Manifest guard: the workspace depends on four external crates — the
//! ones `benchmark/shims/` stands in for, so `.cargo/offline.toml` can
//! build everything without a registry. A fifth fails here.

use std::fs;
use std::path::Path;

const ALLOWED: [&str; 4] = ["rand", "rand_chacha", "serde", "serde_json"];

/// Every dependency a manifest names, in any `*dependencies` table
/// (plain, dev, build, workspace, target-specific) or `[dependencies.x]`
/// header.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            let header = line.trim_matches(|c| c == '[' || c == ']');
            in_table = false;
            match header.rsplit_once("dependencies") {
                Some((_, "")) => in_table = true,
                Some((_, name)) => names.push(name.trim_start_matches('.').to_string()),
                None => {}
            }
        } else if in_table && !line.starts_with('#') {
            // `serde = "1"` and `serde.workspace = true` both name `serde`.
            if let Some((key, _)) = line.split_once('=') {
                let name = key.split('.').next().expect("split yields one item");
                names.push(name.trim().trim_matches('"').to_string());
            }
        }
    }
    names
}

#[test]
fn only_the_four_stood_in_crates_are_external() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(entry.expect("directory entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 1, "no member crates under crates/");

    let mut checked = 0;
    for path in &manifests {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for name in dependency_names(&text) {
            assert!(
                name.starts_with("servet-") || ALLOWED.contains(&name.as_str()),
                "{} depends on `{name}`; only {ALLOWED:?} may come from outside the workspace",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked > ALLOWED.len(),
        "the manifests named no dependencies"
    );
}

#[test]
fn every_dependency_spelling_is_read() {
    let manifest = "\
[package]
name = \"x\"
[dependencies]
# a comment = ignored
serde = \"1\"
rand.workspace = true
[dev-dependencies]
libc = { version = \"0.2\" }
[target.'cfg(unix)'.build-dependencies]
cc = \"1\"
[dependencies.bytes]
version = \"1\"
[profile.release]
debug = true
";
    assert_eq!(
        dependency_names(manifest),
        ["serde", "rand", "libc", "cc", "bytes"]
    );
}
