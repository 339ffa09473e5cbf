//! The content-addressed profile store.
//!
//! Profiles are keyed by the SHA-256 of their **canonical JSON** — the
//! compact serialization of the `serde_json::Value` tree, whose maps are
//! sorted `BTreeMap`s — so the digest depends only on content, never on
//! field order or formatting. Each profile lives in `<digest>.json`
//! under the store directory; human names ("dunnington") map to digests
//! through an `aliases.json` index. Every file write goes through
//! [`servet_core::profile::write_atomic`], so a crash mid-write can never
//! tear a profile or the index (paper §IV-E: measure once, consult
//! forever — the store is the "forever" half). A write that would change
//! nothing is skipped: a put compares the stored bytes with the canonical
//! JSON first, and an alias already bound to its digest is not rewritten.

use crate::digest::{looks_like_digest, sha256_hex};
use serde::{Deserialize, Serialize};
use servet_core::profile::{write_atomic, MachineProfile};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// File name of the alias index inside a store directory.
const ALIAS_INDEX: &str = "aliases.json";

/// Canonical JSON of a profile: compact, keys sorted (serde_json's
/// default `Value` map is a `BTreeMap`). Digest input and on-disk format.
pub fn canonical_json(profile: &MachineProfile) -> String {
    let value = serde_json::to_value(profile).expect("profile serializes");
    serde_json::to_string(&value).expect("value serializes")
}

/// Stable content digest of a profile (SHA-256 of [`canonical_json`]).
pub fn profile_digest(profile: &MachineProfile) -> String {
    sha256_hex(canonical_json(profile).as_bytes())
}

/// True when the file at `path` holds exactly `bytes`: the length is
/// compared first, then the contents through a fixed-size buffer. A
/// missing or unreadable file holds nothing.
fn holds(path: &Path, bytes: &[u8]) -> bool {
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    if !file.metadata().is_ok_and(|m| m.len() == bytes.len() as u64) {
        return false;
    }
    let mut buf = [0u8; 8 * 1024];
    bytes.chunks(buf.len()).all(|expected| {
        let read = &mut buf[..expected.len()];
        file.read_exact(read).is_ok() && read == expected
    })
}

/// One stored profile, as reported by `ProfileStore::list`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreEntry {
    /// Content digest (hex SHA-256).
    pub digest: String,
    /// Machine name recorded in the profile.
    pub machine: String,
    /// Total cores the profile covers.
    pub total_cores: usize,
    /// Detected cache levels.
    pub cache_levels: usize,
    /// Aliases resolving to this digest, sorted.
    pub aliases: Vec<String>,
}

/// A directory of content-addressed profiles plus a named alias index.
pub(crate) struct ProfileStore {
    dir: PathBuf,
    aliases: RwLock<BTreeMap<String, String>>,
}

impl ProfileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub(crate) fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let index = dir.join(ALIAS_INDEX);
        let aliases = if index.exists() {
            let text = fs::read_to_string(&index)?;
            serde_json::from_str(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        } else {
            BTreeMap::new()
        };
        Ok(Self {
            dir,
            aliases: RwLock::new(aliases),
        })
    }

    /// The store's root directory.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    fn profile_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Store a profile; returns its digest and the byte length of its
    /// canonical JSON (what the profile weighs on the wire). Idempotent:
    /// the file is written only when it is missing or its bytes differ
    /// from the canonical JSON, so a re-put of stored content touches
    /// nothing and a torn or foreign blob is repaired.
    pub(crate) fn put(&self, profile: &MachineProfile) -> io::Result<(String, usize)> {
        let json = canonical_json(profile);
        let digest = sha256_hex(json.as_bytes());
        let path = self.profile_path(&digest);
        if !holds(&path, json.as_bytes()) {
            write_atomic(path, json.as_bytes())?;
        }
        Ok((digest, json.len()))
    }

    /// Bind `name` to an existing digest and persist the index. A name
    /// already bound to `digest` leaves the index file alone.
    pub(crate) fn alias(&self, name: &str, digest: &str) -> io::Result<()> {
        if name.is_empty() || looks_like_digest(name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid alias name {name:?}: must be non-empty and not digest-shaped"),
            ));
        }
        if self.alias_target(name).as_deref() == Some(digest) {
            return Ok(());
        }
        if !self.profile_path(digest).exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no stored profile with digest {digest}"),
            ));
        }
        let mut aliases = self.aliases.write().unwrap_or_else(|e| e.into_inner());
        aliases.insert(name.to_string(), digest.to_string());
        let json = serde_json::to_string_pretty(&*aliases).expect("alias map serializes");
        write_atomic(self.dir.join(ALIAS_INDEX), json.as_bytes())
    }

    /// The digest alias `name` is bound to, from the in-memory index.
    pub(crate) fn alias_target(&self, name: &str) -> Option<String> {
        let aliases = self.aliases.read().unwrap_or_else(|e| e.into_inner());
        aliases.get(name).cloned()
    }

    /// Resolve `key` — an alias, a full digest, or a unique digest
    /// prefix (≥ 6 chars) — to a stored digest. Only a prefix lists the
    /// directory.
    pub(crate) fn resolve(&self, key: &str) -> io::Result<Option<String>> {
        if let Some(digest) = self.alias_target(key) {
            return Ok(Some(digest));
        }
        if looks_like_digest(key) {
            return Ok(self.profile_path(key).exists().then(|| key.to_string()));
        }
        if key.len() >= 6 && key.bytes().all(|b| b.is_ascii_hexdigit()) {
            let matches: Vec<String> = self
                .digests()?
                .into_iter()
                .filter(|d| d.starts_with(key))
                .collect();
            if matches.len() == 1 {
                return Ok(matches.into_iter().next());
            }
        }
        Ok(None)
    }

    /// Load the profile stored under a (full) digest, verifying that the
    /// content still hashes to its name; returns it with the byte length
    /// of its canonical JSON, as [`Self::put`] does.
    pub(crate) fn load(&self, digest: &str) -> io::Result<(MachineProfile, usize)> {
        let path = self.profile_path(digest);
        let text = fs::read_to_string(&path)?;
        let profile = MachineProfile::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let json = canonical_json(&profile);
        let actual = sha256_hex(json.as_bytes());
        if actual != digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store corruption: {} hashes to {actual}", path.display()),
            ));
        }
        Ok((profile, json.len()))
    }

    /// All stored digests (unordered).
    fn digests(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                if looks_like_digest(stem) {
                    out.push(stem.to_string());
                }
            }
        }
        Ok(out)
    }

    /// Summaries of every stored profile, digest-sorted, with aliases. A
    /// profile `cached` has is summarised from there; the others are
    /// loaded (read, parsed, re-hashed).
    pub(crate) fn list(
        &self,
        cached: impl Fn(&String) -> Option<Arc<MachineProfile>>,
    ) -> io::Result<Vec<StoreEntry>> {
        let alias_map: BTreeMap<String, String> = self
            .aliases
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut digests = self.digests()?;
        digests.sort();
        digests
            .into_iter()
            .map(|digest| {
                let profile = match cached(&digest) {
                    Some(profile) => profile,
                    None => Arc::new(self.load(&digest)?.0),
                };
                let aliases = alias_map
                    .iter()
                    .filter(|(_, d)| **d == digest)
                    .map(|(n, _)| n.clone())
                    .collect();
                Ok(StoreEntry {
                    digest,
                    machine: profile.machine.clone(),
                    total_cores: profile.total_cores,
                    cache_levels: profile.cache_levels.len(),
                    aliases,
                })
            })
            .collect()
    }

    /// Number of stored profiles.
    pub(crate) fn len(&self) -> io::Result<usize> {
        Ok(self.digests()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::cache_detect::{CacheLevelEstimate, DetectionMethod};
    use servet_core::profile::SCHEMA_VERSION;

    fn test_profile(machine: &str, l1: usize) -> MachineProfile {
        MachineProfile {
            schema_version: SCHEMA_VERSION,
            machine: machine.into(),
            cores_per_node: 4,
            total_cores: 4,
            page_size: 4096,
            mcalibrator: None,
            cache_levels: vec![CacheLevelEstimate {
                level: 1,
                size: l1,
                method: DetectionMethod::GradientPeak,
            }],
            shared_caches: None,
            memory: None,
            communication: None,
            micro: None,
            false_sharing: None,
        }
    }

    fn temp_store(tag: &str) -> ProfileStore {
        let dir = std::env::temp_dir().join(format!("servet-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ProfileStore::open(dir).unwrap()
    }

    #[test]
    fn digest_ignores_formatting() {
        let p = test_profile("fmt", 8192);
        let pretty = serde_json::to_string_pretty(&p).unwrap();
        let reparsed = MachineProfile::from_json(&pretty).unwrap();
        assert_eq!(profile_digest(&p), profile_digest(&reparsed));
    }

    #[test]
    fn put_get_round_trip_and_idempotence() {
        let store = temp_store("roundtrip");
        let p = test_profile("alpha", 8192);
        let (digest, len) = store.put(&p).unwrap();
        assert!(looks_like_digest(&digest));
        assert_eq!(len, canonical_json(&p).len());
        assert_eq!(
            store.put(&p).unwrap(),
            (digest.clone(), len),
            "put must be idempotent"
        );
        assert_eq!(store.load(&digest).unwrap(), (p, len));
        assert_eq!(store.len().unwrap(), 1);
        // Distinct content gets a distinct key.
        let q = test_profile("alpha", 16384);
        let (other, _) = store.put(&q).unwrap();
        assert_ne!(other, digest);
        assert_eq!(store.len().unwrap(), 2);
    }

    /// Inode and modification time: a replace-by-rename changes both.
    #[cfg(unix)]
    fn identity(path: &Path) -> (u64, i64, i64) {
        use std::os::unix::fs::MetadataExt;
        let meta = fs::metadata(path).unwrap();
        (meta.ino(), meta.mtime(), meta.mtime_nsec())
    }

    #[cfg(unix)]
    #[test]
    fn reput_of_stored_content_leaves_the_file_alone() {
        let store = temp_store("reput");
        let p = test_profile("stable", 8192);
        let (digest, _) = store.put(&p).unwrap();
        let path = store.dir().join(format!("{digest}.json"));
        let before = identity(&path);
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.put(&p).unwrap();
        assert_eq!(identity(&path), before, "a re-put must not rewrite");
    }

    #[test]
    fn reput_repairs_a_truncated_or_foreign_blob() {
        let store = temp_store("repair");
        let p = test_profile("victim", 8192);
        let json = canonical_json(&p);
        let (digest, _) = store.put(&p).unwrap();
        let path = store.dir().join(format!("{digest}.json"));
        let foreign = canonical_json(&test_profile("impostor", 4096));
        // Same length, one byte off: only the content comparison sees it.
        let flipped = json.replace("victim", "victiM");
        for damage in [&json[..json.len() / 2], foreign.as_str(), flipped.as_str()] {
            fs::write(&path, damage).unwrap();
            assert!(store.load(&digest).is_err());
            store.put(&p).unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), json);
            assert_eq!(store.load(&digest).unwrap(), (p.clone(), json.len()));
        }
    }

    #[test]
    fn racing_puts_of_one_new_profile_leave_one_file() {
        let store = temp_store("race");
        let p = test_profile("raced", 8192);
        let start = std::sync::Barrier::new(2);
        let put = || {
            start.wait();
            store.put(&p)
        };
        let digests: Vec<String> = std::thread::scope(|s| {
            let puts: Vec<_> = (0..2).map(|_| s.spawn(put)).collect();
            puts.into_iter()
                .map(|h| h.join().unwrap().unwrap().0)
                .collect()
        });
        assert_eq!(digests, vec![profile_digest(&p); 2]);
        let names: Vec<String> = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{}.json", digests[0])]);
        assert_eq!(store.load(&digests[0]).unwrap().0, p);
    }

    #[cfg(unix)]
    #[test]
    fn unchanged_alias_leaves_the_index_alone() {
        let store = temp_store("alias-index");
        let dir = store.dir().to_path_buf();
        let index = dir.join(ALIAS_INDEX);
        // What `Registry::put` does for a profile put under a name.
        let named_put = |profile: &MachineProfile| {
            let (digest, _) = store.put(profile).unwrap();
            store.alias("box", &digest).unwrap();
            digest
        };
        let first = test_profile("one", 8192);
        named_put(&first);
        let before = identity(&index);
        std::thread::sleep(std::time::Duration::from_millis(20));
        named_put(&first);
        assert_eq!(
            identity(&index),
            before,
            "an unchanged binding must not rewrite"
        );
        // Rebinding the name writes the index, and the new binding persists.
        let second = named_put(&test_profile("two", 16384));
        assert_ne!(identity(&index), before);
        let reopened = ProfileStore::open(&dir).unwrap();
        assert_eq!(reopened.alias_target("box"), Some(second));
    }

    #[test]
    fn alias_resolution_and_persistence() {
        let dir;
        let digest;
        {
            let store = temp_store("alias");
            dir = store.dir().to_path_buf();
            digest = store.put(&test_profile("dunnington", 32 * 1024)).unwrap().0;
            store.alias("dunnington", &digest).unwrap();
            assert_eq!(store.alias_target("dunnington"), Some(digest.clone()));
            assert_eq!(store.alias_target(&digest), None);
            assert_eq!(store.resolve("dunnington").unwrap(), Some(digest.clone()));
            assert_eq!(store.resolve(&digest).unwrap(), Some(digest.clone()));
            assert_eq!(store.resolve(&digest[..12]).unwrap(), Some(digest.clone()));
            assert_eq!(store.resolve("nonesuch").unwrap(), None);
        }
        // A fresh handle on the same directory sees the persisted alias.
        let reopened = ProfileStore::open(&dir).unwrap();
        assert_eq!(reopened.resolve("dunnington").unwrap(), Some(digest));
    }

    #[test]
    fn alias_to_missing_digest_fails() {
        let store = temp_store("badalias");
        let missing = "0".repeat(64);
        assert!(store.alias("ghost", &missing).is_err());
        assert!(store.alias("", &missing).is_err());
    }

    #[test]
    fn corrupt_file_is_detected() {
        let store = temp_store("corrupt");
        let (digest, _) = store.put(&test_profile("victim", 8192)).unwrap();
        // Overwrite the stored bytes with a *valid* profile that does not
        // match the file name.
        let other = canonical_json(&test_profile("impostor", 4096));
        fs::write(store.dir().join(format!("{digest}.json")), other).unwrap();
        let err = store.load(&digest).unwrap_err();
        assert!(err.to_string().contains("corruption"), "{err}");
    }

    #[test]
    fn list_reports_entries_with_aliases() {
        let store = temp_store("list");
        let (d1, _) = store.put(&test_profile("one", 8192)).unwrap();
        let (d2, _) = store.put(&test_profile("two", 16384)).unwrap();
        store.alias("first", &d1).unwrap();
        store.alias("also-first", &d1).unwrap();
        let entries = store.list(|_| None).unwrap();
        assert_eq!(entries.len(), 2);
        let e1 = entries.iter().find(|e| e.digest == d1).unwrap();
        assert_eq!(e1.machine, "one");
        assert_eq!(
            e1.aliases,
            vec!["also-first".to_string(), "first".to_string()]
        );
        let e2 = entries.iter().find(|e| e.digest == d2).unwrap();
        assert!(e2.aliases.is_empty());
        assert_eq!(e2.cache_levels, 1);

        // A cached profile is trusted for its summary: the file is not read.
        let stand_in = Arc::new(test_profile("cached", 8192));
        let cached = store
            .list(|d| (*d == d2).then(|| Arc::clone(&stand_in)))
            .unwrap();
        assert_eq!(cached.iter().find(|e| e.digest == d1), Some(e1));
        assert_eq!(
            cached.iter().find(|e| e.digest == d2).unwrap().machine,
            "cached"
        );
    }
}
