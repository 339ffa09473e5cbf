//! The machine profile: everything Servet learned, in one serializable
//! value.
//!
//! §IV-E of the paper: the benchmarks "must be run only once at
//! installation time … The information obtained can be stored in a file to
//! be consulted by the applications to guide optimizations when needed."
//! [`MachineProfile`] is that file's schema; `servet-autotune` consumes it.

use crate::cache_detect::CacheLevelEstimate;
use crate::comm::CommResult;
use crate::false_sharing::FalseSharingResult;
use crate::mcalibrator::McalibratorOutput;
use crate::mem_overhead::MemOverheadResult;
use crate::micro::MicroProfile;
use crate::platform::CoreId;
use crate::shared_cache::SharedCacheResult;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The profile schema version written by this build. Older files (which
/// predate the field and deserialize as `0`) still load; files written by
/// a *newer* Servet are rejected with a clear error instead of being
/// silently misread.
pub const SCHEMA_VERSION: u32 = 1;

/// Write `contents` to `path` atomically: the bytes land in a unique
/// sibling temporary file first and are `rename`d into place, so a crash
/// mid-write can never leave a torn file behind. The registry store and
/// [`MachineProfile::save`] share this helper.
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    fs::write(&tmp, contents)?;
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// The complete output of one Servet run on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProfile {
    /// Profile schema version; absent in pre-versioning files (reads as 0).
    #[serde(default)]
    pub schema_version: u32,
    /// Machine name.
    pub machine: String,
    /// Cores per shared-memory node.
    pub cores_per_node: usize,
    /// Total cores measured by the communication benchmark.
    pub total_cores: usize,
    /// Page size used by the probabilistic algorithm, bytes.
    pub page_size: usize,
    /// Raw mcalibrator sweep (kept for plots and re-analysis).
    pub mcalibrator: Option<McalibratorOutput>,
    /// Detected cache levels, innermost first.
    pub cache_levels: Vec<CacheLevelEstimate>,
    /// Shared-cache topology per level.
    pub shared_caches: Option<SharedCacheResult>,
    /// Memory overhead characterization.
    pub memory: Option<MemOverheadResult>,
    /// Communication characterization (absent on unicore machines).
    pub communication: Option<CommResult>,
    /// Micro-probe extensions: line size and L1 associativity.
    #[serde(default)]
    pub micro: Option<MicroProfile>,
    /// False-sharing sweep and cache-mediated communication model
    /// (absent on unicore machines and platforms without coherence
    /// probes).
    #[serde(default)]
    pub false_sharing: Option<FalseSharingResult>,
}

impl MachineProfile {
    /// Detected size of cache level `level` (1-based), bytes.
    pub fn cache_size(&self, level: u8) -> Option<usize> {
        self.cache_levels
            .iter()
            .find(|c| c.level == level)
            .map(|c| c.size)
    }

    /// Number of detected cache levels.
    pub fn num_cache_levels(&self) -> usize {
        self.cache_levels.len()
    }

    /// Cores that share cache level `level` with `core` (excluding
    /// itself), as measured by the Fig. 5 benchmark.
    pub fn cores_sharing_cache(&self, level: u8, core: CoreId) -> Vec<CoreId> {
        self.shared_caches
            .as_ref()
            .map(|s| s.cores_sharing_with(level, core))
            .unwrap_or_default()
    }

    /// Estimated one-way message latency between two cores, µs.
    pub fn latency_us(&self, a: CoreId, b: CoreId, size: usize) -> Option<f64> {
        self.communication
            .as_ref()
            .and_then(|c| c.predicted_latency_us(a, b, size))
    }

    /// Expected per-core memory bandwidth when `cores` stream
    /// concurrently, GB/s.
    pub fn memory_bandwidth_gbs(&self, cores: &[CoreId]) -> Option<f64> {
        self.memory.as_ref().map(|m| m.predicted_bandwidth(cores))
    }

    /// Detected cache line size, bytes (micro probe).
    pub fn line_size(&self) -> Option<usize> {
        self.micro.and_then(|m| m.line_size)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serializes")
    }

    /// Parse from JSON. Files written by a newer Servet (a
    /// `schema_version` above [`SCHEMA_VERSION`]) are rejected; files from
    /// before the field existed load with version 0.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let profile: Self = serde_json::from_str(json)?;
        if profile.schema_version > SCHEMA_VERSION {
            use serde::de::Error as _;
            return Err(serde_json::Error::custom(format!(
                "profile schema_version {} is newer than the supported version {}; \
                 upgrade servet to read this file",
                profile.schema_version, SCHEMA_VERSION
            )));
        }
        Ok(profile)
    }

    /// Write the profile to a file (the paper's installation-time output).
    /// The write is atomic ([`write_atomic`]): a crash mid-save cannot
    /// leave a torn profile on disk.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// Load a profile previously written by [`Self::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_detect::DetectionMethod;

    fn minimal_profile() -> MachineProfile {
        MachineProfile {
            schema_version: SCHEMA_VERSION,
            machine: "test".into(),
            cores_per_node: 4,
            total_cores: 4,
            page_size: 4096,
            mcalibrator: None,
            cache_levels: vec![
                CacheLevelEstimate {
                    level: 1,
                    size: 8 * 1024,
                    method: DetectionMethod::GradientPeak,
                },
                CacheLevelEstimate {
                    level: 2,
                    size: 64 * 1024,
                    method: DetectionMethod::Probabilistic,
                },
            ],
            shared_caches: None,
            memory: None,
            communication: None,
            micro: None,
            false_sharing: None,
        }
    }

    #[test]
    fn cache_queries() {
        let p = minimal_profile();
        assert_eq!(p.cache_size(1), Some(8 * 1024));
        assert_eq!(p.cache_size(2), Some(64 * 1024));
        assert_eq!(p.cache_size(3), None);
        assert_eq!(p.num_cache_levels(), 2);
    }

    #[test]
    fn absent_sections_answer_none() {
        let p = minimal_profile();
        assert!(p.cores_sharing_cache(2, 0).is_empty());
        assert_eq!(p.latency_us(0, 1, 64), None);
        assert_eq!(p.memory_bandwidth_gbs(&[0, 1]), None);
    }

    #[test]
    fn json_round_trip() {
        let p = minimal_profile();
        let json = p.to_json();
        let back = MachineProfile::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn file_round_trip() {
        let p = minimal_profile();
        let dir = std::env::temp_dir().join("servet-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        p.save(&path).unwrap();
        let back = MachineProfile::load(&path).unwrap();
        assert_eq!(p, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_errors() {
        assert!(MachineProfile::from_json("{not json").is_err());
        assert!(MachineProfile::load("/nonexistent/servet.json").is_err());
    }

    #[test]
    fn missing_schema_version_defaults_to_zero() {
        // A pre-versioning file has no schema_version field at all.
        let mut p = minimal_profile();
        p.schema_version = SCHEMA_VERSION;
        let json = p
            .to_json()
            .replace(&format!("\"schema_version\": {SCHEMA_VERSION},"), "");
        assert!(!json.contains("schema_version"));
        let back = MachineProfile::from_json(&json).unwrap();
        assert_eq!(back.schema_version, 0);
        assert_eq!(back.machine, p.machine);
    }

    #[test]
    fn newer_schema_version_is_rejected() {
        let mut p = minimal_profile();
        p.schema_version = SCHEMA_VERSION + 7;
        let err = MachineProfile::from_json(&p.to_json()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("newer"), "unhelpful error: {msg}");
        assert!(
            msg.contains(&(SCHEMA_VERSION + 7).to_string()),
            "error should name the offending version: {msg}"
        );
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let p = minimal_profile();
        let dir = std::env::temp_dir().join("servet-profile-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        // Overwrite an existing (corrupt) file: the reader must never see
        // a torn state, and no *.tmp residue may remain.
        std::fs::write(&path, "{torn").unwrap();
        p.save(&path).unwrap();
        assert_eq!(MachineProfile::load(&path).unwrap(), p);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp residue: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_concurrent_writers_never_tear() {
        let dir = std::env::temp_dir().join("servet-write-atomic-race");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.json");
        let payload_a = "a".repeat(64 * 1024);
        let payload_b = "b".repeat(64 * 1024);
        std::thread::scope(|s| {
            for payload in [&payload_a, &payload_b] {
                s.spawn(|| {
                    for _ in 0..50 {
                        write_atomic(&path, payload.as_bytes()).unwrap();
                    }
                });
            }
        });
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            content == payload_a || content == payload_b,
            "torn read of {} bytes",
            content.len()
        );
        std::fs::remove_file(&path).ok();
    }
}
