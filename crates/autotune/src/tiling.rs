//! Tile-size selection from detected cache sizes.
//!
//! §V of the paper: "Tiling is one of the most widely used optimization
//! techniques and our suite can help to this technique by providing all
//! the cache sizes in a portable way." The classic rule is applied to the
//! *measured* sizes: pick the largest tile whose working set (several
//! tiles of the operand matrices) fits the target cache level with a
//! safety margin. `servet_tune::SimOracle` replays the blocked kernel on
//! the simulated hierarchy to check a choice.

use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;

/// Default cache level a tile targets (1-based).
pub const DEFAULT_LEVEL: u8 = 1;
/// Default bytes per matrix element (f64).
pub const DEFAULT_ELEM_SIZE: usize = 8;
/// Default number of concurrently resident tiles (A, B and C).
pub const DEFAULT_MATRICES: usize = 3;
/// Default fraction of the cache level the tiles may fill (25 % headroom).
pub const DEFAULT_OCCUPANCY: f64 = 0.75;

/// A selected tile size and its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileChoice {
    /// Tile edge length, in elements.
    pub tile: usize,
    /// Cache level the tile targets (1-based).
    pub level: u8,
    /// Detected size of that cache level, bytes.
    pub cache_size: usize,
}

/// Pick a tile edge for a blocked matrix multiply (`C += A × B`, square
/// tiles) so that `matrices` tiles of `elem_size`-byte elements fill at
/// most `occupancy` of cache level `level`.
///
/// Returns `None` when the profile lacks that level. Tiles are rounded
/// down to a multiple of 8 elements (full cache lines of f64), minimum 8.
pub fn select_tile(
    profile: &MachineProfile,
    level: u8,
    elem_size: usize,
    matrices: usize,
    occupancy: f64,
) -> Option<TileChoice> {
    servet_obs::counter("autotune.tile.selections").incr();
    let cache_size = profile.cache_size(level)?;
    let budget = cache_size as f64 * occupancy / matrices as f64;
    let raw = (budget / elem_size as f64).sqrt() as usize;
    let tile = (raw / 8 * 8).max(8);
    Some(TileChoice {
        tile,
        level,
        cache_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::cache_detect::{CacheLevelEstimate, DetectionMethod};

    fn profile_with_caches(sizes: &[usize]) -> MachineProfile {
        MachineProfile {
            schema_version: servet_core::profile::SCHEMA_VERSION,
            machine: "synthetic".into(),
            cores_per_node: 1,
            total_cores: 1,
            page_size: 4096,
            mcalibrator: None,
            cache_levels: sizes
                .iter()
                .enumerate()
                .map(|(i, &size)| CacheLevelEstimate {
                    level: (i + 1) as u8,
                    size,
                    method: DetectionMethod::GradientPeak,
                })
                .collect(),
            shared_caches: None,
            memory: None,
            communication: None,
            micro: None,
            false_sharing: None,
        }
    }

    #[test]
    fn tile_fits_cache_budget() {
        let prof = profile_with_caches(&[32 * 1024, 2 * 1024 * 1024]);
        let choice = select_tile(&prof, 2, 8, 3, 0.75).unwrap();
        let working_set = 3 * choice.tile * choice.tile * 8;
        assert!(working_set <= (2 * 1024 * 1024) as usize);
        assert_eq!(choice.tile % 8, 0);
        assert_eq!(choice.level, 2);
        assert_eq!(choice.cache_size, 2 * 1024 * 1024);
    }

    #[test]
    fn bigger_cache_bigger_tile() {
        let small = profile_with_caches(&[16 * 1024]);
        let large = profile_with_caches(&[64 * 1024]);
        let ts = select_tile(&small, 1, 8, 3, 0.75).unwrap().tile;
        let tl = select_tile(&large, 1, 8, 3, 0.75).unwrap().tile;
        assert!(tl > ts);
    }

    #[test]
    fn missing_level_is_none() {
        let prof = profile_with_caches(&[32 * 1024]);
        assert!(select_tile(&prof, 3, 8, 3, 0.75).is_none());
    }

    #[test]
    fn minimum_tile_is_a_line() {
        let prof = profile_with_caches(&[512]);
        assert_eq!(select_tile(&prof, 1, 8, 3, 0.5).unwrap().tile, 8);
    }
}
