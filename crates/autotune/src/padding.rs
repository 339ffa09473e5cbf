//! Padding and alignment advice from the false-sharing sweep.
//!
//! The coherence extension of the suite measures the smallest separation
//! at which two writing cores stop ping-ponging a line
//! ([`servet_core::detect_false_sharing`]). This module turns that measurement
//! into the advice a code generator or runtime acts on: how many bytes
//! to leave between per-thread slots of a shared structure, and what to
//! align those slots to. When a profile predates the sweep (or the
//! machine could not run it) the micro-probe line size stands in, marked
//! as unmeasured so callers can tell a measured cure from a guess.

use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;

/// How per-thread data should be padded on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaddingAdvice {
    /// Bytes to leave between per-thread slots so concurrent writers
    /// never share a line.
    pub pad_bytes: usize,
    /// Recommended slot alignment: `pad_bytes` rounded up to a power of
    /// two, so a slot never straddles the coherence granule.
    pub align_bytes: usize,
    /// Whether the advice comes from the measured false-sharing sweep
    /// (`true`) or fell back to the micro-probe line size (`false`).
    pub measured: bool,
    /// Worst per-access slowdown the sweep observed for unpadded data —
    /// what ignoring this advice costs.
    pub worst_ratio: Option<f64>,
    /// Consumer-side cycles to pull one producer-written line, when the
    /// sweep fitted the §III-D cache-mediated communication model.
    pub handoff_cycles_per_line: Option<f64>,
}

impl PaddingAdvice {
    /// Stride (bytes) for an array of per-thread elements of
    /// `elem_bytes`: the element size rounded up to a multiple of
    /// [`pad_bytes`](Self::pad_bytes).
    pub fn padded_stride(&self, elem_bytes: usize) -> usize {
        let pad = self.pad_bytes.max(1);
        elem_bytes.max(1).div_ceil(pad) * pad
    }
}

/// Derive padding advice from a machine profile.
///
/// Prefers the measured false-sharing sweep; falls back to the
/// micro-probe line size (marked unmeasured). `None` when the profile
/// carries neither — a unicore machine, or a suite run without the
/// coherence extension and micro probes.
pub fn advise_padding(profile: &MachineProfile) -> Option<PaddingAdvice> {
    servet_obs::counter("autotune.padding.calls").incr();
    if let Some(fs) = &profile.false_sharing {
        if let Some(pad) = fs.advised_padding {
            let worst = fs
                .points
                .iter()
                .map(|p| p.ratio)
                .filter(|r| r.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            return Some(PaddingAdvice {
                pad_bytes: pad,
                align_bytes: pad.next_power_of_two(),
                measured: true,
                worst_ratio: (worst > f64::NEG_INFINITY).then_some(worst),
                handoff_cycles_per_line: fs.comm_model.map(|m| m.per_line_cycles),
            });
        }
    }
    let line = profile.line_size()?;
    Some(PaddingAdvice {
        pad_bytes: line,
        align_bytes: line.next_power_of_two(),
        measured: false,
        worst_ratio: None,
        handoff_cycles_per_line: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::MicroProfile;
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};

    fn bare_profile() -> MachineProfile {
        MachineProfile {
            schema_version: servet_core::SCHEMA_VERSION,
            machine: "bare".into(),
            cores_per_node: 4,
            total_cores: 4,
            page_size: 4096,
            mcalibrator: None,
            cache_levels: Vec::new(),
            shared_caches: None,
            memory: None,
            communication: None,
            micro: None,
            false_sharing: None,
        }
    }

    #[test]
    fn measured_sweep_drives_the_advice() {
        let mut p = SimPlatform::tiny().with_noise(0.003);
        let cfg = SuiteConfig {
            run_false_sharing: true,
            skip_comm: true,
            ..SuiteConfig::small(128 * 1024)
        };
        let report = run_full_suite(&mut p, &cfg);
        let advice = advise_padding(&report.profile).expect("sweep ran");
        assert!(advice.measured);
        assert!(advice.pad_bytes >= 64, "{advice:?}");
        assert!(advice.align_bytes >= advice.pad_bytes);
        assert!(advice.align_bytes.is_power_of_two());
        assert!(advice.worst_ratio.unwrap() > 2.0, "{advice:?}");
        assert!(advice.handoff_cycles_per_line.unwrap() > 0.0);
    }

    #[test]
    fn micro_line_size_is_the_fallback() {
        let mut profile = bare_profile();
        profile.micro = Some(MicroProfile {
            line_size: Some(64),
            l1_associativity: None,
            tlb_entries: None,
        });
        let advice = advise_padding(&profile).unwrap();
        assert!(!advice.measured);
        assert_eq!(advice.pad_bytes, 64);
        assert_eq!(advice.worst_ratio, None);
    }

    #[test]
    fn profile_without_either_source_gives_none() {
        assert_eq!(advise_padding(&bare_profile()), None);
    }

    #[test]
    fn padded_stride_rounds_up() {
        let advice = PaddingAdvice {
            pad_bytes: 64,
            align_bytes: 64,
            measured: true,
            worst_ratio: None,
            handoff_cycles_per_line: None,
        };
        assert_eq!(advice.padded_stride(1), 64);
        assert_eq!(advice.padded_stride(64), 64);
        assert_eq!(advice.padded_stride(65), 128);
    }
}
