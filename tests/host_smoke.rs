//! Smoke tests of the real-hardware backend: the suite must run to
//! completion on whatever machine executes the tests, even a unicore
//! container. Assertions are deliberately loose — shared CI machines are
//! noisy — but the *plumbing* (benchmark over trait over real kernels) is
//! exercised end to end.

use servet::prelude::*;

#[test]
fn host_mcalibrator_sweep_runs() {
    let mut host = HostPlatform::new();
    // A short sweep (to 2 MB) keeps this test quick.
    let config = McalibratorConfig {
        min_size: 4 * 1024,
        max_size: 2 * 1024 * 1024,
        stride: 1024,
        double_until: 2 * 1024 * 1024,
        linear_step: 1024 * 1024,
        sweep: Sweep::Bracketed,
    };
    let sweep = mcalibrator(&mut host, 0, &config);
    assert_eq!(sweep.len(), config.sizes().len());
    assert!(sweep.cycles.iter().all(|&c| c > 0.0 && c.is_finite()));
}

#[test]
fn host_full_suite_smoke() {
    let mut host = HostPlatform::new().with_core_override(2);
    let config = SuiteConfig {
        mcalibrator: McalibratorConfig {
            min_size: 8 * 1024,
            max_size: 1024 * 1024,
            stride: 1024,
            double_until: 1024 * 1024,
            linear_step: 512 * 1024,
            sweep: Sweep::Bracketed,
        },
        ..SuiteConfig::small(1024 * 1024)
    };
    let report = run_full_suite(&mut host, &config);
    // Every stage ran and produced *something*; exact values depend on
    // the machine.
    assert!(report.profile.shared_caches.is_some());
    assert!(report.profile.memory.is_some());
    assert!(report.profile.communication.is_some());
    assert!(report.timings.total_s() > 0.0);
    // The profile serializes regardless of what was measured.
    let json = report.profile.to_json();
    let back = MachineProfile::from_json(&json).unwrap();
    assert_eq!(back, report.profile);
}

#[test]
fn host_memory_reference_positive() {
    let mut host = HostPlatform::new();
    let reference = host.copy_bandwidth_gbs(&[0])[0];
    assert!(reference > 0.05, "implausibly low bandwidth: {reference}");
}
