//! [`Platform`] implementation over the host kernels.

use crate::affinity;
use crate::kernels;
use servet_core::platform::{CoreId, Platform, TraverseJob};
use std::sync::Barrier;
use std::time::Instant;

/// The machine this process runs on, as a Servet measurement target.
///
/// Cache benchmarks are meaningful everywhere; pair benchmarks require the
/// process to actually own multiple cores (check [`HostPlatform::num_cores`]).
pub struct HostPlatform {
    name: String,
    cores: usize,
    page_size: usize,
    pin: bool,
    started: Instant,
}

impl Default for HostPlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl HostPlatform {
    /// Detect the current machine.
    pub fn new() -> Self {
        let cores = affinity::available_cores();
        Self {
            name: format!("host({cores} cores)"),
            cores,
            page_size: affinity::page_size(),
            pin: cores > 1,
            started: Instant::now(),
        }
    }

    /// Pretend the machine has `cores` cores (testing aid: lets the pair
    /// benchmarks run as time-sliced threads on fewer physical cores).
    pub fn with_core_override(mut self, cores: usize) -> Self {
        self.cores = cores;
        self.pin = false;
        self
    }

    fn maybe_pin(&self, core: CoreId) {
        if self.pin {
            affinity::pin_to_core(core);
        }
    }
}

impl Platform for HostPlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_cores(&self) -> usize {
        self.cores
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
        self.maybe_pin(core);
        kernels::strided_traversal_ns(size, stride)
    }

    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64> {
        let barrier = Barrier::new(jobs.len());
        let pin = self.pin;
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(core, size)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        if pin {
                            affinity::pin_to_core(core);
                        }
                        barrier.wait();
                        kernels::strided_traversal_ns(size, stride)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traversal thread panicked"))
                .collect()
        })
    }

    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
        // Buffers several times larger than any plausible cache.
        let buf = 32 * 1024 * 1024;
        let barrier = Barrier::new(active.len());
        let pin = self.pin;
        std::thread::scope(|s| {
            let handles: Vec<_> = active
                .iter()
                .map(|&core| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        if pin {
                            affinity::pin_to_core(core);
                        }
                        barrier.wait();
                        kernels::copy_bandwidth_gbs(buf)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("copy thread panicked"))
                .collect()
        })
    }

    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64 {
        self.maybe_pin(core);
        kernels::pattern_chase_ns(size, offsets)
    }

    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64 {
        self.maybe_pin(a);
        let core_b = if self.pin { Some(b) } else { None };
        let mut pp = kernels::PingPong::new(size, core_b);
        pp.latency_us(size, 200)
    }

    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64> {
        let barrier = Barrier::new(pairs.len());
        let pin = self.pin;
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(a, b)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        if pin {
                            affinity::pin_to_core(a);
                        }
                        let core_b = if pin { Some(b) } else { None };
                        let mut pp = kernels::PingPong::new(size, core_b);
                        barrier.wait();
                        pp.latency_us(size, 100)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("message thread panicked"))
                .collect()
        })
    }

    fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_something() {
        let p = HostPlatform::new();
        assert!(p.num_cores() >= 1);
        assert!(p.page_size().is_power_of_two());
        assert!(p.name().starts_with("host("));
    }

    #[test]
    fn traverse_measures() {
        let mut p = HostPlatform::new();
        let t = p.traverse_cycles(0, 64 * 1024, 1024);
        assert!(t > 0.0);
        let before = p.elapsed_seconds();
        p.traverse_cycles(0, 64 * 1024, 1024);
        assert!(p.elapsed_seconds() > before);
    }

    #[test]
    fn concurrent_traverse_returns_per_job() {
        let mut p = HostPlatform::new().with_core_override(2);
        let r = p.traverse_concurrent_cycles(&[(0, 32 * 1024), (1, 32 * 1024)], 1024);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn copy_bandwidth_per_core() {
        let mut p = HostPlatform::new().with_core_override(2);
        let r = p.copy_bandwidth_gbs(&[0, 1]);
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn messaging_smoke() {
        let mut p = HostPlatform::new().with_core_override(2);
        assert!(p.supports_messaging());
        let lat = p.message_latency_us(0, 1, 1024);
        assert!(lat > 0.0);
        let lats = p.concurrent_message_latency_us(&[(0, 1)], 1024);
        assert_eq!(lats.len(), 1);
    }
}
