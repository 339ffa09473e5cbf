//! Hardware stride prefetcher model.
//!
//! §III-A of the paper chooses a 1 KB traversal stride precisely because
//! "current prefetchers work with strides up to 256 or 512 bytes": a smaller
//! stride would let the prefetcher hide the very misses mcalibrator needs to
//! observe. This model reproduces that hazard so the ablation benchmark can
//! demonstrate why the 1 KB choice matters.

/// A per-core stride prefetcher.
///
/// After two consecutive accesses with the same non-zero stride whose
/// magnitude is within `max_stride` bytes, the prefetcher is *trained* and
/// the next access at that stride is considered covered (its miss latency is
/// hidden). Crossing to an unrelated address resets training.
#[derive(Debug, Clone)]
pub(crate) struct StridePrefetcher {
    max_stride: i64,
    last_addr: Option<u64>,
    last_stride: i64,
    trained: bool,
}

impl StridePrefetcher {
    /// Create a prefetcher covering strides up to `max_stride` bytes.
    /// `max_stride == 0` disables prefetching entirely.
    pub(crate) fn new(max_stride: usize) -> Self {
        Self {
            max_stride: max_stride as i64,
            last_addr: None,
            last_stride: 0,
            trained: false,
        }
    }

    /// Record an access to `vaddr` and report whether the prefetcher had
    /// already covered it (i.e. its miss cost is hidden).
    pub(crate) fn access(&mut self, vaddr: u64) -> bool {
        let covered = self.trained;
        let stride = match self.last_addr {
            Some(prev) => vaddr as i64 - prev as i64,
            None => 0,
        };
        let in_range = stride != 0 && self.max_stride > 0 && stride.abs() <= self.max_stride;
        // Train when the current stride repeats the previous one.
        self.trained = in_range && stride == self.last_stride;
        self.last_stride = if in_range { stride } else { 0 };
        self.last_addr = Some(vaddr);
        covered && in_range && stride == self.last_stride
    }

    /// Forget all training (e.g. between benchmark phases).
    pub(crate) fn reset(&mut self) {
        self.last_addr = None;
        self.last_stride = 0;
        self.trained = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_stride_stream_gets_covered() {
        let mut p = StridePrefetcher::new(512);
        let mut covered = 0;
        for i in 0..16u64 {
            if p.access(i * 64) {
                covered += 1;
            }
        }
        // First two accesses train; the rest are covered.
        assert!(covered >= 13, "covered = {covered}");
    }

    #[test]
    fn stride_1kb_never_covered() {
        let mut p = StridePrefetcher::new(512);
        for i in 0..32u64 {
            assert!(
                !p.access(i * 1024),
                "1 KB stride must defeat the prefetcher"
            );
        }
    }

    #[test]
    fn boundary_stride_is_covered() {
        let mut p = StridePrefetcher::new(512);
        let mut any = false;
        for i in 0..8u64 {
            any |= p.access(i * 512);
        }
        assert!(any);
    }

    #[test]
    fn disabled_prefetcher_covers_nothing() {
        let mut p = StridePrefetcher::new(0);
        for i in 0..8u64 {
            assert!(!p.access(i * 64));
        }
    }

    #[test]
    fn irregular_pattern_breaks_training() {
        let mut p = StridePrefetcher::new(512);
        p.access(0);
        p.access(64);
        p.access(128); // trained and covered from here
        assert!(p.access(192));
        assert!(!p.access(10_000)); // jump resets
        assert!(!p.access(10_064)); // retraining
        assert!(!p.access(10_128)); // second same-stride access trains
        assert!(p.access(10_192)); // covered again
    }

    #[test]
    fn backward_stride_also_covered() {
        let mut p = StridePrefetcher::new(512);
        let mut covered = 0;
        for i in (0..16u64).rev() {
            if p.access(i * 64) {
                covered += 1;
            }
        }
        assert!(covered >= 13);
    }

    #[test]
    fn reset_forgets_training() {
        let mut p = StridePrefetcher::new(512);
        for i in 0..4u64 {
            p.access(i * 64);
        }
        p.reset();
        assert!(!p.access(256));
        assert!(!p.access(320));
    }
}
