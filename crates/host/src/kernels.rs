//! Measurement kernels for the host backend.
//!
//! These are the paper's actual measured loops:
//!
//! * [`strided_traversal_ns`] — the Fig. 1 kernel. The stride is **stored
//!   in the array** (`j += a[j]`), exactly as the paper prescribes "to
//!   avoid aggressive compiler optimizations": the compiler cannot know
//!   the stride, so it cannot vectorize or elide the loads, and each load
//!   depends on the previous one.
//! * [`copy_bandwidth_gbs`] — a STREAM-like copy (§III-C cites STREAM as
//!   the model for the bandwidth measurement).
//! * [`PingPong`] — a two-thread message bounce over rendezvous channels,
//!   standing in for MPI point-to-point over shared memory.

use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Minimum measured time per kernel invocation; repetitions scale until a
/// measurement lasts this long, keeping timer noise below ~1 %.
const MIN_MEASURE_NS: u128 = 2_000_000;

/// Average nanoseconds per access of a strided traversal over a
/// `size`-byte array, stride `stride` bytes.
///
/// One warm-up pass precedes timing; timed passes repeat until the
/// measurement is long enough to trust.
pub fn strided_traversal_ns(size: usize, stride: usize) -> f64 {
    assert!(stride >= std::mem::size_of::<usize>());
    let elems = (size / std::mem::size_of::<usize>()).max(1);
    let stride_elems = stride / std::mem::size_of::<usize>();
    // Each visited element stores the stride, read back as the increment —
    // the paper's `A[j] = the amount of integers stored in 1KB`.
    let mut a = vec![0usize; elems];
    let mut j = 0usize;
    while j < elems {
        a[j] = stride_elems;
        j += stride_elems;
    }
    let accesses_per_pass = elems.div_ceil(stride_elems);

    let run_pass = |a: &[usize]| -> usize {
        let mut aux = 0usize;
        let mut j = 0usize;
        while j < elems {
            aux = aux.wrapping_add(elems);
            j += a[j];
        }
        aux
    };
    // Warm-up.
    black_box(run_pass(&a));
    let mut passes = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..passes {
            black_box(run_pass(black_box(&a)));
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= MIN_MEASURE_NS {
            servet_obs::counter("host.kernel.traversals").incr();
            servet_obs::histogram("host.kernel.traversal_ns")
                .record(elapsed.min(u64::MAX as u128) as u64);
            return elapsed as f64 / (passes * accesses_per_pass) as f64;
        }
        passes *= 2;
    }
}

/// Average nanoseconds per access chasing a pointer chain that visits the
/// given **distinct** byte offsets in order — the prefetcher-proof pattern
/// kernel behind the line-size and associativity probes.
///
/// The chain is embedded in the array itself (`j = a[j]`), so every load
/// depends on the previous one and the compiler can neither reorder nor
/// elide them; the access order is the caller's, which defeats stride
/// prefetchers that a sequential sweep would train.
pub fn pattern_chase_ns(size: usize, offsets: &[u64]) -> f64 {
    let (a, idx) = link_chain(size, offsets);
    let steps = offsets.len();
    let run_pass = |a: &[usize], start: usize| -> usize {
        let mut j = start;
        for _ in 0..steps {
            j = a[j];
        }
        j
    };
    black_box(run_pass(&a, idx[0]));
    let mut passes = 1usize;
    loop {
        let start = Instant::now();
        let mut j = idx[0];
        for _ in 0..passes {
            j = run_pass(black_box(&a), j);
        }
        black_box(j);
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= MIN_MEASURE_NS {
            return elapsed as f64 / (passes * steps) as f64;
        }
        passes *= 2;
    }
}

/// The chain [`pattern_chase_ns`] walks: a `size`-byte array in which the
/// element at each offset holds the index of the next offset's element
/// (the last links back to the first), and those element indices in order.
fn link_chain(size: usize, offsets: &[u64]) -> (Vec<usize>, Vec<usize>) {
    assert!(!offsets.is_empty());
    let elems = (size / std::mem::size_of::<usize>()).max(1);
    let mut a = vec![0usize; elems];
    let idx: Vec<usize> = offsets
        .iter()
        .map(|&o| (o as usize / std::mem::size_of::<usize>()).min(elems - 1))
        .collect();
    for w in idx.windows(2) {
        a[w[0]] = w[1];
    }
    a[*idx.last().expect("non-empty")] = idx[0];
    (a, idx)
}

/// STREAM-like copy bandwidth in GB/s using `buf_bytes` source and
/// destination buffers (should exceed every cache level several times
/// over). Counts read + write traffic, as STREAM does.
pub fn copy_bandwidth_gbs(buf_bytes: usize) -> f64 {
    let elems = (buf_bytes / 8).max(1);
    let src = vec![1.0f64; elems];
    let mut dst = vec![0.0f64; elems];
    // Warm-up.
    dst.copy_from_slice(&src);
    black_box(&dst);
    let mut reps = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= MIN_MEASURE_NS * 5 {
            servet_obs::counter("host.kernel.copies").incr();
            servet_obs::histogram("host.kernel.copy_ns")
                .record(elapsed.min(u64::MAX as u128) as u64);
            let bytes = 2.0 * (elems * 8) as f64 * reps as f64;
            return bytes / elapsed as f64; // bytes/ns == GB/s
        }
        reps *= 2;
    }
}

/// A two-thread ping-pong: thread A sends a `size`-byte message to thread
/// B, B copies it into its own buffer and bounces it back. Mean one-way
/// latency emulates an MPI shared-memory transfer.
pub struct PingPong {
    to_b: SyncSender<Box<[u8]>>,
    from_b: Receiver<Box<[u8]>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PingPong {
    /// Spawn the partner thread, optionally pinned to `core_b`.
    pub fn new(size: usize, core_b: Option<usize>) -> Self {
        let (to_b, rx_b) = sync_channel::<Box<[u8]>>(1);
        let (tx_back, from_b) = sync_channel::<Box<[u8]>>(1);
        let handle = std::thread::spawn(move || {
            if let Some(c) = core_b {
                crate::affinity::pin_to_core(c);
            }
            let mut local = vec![0u8; size].into_boxed_slice();
            while let Ok(msg) = rx_b.recv() {
                // Receive = copy into the receiver's buffer.
                local.copy_from_slice(&msg);
                black_box(&local);
                if tx_back.send(msg).is_err() {
                    break;
                }
            }
        });
        Self {
            to_b,
            from_b,
            handle: Some(handle),
        }
    }

    /// Mean one-way latency in µs over `reps` round trips.
    pub fn latency_us(&mut self, size: usize, reps: usize) -> f64 {
        assert!(reps > 0);
        let mut msg = vec![0u8; size].into_boxed_slice();
        // Warm-up round trip.
        self.to_b.send(msg).expect("partner alive");
        msg = self.from_b.recv().expect("partner alive");
        let start = Instant::now();
        for _ in 0..reps {
            self.to_b.send(msg).expect("partner alive");
            msg = self.from_b.recv().expect("partner alive");
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        black_box(&msg);
        elapsed / (2.0 * reps as f64) / 1000.0
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        // Closing the channel stops the partner loop.
        let (dead_tx, _) = sync_channel(1);
        self.to_b = dead_tx;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_returns_positive_time() {
        let ns = strided_traversal_ns(64 * 1024, 1024);
        assert!(ns > 0.0 && ns < 10_000.0, "ns = {ns}");
    }

    #[test]
    fn traversal_large_is_not_faster_than_tiny() {
        // 4 KB fits every L1; 64 MB fits no cache. Per-access time should
        // rise (with margin for shared-runner noise).
        let small = strided_traversal_ns(4 * 1024, 1024);
        let large = strided_traversal_ns(64 * 1024 * 1024, 1024);
        assert!(
            large > small,
            "cache effect invisible: small {small} ns, large {large} ns"
        );
    }

    /// 64 lines of a 64 KB array, and 16 384 scattered pages of a 64 MB one.
    fn chase_patterns() -> [(usize, Vec<u64>); 2] {
        let small = (0..64u64).map(|i| i * 1024).collect();
        let large = (0..16_384u64)
            .map(|i| (i * 7919 + 13) % 16_384 * 4096)
            .collect();
        [(64 * 1024, small), (64 * 1024 * 1024, large)]
    }

    #[test]
    fn pattern_chase_visits_offsets() {
        for (size, offsets) in chase_patterns() {
            let (a, idx) = link_chain(size, &offsets);
            let mut seen = vec![false; a.len()];
            let mut j = idx[0];
            for (step, &offset) in offsets.iter().enumerate() {
                assert_eq!(
                    j * std::mem::size_of::<usize>(),
                    offset as usize,
                    "step {step}"
                );
                assert!(
                    !std::mem::replace(&mut seen[j], true),
                    "step {step} revisits {j}"
                );
                j = a[j];
            }
            assert_eq!(j, idx[0], "the walk must return to its start");
        }
    }

    #[test]
    fn pattern_chase_is_slower_out_of_cache() {
        // Chasing 64 lines of a small array is fast; scattered pages of a
        // huge one miss every cache. One wall-clock comparison on a shared
        // host can lose to a neighbour, so any of five attempts may show it.
        let [(small_size, small), (large_size, large)] = chase_patterns();
        let mut seen = Vec::new();
        for _ in 0..5 {
            let fast = pattern_chase_ns(small_size, &small);
            let slow = pattern_chase_ns(large_size, &large);
            if fast > 0.0 && slow > fast {
                return;
            }
            seen.push((fast, slow));
        }
        panic!("cache effect invisible in five attempts (small, large) ns: {seen:?}");
    }

    #[test]
    fn copy_bandwidth_positive() {
        let bw = copy_bandwidth_gbs(32 * 1024 * 1024);
        assert!(bw > 0.05 && bw < 1000.0, "bw = {bw} GB/s");
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut pp = PingPong::new(4096, None);
        let lat = pp.latency_us(4096, 64);
        assert!(lat > 0.0 && lat < 10_000.0, "lat = {lat} µs");
    }

    #[test]
    fn ping_pong_larger_messages_cost_more() {
        let mut small = PingPong::new(64, None);
        let mut large = PingPong::new(4 * 1024 * 1024, None);
        let ls = small.latency_us(64, 64);
        let ll = large.latency_us(4 * 1024 * 1024, 16);
        assert!(ll > ls, "small {ls} µs vs large {ll} µs");
    }
}
