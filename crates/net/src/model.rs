//! Per-layer piecewise latency models.
//!
//! Real MPI implementations on multicore clusters switch protocols with
//! message size (eager below a threshold, rendezvous above) and change
//! effective bandwidth when transfers stop fitting in shared caches. The
//! paper's §III-D argues that this piecewise structure is exactly why the
//! classic single-line models (Hockney, LogP) "show poor accuracy on current
//! communication middleware on multicore clusters" — so the simulator's
//! ground truth is built piecewise, and the Servet benchmark characterizes
//! it empirically, segment by segment.

use crate::topology::Layer;
use serde::{Deserialize, Serialize};

/// One protocol segment: for message sizes up to `max_size` bytes, latency
/// is `base_us + size * per_byte_ns / 1000` microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSegment {
    /// Largest message size (bytes, inclusive) this segment covers.
    pub max_size: usize,
    /// Fixed startup cost in microseconds.
    pub base_us: f64,
    /// Marginal cost per byte in nanoseconds.
    pub per_byte_ns: f64,
}

impl ProtocolSegment {
    /// Latency of a `size`-byte message under this segment, in µs.
    pub(crate) fn latency_us(&self, size: usize) -> f64 {
        self.base_us + size as f64 * self.per_byte_ns / 1000.0
    }
}

/// Piecewise latency model of one communication layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerModel {
    /// Segments ordered by `max_size`; the last one must cover `usize::MAX`.
    pub segments: Vec<ProtocolSegment>,
}

impl LayerModel {
    /// Build from segments; panics if unordered or not covering all sizes
    /// (models are compiled-in presets, not user input).
    pub fn new(segments: Vec<ProtocolSegment>) -> Self {
        assert!(!segments.is_empty(), "layer model needs segments");
        for w in segments.windows(2) {
            assert!(w[0].max_size < w[1].max_size, "segments out of order");
        }
        assert_eq!(
            segments.last().unwrap().max_size,
            usize::MAX,
            "last segment must be unbounded"
        );
        Self { segments }
    }

    /// The segment serving a `size`-byte message.
    pub(crate) fn segment_for(&self, size: usize) -> &ProtocolSegment {
        self.segments
            .iter()
            .find(|s| size <= s.max_size)
            .expect("last segment is unbounded")
    }

    /// Latency of a `size`-byte message, in µs.
    pub(crate) fn latency_us(&self, size: usize) -> f64 {
        self.segment_for(size).latency_us(size)
    }

    /// Effective bandwidth of a `size`-byte message, in GB/s.
    #[cfg(test)]
    pub(crate) fn bandwidth_gbs(&self, size: usize) -> f64 {
        if size == 0 {
            return 0.0;
        }
        size as f64 / (self.latency_us(size) * 1000.0)
    }
}

/// The complete communication model of a cluster: one [`LayerModel`] per
/// layer present, plus measurement jitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    layers: Vec<(Layer, LayerModel)>,
    /// Relative measurement jitter applied deterministically per
    /// `(pair, size)` query, so repeated benchmark trials look realistic
    /// without breaking reproducibility.
    pub jitter: f64,
}

impl CommModel {
    /// Build from `(layer, model)` pairs.
    pub fn new(layers: Vec<(Layer, LayerModel)>, jitter: f64) -> Self {
        assert!(!layers.is_empty());
        Self { layers, jitter }
    }

    /// The model for `layer`; panics if the cluster preset lacks it —
    /// topology and model presets are built together.
    pub(crate) fn layer(&self, layer: Layer) -> &LayerModel {
        &self
            .layers
            .iter()
            .find(|(l, _)| *l == layer)
            .unwrap_or_else(|| panic!("no model for layer {layer:?}"))
            .1
    }

    /// Noise-free latency for a message over `layer`.
    pub(crate) fn latency_us(&self, layer: Layer, size: usize) -> f64 {
        self.layer(layer).latency_us(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_model() -> LayerModel {
        LayerModel::new(vec![
            ProtocolSegment {
                max_size: 64 * 1024,
                base_us: 1.0,
                per_byte_ns: 0.2,
            },
            ProtocolSegment {
                max_size: usize::MAX,
                base_us: 5.0,
                per_byte_ns: 0.4,
            },
        ])
    }

    #[test]
    fn latency_within_segment_is_linear() {
        let m = simple_model();
        assert!((m.latency_us(0) - 1.0).abs() < 1e-12);
        assert!((m.latency_us(1000) - 1.2).abs() < 1e-12);
        assert!((m.latency_us(10_000) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn protocol_switch_jumps() {
        let m = simple_model();
        let before = m.latency_us(64 * 1024);
        let after = m.latency_us(64 * 1024 + 1);
        assert!(after > before, "rendezvous switch should cost");
    }

    #[test]
    fn bandwidth_rises_and_saturates() {
        let m = simple_model();
        let small = m.bandwidth_gbs(64);
        let large = m.bandwidth_gbs(16 * 1024 * 1024);
        assert!(small < large);
        // Asymptote of the large segment: 1/0.4 ns per byte = 2.5 GB/s.
        assert!((large - 2.5).abs() < 0.1, "large = {large}");
        assert_eq!(m.bandwidth_gbs(0), 0.0);
    }

    #[test]
    fn segment_selection_boundary_inclusive() {
        let m = simple_model();
        assert_eq!(m.segment_for(64 * 1024).max_size, 64 * 1024);
        assert_eq!(m.segment_for(64 * 1024 + 1).max_size, usize::MAX);
    }

    #[test]
    #[should_panic]
    fn unordered_segments_panic() {
        LayerModel::new(vec![
            ProtocolSegment {
                max_size: usize::MAX,
                base_us: 1.0,
                per_byte_ns: 0.1,
            },
            ProtocolSegment {
                max_size: 10,
                base_us: 1.0,
                per_byte_ns: 0.1,
            },
        ]);
    }

    #[test]
    #[should_panic]
    fn unbounded_tail_required() {
        LayerModel::new(vec![ProtocolSegment {
            max_size: 1024,
            base_us: 1.0,
            per_byte_ns: 0.1,
        }]);
    }

    #[test]
    fn comm_model_lookup() {
        let cm = CommModel::new(
            vec![
                (Layer::SharedCache, simple_model()),
                (Layer::IntraNode, simple_model()),
            ],
            0.02,
        );
        assert!((cm.latency_us(Layer::SharedCache, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn missing_layer_panics() {
        let cm = CommModel::new(vec![(Layer::SharedCache, simple_model())], 0.0);
        cm.layer(Layer::InterNode);
    }
}
