//! The sizing table: every number that shapes a workload lives here, and
//! nowhere else. The values are frozen by the change that introduced the
//! benchmark; a later change that edits them has redefined the benchmark
//! and must re-measure its baseline.
//!
//! Every stream has one shape: a *cycle* is one `LearnOnline` followed by
//! `infers_per_learn` `Infer`s, a *segment* is `segment_cycles` cycles. The
//! harness times whole segments until `--seconds` is used up and reports the
//! median of the per-segment values, so a slow program receives fewer
//! segments, never a different mix.

use ofscil::prelude::BackboneKind;

/// Which public entry point carries the workload's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `OFscilModel::{predict, learn_classes_online}` on the calling thread.
    Direct,
    /// `ServeClient::submit` into an in-process `ServeRuntime::run`.
    Serve,
    /// `WireClient::call` over loopback TCP to a journaled, observed
    /// `WireServer`.
    Wire,
    /// `WireClient::call` to a `RouterServer` in front of `ShardProcess`es.
    Routed,
}

/// One row of the sizing table.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Entry point.
    pub path: Path,
    /// Backbone every tenant runs.
    pub backbone: BackboneKind,
    /// Image side (images are `[3, side, side]`).
    pub side: usize,
    /// FCR projection dimensionality d_p.
    pub d_p: usize,
    /// Deployments.
    pub tenants: usize,
    /// Tenant popularity: Zipf exponent (0 draws tenants uniformly).
    pub zipf: f64,
    /// Classes per tenant present before the timed window.
    pub base_classes: usize,
    /// `true`: the base classes are synthetic prototypes written straight
    /// into the explicit memory, every `LearnOnline` teaches a class the
    /// model has never seen and `Infer`s query the classes learned online.
    /// `false`: the base classes are learned from one clean shot each during
    /// set-up, every `LearnOnline` re-learns one of them (so the explicit
    /// memory, and with it the cost of a request, stays the same size for
    /// the whole run) and `Infer`s query any of them.
    pub new_classes: bool,
    /// Support samples per `LearnOnline`.
    pub learn_shots: usize,
    /// `Infer`s after each `LearnOnline`.
    pub infers_per_learn: usize,
    /// Cycles per timed segment at scale 1, sized so a segment lasts about
    /// 3 s on the commit that introduced the benchmark (4.5 s on
    /// `ondevice_fscil`, where a segment is one five-class session).
    pub segment_cycles: usize,
    /// Cycles replayed before the first segment, as warm-up. Part of
    /// `setup_s` (lazy initialisation on a first request must show there),
    /// and kept short: a long warm-up makes `setup_s` a second, noisier
    /// throughput number.
    pub warmup_cycles: usize,
    /// Generator threads (= connections). Never more than 2: the sandbox
    /// has 2 cores and the program needs one.
    pub connections: usize,
    /// Requests each generator thread keeps in flight.
    pub in_flight: usize,
    /// `ServeConfig::max_batch`; everything else is `ServeConfig::default()`.
    pub max_batch: usize,
    /// Percentile reported as `infer_tail_us`: the highest of 0.99 / 0.90
    /// with at least ten samples beyond it in one segment, else 0.50.
    pub infer_tail: f64,
    /// Percentile reported as `learn_tail_us`, same rule.
    pub learn_tail: f64,
    /// Times the fixture is built in one run; `setup_s` is their median.
    pub setups: usize,
    /// `--trace 1`: requests replayed through every rung in one round.
    pub trace_slice: usize,
    /// `--trace 1`: `Infer`s in the saturated burst behind
    /// `serve.mean_batch` and `serve.batch_gain`.
    pub trace_burst: usize,
}

impl Sizing {
    /// Requests in one cycle.
    pub fn cycle(&self) -> usize {
        self.infers_per_learn + 1
    }
}

/// The four workloads, in the order the harness runs them.
pub const WORKLOADS: [Sizing; 4] = [
    Sizing {
        name: "ondevice_fscil",
        path: Path::Direct,
        backbone: BackboneKind::MobileNetV2,
        side: 32,
        d_p: 256,
        tenants: 1,
        zipf: 0.0,
        base_classes: 60,
        new_classes: true,
        learn_shots: 5,
        infers_per_learn: 4,
        segment_cycles: 5,
        warmup_cycles: 1,
        connections: 1,
        in_flight: 1,
        max_batch: 16,
        infer_tail: 0.50,
        learn_tail: 0.50,
        setups: 3,
        trace_slice: 5,
        trace_burst: 8,
    },
    Sizing {
        name: "serve_saturate",
        path: Path::Serve,
        backbone: BackboneKind::Micro,
        side: 8,
        d_p: 32,
        tenants: 2,
        zipf: 0.0,
        base_classes: 20,
        new_classes: false,
        learn_shots: 5,
        infers_per_learn: 127,
        segment_cycles: 192,
        warmup_cycles: 2,
        connections: 1,
        in_flight: 64,
        max_batch: 32,
        infer_tail: 0.99,
        learn_tail: 0.90,
        setups: 9,
        trace_slice: 512,
        trace_burst: 2048,
    },
    Sizing {
        name: "wire_durable_mixed",
        path: Path::Wire,
        backbone: BackboneKind::Micro,
        side: 8,
        d_p: 32,
        tenants: 2,
        zipf: 0.0,
        base_classes: 20,
        new_classes: false,
        learn_shots: 5,
        infers_per_learn: 4,
        segment_cycles: 2000,
        warmup_cycles: 10,
        connections: 2,
        in_flight: 1,
        max_batch: 16,
        infer_tail: 0.90,
        learn_tail: 0.90,
        setups: 9,
        trace_slice: 500,
        trace_burst: 2048,
    },
    Sizing {
        name: "routed_tenants",
        path: Path::Routed,
        backbone: BackboneKind::Micro,
        side: 16,
        d_p: 64,
        tenants: 32,
        zipf: 1.1,
        base_classes: 100,
        new_classes: false,
        learn_shots: 5,
        infers_per_learn: 15,
        segment_cycles: 600,
        warmup_cycles: 16,
        connections: 2,
        in_flight: 1,
        max_batch: 16,
        infer_tail: 0.90,
        learn_tail: 0.90,
        setups: 5,
        trace_slice: 512,
        trace_burst: 1024,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Sizing> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `segment_cycles` (or any count) under `--scale`, rounded to a whole
/// number of connections and never below one per connection.
pub fn scaled(count: usize, scale: f64, connections: usize) -> usize {
    let per_lane = ((count as f64 * scale) / connections as f64).round() as usize;
    per_lane.max(1) * connections
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        for w in &WORKLOADS {
            assert!(w.connections >= 1 && w.connections <= 2, "{}", w.name);
            assert_eq!(w.segment_cycles % w.connections, 0, "{}", w.name);
            assert_eq!(w.warmup_cycles % w.connections, 0, "{}", w.name);
            assert!(by_name(w.name).is_some());
            // The tail percentile must be supported by one segment's sample:
            // at least ten samples beyond it, or it falls back to the median.
            let infers = (w.segment_cycles * w.infers_per_learn) as f64;
            let learns = w.segment_cycles as f64;
            for (tail, n) in [(w.infer_tail, infers), (w.learn_tail, learns)] {
                assert!(
                    tail == 0.5 || n * (1.0 - tail) >= 10.0,
                    "{} tail {tail} n {n}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn scaling_keeps_lanes_even_and_non_empty() {
        assert_eq!(scaled(2000, 1.0, 2), 2000);
        assert_eq!(scaled(2000, 0.1, 2), 200);
        assert_eq!(scaled(5, 0.01, 1), 1);
        assert_eq!(scaled(600, 0.001, 2), 2);
    }
}
