//! Integration tests for the quantized deployment path: int8 weights and
//! activations (Table II INT8 rows) and the prototype-precision sweep
//! (Fig. 3) on a trained model.

use ofscil::prelude::*;

fn fast_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::micro(seed);
    config.fscil.synthetic.num_classes = 16;
    config.fscil.synthetic.image_size = 14;
    config.fscil.num_base_classes = 8;
    config.fscil.num_sessions = 4;
    config.fscil.ways = 2;
    config.fscil.base_train_per_class = 12;
    config.fscil.test_per_class = 6;
    config.pretrain.epochs = 3;
    config.pretrain.batch_size = 16;
    if let Some(meta) = &mut config.metalearn {
        meta.iterations = 8;
    }
    config
}

#[test]
fn int8_accuracy_tracks_fp32_accuracy() {
    let fp32 = run_experiment(&fast_config(21)).unwrap();
    let int8 = run_experiment(&fast_config(21).with_precision(EvalPrecision::Int8)).unwrap();
    assert!(int8.model.is_int8());
    assert!(!fp32.model.is_int8());
    // The paper reports int8 accuracy within a fraction of a percent of fp32;
    // on the micro profile we allow a wider band but no collapse.
    let gap = fp32.sessions.average() - int8.sessions.average();
    assert!(
        gap < 0.15,
        "int8 degraded too much: fp32 {} vs int8 {}",
        fp32.sessions.average(),
        int8.sessions.average()
    );
}

#[test]
fn prototype_precision_sweep_matches_figure3_shape() {
    let outcome = run_experiment(&fast_config(22)).unwrap();
    let mut model = outcome.model;
    let benchmark = outcome.benchmark;
    let test = benchmark
        .test_after_session(benchmark.config().num_sessions)
        .unwrap();

    let mut accuracy_by_bits = Vec::new();
    for precision in PrototypePrecision::figure3_sweep() {
        model.set_prototype_precision(precision);
        let accuracy = model.evaluate(&test, 64).unwrap();
        accuracy_by_bits.push((precision.bits(), accuracy));
    }
    let full = accuracy_by_bits[0].1;
    let at = |bits: u8| {
        accuracy_by_bits
            .iter()
            .find(|(b, _)| *b == bits)
            .map(|(_, a)| *a)
            .unwrap()
    };
    // Fig. 3: 8-bit and even 3-bit prototypes match full precision closely.
    assert!(
        (full - at(8)).abs() < 0.05,
        "8-bit dropped: {} vs {}",
        at(8),
        full
    );
    assert!(full - at(3) < 0.10, "3-bit dropped: {} vs {}", at(3), full);
    // 1-bit (sign-only) storage loses accuracy — in the paper's Fig. 3 it is
    // the first precision that visibly degrades, and with the micro profile's
    // small d_p the sign vectors collide hard. It must merely not fall below
    // chance.
    assert!(at(1) >= 0.8 / 16.0, "1-bit fell below chance: {}", at(1));
    assert!(at(3) >= at(1), "3-bit should be at least as good as 1-bit");
}

#[test]
fn em_footprint_shrinks_linearly_with_bits() {
    let outcome = run_experiment(&fast_config(23)).unwrap();
    let mut model = outcome.model;
    let kb_32 = model.em().footprint().kilobytes();
    model.set_prototype_precision(PrototypePrecision::new(8).unwrap());
    let kb_8 = model.em().footprint().kilobytes();
    model.set_prototype_precision(PrototypePrecision::new(3).unwrap());
    let kb_3 = model.em().footprint().kilobytes();
    assert!((kb_32 / kb_8 - 4.0).abs() < 1e-6);
    assert!((kb_8 / kb_3 - 8.0 / 3.0).abs() < 1e-6);
}

#[test]
fn quantized_tensors_round_trip_through_the_model_feature_path() {
    // The integer matmul of the quant crate agrees with the float path on the
    // features produced by a real (trained) FCR — a cross-crate consistency
    // check of scales and shapes.
    let outcome = run_experiment(&fast_config(24)).unwrap();
    let mut model = outcome.model;
    let benchmark = outcome.benchmark;
    let batch = benchmark.base_train().batch(&[0, 1, 2, 3]).unwrap();
    let features = model.extract_features(&batch.images, Mode::Eval).unwrap();
    let q = QuantTensor::quantize_auto(&features);
    let back = q.dequantize();
    let relative = features.max_abs_diff(&back).unwrap() / features.max_abs().max(1e-6);
    assert!(relative < 0.02, "int8 round trip error {relative}");
}
