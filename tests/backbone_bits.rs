//! Golden backbone bits: every f32 a backbone produces, pinned by the
//! FNV-1a 64 hash of its bit patterns, so a change to a layer's arithmetic
//! or memory layout that moves a single bit fails here by name.
//!
//! Three things are pinned:
//! * the eval features of all five backbones at batch 1 and 3;
//! * one training forward + backward of MobileNetV2, ResNet-12 and Micro at
//!   batch 2: the input gradient, every trainable parameter's gradient and
//!   every BN running statistic, in `visit_params` order;
//! * the GAP9 deployment rows (`deploy_backbone`) of each backbone.
//!
//! Gradients are read through one plain SGD step (learning rate 1, no
//! momentum or decay) over zeroed values, which leaves exactly `-grad` in
//! each value. A rank-2 parameter is hashed in its `[long, short]`
//! orientation, so a layer that changes whether it stores a weight or its
//! transpose keeps its pin while every value's position stays pinned.

use ofscil::gap9::deploy_backbone;
use ofscil::nn::models::BackboneKind;
use ofscil::nn::optim::Sgd;
use ofscil::nn::{Layer, Mode};
use ofscil::tensor::bytes::fnv1a64;
use ofscil::tensor::{SeedRng, Tensor};

const KINDS: [BackboneKind; 5] = [
    BackboneKind::MobileNetV2,
    BackboneKind::MobileNetV2X2,
    BackboneKind::MobileNetV2X4,
    BackboneKind::ResNet12,
    BackboneKind::Micro,
];

/// The golden hashes, captured before the MobileNetV2 blocks moved to
/// pixel-major rows. Refresh only for a change that means to move bits.
const GOLDEN: &[(&str, u64)] = &[
    ("MobileNetV2 b1", 0x274e17f784d8dd0e),
    ("MobileNetV2 b3", 0xde835af5e3560225),
    ("MobileNetV2 x2 b1", 0x96609128af07035d),
    ("MobileNetV2 x2 b3", 0x243f2b2a821cc2a5),
    ("MobileNetV2 x4 b1", 0xe3ef0351733b4cc8),
    ("MobileNetV2 x4 b3", 0xabeb4c11b913af90),
    ("ResNet12 b1", 0x3c2189a2fda877d3),
    ("ResNet12 b3", 0x11fd88ea9f577c7f),
    ("Micro b1", 0x75ece255359307ad),
    ("Micro b3", 0x98c4311df84fb7b2),
    ("MobileNetV2 grad_input", 0x0628c58815141bbb),
    ("MobileNetV2 param grads", 0xbfc1c75d95cc9c8a),
    ("MobileNetV2 running stats", 0x26c578792920ed13),
    ("ResNet12 grad_input", 0x7558276e9779b05e),
    ("ResNet12 param grads", 0xa7e2fc2248827e96),
    ("ResNet12 running stats", 0xcf1e3047ccc32156),
    ("Micro grad_input", 0x96719482060e1410),
    ("Micro param grads", 0xf9a43296a07bc40a),
    ("Micro running stats", 0xac6b7fdee1e30358),
    ("MobileNetV2 deploy", 0x1ed4e485489ba347),
    ("MobileNetV2 x2 deploy", 0xe59fc10d2af98973),
    ("MobileNetV2 x4 deploy", 0xd0ae0a972b50b53f),
    ("ResNet12 deploy", 0xe8f40085224e3edd),
    ("Micro deploy", 0xa2a143305d6c7ed7),
];

/// The input side of every forward: the paper's 32×32, except ResNet-12,
/// whose 525 M MACs per 32×32 image would dominate an unoptimised test build.
fn side(kind: BackboneKind) -> usize {
    match kind {
        BackboneKind::ResNet12 => 16,
        _ => 32,
    }
}

fn seeded(rng: &mut SeedRng, dims: &[usize]) -> Tensor {
    let data = (0..dims.iter().product()).map(|_| rng.normal()).collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn hash(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// A parameter's values, a rank-2 one in its `[long, short]` orientation.
fn canonical(value: &Tensor) -> Vec<f32> {
    match value.dims() {
        [rows, cols] if rows < cols => value.transpose().unwrap().as_slice().to_vec(),
        _ => value.as_slice().to_vec(),
    }
}

fn eval_features(kind: BackboneKind, batch: usize) -> u64 {
    let mut rng = SeedRng::new(41);
    let mut backbone = kind.build(&mut rng);
    let s = side(kind);
    let images = seeded(&mut rng, &[batch, 3, s, s]);
    let features = backbone.forward(&images, Mode::Eval).unwrap();
    assert_eq!(features.dims(), &[batch, backbone.feature_dim]);
    hash(features.as_slice())
}

/// One training step at batch 2: the hashes of the input gradient, of every
/// trainable parameter's gradient and of every running statistic.
fn train_step(kind: BackboneKind) -> [u64; 3] {
    let mut rng = SeedRng::new(42);
    let mut backbone = kind.build(&mut rng);
    let s = side(kind);
    let images = seeded(&mut rng, &[2, 3, s, s]);
    let features = backbone.forward(&images, Mode::Train).unwrap();
    let upstream = seeded(&mut rng, features.dims());
    let grad_input = backbone.backward(&upstream).unwrap();
    assert_eq!(grad_input.dims(), images.dims());

    backbone.net.visit_params(&mut |p| {
        if p.trainable {
            p.value.fill(0.0);
        }
    });
    Sgd::new(1.0, 0.0, 0.0).step(&mut backbone.net);
    let (mut grads, mut stats) = (Vec::new(), Vec::new());
    backbone.net.visit_params(&mut |p| {
        let out = if p.trainable { &mut grads } else { &mut stats };
        out.extend(canonical(&p.value));
    });
    [hash(grad_input.as_slice()), hash(&grads), hash(&stats)]
}

fn deployment(kind: BackboneKind) -> u64 {
    let backbone = kind.build(&mut SeedRng::new(43));
    let mut bytes = Vec::new();
    for layer in deploy_backbone(&backbone, 32, 32).layers {
        bytes.extend_from_slice(layer.name.as_bytes());
        for count in [
            layer.macs,
            layer.weight_bytes,
            layer.input_bytes,
            layer.output_bytes,
            layer.parallel_units,
        ] {
            bytes.extend_from_slice(&count.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn eval_features_keep_their_bits() {
    let mut actual = Vec::new();
    for kind in KINDS {
        for batch in [1, 3] {
            actual.push((
                format!("{} b{batch}", kind.label()),
                eval_features(kind, batch),
            ));
        }
    }
    check(&actual);
}

#[test]
fn one_training_step_keeps_its_bits() {
    let mut actual = Vec::new();
    for kind in [
        BackboneKind::MobileNetV2,
        BackboneKind::ResNet12,
        BackboneKind::Micro,
    ] {
        let [input, grads, stats] = train_step(kind);
        let label = kind.label();
        actual.push((format!("{label} grad_input"), input));
        actual.push((format!("{label} param grads"), grads));
        actual.push((format!("{label} running stats"), stats));
    }
    check(&actual);
}

#[test]
fn deployment_rows_keep_their_bits() {
    let actual: Vec<_> = KINDS
        .iter()
        .map(|&kind| (format!("{} deploy", kind.label()), deployment(kind)))
        .collect();
    check(&actual);
}

/// Compares a test's rows with the golden rows of the same names.
fn check(actual: &[(String, u64)]) {
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .filter(|(name, _)| actual.iter().any(|(n, _)| n == name))
        .map(|&(n, h)| (n.to_string(), h))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(
        actual == expected.as_slice(),
        "backbone bits moved; this test's rows are now:\n{table}"
    );
}
