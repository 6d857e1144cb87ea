//! The convolution shapes of the two backbones the workloads run, and a
//! *kernel replay*: the same `im2col` and `matmul` calls a forward pass
//! makes, on operands of the same shapes, with nothing around them. The
//! replay is the lowest rung of the trace ladder — `Backbone::forward` minus
//! the replay is what `nn` itself costs (batch-norm, activations, residual
//! adds, copies).
//!
//! The tables are written out here rather than read from the models because
//! `nn` exposes only whole-block summaries. A self-test pins their MAC
//! totals to `Backbone::macs`, so a model change that alters a shape fails
//! the test instead of silently replaying the wrong kernels.

use ofscil::prelude::{BackboneKind, SeedRng, Tensor};
use ofscil::tensor::{im2col, Conv2dGeometry};

/// One convolution of a backbone, at the spatial size it runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels (= groups for a depthwise convolution).
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Input height = width.
    pub in_side: usize,
    /// Depthwise: one `[1, k²] × [k², pixels]` product per channel.
    pub depthwise: bool,
}

impl ConvShape {
    fn geometry(&self) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_side,
            self.in_side,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Output height = width.
    pub fn out_side(&self) -> usize {
        self.geometry().out_h()
    }

    /// Multiply-accumulates for one image.
    pub fn macs(&self) -> u64 {
        let pixels = (self.out_side() * self.out_side()) as u64;
        let k2 = (self.kernel * self.kernel) as u64;
        if self.depthwise {
            self.in_channels as u64 * k2 * pixels
        } else {
            (self.in_channels * self.out_channels) as u64 * k2 * pixels
        }
    }
}

/// The convolutions of `kind` on a `[3, side, side]` image, in execution
/// order. Supports the two backbones the sizing table uses.
pub fn conv_shapes(kind: BackboneKind, side: usize) -> Vec<ConvShape> {
    let mut shapes = Vec::new();
    let mut at = side;
    let push = |shapes: &mut Vec<ConvShape>, shape: ConvShape| {
        let out = shape.out_side();
        shapes.push(shape);
        out
    };
    let dense = |cin, cout, kernel, stride, padding, in_side| ConvShape {
        in_channels: cin,
        out_channels: cout,
        kernel,
        stride,
        padding,
        in_side,
        depthwise: false,
    };
    match kind {
        BackboneKind::Micro => {
            let mut cin = 3;
            for cout in [16, 32, 64] {
                at = push(&mut shapes, dense(cin, cout, 3, 2, 1, at));
                cin = cout;
            }
        }
        BackboneKind::MobileNetV2 => {
            // Sandler et al. (2018): (expansion, channels, repeats), with the
            // paper's x1 stride profile; stride-1 stem for 32×32 inputs.
            const STAGES: [(usize, usize, usize, usize); 7] = [
                (1, 16, 1, 1),
                (6, 24, 2, 2),
                (6, 32, 3, 2),
                (6, 64, 4, 2),
                (6, 96, 3, 1),
                (6, 160, 3, 2),
                (6, 320, 1, 1),
            ];
            at = push(&mut shapes, dense(3, 32, 3, 1, 1, at));
            let mut cin = 32;
            for (expansion, cout, repeats, stage_stride) in STAGES {
                for repeat in 0..repeats {
                    let stride = if repeat == 0 { stage_stride } else { 1 };
                    let hidden = cin * expansion;
                    if expansion != 1 {
                        at = push(&mut shapes, dense(cin, hidden, 1, 1, 0, at));
                    }
                    at = push(
                        &mut shapes,
                        ConvShape {
                            depthwise: true,
                            ..dense(hidden, hidden, 3, stride, 1, at)
                        },
                    );
                    at = push(&mut shapes, dense(hidden, cout, 1, 1, 0, at));
                    cin = cout;
                }
            }
            push(&mut shapes, dense(cin, 1280, 1, 1, 0, at));
        }
        other => panic!("no convolution table for {other:?}"),
    }
    shapes
}

/// A tensor of standard-normal values.
pub fn random_tensor(rng: &mut SeedRng, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec((0..len).map(|_| rng.normal()).collect(), dims).expect("length matches dims")
}

/// Operands for replaying one backbone's kernels.
#[derive(Debug)]
pub struct Replay {
    ops: Vec<ReplayOp>,
    /// Multiply-accumulates one replay performs.
    pub macs: u64,
}

#[derive(Debug)]
struct ReplayOp {
    geometry: Conv2dGeometry,
    /// `[channels, h, w]` for a dense convolution, `[1, h, w]` (used once per
    /// channel) for a depthwise one.
    input: Tensor,
    im2col_channels: usize,
    /// `[out, in·k²]`, or `[1, k²]` for depthwise.
    weight: Tensor,
    /// The patch matrix `im2col` produces, kept so the matmul-only replay
    /// needs no im2col.
    cols: Tensor,
    /// How many times the (im2col, matmul) pair runs: channels for a
    /// depthwise convolution, once otherwise.
    repeats: usize,
}

impl Replay {
    /// Builds random operands for every convolution of `kind` at `side`.
    pub fn new(kind: BackboneKind, side: usize) -> Replay {
        let mut rng = SeedRng::new(0x6b65_726e);
        let mut random = |dims: &[usize]| random_tensor(&mut rng, dims);
        let shapes = conv_shapes(kind, side);
        let macs = shapes.iter().map(ConvShape::macs).sum();
        let ops = shapes
            .iter()
            .map(|s| {
                let geometry = s.geometry();
                let k2 = s.kernel * s.kernel;
                let (im2col_channels, weight, repeats) = if s.depthwise {
                    (1, random(&[1, k2]), s.in_channels)
                } else {
                    (
                        s.in_channels,
                        random(&[s.out_channels, s.in_channels * k2]),
                        1,
                    )
                };
                let input = random(&[im2col_channels, s.in_side, s.in_side]);
                let cols = im2col(&input, im2col_channels, &geometry).expect("valid geometry");
                ReplayOp {
                    geometry,
                    input,
                    im2col_channels,
                    weight,
                    cols,
                    repeats,
                }
            })
            .collect();
        Replay { ops, macs }
    }

    /// Every `im2col` call of one forward pass.
    pub fn im2col_only(&self) {
        for op in &self.ops {
            for _ in 0..op.repeats {
                std::hint::black_box(
                    im2col(
                        std::hint::black_box(&op.input),
                        op.im2col_channels,
                        &op.geometry,
                    )
                    .expect("valid geometry"),
                );
            }
        }
    }

    /// Every `matmul` call of one forward pass.
    pub fn matmul_only(&self) {
        for op in &self.ops {
            for _ in 0..op.repeats {
                std::hint::black_box(
                    op.weight
                        .matmul(std::hint::black_box(&op.cols))
                        .expect("conforming shapes"),
                );
            }
        }
    }

    /// Both, interleaved per layer as a forward pass does.
    pub fn run(&self) {
        for op in &self.ops {
            for _ in 0..op.repeats {
                let cols = im2col(
                    std::hint::black_box(&op.input),
                    op.im2col_channels,
                    &op.geometry,
                )
                .expect("valid geometry");
                std::hint::black_box(op.weight.matmul(&cols).expect("conforming shapes"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_models_mac_counts() {
        for (kind, side) in [
            (BackboneKind::MobileNetV2, 32),
            (BackboneKind::Micro, 8),
            (BackboneKind::Micro, 16),
        ] {
            let model = kind.build(&mut SeedRng::new(0));
            let table: u64 = conv_shapes(kind, side).iter().map(ConvShape::macs).sum();
            assert_eq!(table, model.macs(side, side), "{kind:?} at {side}");
            assert_eq!(Replay::new(kind, side).macs, table);
        }
    }

    #[test]
    fn mobilenet_ends_at_two_by_two() {
        let shapes = conv_shapes(BackboneKind::MobileNetV2, 32);
        let last = shapes.last().unwrap();
        assert_eq!(
            (last.in_channels, last.out_channels, last.out_side()),
            (320, 1280, 2)
        );
        // 1 stem + 1 block without expansion (2 convs) + 16 blocks (3 convs) + head.
        assert_eq!(shapes.len(), 1 + 2 + 16 * 3 + 1);
    }
}
