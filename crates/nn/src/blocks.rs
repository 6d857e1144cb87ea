//! Composite blocks: the MobileNetV2 inverted residual and the ResNet basic
//! block used by the ResNet-12 backbone. Both take and return channels-last
//! activations `[batch, h, w, c]`, as their layers do.

use crate::layers::{
    chained_macs, BatchNorm, Conv2d, DepthwiseConv2d, PointwiseConv2d, Relu, Relu6, Sequential,
};
use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{SeedRng, Tensor};

/// MobileNetV2 inverted residual block: 1×1 expansion → 3×3 depthwise →
/// 1×1 linear projection, with an identity skip connection when the stride is
/// one and the channel count is preserved.
///
/// Runs expand → BN → ReLU6 → depthwise → BN → ReLU6 → project → BN and adds
/// the skip. The convolutions are handed the tensors the block owns, so only
/// the first one copies the block's input. Its parameters are visited in
/// that layer order.
#[derive(Debug)]
pub(crate) struct InvertedResidual {
    /// The expansion convolution, its BN and ReLU6; absent for `t = 1`.
    expand: Option<(PointwiseConv2d, BatchNorm, Relu6)>,
    depthwise: DepthwiseConv2d,
    depthwise_bn: BatchNorm,
    depthwise_relu: Relu6,
    project: PointwiseConv2d,
    project_bn: BatchNorm,
    use_residual: bool,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
}

impl InvertedResidual {
    /// Creates an inverted residual block.
    ///
    /// `expansion` is the channel expansion factor `t` of the MobileNetV2
    /// paper (1 disables the expansion convolution).
    pub(crate) fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        expansion: usize,
        rng: &mut SeedRng,
    ) -> Self {
        let hidden = in_channels * expansion;
        let expand = (expansion != 1).then(|| {
            (
                PointwiseConv2d::new(in_channels, hidden, rng),
                BatchNorm::new(hidden),
                Relu6::new(),
            )
        });
        InvertedResidual {
            expand,
            depthwise: DepthwiseConv2d::new(hidden, 3, stride, 1, rng),
            depthwise_bn: BatchNorm::new(hidden),
            depthwise_relu: Relu6::new(),
            project: PointwiseConv2d::new(hidden, out_channels, rng),
            project_bn: BatchNorm::new(out_channels),
            use_residual: stride == 1 && in_channels == out_channels,
            in_channels,
            out_channels,
            stride,
        }
    }

    /// The layers in execution order, for the shape and cost walks.
    fn layers(&self) -> Vec<&dyn Layer> {
        let mut layers: Vec<&dyn Layer> = Vec::with_capacity(8);
        if let Some((conv, bn, relu)) = &self.expand {
            layers.extend([conv as &dyn Layer, bn, relu]);
        }
        layers.extend([
            &self.depthwise as &dyn Layer,
            &self.depthwise_bn,
            &self.depthwise_relu,
            &self.project,
            &self.project_bn,
        ]);
        layers
    }
}

impl Layer for InvertedResidual {
    fn name(&self) -> String {
        format!(
            "inverted_residual({}→{}, s{}{})",
            self.in_channels,
            self.out_channels,
            self.stride,
            if self.use_residual { ", skip" } else { "" }
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // Each step replaces `x`, so no more than two activations of the
        // block are alive at once.
        let mut x = match &mut self.expand {
            Some((conv, bn, relu)) => {
                let mut x = conv.forward(input, mode)?;
                x = bn.forward(&x, mode)?;
                relu.forward(&x, mode)?
            }
            None => input.clone(),
        };
        x = self.depthwise.forward_owned(x, mode)?;
        x = self.depthwise_bn.forward(&x, mode)?;
        x = self.depthwise_relu.forward(&x, mode)?;
        x = self.project.forward_owned(x, mode)?;
        x = self.project_bn.forward(&x, mode)?;
        if self.use_residual {
            for (y, &skip) in x.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *y += skip;
            }
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = self.project_bn.backward(grad_output)?;
        g = self.project.backward_owned(g)?;
        g = self.depthwise_relu.backward(&g)?;
        g = self.depthwise_bn.backward(&g)?;
        g = self.depthwise.backward(&g)?;
        if let Some((conv, bn, relu)) = &mut self.expand {
            g = relu.backward(&g)?;
            g = bn.backward(&g)?;
            g = conv.backward_owned(g)?;
        }
        if self.use_residual {
            for (gx, &skip) in g.as_mut_slice().iter_mut().zip(grad_output.as_slice()) {
                *gx += skip;
            }
        }
        Ok(g)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        if let Some((conv, bn, _)) = &mut self.expand {
            conv.visit_params(visitor);
            bn.visit_params(visitor);
        }
        self.depthwise.visit_params(visitor);
        self.depthwise_bn.visit_params(visitor);
        self.project.visit_params(visitor);
        self.project_bn.visit_params(visitor);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        self.layers()
            .iter()
            .try_fold(input.to_vec(), |shape, layer| layer.output_dims(&shape))
    }

    fn macs(&self, input: &[usize]) -> u64 {
        chained_macs(self.layers(), input)
    }

    fn weight_count(&self) -> u64 {
        self.layers().iter().map(|layer| layer.weight_count()).sum()
    }
}

/// ResNet basic block with `depth` 3×3 convolutions (3 for ResNet-12), a
/// projection shortcut when the shape changes, and a trailing ReLU.
#[derive(Debug)]
pub(crate) struct ResNetBlock {
    body: Sequential,
    shortcut: Option<Sequential>,
    relu_mask: Option<Vec<bool>>,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
}

impl ResNetBlock {
    /// Creates a residual block of `depth` convolutions; the first convolution
    /// carries the stride.
    pub(crate) fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        depth: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(depth >= 1, "residual block needs at least one convolution");
        let mut body = Sequential::new(format!("resblock({in_channels}→{out_channels})"));
        let mut c_in = in_channels;
        for d in 0..depth {
            let s = if d == 0 { stride } else { 1 };
            body.push(Box::new(Conv2d::new(c_in, out_channels, 3, s, 1, rng)));
            body.push(Box::new(BatchNorm::new(out_channels)));
            if d + 1 < depth {
                body.push(Box::new(Relu::new()));
            }
            c_in = out_channels;
        }
        let shortcut = (stride != 1 || in_channels != out_channels).then(|| {
            let mut s = Sequential::new("shortcut");
            if stride == 1 {
                s.push(Box::new(PointwiseConv2d::new(
                    in_channels,
                    out_channels,
                    rng,
                )));
            } else {
                s.push(Box::new(Conv2d::new(
                    in_channels,
                    out_channels,
                    1,
                    stride,
                    0,
                    rng,
                )));
            }
            s.push(Box::new(BatchNorm::new(out_channels)));
            s
        });
        ResNetBlock {
            body,
            shortcut,
            relu_mask: None,
            in_channels,
            out_channels,
            stride,
        }
    }
}

impl Layer for ResNetBlock {
    fn name(&self) -> String {
        format!(
            "resnet_block({}→{}, s{})",
            self.in_channels, self.out_channels, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let body_out = self.body.forward(input, mode)?;
        let skip = match &mut self.shortcut {
            Some(proj) => proj.forward(input, mode)?,
            None => input.clone(),
        };
        let pre_act = body_out.add(&skip)?;
        self.relu_mask = mode
            .is_train()
            .then(|| pre_act.as_slice().iter().map(|&x| x > 0.0).collect());
        Ok(pre_act.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .relu_mask
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let masked: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        let grad_pre = Tensor::from_vec(masked, grad_output.dims())?;
        let grad_body = self.body.backward(&grad_pre)?;
        let grad_skip = match &mut self.shortcut {
            Some(proj) => proj.backward(&grad_pre)?,
            None => grad_pre,
        };
        Ok(grad_body.add(&grad_skip)?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        self.body.visit_params(visitor);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(visitor);
        }
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        self.body.output_dims(input)
    }

    fn macs(&self, input: &[usize]) -> u64 {
        let shortcut_macs = self.shortcut.as_ref().map_or(0, |s| s.macs(input));
        self.body.macs(input) + shortcut_macs
    }

    fn weight_count(&self) -> u64 {
        self.body.weight_count() + self.shortcut.as_ref().map_or(0, |s| s.weight_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverted_residual_shapes() {
        let mut rng = SeedRng::new(0);
        let mut blk = InvertedResidual::new(8, 8, 1, 6, &mut rng);
        assert!(blk.use_residual);
        let y = blk
            .forward(&Tensor::ones(&[2, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);

        let mut strided = InvertedResidual::new(8, 16, 2, 6, &mut rng);
        assert!(!strided.use_residual);
        let y = strided
            .forward(&Tensor::ones(&[1, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 16]);
        assert_eq!(
            strided.output_dims(&[1, 8, 8, 8]).unwrap(),
            vec![1, 4, 4, 16]
        );
    }

    #[test]
    fn expansion_one_skips_expand_conv() {
        let mut rng = SeedRng::new(1);
        let mut thin = InvertedResidual::new(8, 8, 1, 1, &mut rng);
        let mut fat = InvertedResidual::new(8, 8, 1, 6, &mut rng);
        assert!(thin.param_count() < fat.param_count());
    }

    #[test]
    fn inverted_residual_backward_flows() {
        let mut rng = SeedRng::new(2);
        let mut blk = InvertedResidual::new(4, 4, 1, 2, &mut rng);
        let x = Tensor::ones(&[1, 6, 6, 4]);
        let y = blk.forward(&x, Mode::Train).unwrap();
        let g = blk.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        // The residual path alone guarantees a nonzero input gradient.
        assert!(g.max_abs() > 0.0);
        let mut got_grad = false;
        blk.visit_params(&mut |p| {
            if p.trainable && p.grad.max_abs() > 0.0 {
                got_grad = true;
            }
        });
        assert!(got_grad);
    }

    #[test]
    fn resnet_block_shapes_and_shortcut() {
        let mut rng = SeedRng::new(3);
        let mut same = ResNetBlock::new(8, 8, 1, 2, &mut rng);
        let y = same
            .forward(&Tensor::ones(&[1, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 8, 8, 8]);

        let mut down = ResNetBlock::new(8, 16, 2, 3, &mut rng);
        let y = down
            .forward(&Tensor::ones(&[1, 8, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 16]);
        // Projection shortcut adds parameters.
        assert!(down.param_count() > 0);
    }

    #[test]
    fn resnet_block_output_is_non_negative() {
        let mut rng = SeedRng::new(4);
        let mut blk = ResNetBlock::new(4, 4, 1, 2, &mut rng);
        let x = Tensor::from_vec(
            (0..4 * 16).map(|i| (i as f32 - 32.0) * 0.1).collect(),
            &[1, 4, 4, 4],
        )
        .unwrap();
        let y = blk.forward(&x, Mode::Eval).unwrap();
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn resnet_block_backward_flows() {
        let mut rng = SeedRng::new(5);
        let mut blk = ResNetBlock::new(3, 6, 2, 3, &mut rng);
        let x = Tensor::ones(&[2, 8, 8, 3]);
        let y = blk.forward(&x, Mode::Train).unwrap();
        let g = blk.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert!(blk.backward(&Tensor::ones(y.dims())).is_err());
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let mut rng = SeedRng::new(7);
        let x = Tensor::ones(&[1, 4, 4, 4]);
        let mut res = ResNetBlock::new(4, 8, 2, 2, &mut rng);
        crate::layer::assert_eval_drops_train_cache(&mut res, &x);
        let mut inv = InvertedResidual::new(4, 4, 1, 2, &mut rng);
        crate::layer::assert_eval_drops_train_cache(&mut inv, &x);
    }

    #[test]
    fn macs_include_shortcut() {
        let mut rng = SeedRng::new(6);
        let with_proj = ResNetBlock::new(8, 16, 2, 2, &mut rng);
        let body_only: u64 = with_proj.body.macs(&[8, 8, 8]);
        assert!(with_proj.macs(&[8, 8, 8]) > body_only);
    }
}
