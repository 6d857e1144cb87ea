//! Pointwise (1×1, stride-1, unpadded) convolution, the expand and project
//! convolutions of the MobileNetV2 inverted residual, its 1280-wide head and
//! the ResNet-12 shortcuts.
//!
//! A pointwise convolution mixes channels pixel by pixel, so on a
//! channels-last batch `[batch, h, w, c_in]`, read as its pixel rows
//! `[batch * h * w, c_in]`, it is exactly `rows · W[c_in, c_out]`, with the
//! weight stored once as `[in_channels, out_channels]`. The row kernel of
//! `Tensor::matmul` then runs along the channel count (16–1280) rather than
//! along `h * w`, which is 4 on the late 2×2 maps of a 32×32 input. The
//! layer reshapes the tensors it owns in place, so the only copy is the one
//! [`Layer::forward`] and [`Layer::backward`] make of their borrowed
//! argument; the inverted residual hands its own tensors over and skips it.
//!
//! Every output sums the same products in the same ascending `c_in` order as
//! `Conv2d`'s im2col + `[c_out, c_in] · [c_in, hw]` lowering of the same
//! convolution, and the weight gradient is formed per image and added in
//! image order as that lowering adds it, so for finite operands the results
//! are bit for bit those of that lowering, and so are the backward's
//! gradients. One difference: the matmul skips exact zeros of its left
//! operand, which is now the activation (or the output gradient) rather than
//! the weight, so a non-finite value under an exactly-zero weight yields NaN
//! where the weight-major product skipped it.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{Conv2dGeometry, Init, Initializer, SeedRng, Tensor};

/// A 1×1, stride-1, unpadded convolution without bias (every caller
/// follows it with `BatchNorm`).
///
/// * input: `[batch, h, w, in_channels]`
/// * weight: `[in_channels, out_channels]`
/// * output: `[batch, h, w, out_channels]`
#[derive(Debug)]
pub(crate) struct PointwiseConv2d {
    in_channels: usize,
    out_channels: usize,
    weight: Parameter,
    /// The input rows `[batch * h * w, in_channels]` of the last training
    /// forward and its `[batch, h, w]`.
    cached_rows: Option<(Tensor, [usize; 3])>,
}

impl PointwiseConv2d {
    /// Creates a pointwise convolution with Kaiming-normal weights, drawn
    /// from the same stream and in the same `[out, in]` order as a 1×1
    /// `Conv2d`'s and transposed once.
    pub(crate) fn new(in_channels: usize, out_channels: usize, rng: &mut SeedRng) -> Self {
        let mut init = Initializer::new(rng.fork(0xc0c0));
        let drawn = init.tensor(
            &[out_channels, in_channels],
            Init::KaimingNormal {
                fan_in: in_channels,
            },
        );
        let weight = Parameter::new("weight", drawn.transpose().expect("a rank-2 draw"));
        PointwiseConv2d {
            in_channels,
            out_channels,
            weight,
            cached_rows: None,
        }
    }

    /// The `[batch, h, w]` of a `[batch, h, w, in_channels]` input; an empty
    /// plane is rejected as `Conv2d` rejects it.
    fn check_input(&self, dims: &[usize]) -> Result<[usize; 3]> {
        match *dims {
            [batch, h, w, c] if c == self.in_channels => {
                Conv2dGeometry::new(h, w, 1, 1, 0).validate()?;
                Ok([batch, h, w])
            }
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, h, w, {}]", self.in_channels),
                actual: dims.to_vec(),
            }),
        }
    }

    /// [`Layer::forward`] on an input the caller hands over: `input · W`
    /// over its pixel rows. A training forward keeps the input for the
    /// backward.
    pub(crate) fn forward_owned(&mut self, mut input: Tensor, mode: Mode) -> Result<Tensor> {
        let [batch, h, w] = self.check_input(input.dims())?;
        input.reshape_in_place(&[batch * h * w, self.in_channels])?;
        let mut out = input.matmul(&self.weight.value)?;
        out.reshape_in_place(&[batch, h, w, self.out_channels])?;
        self.cached_rows = mode.is_train().then_some((input, [batch, h, w]));
        Ok(out)
    }

    /// [`Layer::backward`] on an output gradient the caller hands over:
    /// accumulates the weight gradient image by image and returns the input
    /// gradient.
    pub(crate) fn backward_owned(&mut self, mut grad: Tensor) -> Result<Tensor> {
        let (rows, [batch, h, w]) = self
            .cached_rows
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (c_in, c_out, pixels) = (self.in_channels, self.out_channels, h * w);
        if grad.dims() != [batch, h, w, c_out] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {h}, {w}, {c_out}]"),
                actual: grad.dims().to_vec(),
            });
        }
        grad.reshape_in_place(&[batch * pixels, c_out])?;
        let mut grad_input = grad.matmul(&self.weight.value.transpose()?)?;
        // dW = Σ_image x_imageᵀ · g_image: the products of each image sum
        // in ascending pixel order, and the images add up in order.
        for b in 0..batch {
            let x = &rows.as_slice()[b * pixels * c_in..][..pixels * c_in];
            let x = Tensor::from_vec(x.to_vec(), &[pixels, c_in])?.transpose()?;
            let g = &grad.as_slice()[b * pixels * c_out..][..pixels * c_out];
            let g = Tensor::from_vec(g.to_vec(), &[pixels, c_out])?;
            self.weight.accumulate_grad(&x.matmul(&g)?);
        }
        grad_input.reshape_in_place(&[batch, h, w, c_in])?;
        Ok(grad_input)
    }
}

impl Layer for PointwiseConv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{}, k1, s1, p0)",
            self.in_channels, self.out_channels
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_owned(input.clone(), mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_owned(grad_output.clone())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let [batch, h, w] = self.check_input(input)?;
        Ok(vec![batch, h, w, self.out_channels])
    }

    fn macs(&self, input: &[usize]) -> u64 {
        // `input` is the batch-less shape [h, w, channels].
        let &[h, w, _] = input else {
            return 0;
        };
        (self.out_channels * self.in_channels * h * w) as u64
    }

    fn weight_count(&self) -> u64 {
        (self.out_channels * self.in_channels) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{to_channels_last, Conv2d};

    /// `dims`-shaped normal values, about one in five an exact zero.
    fn seeded(rng: &mut SeedRng, dims: &[usize]) -> Tensor {
        let n = dims.iter().product();
        let data = (0..n)
            .map(|_| if rng.chance(0.2) { 0.0 } else { rng.normal() })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The parameters of a layer, in visiting order.
    fn params(layer: &mut dyn Layer) -> Vec<Parameter> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.push(p.clone()));
        out
    }

    #[test]
    fn draws_the_weights_of_a_1x1_conv2d() {
        let pw = params(&mut PointwiseConv2d::new(6, 5, &mut SeedRng::new(9)));
        let conv = params(&mut Conv2d::new(6, 5, 1, 1, 0, &mut SeedRng::new(9)));
        assert_eq!(pw.len(), 1);
        assert_eq!(pw[0].value.dims(), &[6, 5]);
        assert_eq!(pw[0].value.transpose().unwrap(), conv[0].value);
    }

    #[test]
    fn matches_the_conv2d_im2col_lowering_bit_for_bit() {
        // The same weights through a bias-free `Conv2d`'s per-image im2col +
        // matmul: output, input gradient and (transposed) weight gradient
        // must agree to the bit. The operands are drawn NCHW and fed to both
        // channels-last; `Conv2d`'s own 1×1 tests pin its channels-last
        // results to the NCHW im2col products.
        let mut rng = SeedRng::new(34);
        let (c_in, c_out) = (6, 5);
        for batch in [0, 1, 2, 5] {
            for (h, w) in [(1, 1), (2, 2), (5, 6)] {
                let case = (batch, h, w);
                let mut pw = PointwiseConv2d::new(c_in, c_out, &mut rng);
                pw.weight.value = seeded(&mut rng, &[c_in, c_out]);
                let mut conv = Conv2d::new(c_in, c_out, 1, 1, 0, &mut rng);
                let reference = pw.weight.value.transpose().unwrap();
                conv.visit_params(&mut |p| p.value = reference.clone());

                let x = to_channels_last(&seeded(&mut rng, &[batch, c_in, h, w]));
                let y = pw.forward(&x, Mode::Train).unwrap();
                let want = conv.forward(&x, Mode::Train).unwrap();
                assert_eq!(y.dims(), want.dims(), "{case:?}");
                assert_eq!(bits(y.as_slice()), bits(want.as_slice()), "y {case:?}");

                let grad_y = to_channels_last(&seeded(&mut rng, &[batch, c_out, h, w]));
                let grad_x = pw.backward(&grad_y).unwrap();
                let want_x = conv.backward(&grad_y).unwrap();
                assert_eq!(grad_x.dims(), x.dims(), "{case:?}");
                assert_eq!(
                    bits(grad_x.as_slice()),
                    bits(want_x.as_slice()),
                    "grad_x {case:?}"
                );
                let want = params(&mut conv);
                let grad_w = pw.weight.grad.transpose().unwrap();
                assert_eq!(
                    bits(grad_w.as_slice()),
                    bits(want[0].grad.as_slice()),
                    "grad_w {case:?}"
                );
            }
        }
    }

    #[test]
    fn shapes_names_and_counts() {
        let mut pw = PointwiseConv2d::new(4, 8, &mut SeedRng::new(0));
        assert_eq!(pw.name(), "conv2d(4→8, k1, s1, p0)");
        assert_eq!(pw.output_dims(&[2, 3, 5, 4]).unwrap(), vec![2, 3, 5, 8]);
        assert!(pw.output_dims(&[2, 0, 5, 4]).is_err());
        assert!(pw
            .forward(&Tensor::ones(&[2, 3, 5, 3]), Mode::Eval)
            .is_err());
        assert_eq!(pw.macs(&[3, 5, 4]), 8 * 4 * 15);
        assert_eq!(pw.param_count(), 4 * 8);
        assert_eq!(pw.weight_count(), 4 * 8);
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let mut pw = PointwiseConv2d::new(2, 3, &mut SeedRng::new(0));
        crate::layer::assert_eval_drops_train_cache(&mut pw, &Tensor::ones(&[1, 4, 4, 2]));
    }
}
