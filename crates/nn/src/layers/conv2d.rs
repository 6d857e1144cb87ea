//! Standard 2-D convolution executed as im2col + matrix multiplication, one
//! patch matrix and one matmul per image. A 1×1, stride-1, unpadded
//! convolution is its own layer, `PointwiseConv2d`, which multiplies the
//! batch's pixels as the rows of one matmul; this lowering still computes
//! such a convolution correctly and is the reference its tests compare with.
//!
//! The layer takes and returns channels-last activations like every other,
//! but `im2col` reads an image as channel planes `[c, h, w]`. So each image
//! changes layout where the lowering already copies it: its planes are built
//! from its channels-last pixels, and the `[c_out, h' * w']` product is
//! written straight into the channels-last output. The backward does the
//! same with the output gradient and the input gradient.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{
    col2im, im2col, transpose_into, Conv2dGeometry, Init, Initializer, SeedRng, Tensor,
};

/// A 2-D convolution without bias (every caller follows it with
/// `BatchNorm`), with square kernel and shared stride/padding on both axes.
///
/// * input: `[batch, h, w, in_channels]`
/// * weight: `[out_channels, in_channels * k * k]`
/// * output: `[batch, h', w', out_channels]`
#[derive(Debug)]
pub(crate) struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Parameter,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal initialised weights.
    pub(crate) fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeedRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let mut init = Initializer::new(rng.fork(0xc0c0));
        let weight = Parameter::new(
            "weight",
            init.tensor(&[out_channels, fan_in], Init::KaimingNormal { fan_in }),
        );
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            cached_input: None,
        }
    }

    /// The convolution geometry for a given input height/width.
    pub(crate) fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(in_h, in_w, self.kernel, self.stride, self.padding)
    }

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize)> {
        match *dims {
            [batch, h, w, c] if c == self.in_channels => Ok((batch, h, w)),
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, h, w, {}]", self.in_channels),
                actual: dims.to_vec(),
            }),
        }
    }

    /// The `[in_channels * k * k, out_h * out_w]` patch matrix of one
    /// channels-last image `[h * w, in_channels]`.
    fn patches(&self, image: &[f32], geom: &Conv2dGeometry) -> Result<Tensor> {
        let c = self.in_channels;
        let mut planes = vec![0.0f32; image.len()];
        transpose_into(image, geom.in_h * geom.in_w, c, &mut planes);
        let planes = Tensor::from_vec(planes, &[c, geom.in_h, geom.in_w])?;
        Ok(im2col(&planes, c, geom)?)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let plane = self.in_channels * in_h * in_w;
        let out_pixels = out_h * out_w;
        let out_plane = self.out_channels * out_pixels;
        let mut out = vec![0.0f32; batch * out_plane];
        for b in 0..batch {
            let cols = self.patches(&input.as_slice()[b * plane..(b + 1) * plane], &geom)?;
            let result = self.weight.value.matmul(&cols)?;
            let image = &mut out[b * out_plane..(b + 1) * out_plane];
            transpose_into(result.as_slice(), self.out_channels, out_pixels, image);
        }
        self.cached_input = mode.is_train().then(|| input.clone());
        Tensor::from_vec(out, &[batch, out_h, out_w, self.out_channels]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        if grad_output.dims() != [batch, out_h, out_w, self.out_channels] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {out_h}, {out_w}, {}]", self.out_channels),
                actual: grad_output.dims().to_vec(),
            });
        }
        let (in_pixels, out_pixels) = (in_h * in_w, out_h * out_w);
        let plane = self.in_channels * in_pixels;
        let out_plane = self.out_channels * out_pixels;
        let mut grad_input = vec![0.0f32; batch * plane];
        let weight_t = self.weight.value.transpose()?;

        for b in 0..batch {
            // Recompute the patch matrix instead of caching it: trades a
            // second im2col for a large reduction in peak training memory.
            let cols = self.patches(&input.as_slice()[b * plane..(b + 1) * plane], &geom)?;
            let mut grad_y = vec![0.0f32; out_plane];
            let g = &grad_output.as_slice()[b * out_plane..(b + 1) * out_plane];
            transpose_into(g, out_pixels, self.out_channels, &mut grad_y);
            let grad_y = Tensor::from_vec(grad_y, &[self.out_channels, out_pixels])?;
            let grad_w = grad_y.matmul(&cols.transpose()?)?;
            self.weight.accumulate_grad(&grad_w);
            let grad_cols = weight_t.matmul(&grad_y)?;
            let grad_img = col2im(&grad_cols, self.in_channels, &geom)?;
            let image = &mut grad_input[b * plane..(b + 1) * plane];
            transpose_into(grad_img.as_slice(), self.in_channels, in_pixels, image);
        }
        Tensor::from_vec(grad_input, input.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, in_h, in_w) = self.check_input(input)?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        Ok(vec![batch, geom.out_h(), geom.out_w(), self.out_channels])
    }

    fn macs(&self, input: &[usize]) -> u64 {
        // `input` is the batch-less shape [h, w, channels].
        let &[h, w, _] = input else {
            return 0;
        };
        let geom = self.geometry(h, w);
        (self.out_channels * self.in_channels * self.kernel * self.kernel) as u64
            * geom.out_pixels() as u64
    }

    fn weight_count(&self) -> u64 {
        (self.out_channels * self.in_channels * self.kernel * self.kernel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{to_channels_last, to_nchw};

    #[test]
    fn forward_shapes() {
        let mut rng = SeedRng::new(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Tensor::ones(&[2, 8, 8, 3]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 4, 4, 8]);
        assert_eq!(conv.output_dims(&[2, 8, 8, 3]).unwrap(), vec![2, 4, 4, 8]);
        assert!(conv
            .forward(&Tensor::ones(&[2, 8, 8, 4]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = SeedRng::new(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value.as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 4, 1]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_sum_kernel() {
        // A 3x3 all-ones kernel over an all-ones 3x3 input with padding 1:
        // centre output = 9, corners = 4, edges = 6.
        let mut rng = SeedRng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        conv.weight.value.fill(1.0);
        let x = Tensor::ones(&[1, 3, 3, 1]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn gradient_check_input_and_weight() {
        let mut rng = SeedRng::new(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4)
                .map(|i| ((i % 7) as f32 - 3.0) * 0.3)
                .collect(),
            &[2, 4, 4, 2],
        )
        .unwrap();
        let y = conv.forward(&x, Mode::Train).unwrap();
        let grad_in = conv.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic_w = conv.weight.grad.clone();

        let eps = 1e-2;
        // dL/dx spot check
        for &idx in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = conv.forward(&xp, Mode::Eval).unwrap().sum();
            let lm = conv.forward(&xm, Mode::Eval).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05,
                "x[{idx}]: {numeric} vs {analytic}"
            );
        }
        // dL/dW spot check
        for &idx in &[0usize, 7, 20] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = conv.forward(&x, Mode::Eval).unwrap().sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = conv.forward(&x, Mode::Eval).unwrap().sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 0.05,
                "w[{idx}]: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn pointwise_convolutions_match_im2col_matmul_bit_for_bit() {
        // A 1×1 `Conv2d` at stride 1 or 2, fed the channels-last form of an
        // NCHW batch, must equal the im2col + matmul product of each NCHW
        // image; `PointwiseConv2d`'s tests use this lowering as their
        // reference.
        let mut rng = SeedRng::new(28);
        for stride in [1, 2] {
            let mut conv = Conv2d::new(5, 7, 1, stride, 0, &mut rng);
            let data = (0..2 * 5 * 6 * 5).map(|_| if rng.chance(0.2) { 0.0 } else { rng.normal() });
            let x = Tensor::from_vec(data.collect(), &[2, 5, 6, 5]).unwrap();
            let y = to_nchw(&conv.forward(&to_channels_last(&x), Mode::Eval).unwrap());
            let geom = conv.geometry(6, 5);
            let mut expected = Vec::new();
            for image in x.as_slice().chunks(5 * 6 * 5) {
                let image = Tensor::from_vec(image.to_vec(), &[5, 6, 5]).unwrap();
                let product = conv
                    .weight
                    .value
                    .matmul(&im2col(&image, 5, &geom).unwrap())
                    .unwrap();
                expected.extend_from_slice(product.as_slice());
            }
            assert_eq!(y.dims(), &[2, 7, geom.out_h(), geom.out_w()]);
            let same = y
                .as_slice()
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "stride {stride}");
        }
    }

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

    #[test]
    fn batched_pointwise_forward_matches_per_image_products_bit_for_bit() {
        // Each image of a 1×1 batch must come out as its own
        // `[c_out, c_in] · [c_in, hw]` product and its own batch-1 forward,
        // and the batched backward must give the batch-1 gradients. The
        // batch is drawn NCHW and fed channels-last.
        let mut rng = SeedRng::new(31);
        let (c_in, c_out) = (6, 5);
        for batch in [1, 2, 5] {
            for (h, w) in [(1, 1), (2, 2), (5, 6)] {
                let case = (batch, h, w);
                let mut conv = Conv2d::new(c_in, c_out, 1, 1, 0, &mut rng);
                conv.weight.value = seeded(&mut rng, &[c_out, c_in]);
                let x = seeded(&mut rng, &[batch, c_in, h, w]);
                let y = conv.forward(&to_channels_last(&x), Mode::Train).unwrap();
                assert_eq!(y.dims(), &[batch, h, w, c_out]);
                let y = to_nchw(&y);
                let grad_y = seeded(&mut rng, y.dims());
                let grad_x = to_nchw(&conv.backward(&to_channels_last(&grad_y)).unwrap());
                let grad_w = conv.weight.grad.clone();

                conv.zero_grads();
                let (plane, out_plane) = (c_in * h * w, c_out * h * w);
                let (mut products, mut singles, mut single_grad_x) = (vec![], vec![], vec![]);
                for b in 0..batch {
                    let image = &x.as_slice()[b * plane..(b + 1) * plane];
                    let cols = Tensor::from_vec(image.to_vec(), &[c_in, h * w]).unwrap();
                    let product = conv.weight.value.matmul(&cols).unwrap();
                    products.extend_from_slice(product.as_slice());
                    let single = Tensor::from_vec(image.to_vec(), &[1, c_in, h, w]).unwrap();
                    let single = conv.forward(&to_channels_last(&single), Mode::Train);
                    singles.extend_from_slice(to_nchw(&single.unwrap()).as_slice());
                    let g = grad_y.as_slice()[b * out_plane..(b + 1) * out_plane].to_vec();
                    let g = Tensor::from_vec(g, &[1, c_out, h, w]).unwrap();
                    let g = conv.backward(&to_channels_last(&g)).unwrap();
                    single_grad_x.extend_from_slice(to_nchw(&g).as_slice());
                }
                assert_eq!(bits(y.as_slice()), bits(&products), "products {case:?}");
                assert_eq!(
                    bits(y.as_slice()),
                    bits(&singles),
                    "batch-1 forwards {case:?}"
                );
                assert_eq!(
                    bits(grad_x.as_slice()),
                    bits(&single_grad_x),
                    "grad_x {case:?}"
                );
                assert_eq!(
                    bits(grad_w.as_slice()),
                    bits(conv.weight.grad.as_slice()),
                    "grad_w {case:?}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_forward() {
        for kernel in [1, 3] {
            let mut conv = Conv2d::new(4, 3, kernel, 1, kernel / 2, &mut SeedRng::new(0));
            let y = conv
                .forward(&Tensor::zeros(&[0, 2, 3, 4]), Mode::Eval)
                .unwrap();
            assert_eq!(y.dims(), &[0, 2, 3, 3], "kernel {kernel}");
        }
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut SeedRng::new(0));
        crate::layer::assert_eval_drops_train_cache(&mut conv, &Tensor::ones(&[1, 4, 4, 2]));
    }

    #[test]
    fn mac_count_matches_formula() {
        let mut rng = SeedRng::new(0);
        let conv = Conv2d::new(16, 32, 3, 1, 1, &mut rng);
        // 32 * 16 * 3 * 3 * 8 * 8
        assert_eq!(conv.macs(&[8, 8, 16]), 32 * 16 * 9 * 64);
        assert_eq!(conv.macs(&[8, 16]), 0);
    }

    #[test]
    fn param_count() {
        let mut rng = SeedRng::new(0);
        let mut conv = Conv2d::new(4, 8, 3, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), (8 * 4 * 9) as u64);
        assert_eq!(conv.weight_count(), conv.param_count());
    }
}
