//! Data augmentation: the "traditional" transforms used during pretraining
//! (horizontal flip, padded random crop, blur) plus the feature-interpolation
//! augmentations Mixup and CutMix (paper §IV-B).

use crate::{Batch, DataError, Result};
use ofscil_tensor::{SeedRng, Tensor};

/// Configuration of the per-image augmentation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmenterConfig {
    /// Probability of a horizontal flip.
    pub(crate) flip_probability: f32,
    /// Padding (pixels) applied before the random crop; 0 disables cropping.
    pub(crate) crop_padding: usize,
    /// Probability of applying a 3×3 box blur.
    pub(crate) blur_probability: f32,
}

impl Default for AugmenterConfig {
    fn default() -> Self {
        AugmenterConfig {
            flip_probability: 0.5,
            crop_padding: 4,
            blur_probability: 0.1,
        }
    }
}

/// Applies the per-image augmentation pipeline to batches.
#[derive(Debug, Clone)]
pub struct Augmenter {
    config: AugmenterConfig,
}

impl Augmenter {
    /// Creates an augmenter.
    pub fn new(config: AugmenterConfig) -> Self {
        Augmenter { config }
    }

    /// The augmenter configuration.
    pub fn config(&self) -> &AugmenterConfig {
        &self.config
    }

    /// Augments every image of a batch in place (labels are unchanged).
    ///
    /// # Errors
    ///
    /// Returns an error when the batch images are not `[b, c, h, w]`.
    pub fn augment(&self, batch: &mut Batch, rng: &mut SeedRng) -> Result<()> {
        let dims = batch.images.dims().to_vec();
        if dims.len() != 4 {
            return Err(DataError::InvalidConfig(format!(
                "augmentation expects [b, c, h, w] images, got {dims:?}"
            )));
        }
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = c * h * w;
        for i in 0..b {
            let start = i * plane;
            let mut image = Tensor::from_vec(
                batch.images.as_slice()[start..start + plane].to_vec(),
                &[c, h, w],
            )?;
            if rng.chance(self.config.flip_probability) {
                image = horizontal_flip(&image)?;
            }
            if self.config.crop_padding > 0 {
                image = random_crop(&image, self.config.crop_padding, rng)?;
            }
            if rng.chance(self.config.blur_probability) {
                image = box_blur(&image)?;
            }
            batch.images.as_mut_slice()[start..start + plane].copy_from_slice(image.as_slice());
        }
        Ok(())
    }
}

/// Flips a `[c, h, w]` image left–right.
///
/// # Errors
///
/// Returns an error when the image is not rank-3.
pub(crate) fn horizontal_flip(image: &Tensor) -> Result<Tensor> {
    let dims = image.dims();
    if dims.len() != 3 {
        return Err(DataError::InvalidConfig(format!(
            "expected [c,h,w], got {dims:?}"
        )));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = image.as_slice();
    let mut out = vec![0.0f32; src.len()];
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                out[ch * h * w + y * w + x] = src[ch * h * w + y * w + (w - 1 - x)];
            }
        }
    }
    Ok(Tensor::from_vec(out, dims)?)
}

/// Pads the image by `padding` pixels of reflection on every side and crops a
/// random window of the original size.
///
/// # Errors
///
/// Returns an error when the image is not rank-3.
pub(crate) fn random_crop(image: &Tensor, padding: usize, rng: &mut SeedRng) -> Result<Tensor> {
    let dims = image.dims();
    if dims.len() != 3 {
        return Err(DataError::InvalidConfig(format!(
            "expected [c,h,w], got {dims:?}"
        )));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = image.as_slice();
    let offset_y = rng.below(2 * padding + 1) as isize - padding as isize;
    let offset_x = rng.below(2 * padding + 1) as isize - padding as isize;
    let mut out = vec![0.0f32; src.len()];
    let reflect = |v: isize, len: usize| -> usize {
        let len = len as isize;
        let mut v = v;
        if v < 0 {
            v = -v;
        }
        if v >= len {
            v = 2 * len - 2 - v;
        }
        v.clamp(0, len - 1) as usize
    };
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let sy = reflect(y as isize + offset_y, h);
                let sx = reflect(x as isize + offset_x, w);
                out[ch * h * w + y * w + x] = src[ch * h * w + sy * w + sx];
            }
        }
    }
    Ok(Tensor::from_vec(out, dims)?)
}

/// 3×3 box blur with reflected borders.
///
/// # Errors
///
/// Returns an error when the image is not rank-3.
pub(crate) fn box_blur(image: &Tensor) -> Result<Tensor> {
    let dims = image.dims();
    if dims.len() != 3 {
        return Err(DataError::InvalidConfig(format!(
            "expected [c,h,w], got {dims:?}"
        )));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = image.as_slice();
    let mut out = vec![0.0f32; src.len()];
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for dy in -1isize..=1 {
                    for dx in -1isize..=1 {
                        let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                        let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                        acc += src[ch * h * w + sy * w + sx];
                    }
                }
                out[ch * h * w + y * w + x] = acc / 9.0;
            }
        }
    }
    Ok(Tensor::from_vec(out, dims)?)
}

/// Mixup augmentation (Zhang et al., 2018): convex combination of two images
/// and of their one-hot labels.
#[derive(Debug, Clone, Copy)]
pub struct Mixup {
    /// Beta-distribution shape parameter; the paper's recipe uses uniform
    /// mixing, approximated here by `Uniform(0, 1)` when `alpha == 1`.
    pub(crate) alpha: f32,
}

impl Default for Mixup {
    fn default() -> Self {
        Mixup { alpha: 1.0 }
    }
}

impl Mixup {
    /// Applies Mixup to a batch: every image is blended with a randomly chosen
    /// partner. Returns the mixed images and the *soft* label matrix
    /// `[batch, num_classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch is empty or a label is out of range.
    pub fn apply(
        &self,
        batch: &Batch,
        num_classes: usize,
        rng: &mut SeedRng,
    ) -> Result<(Tensor, Tensor)> {
        if batch.is_empty() {
            return Err(DataError::Empty("mixup"));
        }
        let dims = batch.images.dims().to_vec();
        let b = dims[0];
        let plane: usize = dims[1..].iter().product();
        let mut images = batch.images.clone();
        let mut soft = soft_labels(&batch.labels, num_classes)?;
        let partners = rng.permutation(b);
        for (i, &j) in partners.iter().enumerate() {
            let lambda = sample_lambda(self.alpha, rng);
            if j == i {
                continue;
            }
            for k in 0..plane {
                let a = batch.images.as_slice()[i * plane + k];
                let bb = batch.images.as_slice()[j * plane + k];
                images.as_mut_slice()[i * plane + k] = lambda * a + (1.0 - lambda) * bb;
            }
            for c in 0..num_classes {
                let own = soft_label_value(&batch.labels, i, c);
                let other = soft_label_value(&batch.labels, j, c);
                soft.set(&[i, c], lambda * own + (1.0 - lambda) * other)?;
            }
        }
        Ok((images, soft))
    }
}

/// CutMix augmentation (Yun et al., 2019): a rectangular region of a partner
/// image is pasted into each image; labels mix proportionally to area.
#[derive(Debug, Clone, Copy, Default)]
pub struct CutMix;

impl CutMix {
    /// Applies CutMix to a batch, returning mixed images and soft labels.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch is empty or a label is out of range.
    pub fn apply(
        &self,
        batch: &Batch,
        num_classes: usize,
        rng: &mut SeedRng,
    ) -> Result<(Tensor, Tensor)> {
        if batch.is_empty() {
            return Err(DataError::Empty("cutmix"));
        }
        let dims = batch.images.dims().to_vec();
        if dims.len() != 4 {
            return Err(DataError::InvalidConfig(format!(
                "cutmix expects [b, c, h, w] images, got {dims:?}"
            )));
        }
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = c * h * w;
        let mut images = batch.images.clone();
        let mut soft = soft_labels(&batch.labels, num_classes)?;
        let partners = rng.permutation(b);
        for (i, &j) in partners.iter().enumerate() {
            if j == i {
                continue;
            }
            // Random box occupying up to half of the area.
            let cut_h = 1 + rng.below(h / 2);
            let cut_w = 1 + rng.below(w / 2);
            let top = rng.below(h - cut_h + 1);
            let left = rng.below(w - cut_w + 1);
            for ch in 0..c {
                for y in top..top + cut_h {
                    for x in left..left + cut_w {
                        let idx = ch * h * w + y * w + x;
                        images.as_mut_slice()[i * plane + idx] =
                            batch.images.as_slice()[j * plane + idx];
                    }
                }
            }
            let lambda = 1.0 - (cut_h * cut_w) as f32 / (h * w) as f32;
            for class in 0..num_classes {
                let own = soft_label_value(&batch.labels, i, class);
                let other = soft_label_value(&batch.labels, j, class);
                soft.set(&[i, class], lambda * own + (1.0 - lambda) * other)?;
            }
        }
        Ok((images, soft))
    }
}

fn sample_lambda(alpha: f32, rng: &mut SeedRng) -> f32 {
    if alpha <= 0.0 {
        return 1.0;
    }
    // A cheap symmetric Beta(alpha, alpha) approximation: average of `alpha`
    // rounded up uniform draws mapped through a power; for alpha == 1 this is
    // exactly Uniform(0, 1), which is the common Mixup default.
    let u = rng.uniform();
    if (alpha - 1.0).abs() < 1e-6 {
        u
    } else {
        u.powf(1.0 / alpha)
    }
}

fn soft_labels(labels: &[usize], num_classes: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[labels.len(), num_classes]);
    for (i, &label) in labels.iter().enumerate() {
        if label >= num_classes {
            return Err(DataError::OutOfRange {
                what: "label".into(),
                value: label,
                bound: num_classes,
            });
        }
        out.set(&[i, label], 1.0)?;
    }
    Ok(out)
}

fn soft_label_value(labels: &[usize], sample: usize, class: usize) -> f32 {
    if labels[sample] == class {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, Sample};

    fn toy_batch() -> Batch {
        let mut ds = Dataset::new(&[3, 8, 8]);
        for label in 0..4usize {
            ds.push(Sample {
                image: Tensor::full(&[3, 8, 8], label as f32 / 4.0),
                label,
            })
            .unwrap();
        }
        ds.full_batch().unwrap()
    }

    #[test]
    fn flip_is_involution() {
        let image =
            Tensor::from_vec((0..3 * 4 * 4).map(|v| v as f32).collect(), &[3, 4, 4]).unwrap();
        let flipped = horizontal_flip(&image).unwrap();
        assert_ne!(flipped, image);
        assert_eq!(horizontal_flip(&flipped).unwrap(), image);
        assert!(horizontal_flip(&Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn crop_preserves_shape_and_range() {
        let mut rng = SeedRng::new(0);
        let image = Tensor::from_vec(
            (0..3 * 8 * 8).map(|v| v as f32 / 192.0).collect(),
            &[3, 8, 8],
        )
        .unwrap();
        let cropped = random_crop(&image, 2, &mut rng).unwrap();
        assert_eq!(cropped.dims(), image.dims());
        assert!(cropped.max().unwrap() <= 1.0);
    }

    #[test]
    fn blur_smooths() {
        let mut image = Tensor::zeros(&[1, 5, 5]);
        image.set(&[0, 2, 2], 9.0).unwrap();
        let blurred = box_blur(&image).unwrap();
        assert!((blurred.at(&[0, 2, 2]).unwrap() - 1.0).abs() < 1e-5);
        assert!((blurred.sum() - 9.0).abs() < 1.0);
    }

    #[test]
    fn augmenter_preserves_shape_and_labels() {
        let mut batch = toy_batch();
        let labels = batch.labels.clone();
        let dims = batch.images.dims().to_vec();
        let augmenter = Augmenter::new(AugmenterConfig::default());
        let mut rng = SeedRng::new(3);
        augmenter.augment(&mut batch, &mut rng).unwrap();
        assert_eq!(batch.images.dims(), dims.as_slice());
        assert_eq!(batch.labels, labels);
        assert!(batch.images.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn mixup_produces_valid_soft_labels() {
        let batch = toy_batch();
        let mut rng = SeedRng::new(1);
        let (images, soft) = Mixup::default().apply(&batch, 4, &mut rng).unwrap();
        assert_eq!(images.dims(), batch.images.dims());
        assert_eq!(soft.dims(), &[4, 4]);
        for i in 0..4 {
            let row_sum: f32 = soft.row(i).unwrap().iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {i} sums to {row_sum}");
        }
    }

    #[test]
    fn cutmix_mixes_area_proportionally() {
        let batch = toy_batch();
        let mut rng = SeedRng::new(2);
        let (images, soft) = CutMix.apply(&batch, 4, &mut rng).unwrap();
        assert_eq!(images.dims(), batch.images.dims());
        for i in 0..4 {
            let row_sum: f32 = soft.row(i).unwrap().iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            // The own label keeps the majority share (box ≤ half the area).
            assert!(soft.at(&[i, batch.labels[i]]).unwrap() >= 0.5);
        }
    }

    #[test]
    fn empty_batches_are_rejected() {
        let empty = Batch {
            images: Tensor::zeros(&[0, 3, 4, 4]),
            labels: vec![],
        };
        let mut rng = SeedRng::new(0);
        assert!(Mixup::default().apply(&empty, 4, &mut rng).is_err());
        assert!(CutMix.apply(&empty, 4, &mut rng).is_err());
    }

    #[test]
    fn out_of_range_labels_are_rejected() {
        let mut ds = Dataset::new(&[3, 4, 4]);
        ds.push(Sample {
            image: Tensor::zeros(&[3, 4, 4]),
            label: 9,
        })
        .unwrap();
        ds.push(Sample {
            image: Tensor::zeros(&[3, 4, 4]),
            label: 1,
        })
        .unwrap();
        let batch = ds.full_batch().unwrap();
        let mut rng = SeedRng::new(0);
        assert!(Mixup::default().apply(&batch, 4, &mut rng).is_err());
    }
}
