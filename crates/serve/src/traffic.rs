//! Synthetic serving traffic shared by the examples, the simulator and the
//! test suites.
//!
//! The images are "colour-dominant": each class saturates one channel, so
//! classes are separable even through an untrained backbone and a demo or
//! test can assert on *predictions*, not just on plumbing. Keeping the
//! generator in one place means examples, simulator and tests all drive the
//! runtime with the same inputs.

use ofscil_data::Batch;
use ofscil_tensor::Tensor;

/// One `[3, side, side]` image dominated by the channel `class % 3`, with a
/// constant intensity `jitter` distinguishing otherwise-identical samples.
pub fn class_image(side: usize, class: usize, jitter: f32) -> Tensor {
    let mut image = Tensor::full(&[3, side, side], 0.1);
    for y in 0..side {
        for x in 0..side {
            image
                .set(&[class % 3, y, x], 0.9 + jitter)
                .expect("index within the image");
        }
    }
    image
}

/// A support batch of `shots` samples per class, with per-shot jitter so the
/// prototype mean is taken over distinct samples.
pub fn support_batch(side: usize, classes: &[usize], shots: usize) -> Batch {
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for &class in classes {
        for shot in 0..shots {
            images.push(class_image(side, class, 0.02 * shot as f32));
            labels.push(class);
        }
    }
    let refs: Vec<&Tensor> = images.iter().collect();
    Batch {
        images: Tensor::stack(&refs).expect("uniform image shapes"),
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_channel_dominant_and_batches_aligned() {
        let image = class_image(4, 5, 0.0);
        assert_eq!(image.dims(), &[3, 4, 4]);
        // Class 5 dominates channel 5 % 3 == 2.
        assert!(image.at(&[2, 0, 0]).unwrap() > image.at(&[0, 0, 0]).unwrap());
        let batch = support_batch(4, &[0, 7], 3);
        assert_eq!(batch.images.dims(), &[6, 3, 4, 4]);
        assert_eq!(batch.labels, vec![0, 0, 0, 7, 7, 7]);
    }
}
