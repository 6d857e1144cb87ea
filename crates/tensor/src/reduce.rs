//! Reductions: sums, means, extrema, argmax, axis reductions.

use crate::{Result, Tensor, TensorError};

/// Identifies an axis of a tensor for axis-wise reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Axis(pub usize);

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn max(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.max(x)))
            })
            .ok_or(TensorError::Empty("max"))
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn min(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
            .ok_or(TensorError::Empty("min"))
    }

    /// Row-wise argmax of a rank-2 tensor: one index per row.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.dims().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.dims().len(),
                op: "argmax_rows",
            });
        }
        let cols = self.dims()[1];
        if cols == 0 {
            return Err(TensorError::Empty("argmax_rows"));
        }
        Ok(self
            .as_slice()
            .chunks(cols)
            .map(|row| {
                let mut best = 0usize;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect())
    }

    /// Sum along `axis` of a rank-2 tensor.
    ///
    /// `Axis(0)` sums over rows producing one value per column;
    /// `Axis(1)` sums over columns producing one value per row.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an invalid axis.
    pub fn sum_axis(&self, axis: Axis) -> Result<Tensor> {
        if self.dims().len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.dims().len(),
                op: "sum_axis",
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        match axis.0 {
            0 => {
                let mut out = vec![0.0f32; cols];
                for r in 0..rows {
                    for (c, o) in out.iter_mut().enumerate() {
                        *o += self.as_slice()[r * cols + c];
                    }
                }
                Ok(Tensor::from_slice(&out))
            }
            1 => {
                let out: Vec<f32> = self
                    .as_slice()
                    .chunks(cols)
                    .map(|row| row.iter().sum())
                    .collect();
                Ok(Tensor::from_slice(&out))
            }
            a => Err(TensorError::InvalidAxis { axis: a, rank: 2 }),
        }
    }

    /// Maximum absolute value over all elements (`0.0` if empty).
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().map(|x| x.abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max().unwrap(), 3.0);
        assert_eq!(t.min().unwrap(), -4.0);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn empty_reductions_error() {
        let t = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(t.max().is_err());
        assert!(t.min().is_err());
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn axis_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis(Axis(0)).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(Axis(1)).unwrap().as_slice(), &[6.0, 15.0]);
        assert!(t.sum_axis(Axis(2)).is_err());
    }

    #[test]
    fn argmax_rows_ties_take_first() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 9.0, 2.0, 3.0], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
        let v = Tensor::from_slice(&[1.0]);
        assert!(v.argmax_rows().is_err());
    }
}
