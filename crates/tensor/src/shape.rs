//! Shape descriptor for row-major tensors.

use crate::{Result, TensorError};
use std::fmt;

/// A tensor shape: the extent of each dimension, outermost first.
///
/// Shapes are stored row-major; the last dimension is contiguous in memory.
///
/// # Example
///
/// ```
/// use ofscil_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements described by this shape.
    pub(crate) fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Computes the row-major strides (in elements) for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index rank does not
    /// match or any component exceeds its extent.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() || index.iter().zip(&self.dims).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        Ok(index.iter().zip(self.strides()).map(|(i, s)| i * s).sum())
    }

    /// Returns `true` when the two shapes describe the same extents.
    pub(crate) fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
        assert!(s.offset(&[0, 3, 0]).is_err());
        assert!(s.offset(&[0, 0]).is_err());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn display_formats_dims() {
        let s = Shape::new(&[8, 3, 32, 32]);
        assert_eq!(s.to_string(), "(8x3x32x32)");
    }
}
