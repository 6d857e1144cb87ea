//! The owned, row-major `f32` tensor type.

use crate::bytes::{put_f32s, put_u32, DecodeError, Reader};
use crate::{Result, Shape, TensorError};
use std::fmt;

/// An owned, row-major dense tensor of `f32` values.
///
/// `Tensor` is the workhorse type of the whole workspace: activations,
/// weights, gradients, prototypes and images are all `Tensor`s. The type is
/// deliberately simple — contiguous storage, explicit shapes, fallible
/// reshapes — so the numerical kernels built on top of it remain easy to
/// audit.
///
/// # Example
///
/// ```
/// use ofscil_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![1.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension extents of the tensor.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying data as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Reinterprets the tensor in place with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Returns the row `i` of a rank-2 tensor as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] when `i` exceeds the number of rows.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "row",
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.shape.dims().to_vec(),
            });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Copies `src` into row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not a matrix, the row index is out
    /// of range, or `src` has the wrong length.
    pub fn set_row(&mut self, i: usize, src: &[f32]) -> Result<()> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "set_row",
            });
        }
        let (rows, cols) = (self.shape.dims()[0], self.shape.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.shape.dims().to_vec(),
            });
        }
        if src.len() != cols {
            return Err(TensorError::LengthMismatch {
                expected: cols,
                actual: src.len(),
            });
        }
        self.data[i * cols..(i + 1) * cols].copy_from_slice(src);
        Ok(())
    }

    /// Element-wise addition, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// In-place element-wise addition of `other` scaled by `alpha`
    /// (`self += alpha * other`), the BLAS `axpy` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new tensor with every element multiplied by `scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|x| x * scalar)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Returns the squared Frobenius norm of the tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Returns the Frobenius norm of the tensor.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Stacks tensors of identical shape along a new leading axis: `n`
    /// tensors of shape `[d0, d1, …]` become one tensor of shape
    /// `[n, d0, d1, …]`. This is the batch-assembly primitive used by
    /// request coalescing in the serving runtime.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] when `tensors` is empty and
    /// [`TensorError::ShapeMismatch`] when any element's shape differs from
    /// the first.
    pub fn stack(tensors: &[&Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty("stack"))?;
        let mut data = Vec::with_capacity(tensors.len() * first.len());
        for t in tensors {
            if !t.shape.same_as(&first.shape) {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.dims().to_vec(),
                    right: t.shape.dims().to_vec(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&t.data);
        }
        let mut dims = Vec::with_capacity(first.shape.dims().len() + 1);
        dims.push(tensors.len());
        dims.extend_from_slice(first.shape.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Maximum absolute difference between two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Appends the tensor's byte layout: rank (`u8`), each extent (`u32`),
    /// then the elements as IEEE-754 bits — bit-exact across a wire.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let dims = self.dims();
        out.reserve(1 + dims.len() * 4 + self.data.len() * 4);
        out.push(dims.len() as u8);
        for &d in dims {
            put_u32(out, d as u32);
        }
        put_f32s(out, &self.data);
    }

    /// Inverse of [`Tensor::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`]; the element count implied by the
    /// extents is proved against the remaining bytes before anything is
    /// allocated, so hostile extents cannot balloon memory.
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<Tensor, DecodeError> {
        let rank = usize::from(r.u8()?);
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.u32()? as usize);
        }
        // Element count in u64 so corrupt extents cannot overflow.
        let len = dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or(DecodeError::LengthOverflow {
                field: "tensor",
                declared: u64::MAX,
            })?;
        let len = r.prove("tensor", len, 4)?;
        Tensor::from_vec(r.f32s(len)?, &dims).map_err(|e| DecodeError::BadTensor(e.to_string()))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_builds_a_batch_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let stacked = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(stacked.dims(), &[2, 2, 2]);
        assert_eq!(
            stacked.as_slice(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
        // Singleton stacks still gain the leading axis.
        assert_eq!(Tensor::stack(&[&a]).unwrap().dims(), &[1, 2, 2]);
        // Mismatched shapes and empty inputs are rejected.
        assert!(Tensor::stack(&[]).is_err());
        assert!(Tensor::stack(&[&a, &Tensor::zeros(&[3])]).is_err());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).as_slice(), &[2.5, 2.5]);
        assert_eq!(Tensor::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        assert!(Tensor::from_vec(vec![1.0; 3], &[2, 2]).is_err());
    }

    #[test]
    fn indexing_and_rows() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        t.set(&[0, 1], 9.0).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 9.0, 3.0]);
        t.set_row(1, &[7.0, 8.0, 9.0]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[7.0, 8.0, 9.0]);
        assert!(t.row(2).is_err());
        assert!(t.set_row(0, &[1.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        let c = Tensor::zeros(&[2]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn reshape_checks_volume() {
        let t = Tensor::zeros(&[2, 6]);
        assert_eq!(t.reshape(&[3, 4]).unwrap().dims(), &[3, 4]);
        assert!(t.reshape(&[5]).is_err());
        let mut t2 = t.clone();
        t2.reshape_in_place(&[12]).unwrap();
        assert_eq!(t2.dims(), &[12]);
    }

    #[test]
    fn norms_and_finiteness() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        let bad = Tensor::from_slice(&[f32::NAN, 1.0]);
        assert!(bad.norm().is_nan());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[16]);
        let s = t.to_string();
        assert!(s.contains("Tensor"));
        assert!(s.contains('…'));
    }
}
