//! Matrix multiplication and related linear-algebra kernels.

use crate::{Result, Tensor, TensorError};

/// Block size along the shared (K) dimension of [`Tensor::matmul`].
const BLOCK_K: usize = 64;

/// Tile edge of [`transpose_into`]: a 32×32 f32 tile is 4 KiB.
const TRANSPOSE_TILE: usize = 32;

/// Writes the row-major `[rows, cols]` matrix `src` transposed into `dst`,
/// copying `TRANSPOSE_TILE`-square tiles so the column-strided writes of a
/// tile land in a few cache lines. [`Tensor::transpose`] and every change
/// between an image's planes `[c, h * w]` and its pixels `[h * w, c]` run it.
///
/// # Panics
///
/// Panics unless `src` and `dst` each hold exactly `rows * cols` values.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!((src.len(), dst.len()), (rows * cols, rows * cols));
    for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
        for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let j1 = (j0 + TRANSPOSE_TILE).min(cols);
            for i in i0..(i0 + TRANSPOSE_TILE).min(rows) {
                for (j, &v) in (j0..j1).zip(&src[i * cols + j0..i * cols + j1]) {
                    dst[j * rows + i] = v;
                }
            }
        }
    }
}

impl Tensor {
    /// Matrix product `self · other` for rank-2 tensors.
    ///
    /// One loop on the calling thread, with K blocked at 64: within a block,
    /// each row of `self` adds its nonzero entries times the matching rows of
    /// `other` into its output row. Every output sums its products in
    /// ascending k order, so row i of a product equals the 1-row product of
    /// row i bit for bit, whatever the other rows hold.
    ///
    /// # Errors
    ///
    /// Returns an error when either operand is not a matrix or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = matrix_dims(self, "matmul lhs")?;
        let (k2, n) = matrix_dims(other, "matmul rhs")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
                op: "matmul",
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for bk in (0..k).step_by(BLOCK_K) {
            let k_end = (bk + BLOCK_K).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for kk in bk..k_end {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aik * bv;
                    }
                }
            }
        }

        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a matrix: `[m, n]` becomes `[n, m]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for any other rank.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = matrix_dims(self, "transpose")?;
        let mut out = vec![0.0f32; m * n];
        transpose_into(self.as_slice(), m, n, &mut out);
        Tensor::from_vec(out, &[n, m])
    }
}

fn matrix_dims(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.dims().len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.dims().len(),
            op,
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_matches_naive() {
        // A hand-expanded 2×3 · 3×2 product with zeros in A; the seeded
        // bit-for-bit comparison with a scalar loop is in tests/properties.rs.
        let a = Tensor::from_vec(vec![1.0, 0.0, 3.0, 4.0, 5.0, 0.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        assert_eq!(a.matmul(&b).unwrap().as_slice(), &[40.0, 44.0, 73.0, 82.0]);
    }

    #[test]
    fn matmul_parallel_matches_single() {
        // A 96×64·64×80 batch and its 1×64·64×80 row products, all on the
        // calling thread, must agree bit for bit: coalesced serving answers
        // each request with one row of the batched product.
        let mut rng = crate::SeedRng::new(3);
        let a: Vec<f32> = (0..96 * 64).map(|_| rng.normal()).collect();
        let b = Tensor::from_vec((0..64 * 80).map(|_| rng.normal()).collect(), &[64, 80]).unwrap();
        let multi = Tensor::from_vec(a.clone(), &[96, 64])
            .unwrap()
            .matmul(&b)
            .unwrap();
        for (i, a_row) in a.chunks(64).enumerate() {
            let single = Tensor::from_vec(a_row.to_vec(), &[1, 64])
                .unwrap()
                .matmul(&b)
                .unwrap();
            let multi_row = &multi.as_slice()[i * 80..(i + 1) * 80];
            let same = multi_row
                .iter()
                .zip(single.as_slice())
                .all(|(m, s)| m.to_bits() == s.to_bits());
            assert!(same, "row {i}");
        }
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn matmul_with_an_empty_dimension() {
        // (m, k, n) with one of them zero. The n = 0 cases need no guard: the
        // kernel loops over rows and never divides by n.
        for (m, k, n) in [
            (0, 3, 2),
            (2, 0, 3),
            (2, 3, 0),
            (0, 0, 0),
            (4096, 3, 0),
            (5000, 0, 0),
        ] {
            let c = Tensor::ones(&[m, k])
                .matmul(&Tensor::ones(&[k, n]))
                .unwrap();
            assert_eq!(c.dims(), &[m, n]);
            assert!(c.as_slice().iter().all(|&v| v == 0.0), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_transpose_matches_the_naive_loop() {
        // Shapes narrower than, straddling and without a whole tile.
        for (m, n) in [
            (1, 70),
            (70, 1),
            (17, 33),
            (33, 17),
            (40, 65),
            (0, 5),
            (5, 0),
        ] {
            let a = Tensor::from_vec((0..m * n).map(|x| x as f32).collect(), &[m, n]).unwrap();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = a.as_slice()[i * n + j];
                }
            }
            let t = a.transpose().unwrap();
            assert_eq!(t.dims(), &[n, m]);
            assert_eq!(t.as_slice(), &naive[..], "{m}x{n}");
        }
    }

    #[test]
    fn transpose_takes_a_matrix_and_rejects_every_other_rank() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        for dims in [&[][..], &[4], &[2, 3, 4], &[2, 3, 4, 5]] {
            assert!(
                matches!(
                    Tensor::zeros(dims).transpose(),
                    Err(TensorError::RankMismatch {
                        expected: 2,
                        op: "transpose",
                        ..
                    })
                ),
                "{dims:?}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn transpose_into_rejects_a_destination_of_another_size() {
        transpose_into(&[0.0; 6], 2, 3, &mut [0.0; 5]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }
}
