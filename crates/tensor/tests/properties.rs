//! Property-based tests for the tensor substrate.
//!
//! `proptest` is unavailable offline, so these are hand-rolled randomized
//! property checks: each property is evaluated over `CASES` independent
//! inputs drawn from a seeded [`SeedRng`], so failures are reproducible.

use ofscil_tensor::{cosine_similarity, im2col, softmax, Conv2dGeometry, SeedRng, Tensor};

const CASES: usize = 64;

/// Uniform vector in `[lo, hi)` of the given length.
fn rand_vec(rng: &mut SeedRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.uniform_range(lo, hi)).collect()
}

fn small_vec(rng: &mut SeedRng, len: usize) -> Vec<f32> {
    rand_vec(rng, len, -100.0, 100.0)
}

/// Random length in `[min, max)`.
fn rand_len(rng: &mut SeedRng, min: usize, max: usize) -> usize {
    min + rng.below(max - min)
}

#[test]
fn add_is_commutative() {
    let mut rng = SeedRng::new(0xADD);
    for case in 0..CASES {
        let len = rand_len(&mut rng, 1, 64);
        let data = rand_vec(&mut rng, len, -1e3, 1e3);
        let a = Tensor::from_slice(&data);
        let b = a.scale(0.5);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        assert_eq!(ab, ba, "case {case}");
    }
}

#[test]
fn scale_then_norm_scales_norm() {
    let mut rng = SeedRng::new(0x5CA1E);
    for case in 0..CASES {
        let len = rand_len(&mut rng, 1, 64);
        let t = Tensor::from_slice(&rand_vec(&mut rng, len, -10.0, 10.0));
        let k = rng.uniform_range(0.1, 4.0);
        let scaled = t.scale(k);
        assert!(
            (scaled.norm() - k * t.norm()).abs() < 1e-2 * (1.0 + t.norm()),
            "case {case}"
        );
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = SeedRng::new(0xAA77);
    for case in 0..CASES {
        let a = Tensor::from_vec(small_vec(&mut rng, 6 * 4), &[6, 4]).unwrap();
        let b = Tensor::from_vec(small_vec(&mut rng, 4 * 5), &[4, 5]).unwrap();
        let c = Tensor::from_vec(small_vec(&mut rng, 4 * 5), &[4, 5]).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-1, "case {case}");
    }
}

/// The scalar i-j-k product: each output sums its `k` products in ascending
/// order, starting from `0.0`. `Tensor::matmul` must equal it bit for bit.
fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[test]
fn matmul_is_bit_identical_to_the_scalar_reference() {
    let mut rng = SeedRng::new(0x6E77);
    // K = 17 fits inside one 64-wide K block, K = 64 fills exactly one and
    // K = 150 spans three.
    for (m, k, n) in [(12, 17, 9), (96, 64, 80), (70, 150, 64)] {
        for case in 0..8 {
            // About a quarter exact zeros in A, so the zero skip is taken.
            let a: Vec<f32> = (0..m * k)
                .map(|_| if rng.below(4) == 0 { 0.0 } else { rng.normal() })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let want = matmul_reference(&a, &b, m, k, n);
            let got = Tensor::from_vec(a, &[m, k])
                .unwrap()
                .matmul(&Tensor::from_vec(b, &[k, n]).unwrap())
                .unwrap();
            assert_eq!(got.dims(), &[m, n]);
            let same = got
                .as_slice()
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{m}x{k}·{k}x{n} case {case}");
        }
    }
}

#[test]
fn matmul_threading_is_equivalent() {
    // A coalesced serving batch answers each request with one row of a
    // batched product on one serve worker's thread, so row i must equal the
    // 1-row product bit for bit, whatever the other rows hold.
    let mut rng = SeedRng::new(0x7EAD);
    for case in 0..CASES {
        let (m, k, n) = (rand_len(&mut rng, 40, 100), rand_len(&mut rng, 1, 160), 64);
        let a = small_vec(&mut rng, m * k);
        let b = Tensor::from_vec(small_vec(&mut rng, k * n), &[k, n]).unwrap();
        let whole = Tensor::from_vec(a.clone(), &[m, k])
            .unwrap()
            .matmul(&b)
            .unwrap();
        for (i, a_row) in a.chunks(k).enumerate() {
            let row = Tensor::from_vec(a_row.to_vec(), &[1, k])
                .unwrap()
                .matmul(&b)
                .unwrap();
            let same = whole.as_slice()[i * n..(i + 1) * n]
                .iter()
                .zip(row.as_slice())
                .all(|(w, r)| w.to_bits() == r.to_bits());
            assert!(same, "{m}x{k}·{k}x{n} row {i} case {case}");
        }
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = SeedRng::new(0x7A05);
    for case in 0..CASES {
        let t = Tensor::from_vec(small_vec(&mut rng, 7 * 9), &[7, 9]).unwrap();
        assert_eq!(
            t.transpose().unwrap().transpose().unwrap(),
            t,
            "case {case}"
        );
    }
}

#[test]
fn cosine_similarity_is_bounded() {
    let mut rng = SeedRng::new(0xC05);
    for case in 0..CASES {
        let a = small_vec(&mut rng, 16);
        let b = small_vec(&mut rng, 16);
        let c = cosine_similarity(&a, &b).unwrap();
        assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&c), "case {case}: {c}");
    }
}

#[test]
fn cosine_is_scale_invariant() {
    let mut rng = SeedRng::new(0x5CA1E2);
    for case in 0..CASES {
        let a = small_vec(&mut rng, 16);
        let k = rng.uniform_range(0.1, 10.0);
        let scaled: Vec<f32> = a.iter().map(|x| x * k).collect();
        let c1 = cosine_similarity(&a, &a).unwrap();
        let c2 = cosine_similarity(&a, &scaled).unwrap();
        assert!((c1 - c2).abs() < 1e-3, "case {case}");
    }
}

#[test]
fn softmax_is_a_distribution() {
    let mut rng = SeedRng::new(0x50F7);
    for case in 0..CASES {
        let len = rand_len(&mut rng, 1, 32);
        let logits = rand_vec(&mut rng, len, -20.0, 20.0);
        let p = softmax(&logits);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4, "case {case}");
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "case {case}");
    }
}

#[test]
fn im2col_preserves_energy_without_padding_stride_kernel() {
    let mut rng = SeedRng::new(0x132C);
    for case in 0..CASES {
        // With a 1x1 kernel and stride 1 the lowering is a permutation, so the
        // sum of elements must be preserved exactly.
        let img = Tensor::from_vec(rand_vec(&mut rng, 2 * 6 * 6, -5.0, 5.0), &[2, 6, 6]).unwrap();
        let g = Conv2dGeometry::new(6, 6, 1, 1, 0);
        let cols = im2col(&img, 2, &g).unwrap();
        assert!((cols.sum() - img.sum()).abs() < 1e-3, "case {case}");
    }
}

#[test]
fn reshape_preserves_data() {
    let mut rng = SeedRng::new(0x2E5);
    for case in 0..CASES {
        let data = small_vec(&mut rng, 24);
        let t = Tensor::from_vec(data.clone(), &[2, 3, 4]).unwrap();
        let r = t.reshape(&[6, 4]).unwrap();
        assert_eq!(r.as_slice(), &data[..], "case {case}");
    }
}
