//! Deterministic random number generation used throughout the workspace.
//!
//! The generator is a self-contained ChaCha8 implementation (the same
//! algorithm family as `rand_chacha::ChaCha8Rng`), kept in-tree so the
//! workspace builds with no external dependencies. Streams are **not**
//! bit-compatible with `rand_chacha` (which expands seeds differently),
//! but carry the same guarantees this workspace relies on: identical
//! output for identical seeds on every platform, and statistically
//! independent forked streams.

/// A deterministic, seedable random number generator.
///
/// Wraps an in-tree ChaCha8 core so every experiment in the workspace is
/// reproducible bit-for-bit given the same seed, independent of platform.
///
/// # Example
///
/// ```
/// use ofscil_tensor::SeedRng;
///
/// let mut a = SeedRng::new(42);
/// let mut b = SeedRng::new(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SeedRng {
    inner: ChaCha8,
}

impl SeedRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedRng {
            inner: ChaCha8::from_seed(seed),
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// component (dataset, initializer, augmentation) its own stream.
    pub fn fork(&mut self, stream: u64) -> SeedRng {
        let base = self.next_u64();
        SeedRng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 32-bit word from the stream.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// Next raw 64-bit word from the stream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let word = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 random bits in the mantissa: every representable value is an
        // exact multiple of 2^-24, uniformly spaced over [0, 1).
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1: f32 = self.uniform().max(1e-12);
        let u2: f32 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Rejection sampling over u64 keeps the result exactly uniform.
        let n = n as u64;
        let limit = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < limit {
                return (x % n) as usize;
            }
        }
    }

    /// Bernoulli sample with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Returns a uniformly shuffled copy of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Fisher–Yates shuffle of a slice in place.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (k ≤ n), in random order.
    ///
    /// # Panics
    ///
    /// Panics when `k > n`.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} distinct items from {n}");
        let mut perm = self.permutation(n);
        perm.truncate(k);
        perm
    }
}

/// ChaCha8 stream cipher core used as a CSPRNG (original DJB layout: four
/// constant words, eight key words, a 64-bit block counter, 64-bit nonce —
/// not the RFC 8439 32-bit-counter/96-bit-nonce variant).
#[derive(Debug, Clone)]
struct ChaCha8 {
    /// Input block: words 0–3 constants, 4–11 key, 12–13 counter, 14–15 nonce.
    input: [u32; 16],
    /// Current keystream block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means the block is exhausted.
    cursor: usize,
}

impl ChaCha8 {
    /// Expands a 64-bit seed into the 256-bit ChaCha key with SplitMix64
    /// (the same construction `rand`'s `seed_from_u64` uses).
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let word = splitmix64(&mut sm);
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        let mut input = [0u32; 16];
        // "expand 32-byte k", the standard ChaCha constants.
        input[0] = 0x6170_7865;
        input[1] = 0x3320_646e;
        input[2] = 0x7962_2d32;
        input[3] = 0x6b20_6574;
        input[4..12].copy_from_slice(&key);
        // Counter (words 12–13) and nonce (14–15) start at zero.
        ChaCha8 {
            input,
            block: [0; 16],
            cursor: 16,
        }
    }

    fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.refill();
        }
        let word = self.block[self.cursor];
        self.cursor += 1;
        word
    }

    /// Generates the next keystream block and advances the 64-bit counter.
    fn refill(&mut self) {
        let mut x = self.input;
        for _ in 0..4 {
            // Column round.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (out, inp) in x.iter_mut().zip(self.input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.block = x;
        self.cursor = 0;
        let (lo, carry) = self.input[12].overflowing_add(1);
        self.input[12] = lo;
        if carry {
            self.input[13] = self.input[13].wrapping_add(1);
        }
    }
}

fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeedRng::new(123);
        let mut b = SeedRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn matches_chacha8_reference_keystream() {
        // SplitMix64 seed expansion never yields the all-zero key, so build
        // the zero-key core directly to compare against the published
        // ChaCha8 reference keystream.
        let mut core = ChaCha8 {
            input: {
                let mut input = [0u32; 16];
                input[0] = 0x6170_7865;
                input[1] = 0x3320_646e;
                input[2] = 0x7962_2d32;
                input[3] = 0x6b20_6574;
                input
            },
            block: [0; 16],
            cursor: 16,
        };
        // ChaCha8 with zero key/nonce/counter: the ECRYPT/chacha reference
        // keystream begins with bytes `3e 00 ef 2f 89 5f 40 d6 7f 5b b8 e8
        // 1f 09 a5 a1`, i.e. these little-endian u32 words.
        let first: Vec<u32> = (0..4).map(|_| core.next_u32()).collect();
        assert_eq!(first[0], 0x2fef_003e);
        assert_eq!(first[1], 0xd640_5f89);
        assert_eq!(first[2], 0xe8b8_5b7f);
        assert_eq!(first[3], 0xa1a5_091f);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SeedRng::new(9);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut rng = SeedRng::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SeedRng::new(31);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.below(7)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SeedRng::new(8);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        // With 56 random bits the chance of all-zero output is negligible.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn permutation_covers_all_indices() {
        let mut rng = SeedRng::new(4);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_distinct_has_no_duplicates() {
        let mut rng = SeedRng::new(5);
        let picks = rng.choose_distinct(100, 30);
        assert_eq!(picks.len(), 30);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SeedRng::new(77);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 4);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SeedRng::new(0).below(0);
    }
}
