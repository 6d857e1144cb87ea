//! Input generation: everything the program is fed comes from `--seed`,
//! through this file.
//!
//! A class is a random image *pattern* (per-channel brightness plus a fixed
//! per-pixel texture); a sample of the class is the pattern plus small
//! Gaussian noise. Patterns differ from each other by far more than the
//! noise, so an untrained backbone's features separate them and every
//! `Infer` reply can be checked against the label the generator drew.
//! (`serve::traffic::class_image` is not used: its classes `c` and `c + 3`
//! are the same image.)

use crate::workloads::Sizing;
use ofscil::data::Batch;
use ofscil::prelude::{SeedRng, ServeRequest, Tensor};
use ofscil_simbench::samplers::Zipfian;

/// Standard deviation of the per-pixel sample noise (patterns span 0..1).
const NOISE: f32 = 0.01;

/// One generated request and the class its reply must name.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index of the target tenant.
    pub tenant: usize,
    /// The class the sample was drawn from.
    pub label: usize,
    /// The request as the serving API takes it; the direct path unpacks it.
    pub request: ServeRequest,
}

impl Request {
    /// `true` for `LearnOnline`.
    pub fn is_learn(&self) -> bool {
        matches!(self.request, ServeRequest::LearnOnline { .. })
    }
}

/// Deployment name of tenant `index`.
pub fn tenant_name(index: usize) -> String {
    format!("tenant-{index:02}")
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    // SplitMix64 finaliser over the three words: distinct (seed, a, b)
    // triples give unrelated streams.
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The class patterns of one run.
#[derive(Debug)]
pub struct World {
    sizing: Sizing,
    seed: u64,
    /// `patterns[tenant][class]` for the fixed class set of workloads that
    /// re-learn; empty for `new_classes` workloads, whose patterns are
    /// derived on demand from `(seed, tenant, class)`.
    patterns: Vec<Vec<Vec<f32>>>,
}

impl World {
    /// Generates the patterns of `sizing`'s tenants from `seed`.
    pub fn new(sizing: &Sizing, seed: u64) -> World {
        let patterns = if sizing.new_classes {
            Vec::new()
        } else {
            (0..sizing.tenants)
                .map(|t| {
                    (0..sizing.base_classes)
                        .map(|c| pattern(sizing.side, seed, t, c))
                        .collect()
                })
                .collect()
        };
        World {
            sizing: *sizing,
            seed,
            patterns,
        }
    }

    /// The sizing the world was generated for.
    pub fn sizing(&self) -> &Sizing {
        &self.sizing
    }

    fn sample(&self, tenant: usize, class: usize, rng: &mut SeedRng) -> Vec<f32> {
        let derived;
        let pattern = match self.patterns.get(tenant) {
            Some(classes) => &classes[class],
            None => {
                derived = pattern(self.sizing.side, self.seed, tenant, class);
                &derived
            }
        };
        pattern.iter().map(|p| p + NOISE * rng.normal()).collect()
    }

    fn infer(&self, tenant: usize, class: usize, rng: &mut SeedRng) -> Request {
        let side = self.sizing.side;
        let image = Tensor::from_vec(self.sample(tenant, class, rng), &[3, side, side])
            .expect("pattern length matches the image shape");
        Request {
            tenant,
            label: class,
            request: ServeRequest::Infer {
                deployment: tenant_name(tenant),
                image,
            },
        }
    }

    fn learn(&self, tenant: usize, classes: &[usize], shots: usize, rng: &mut SeedRng) -> Request {
        let side = self.sizing.side;
        let mut data = Vec::with_capacity(classes.len() * shots * 3 * side * side);
        let mut labels = Vec::with_capacity(classes.len() * shots);
        for &class in classes {
            for _ in 0..shots {
                data.extend(self.sample(tenant, class, rng));
                labels.push(class);
            }
        }
        let images = Tensor::from_vec(data, &[labels.len(), 3, side, side])
            .expect("sample lengths match the batch shape");
        Request {
            tenant,
            label: classes[0],
            request: ServeRequest::LearnOnline {
                deployment: tenant_name(tenant),
                batch: Batch { images, labels },
            },
        }
    }

    /// Set-up traffic: one `LearnOnline` per tenant teaching every base
    /// class from a single shot. Empty for `new_classes` workloads, whose
    /// base prototypes are synthetic ([`World::synthetic_prototypes`]).
    pub fn base_learns(&self) -> Vec<Request> {
        if self.sizing.new_classes {
            return Vec::new();
        }
        let classes: Vec<usize> = (0..self.sizing.base_classes).collect();
        (0..self.sizing.tenants)
            .map(|t| {
                let mut rng = SeedRng::new(mix(self.seed, 0xba5e, t as u64));
                self.learn(t, &classes, 1, &mut rng)
            })
            .collect()
    }

    /// Synthetic base prototypes for `new_classes` workloads: random
    /// zero-mean directions, far (cosine ≈ 0) from any real feature vector.
    pub fn synthetic_prototypes(&self) -> Vec<Vec<f32>> {
        if !self.sizing.new_classes {
            return Vec::new();
        }
        let mut rng = SeedRng::new(mix(self.seed, 0x5e7, 0));
        (0..self.sizing.base_classes)
            .map(|_| (0..self.sizing.d_p).map(|_| rng.normal()).collect())
            .collect()
    }

    /// The request stream of generator thread `lane`. Lanes share the
    /// patterns and nothing else.
    pub fn lane(&self, lane: usize) -> Lane<'_> {
        Lane {
            world: self,
            rng: SeedRng::new(mix(self.seed, 0x1a9e, lane as u64)),
            tenants: Zipfian::new(self.sizing.tenants, self.sizing.zipf),
            learned: vec![0; self.sizing.tenants],
            position: 0,
        }
    }
}

fn pattern(side: usize, seed: u64, tenant: usize, class: usize) -> Vec<f32> {
    let mut rng = SeedRng::new(mix(seed, tenant as u64 + 1, class as u64 + 1));
    let mut values = Vec::with_capacity(3 * side * side);
    for _channel in 0..3 {
        let brightness = rng.uniform();
        for _ in 0..side * side {
            values.push(0.5 * brightness + 0.5 * rng.uniform());
        }
    }
    values
}

/// One generator thread's endless request stream: cycles of one
/// `LearnOnline` followed by `infers_per_learn` `Infer`s.
#[derive(Debug)]
pub struct Lane<'w> {
    world: &'w World,
    rng: SeedRng,
    tenants: Zipfian,
    /// Classes learned online so far, per tenant (`new_classes` only).
    learned: Vec<usize>,
    position: usize,
}

impl Lane<'_> {
    fn next_request(&mut self) -> Request {
        let sizing = &self.world.sizing;
        let tenant = self.tenants.sample(&mut self.rng);
        let learn = self.position.is_multiple_of(sizing.cycle());
        self.position += 1;
        if sizing.new_classes {
            // Online classes are numbered after the synthetic base.
            if learn || self.learned[tenant] == 0 {
                let class = sizing.base_classes + self.learned[tenant];
                self.learned[tenant] += 1;
                self.world
                    .learn(tenant, &[class], sizing.learn_shots, &mut self.rng)
            } else {
                let class = sizing.base_classes + self.rng.below(self.learned[tenant]);
                self.world.infer(tenant, class, &mut self.rng)
            }
        } else {
            let class = self.rng.below(sizing.base_classes);
            if learn {
                self.world
                    .learn(tenant, &[class], sizing.learn_shots, &mut self.rng)
            } else {
                self.world.infer(tenant, class, &mut self.rng)
            }
        }
    }

    /// The next `cycles` cycles of the stream.
    pub fn take_cycles(&mut self, cycles: usize) -> Vec<Request> {
        (0..cycles * self.world.sizing.cycle())
            .map(|_| self.next_request())
            .collect()
    }

    /// The next `count` requests of the stream.
    pub fn take_requests(&mut self, count: usize) -> Vec<Request> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

/// FNV-1a over every field of a request stream, image bits included: two
/// streams hash equal exactly when the program would be fed the same bytes.
pub fn stream_hash(requests: &[Request]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in requests {
        eat(r.tenant as u64);
        eat(r.label as u64);
        match &r.request {
            ServeRequest::Infer { image, .. } => {
                eat(1);
                image
                    .as_slice()
                    .iter()
                    .for_each(|v| eat(u64::from(v.to_bits())));
            }
            ServeRequest::LearnOnline { batch, .. } => {
                eat(2);
                batch.labels.iter().for_each(|&l| eat(l as u64));
                batch
                    .images
                    .as_slice()
                    .iter()
                    .for_each(|v| eat(u64::from(v.to_bits())));
            }
            other => unreachable!("the generator emits only Infer and LearnOnline, got {other:?}"),
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn prefix(sizing: &Sizing, seed: u64, lane: usize) -> Vec<Request> {
        let world = World::new(sizing, seed);
        let mut requests = world.base_learns();
        requests.extend(world.lane(lane).take_cycles(3));
        requests
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for sizing in &WORKLOADS {
            let a = stream_hash(&prefix(sizing, 11, 0));
            assert_eq!(a, stream_hash(&prefix(sizing, 11, 0)), "{}", sizing.name);
            assert_ne!(a, stream_hash(&prefix(sizing, 12, 0)), "{}", sizing.name);
            assert_ne!(a, stream_hash(&prefix(sizing, 11, 1)), "{}", sizing.name);
        }
    }

    #[test]
    fn cycles_have_the_declared_mix() {
        for sizing in &WORKLOADS {
            let world = World::new(sizing, 3);
            let requests = world.lane(0).take_cycles(4);
            assert_eq!(requests.len(), 4 * sizing.cycle());
            let learns = requests.iter().filter(|r| r.is_learn()).count();
            assert_eq!(learns, 4, "{}", sizing.name);
            for (i, r) in requests.iter().enumerate() {
                assert_eq!(
                    r.is_learn(),
                    i % sizing.cycle() == 0,
                    "{} #{i}",
                    sizing.name
                );
                assert!(r.tenant < sizing.tenants);
            }
        }
    }

    #[test]
    fn new_class_streams_only_query_what_they_taught() {
        let sizing = WORKLOADS.iter().find(|w| w.new_classes).unwrap();
        let world = World::new(sizing, 5);
        let mut taught = Vec::new();
        for r in world.lane(0).take_cycles(6) {
            if r.is_learn() {
                assert!(!taught.contains(&r.label), "class {} taught twice", r.label);
                assert!(r.label >= sizing.base_classes);
                taught.push(r.label);
            } else {
                assert!(
                    taught.contains(&r.label),
                    "query for untaught class {}",
                    r.label
                );
            }
        }
        assert_eq!(world.synthetic_prototypes().len(), sizing.base_classes);
        assert!(world.base_learns().is_empty());
    }

    #[test]
    fn samples_of_a_class_stay_close_to_its_pattern() {
        let sizing = &WORKLOADS[1];
        let world = World::new(sizing, 9);
        let mut rng = SeedRng::new(1);
        let a = world.sample(0, 3, &mut rng);
        let b = world.sample(0, 3, &mut rng);
        let other = world.sample(0, 4, &mut rng);
        let dist = |x: &[f32], y: &[f32]| {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&a, &b) * 10.0 < dist(&a, &other));
    }
}
