//! Benchmark-owned inputs: everything a workload consumes is derived
//! from `--seed` here, with a PRNG the benchmark owns (`cap-data` is
//! bypassed on purpose), so the program under test receives only
//! generated inputs and the same seed always gives the same bytes.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and good
/// enough to fill images. Not the repo's ChaCha shim, so a change to
/// that shim cannot silently change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` with 24 bits of mantissa (exact in f32).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// The independent seed streams one `--seed` fans out into. Each is a
/// SplitMix64 output of the run seed, so neighbouring run seeds (1, 2,
/// 3, ...) still give unrelated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Fills the input images.
    pub images: u64,
    /// Weight-init seed handed to the model builders.
    pub weights: u64,
    /// Arrival-trace seed handed to the trace generator.
    pub trace: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Self {
        let mut g = SplitMix64::new(seed);
        Self {
            images: g.next_u64(),
            weights: g.next_u64(),
            trace: g.next_u64(),
        }
    }
}

/// `n` images of `c*h*w` values in `[-1, 1)`, NCHW-contiguous.
pub fn image_data(seed: u64, n: usize, chw: (usize, usize, usize)) -> Vec<f32> {
    let mut g = SplitMix64::new(seed);
    (0..n * chw.0 * chw.1 * chw.2)
        .map(|_| g.next_f32())
        .collect()
}

/// FNV-1a over a byte stream: the checksum printed with every run so
/// two result files can be shown to have consumed identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_image_bytes() {
        let a = image_data(Seeds::derive(7).images, 2, (3, 8, 8));
        let b = image_data(Seeds::derive(7).images, 2, (3, 8, 8));
        let c = image_data(Seeds::derive(8).images, 2, (3, 8, 8));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn seed_streams_are_distinct_and_stable() {
        let s = Seeds::derive(1);
        assert_eq!(s, Seeds::derive(1));
        assert_ne!(s.images, s.weights);
        assert_ne!(s.weights, s.trace);
        assert_ne!(s, Seeds::derive(2));
    }

    #[test]
    fn checksum_depends_on_every_byte() {
        let mut a = Fnv1a::default();
        a.write_f32s(&[1.0, 2.0, 3.0]);
        let mut b = Fnv1a::default();
        b.write_f32s(&[1.0, 2.0, 3.5]);
        assert_ne!(a.finish(), b.finish());
    }
}
