//! Deterministic weight initializers.
//!
//! **The stream contract.** Each initializer is a pure function of its
//! seed, element by element: element `i` of the row-major data of
//! [`xavier_uniform`]`(rows, cols, seed)` is the `i`-th
//! `gen_range(-b..=b)` of a `ChaCha8Rng` seeded with `seed` — the two
//! words `2i`, `2i + 1` of its keystream, so word `2(i % 8)` onward of
//! block `i / 8` — and element `i` of [`gaussian`] is one Box–Muller
//! draw from words `4i .. 4i + 4`. The `*_fill` functions compute any
//! range of elements on their own ([`xavier_fill`] in steps of eight
//! blocks, [`crate::kernels::uniform_fill_with`]), so a fill cut into
//! pieces across threads, or run on any kernel path, gives the same
//! bits as the one loop over all of it: the weights of a seeded model
//! do not depend on the host, the path or the thread count.

use crate::dense::Matrix;
use crate::kernels;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Xavier/Glorot-uniform initialization for a `rows × cols` weight matrix,
/// seeded for reproducibility: uniform in `±`[`xavier_bound`]`(rows, cols)`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    xavier_fill(rows, cols, seed, 0, m.as_mut_slice());
    m
}

/// The bound of [`xavier_uniform`]: `√(6 / (fan_in + fan_out))`, with
/// `fan_in`/`fan_out` the `cols`/`rows` of the weight matrix.
pub fn xavier_bound(rows: usize, cols: usize) -> f32 {
    (6.0 / (rows + cols) as f64).sqrt() as f32
}

/// Elements `start .. start + out.len()` of the row-major data of
/// [`xavier_uniform`]`(rows, cols, seed)`, into `out`, on the selected
/// kernel path. See the [module docs](self) for the stream.
pub fn xavier_fill(rows: usize, cols: usize, seed: u64, start: usize, out: &mut [f32]) {
    let bound = xavier_bound(rows, cols);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if start > 0 {
        rng.set_word_pos(2 * start as u128);
    }
    kernels::uniform_fill_with(kernels::selected(), &mut rng, -bound, bound, out);
}

/// Gaussian initialization with the given standard deviation (Caffe's
/// default conv initializer), seeded for reproducibility.
pub fn gaussian(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    gaussian_fill(std, seed, 0, m.as_mut_slice());
    m
}

/// Elements `start .. start + out.len()` of the data of
/// [`gaussian`]`(_, _, std, seed)`, into `out`: each one Box–Muller draw
/// from four words of the stream, the first at word `4 · start`.
pub fn gaussian_fill(std: f32, seed: u64, start: usize, out: &mut [f32]) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    if start > 0 {
        rng.set_word_pos(4 * start as u128);
    }
    for v in out {
        // Box–Muller transform.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        *v = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = xavier_uniform(4, 6, 42);
        let b = xavier_uniform(4, 6, 42);
        let c = xavier_uniform(4, 6, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_within_bound() {
        let m = xavier_uniform(10, 20, 7);
        let bound = (6.0 / 30.0_f64).sqrt() as f32 + 1e-6;
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn gaussian_roughly_centered() {
        let m = gaussian(100, 100, 0.01, 11);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / m.len() as f32;
        assert!((var.sqrt() - 0.01).abs() < 2e-3, "std {}", var.sqrt());
    }

    #[test]
    fn gaussian_pieces_are_the_whole() {
        let whole = gaussian(7, 13, 0.5, 21);
        let mut pieces = vec![0.0f32; whole.len()];
        for piece in [0..5, 5..6, 6..40, 40..91] {
            gaussian_fill(0.5, 21, piece.start, &mut pieces[piece]);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pieces), bits(whole.as_slice()));
    }
}
