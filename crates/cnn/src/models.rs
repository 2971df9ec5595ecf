//! Model zoo: the two CNNs the paper evaluates. (The small trainable
//! net is a preset of [`crate::train::SequentialNet`].)

mod caffenet;
mod googlenet;

pub use caffenet::{caffenet, CAFFENET_CONV_LAYERS};
pub use googlenet::{googlenet, GOOGLENET_SELECTED_LAYERS};

use crate::dag::host_parallelism;
use cap_tensor::init::{gaussian_fill, xavier_fill};
use cap_tensor::kernels::keystream::STEP_ELEMS;
use cap_tensor::team::run_pieces;
use cap_tensor::{Matrix, Team};

/// Fills of fewer elements run on the caller, without the model's team.
/// Handing a piece to a parked helper and waiting for it costs ~10 µs
/// (a 2¹⁰-element fill: ~3 µs whole, ~13 µs split in two), so a split
/// breaks even between 2¹³ and 2¹⁴ Xavier elements (AVX-512 build,
/// 2-core host) and reads ~0.7× the whole fill at 2¹⁶. The minimum sits
/// above the break-even so that a split whose helper shares the
/// caller's CPU — which gains nothing — loses at most ~10 % of its fill.
const SPLIT_MIN_ELEMS: usize = 1 << 16;

/// Weight initialization strategy for model construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightInit {
    /// All-zero weights — instant construction for structure/shape tests
    /// and FLOP accounting where values are irrelevant.
    Zeros,
    /// Gaussian with the given standard deviation (Caffe's conv default),
    /// deterministic per seed.
    Gaussian {
        /// Standard deviation.
        std: f32,
        /// RNG seed.
        seed: u64,
    },
    /// Xavier/Glorot uniform, deterministic per seed.
    Xavier {
        /// RNG seed.
        seed: u64,
    },
}

impl WeightInit {
    /// Materialize a `rows × cols` weight matrix. `salt` decorrelates
    /// layers built from the same model seed.
    pub fn build(&self, rows: usize, cols: usize, salt: u64) -> Matrix {
        self.build_on(None, rows, cols, salt)
    }

    /// [`WeightInit::build`], with a fill of at least `SPLIT_MIN_ELEMS`
    /// elements cut across `team` in pieces of whole lane steps
    /// (`STEP_ELEMS` elements, eight keystream blocks). Every element is
    /// a function of its index and the seed alone (see
    /// [`cap_tensor::init`]), so the matrix is bitwise the one
    /// [`WeightInit::build`] makes, on any team.
    pub(crate) fn build_on(
        &self,
        team: Option<&mut Team>,
        rows: usize,
        cols: usize,
        salt: u64,
    ) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        let fill: &(dyn Fn(usize, &mut [f32]) + Sync) = match *self {
            WeightInit::Zeros => return m,
            WeightInit::Gaussian { std, seed } => {
                &move |start, piece| gaussian_fill(std, seed ^ salt, start, piece)
            }
            WeightInit::Xavier { seed } => {
                &move |start, piece| xavier_fill(rows, cols, seed ^ salt, start, piece)
            }
        };
        let data = m.as_mut_slice();
        match team {
            Some(team) if data.len() >= SPLIT_MIN_ELEMS => {
                let parts = team.threads();
                run_pieces(team, parts, data, STEP_ELEMS, &|start, piece| {
                    fill(start, piece);
                    Ok(())
                })
                .expect("a fill piece cannot fail");
            }
            _ => fill(0, data),
        }
        m
    }
}

/// What a model constructor draws its weight matrices from: `init`,
/// with one [`Team`] of `host_parallelism()` threads for the whole model
/// (none for [`WeightInit::Zeros`]), so each large fill splits across
/// the cores without a team per layer.
pub(crate) struct WeightFill {
    init: WeightInit,
    team: Option<Team>,
}

impl WeightFill {
    pub(crate) fn new(init: WeightInit) -> Self {
        let team = (init != WeightInit::Zeros).then(|| Team::new(host_parallelism()));
        Self { init, team }
    }

    /// [`WeightInit::build_on`] this model's team.
    pub(crate) fn build(&mut self, rows: usize, cols: usize, salt: u64) -> Matrix {
        self.init.build_on(self.team.as_mut(), rows, cols, salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_init_is_zero() {
        let m = WeightInit::Zeros.build(3, 4, 7);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_split_fill_is_the_whole_fill() {
        // Above the split minimum, with an uneven last piece and a length
        // that is no multiple of a lane step.
        let (rows, cols) = (257, 263);
        assert!(rows * cols >= SPLIT_MIN_ELEMS);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for init in [
            WeightInit::Xavier { seed: 5 },
            WeightInit::Gaussian { std: 0.01, seed: 5 },
        ] {
            let whole = init.build(rows, cols, 9);
            for threads in [2, 3] {
                let mut team = Team::new(threads);
                let split = init.build_on(Some(&mut team), rows, cols, 9);
                assert_eq!(bits(&split), bits(&whole), "{init:?} on {threads} threads");
            }
        }
    }

    #[test]
    fn salted_init_decorrelates_layers() {
        let init = WeightInit::Xavier { seed: 1 };
        assert_ne!(init.build(4, 4, 1), init.build(4, 4, 2));
        assert_eq!(init.build(4, 4, 1), init.build(4, 4, 1));
    }
}
