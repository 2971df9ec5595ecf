//! Model zoo: the two CNNs the paper evaluates. (The small trainable
//! net is a preset of [`crate::train::SequentialNet`].)

mod caffenet;
mod googlenet;

pub use caffenet::{caffenet, CAFFENET_CONV_LAYERS};
pub use googlenet::{googlenet, GOOGLENET_SELECTED_LAYERS};

use cap_tensor::init::{gaussian, xavier_uniform};
use cap_tensor::Matrix;

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
        match *self {
            WeightInit::Zeros => Matrix::zeros(rows, cols),
            WeightInit::Gaussian { std, seed } => gaussian(rows, cols, std, seed ^ salt),
            WeightInit::Xavier { seed } => xavier_uniform(rows, cols, seed ^ salt),
        }
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
    fn salted_init_decorrelates_layers() {
        let init = WeightInit::Xavier { seed: 1 };
        assert_ne!(init.build(4, 4, 1), init.build(4, 4, 2));
        assert_eq!(init.build(4, 4, 1), init.build(4, 4, 1));
    }
}
