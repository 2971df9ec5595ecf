//! `lrn_into` against the `f64` oracle `reference::lrn`, on every
//! kernel path: the relative error of every output stays within
//! [`BOUND`], for β = 0.75 (the models' β, taken as two square roots)
//! and β = 0.6 (`powf`), at window sizes 1, 3 and 5.
//!
//! Measured on random inputs in [-4, 4] with α up to 1e-2: at most
//! 2.6e-7 for the square roots and 1.4e-7 for `powf` — the square roots
//! round three times where `powf` rounds about once, so about two more
//! ulps. Both stay under [`BOUND`], about 3.4 ulps of `f32`. A much
//! larger α (1) lets the `f32` sliding square sums' cancellation
//! dominate instead (about 2e-6 on both paths); no model uses one.
//!
//! `kernels::force` is process-global, so the cases serialize on one
//! mutex.

use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{lrn_into, reference, LrnParams, Tensor4, Workspace};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Largest relative error `lrn_into` may show against the oracle.
const BOUND: f64 = 4e-7;

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn on_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = f();
    kernels::force(None);
    out
}

/// Worst relative error of `lrn_into` on `path` over the nonzero
/// oracle outputs.
fn worst_error(path: KernelPath, x: &Tensor4, params: &LrnParams) -> f64 {
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    on_path(path, || {
        lrn_into(x, params, &mut Workspace::new(), &mut out).unwrap()
    });
    let want = reference::lrn(x, params).unwrap();
    out.as_slice()
        .iter()
        .zip(&want)
        .filter(|(_, &r)| r != 0.0)
        .map(|(&y, &r)| ((f64::from(y) - r) / r).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lrn_is_within_bound_of_the_f64_oracle(
        c in 1usize..14,
        h in 1usize..4,
        w in 1usize..20,
        window in 0usize..3,
        alpha_exp in 2i32..5,
        two in proptest::bool::ANY,
        seed in 0usize..10_000,
    ) {
        let _g = force_lock();
        let x = Tensor4::from_fn(2, c, h, w, |n, ch, y, xx| {
            let v = (n * 7919 + ch * 104_729 + y * 1_299_709 + xx * 15_485_863 + seed * 32_452_843)
                % 2001;
            (v as f32 - 1000.0) / 250.0
        });
        for beta in [0.75, 0.6] {
            let params = LrnParams {
                local_size: 2 * window + 1,
                alpha: 10f32.powi(-alpha_exp),
                beta,
                k: if two { 2.0 } else { 1.0 },
            };
            for path in kernels::available_paths() {
                let worst = worst_error(path, &x, &params);
                prop_assert!(
                    worst <= BOUND,
                    "{params:?} on {}: relative error {worst:e} > {BOUND:e}",
                    path.name()
                );
            }
        }
    }
}
