//! Split parity of the window kernels: max and average pooling and
//! local response normalization cut across a worker team — by images
//! when the batch fills the team, else by planes — are **bitwise
//! identical** to the same call on one thread, on every kernel path.
//!
//! The LRN cases are the ones a shortcut would break: a piece that
//! starts at channel `c0` must replay the window's adds and subtracts
//! from channel 0, since summing its first window afresh rounds
//! differently. Channel counts of 1 (nothing to cut inside an image), 2,
//! 4, 13 (pieces that start mid-window) and 192 (Googlenet's norm2)
//! cover it, each at window sizes 1, 3 and 5.
//!
//! The teams split from the first unit of work (the test seam
//! `with_min_part_macs(0)`). `kernels::force` is process-global and the
//! `intra_op_splits` counter is shared, so the tests serialize on one
//! mutex.

use cap_tensor::kernels;
use cap_tensor::{
    avg_pool2d_into, lrn_into, max_pool2d_into, LrnParams, Pool2dParams, Team, Tensor4,
    TensorResult, Workspace,
};
use std::sync::{Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn splits() -> u64 {
    cap_obs::metrics().intra_op_splits.get()
}

/// Values of both signs and magnitudes around 1, whose squares and sums
/// round.
fn input(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    Tensor4::from_fn(n, c, h, w, |i, ch, y, x| {
        (((i * 53 + ch * 29 + y * 11 + x * 7) % 37) as f32 - 18.0) / 7.3
    })
}

type Kernel<'a> = dyn Fn(&Tensor4, &mut Workspace, &mut Tensor4) -> TensorResult<()> + 'a;

/// Run `kernel` on `x` unsplit and on teams of two and three threads,
/// twice per team (the second call reuses every helper's workspace),
/// on every kernel path; every output must carry the unsplit bits, and
/// a call whose output has two units to cut must split.
fn assert_splits_bitwise(what: &str, x: &Tensor4, kernel: &Kernel<'_>) {
    let (n, c, _, _) = x.shape();
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        let mut want = Tensor4::zeros(0, 0, 0, 0);
        kernel(x, &mut Workspace::new(), &mut want).unwrap();
        for threads in [2, 3] {
            let mut ws = Workspace::new();
            ws.team = Some(Team::new(threads).with_min_part_macs(0));
            let units = if n >= threads { n } else { n * c };
            for call in 0..2 {
                let before = splits();
                let mut got = Tensor4::zeros(0, 0, 0, 0);
                kernel(x, &mut ws, &mut got).unwrap();
                let case = format!("{what} {} team {threads} call {call}", path.name());
                assert_eq!(splits() > before, units >= 2, "split: {case}");
                assert_eq!(got.shape(), want.shape(), "{case}");
                assert!(bits(&got) == bits(&want), "split output differs: {case}");
            }
        }
    }
    kernels::force(None);
}

#[test]
fn lrn_split_by_channel_ranges_is_bitwise_the_unsplit_call() {
    let _g = force_lock();
    for c in [1, 2, 4, 13, 192] {
        for local_size in [1, 3, 5] {
            let params = LrnParams {
                local_size,
                alpha: 1e-1,
                beta: 0.75,
                k: 2.0,
            };
            for n in [1, 2, 3] {
                let x = input(n, c, 5, 3);
                let what = format!("lrn c {c} local_size {local_size} batch {n}");
                assert_splits_bitwise(&what, &x, &|x, ws, out| lrn_into(x, &params, ws, out));
            }
        }
    }
}

#[test]
fn pools_split_by_planes_or_images_are_bitwise_the_unsplit_call() {
    let _g = force_lock();
    let geometries = [
        Pool2dParams::new(3, 1, 1),
        Pool2dParams::new(3, 0, 2),
        Pool2dParams::new(2, 1, 2),
    ];
    for p in geometries {
        for c in [1, 3, 5] {
            for n in [1, 2, 3] {
                let x = input(n, c, 7, 6);
                let what = format!(
                    "k {} pad {} stride {} c {c} batch {n}",
                    p.k, p.pad, p.stride
                );
                assert_splits_bitwise(&format!("max {what}"), &x, &|x, ws, out| {
                    max_pool2d_into(x, &p, ws, out)
                });
                assert_splits_bitwise(&format!("avg {what}"), &x, &|x, ws, out| {
                    avg_pool2d_into(x, &p, ws, out)
                });
            }
        }
    }
}

#[test]
fn window_kernels_reject_empty_windows() {
    let x = input(1, 2, 4, 4);
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let zero = LrnParams {
        local_size: 0,
        alpha: 1e-4,
        beta: 0.75,
        k: 2.0,
    };
    assert!(lrn_into(&x, &zero, &mut Workspace::new(), &mut out).is_err());
    let p = Pool2dParams::new(0, 0, 1);
    assert!(avg_pool2d_into(&x, &p, &mut Workspace::new(), &mut out).is_err());
}
