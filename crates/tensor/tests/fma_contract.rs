//! The f32 multiply-accumulate contract is FMA: each step of every chain
//! is one fused multiply-add, rounded once, on every kernel path.
//!
//! Parity suites compare paths with each other, so a change that
//! unfused every path at once would pass them. This file pins the
//! arithmetic itself with operands where one rounding and two disagree:
//! `u = 1 + 2⁻¹²` squared is `1 + 2⁻¹¹ + 2⁻²⁴`, which rounds to
//! `1 + 2⁻¹¹` in `f32`. Against an accumulator of `−(1 + 2⁻¹¹)` the
//! fused step leaves `2⁻²⁴` and the unfused one `0`.
//!
//! Every A row is `[−(1 + 2⁻¹¹), 0, u, 0]` and every B column
//! `[1, 3, u, 3]`, so each output element's chain is: load the
//! accumulator exactly, add an exact zero, take the deciding step, add
//! an exact zero. Each entry is driven through its public caller on
//! every available path, and once through the plain (non-FMA-compiled)
//! scalar build, at widths that reach both the SIMD body and its
//! scalar tail.

use cap_tensor::kernels::{self, scalar, Epilogue, PANEL};
use cap_tensor::{gemm_packed, gemm_prealloc, CsrMatrix, Matrix, PackedB};

const K: usize = 4;

/// Output widths: under one panel (all tail), two panels plus a
/// partial third (the AVX2 panel pair and odd panel, the 8-lane `axpy`
/// body and its tail), and 13 panels plus 3 lanes (GEMV 4-panel groups
/// and their remainder; the CSR row's 64-, 32- and 8-column blocks and
/// its tail).
const WIDTHS: [usize; 3] = [3, 19, 107];

/// Rows: 1 is the GEMV route, 5 one 4-row block plus a trailing row.
const ROWS: [usize; 2] = [1, 5];

fn u() -> f32 {
    1.0 + 2f32.powi(-12)
}

/// The fused result of every output element: `2⁻²⁴`.
fn fused() -> f32 {
    2f32.powi(-24)
}

fn a(m: usize) -> Matrix {
    let v = -(1.0 + 2f32.powi(-11));
    let row = [v, 0.0, u(), 0.0];
    Matrix::from_fn(m, K, |_, c| row[c])
}

fn b(n: usize) -> Matrix {
    let col = [1.0, 3.0, u(), 3.0];
    Matrix::from_fn(K, n, |r, _| col[r])
}

fn assert_fused(out: &[f32], what: &str) {
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(
            v.to_bits(),
            fused().to_bits(),
            "{what}: element {i} is {v:e}, not the fused 2^-24 (0 means two roundings)"
        );
    }
}

#[test]
fn the_operands_separate_one_rounding_from_two() {
    let (v, u) = (-(1.0 + 2f32.powi(-11)), u());
    assert_eq!(u.mul_add(u, v), fused());
    assert_eq!(u * u + v, 0.0);
}

#[test]
fn every_multiply_accumulate_entry_fuses_on_every_path() {
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for n in WIDTHS {
            let (b, packed) = (b(n), PackedB::pack(&b(n)));
            let csr_b = b.as_slice();
            for m in ROWS {
                let a = a(m);
                let what = |entry: &str| format!("{entry} on {} at {m}x{K}x{n}", path.name());

                let mut c = vec![0.0; m * n];
                gemm_packed(
                    a.as_slice(),
                    m,
                    K,
                    n,
                    packed.as_slice(),
                    &mut c,
                    Epilogue::NONE,
                )
                .unwrap();
                assert_fused(&c, &what("gemm_packed"));

                let mut c = Matrix::zeros(m, n);
                gemm_prealloc(&a, &b, &mut c).unwrap();
                assert_fused(c.as_slice(), &what("gemm_prealloc (axpy)"));

                let csr = CsrMatrix::from_dense(&a, 0.0);
                let mut c = vec![0.0; m * n];
                csr.spmm_into(csr_b, n, &mut c, None, false).unwrap();
                assert_fused(&c, &what("CsrMatrix::spmm_into"));

                let x: Vec<f32> = (0..K).map(|r| b.get(r, 0)).collect();
                assert_fused(&csr.matvec(&x).unwrap(), &what("CsrMatrix::matvec (spmv)"));
            }
        }
    }
    kernels::force(None);
}

#[test]
fn the_plain_scalar_build_fuses_too() {
    // Called directly, the scalar kernels are the build FMA-less hosts
    // run: `mul_add` is libm's correctly rounded `fmaf` there.
    let (v, u) = (-(1.0 + 2f32.powi(-11)), u());
    for n in WIDTHS {
        let (b, packed) = (b(n), PackedB::pack(&b(n)));
        let panels = n.div_ceil(PANEL);
        for m in ROWS {
            let a = a(m);
            let mut c = vec![0.0; m * n];
            scalar::gemm_packed_band(
                a.as_slice(),
                K,
                n,
                packed.as_slice(),
                &mut c,
                0,
                0..panels,
                Epilogue::NONE,
            );
            assert_fused(&c, &format!("scalar::gemm_packed_band at {m}x{K}x{n}"));
        }
        let mut c = vec![0.0; n];
        scalar::gemv_packed(
            a(1).as_slice(),
            n,
            packed.as_slice(),
            &mut c,
            Epilogue::NONE,
        );
        assert_fused(&c, &format!("scalar::gemv_packed at n = {n}"));

        let mut c = vec![0.0; n];
        scalar::spmm_row(&[v, u], &[0, 2], b.as_slice(), n, &mut c, None, false);
        assert_fused(&c, &format!("scalar::spmm_row at n = {n}"));

        let mut c = vec![0.0; n];
        for (kk, &aik) in [v, 0.0, u, 0.0].iter().enumerate() {
            scalar::axpy(&mut c, aik, b.row(kk));
        }
        assert_fused(&c, &format!("scalar::axpy at n = {n}"));
    }
    let y = scalar::spmv(&[v, u], &[0, 2], &[1.0, 3.0, u, 3.0], None, false);
    assert_fused(&[y], "scalar::spmv");
}
