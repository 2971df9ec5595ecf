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
//! every available path, the packed GEMM once more on every f32 tile
//! the host has, and once through the plain (non-FMA-compiled) scalar
//! build, at widths that reach both the SIMD body and its scalar tail;
//! the row GEMV, which reads `A`'s rows as `W`, on every tile and in
//! the plain scalar build.

use cap_tensor::kernels::{self, scalar, Epilogue, PANEL};
use cap_tensor::{gemm_packed, gemm_packed_with, CsrMatrix, F32Tile, Matrix, PackedB};

const K: usize = 4;

/// Output widths: under one panel (all tail), two panels plus a
/// partial third (the AVX2 panel pair and odd panel), and 13 panels
/// plus 3 lanes (GEMV 4-panel groups and their remainder; the zmm
/// tile's six-panel groups and the pair and odd panel they leave; the
/// CSR row's 64-, 32- and 8-column blocks and its tail).
const WIDTHS: [usize; 3] = [3, 19, 107];

/// Rows: 1 is the GEMV route, 5 one 4-row block plus a trailing row,
/// 17 one zmm 12-row block, one 4-row group and a trailing row.
const ROWS: [usize; 3] = [1, 5, 17];

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

                for tile in F32Tile::available() {
                    let mut c = vec![f32::NAN; m * n];
                    let b = packed.as_slice();
                    gemm_packed_with(tile, a.as_slice(), m, K, n, b, &mut c, Epilogue::NONE)
                        .unwrap();
                    assert_fused(&c, &what(&format!("gemm_packed_with tile {}", tile.name())));
                }

                let csr = CsrMatrix::from_dense(&a, 0.0);
                let mut c = Matrix::zeros(m, n);
                csr.matmul_dense_into(&b, &mut c).unwrap();
                assert_fused(c.as_slice(), &what("CsrMatrix::matmul_dense_into"));
            }
        }
    }
    kernels::force(None);
}

/// The row GEMV multiplies `W` (rows of `a`) by `x` (a column of `b`)
/// in place: the same chain per output, at depth 4 (a partial step
/// only) and 20 (one 16-deep step holding the deciding FMA, then a
/// partial one: the tail is exact zeros of `W` against 3s), on row
/// counts that reach the 8- and 16-row blocks and their tails.
#[test]
fn the_row_gemv_fuses_on_every_tile() {
    for depth in [K, K + 16] {
        let x: Vec<f32> = (0..depth)
            .map(|kk| if kk < K { b(1).get(kk, 0) } else { 3.0 })
            .collect();
        for m in [1, 5, 17, 33] {
            let w = Matrix::from_fn(m, depth, |r, c| if c < K { a(m).get(r, c) } else { 0.0 });
            for tile in F32Tile::available() {
                let mut y = vec![f32::NAN; m];
                kernels::gemv_rows_with(tile, w.as_slice(), &x, &mut y, Epilogue::NONE);
                let what = format!("gemv_rows_with tile {} at {m}x{depth}", tile.name());
                assert_fused(&y, &what);
            }
            let mut y = vec![f32::NAN; m];
            scalar::gemv_rows(w.as_slice(), &x, &mut y, Epilogue::NONE);
            assert_fused(&y, &format!("scalar::gemv_rows at {m}x{depth}"));
        }
    }
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
        scalar::spmm_row(&[v, u], &[0, 2], b.as_slice(), n, &mut c);
        assert_fused(&c, &format!("scalar::spmm_row at n = {n}"));
    }
}
