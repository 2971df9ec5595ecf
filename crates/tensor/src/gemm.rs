//! Dense GEMM: the packed driver every conv, batched fully-connected
//! layer and training pass runs on.
//!
//! `C = A * B` with `A: m×k`, `B: k×n`, `C: m×n`. [`gemm_packed`] walks
//! a panel-packed `B` ([`PackedB`]) in L2-sized column strips with a
//! register-blocked microkernel; [`gemm()`] packs a plain `B` and calls
//! it, and [`crate::reference::gemm_naive`] is the triple loop all of
//! them are pinned against bit for bit. The driver runs on the calling
//! thread, one row band of `C` after another. A caller with a worker
//! [`crate::Team`] cuts one multiply across threads *around* this
//! function, not inside it: rows of `A` ([`crate::team::split_rows`],
//! a conv's filters, a batched fc's rows of `W`) or panel-aligned
//! column ranges of an fc multiply ([`crate::team::split_columns`]),
//! each piece one `gemm_packed` call on a sub-range — so every output
//! element keeps its single ascending-`kk` chain and the bits do not
//! depend on the team.
//!
//! A fully-connected layer keeps no packed copy of its weights: at
//! batch 1 it multiplies its row-major `W` in place with the row GEMV
//! ([`crate::kernels::gemv_rows_with`]), and at larger batches it runs
//! [`gemm_packed`] with `A = W` and `B = Xᵀ`, the small input packed
//! into the workspace by [`pack_transposed_into`].

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels;
use crate::kernels::{Epilogue, F32Tile, PANEL};

/// Row-band size: the rows of `C` the packed driver finishes against one
/// column strip before moving down (cache blocking).
const ROW_BAND: usize = 32;

/// Budget for one column strip of packed `B` in [`gemm_packed`]: the
/// strip (`k × strip_cols × 4 B`) is what every row band re-reads, so
/// it has to stay L2-resident next to the streamed `A` band and the
/// `C` tile being written. Measured on the 2 MiB-L2 host over the 11
/// Caffenet/Googlenet conv shapes (`cargo bench -p cap-bench --bench
/// gemm -- gemm_layer_shapes`; table in EXPERIMENTS "PR 16"): 512 KiB
/// is the best of 256 KiB / 512 KiB / 1 MiB / 1.5 MiB. A constant with
/// its measurement on record, deliberately not a knob.
const STRIP_BYTES: usize = 512 * 1024;

/// Panels per column strip for a depth-`k` multiply: as many whole
/// panel *pairs* as fit [`STRIP_BYTES`], and never fewer than one pair
/// — both SIMD tiles consume panels in pairs (the ymm tile two
/// registers wide, the zmm tile one register per pair, its four-row
/// groups three pairs).
fn strip_panels(k: usize) -> usize {
    let panel_bytes = (k * PANEL * std::mem::size_of::<f32>()).max(1);
    (STRIP_BYTES / panel_bytes / 2 * 2).max(2)
}

/// Multiply two dense matrices, returning a freshly allocated result:
/// `B` packed once ([`PackedB::pack`]) and multiplied by
/// [`gemm_packed`], so each output element is one ascending-`kk` FMA
/// chain, bitwise [`crate::reference::gemm_naive`]. A zero in `A`
/// multiplies its `B` row like any other value: an inf or NaN there
/// reaches the output as IEEE arithmetic has it (`0 · inf` is NaN).
pub fn gemm(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_prepacked(a, &PackedB::pack(b), &mut c)?;
    Ok(c)
}

/// `B` pre-packed into column panels for repeated multiplication.
///
/// When one weight matrix multiplies many activation panels (every
/// steady-state inference loop), a row-major walk over `B` touches
/// `n`-strided cache lines per `k` step. Packing `B` once into `PANEL`-column blocks — each stored `k × PANEL`
/// contiguous, tail zero-padded — turns the inner loop into a fixed-width
/// register-blocked accumulation over a linear stream.
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Panel-major storage: panel `p` occupies
    /// `data[p*k*PANEL .. (p+1)*k*PANEL]`, row-major `k × PANEL`.
    data: Vec<f32>,
}

impl PackedB {
    /// Pack a `k × n` matrix.
    pub fn pack(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        let panels = n.div_ceil(PANEL);
        let mut data = vec![0.0f32; panels * k * PANEL];
        pack_panels(b.as_slice(), k, n, &mut data);
        Self { k, n, data }
    }

    /// Logical `(k, n)` shape of the packed matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The panel-major storage, as [`gemm_packed`] consumes it.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// Pack the transpose of the row-major `x` (rows `k` long) into `dst`
/// as [`gemm_packed`]'s `B` of depth `k`, one column per row of `x` —
/// byte for byte [`PackedB::pack`] of `xᵀ`, without materialising it.
/// Panel `p` is rows `p*PANEL..` of `x`: lane `j` of depth `kk` is
/// element `kk` of row `p*PANEL + j`; the last panel's lanes past the
/// rows stay zero. A batched fully-connected layer packs its input `Xᵀ`
/// this way to multiply its row-major `W` in place.
///
/// # Panics
/// If `x` is not whole rows of `k`.
pub fn pack_transposed_into(x: &[f32], k: usize, dst: &mut Matrix) {
    let rows = x.len().checked_div(k).unwrap_or(0);
    assert_eq!(rows * k, x.len(), "pack_transposed_into: not whole rows");
    let panels = rows.div_ceil(PANEL);
    dst.resize(panels, k * PANEL);
    for (p, panel) in dst
        .as_mut_slice()
        .chunks_exact_mut((k * PANEL).max(1))
        .enumerate()
    {
        for j in 0..PANEL.min(rows - p * PANEL) {
            let row = &x[(p * PANEL + j) * k..(p * PANEL + j + 1) * k];
            for (lanes, &v) in panel.chunks_exact_mut(PANEL).zip(row) {
                lanes[j] = v;
            }
        }
    }
}

/// Copy a row-major `k × n` slice into `PANEL`-column panel layout.
fn pack_panels(b_data: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    let panels = n.div_ceil(PANEL);
    for p in 0..panels {
        let c0 = p * PANEL;
        let width = PANEL.min(n - c0);
        let base = p * k * PANEL;
        for kk in 0..k {
            let src = &b_data[kk * n + c0..kk * n + c0 + width];
            dst[base + kk * PANEL..base + kk * PANEL + width].copy_from_slice(src);
        }
    }
}

/// Multiply `A` by a pre-packed `B` into a preallocated output.
///
/// Bitwise [`gemm()`] (same `kk`-ascending accumulation order per
/// output element), with the packing done by the caller. Use when the same `B` is multiplied many times — the packing
/// cost is amortized across calls. This is [`gemm_packed`] over
/// `Matrix` operands with the identity epilogue.
///
/// ```
/// use cap_tensor::{gemm, gemm_prepacked, Matrix, PackedB};
///
/// let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
/// let b = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.5);
/// let packed = PackedB::pack(&b); // once, up front
///
/// let mut c = Matrix::zeros(3, 5);
/// gemm_prepacked(&a, &packed, &mut c).unwrap(); // many times
///
/// // Bit-exact against packing on every call, not merely close:
/// assert_eq!(c.as_slice(), gemm(&a, &b).unwrap().as_slice());
/// ```
pub fn gemm_prepacked(a: &Matrix, b: &PackedB, c: &mut Matrix) -> TensorResult<()> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: inner dims {}x{} * {}x{}",
            m, ka, kb, n
        )));
    }
    if c.shape() != (m, n) {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: output {:?}, expected {:?}",
            c.shape(),
            (m, n)
        )));
    }
    gemm_packed(
        a.as_slice(),
        m,
        ka,
        n,
        b.as_slice(),
        c.as_mut_slice(),
        Epilogue::NONE,
    )
}

/// The packed-GEMM driver: `C = epi(A · B)` over raw slices.
///
/// `a_data` is `m × k` row-major, `packed_b` holds `n.div_ceil(PANEL)`
/// panels of `k × PANEL` (a [`PackedB`]'s storage, or an im2col column
/// matrix written panel-packed by
/// [`crate::im2col::im2col_packed_prealloc`]), `c_data` is `m × n`
/// row-major. Slices let callers whose data lives in other containers
/// (an NCHW `Tensor4` whose flattened images are already row-major
/// feature rows) multiply without copying into a `Matrix` first.
///
/// `epi` is folded into the store — a convolution passes its
/// per-output-channel bias per row, a fully-connected layer its
/// per-feature bias per column, either with a following ReLU; see
/// [`Epilogue`] for the bitwise contract. [`Epilogue::NONE`] is the
/// plain multiply.
///
/// The microkernel lives in [`crate::kernels`]: register-blocked
/// accumulation in ascending-`kk` order on every dispatch path and
/// register tile ([`F32Tile`]), so results are bit-identical to
/// [`crate::reference::gemm_naive`] and across scalar and SIMD backends.
///
/// Loop nest (`m ≥ 2`): **for each column strip of `B`, every row
/// band**. A strip is `strip_panels(k)` panels — whole panel pairs
/// within the 512 KiB `STRIP_BYTES` budget — so it stays in L2 while
/// all `m / ROW_BLOCK` row blocks re-read it; the `A` band streams
/// through once per strip and every `C` element is written exactly
/// once. (Walking all of `B` per row block instead re-streams a
/// 1–7 MB conv patch matrix from L3 `m/4` times.) A `B` that fits one
/// strip is the one-iteration case of the same loop. Only the order
/// in which tiles are visited depends on the strip size — each output
/// element is one accumulator over its own panel — so outputs are
/// bitwise independent of it.
///
/// `m == 1` — the batch-1 inference shape — is one call of the
/// dedicated GEMV kernel over all `n` columns instead of a degenerate
/// one-row band. Per output element the accumulation order is
/// unchanged (each element's sum only ever walks its own panel in
/// ascending `kk`), so the routing is bitwise invisible next to the
/// band path.
///
/// The bands run on [`F32Tile::for_path`] of the process's kernel
/// path; [`gemm_packed_with`] names the tile instead.
pub fn gemm_packed(
    a_data: &[f32],
    m: usize,
    k: usize,
    n: usize,
    packed_b: &[f32],
    c_data: &mut [f32],
    epi: Epilogue<'_>,
) -> TensorResult<()> {
    let tile = F32Tile::for_path(kernels::selected());
    gemm_packed_with(tile, a_data, m, k, n, packed_b, c_data, epi)
}

/// [`gemm_packed`] with its bands on a named [`F32Tile`] (the batch-1
/// GEMV on that tile's [`F32Tile::path`]): the same loop nest and the
/// same bits, so tests and benches can run each tile through it.
///
/// # Panics
/// If the host cannot run `tile`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_with(
    tile: F32Tile,
    a_data: &[f32],
    m: usize,
    k: usize,
    n: usize,
    packed_b: &[f32],
    c_data: &mut [f32],
    epi: Epilogue<'_>,
) -> TensorResult<()> {
    if a_data.len() != m * k {
        return Err(ShapeError::new(format!(
            "gemm_packed: A length {} != {}x{}",
            a_data.len(),
            m,
            k
        )));
    }
    if c_data.len() != m * n {
        return Err(ShapeError::new(format!(
            "gemm_packed: C length {} != {}x{}",
            c_data.len(),
            m,
            n
        )));
    }
    if packed_b.len() < n.div_ceil(PANEL) * k * PANEL {
        return Err(ShapeError::new(format!(
            "gemm_packed: packed B length {} < {} panels of {}x{}",
            packed_b.len(),
            n.div_ceil(PANEL),
            k,
            PANEL
        )));
    }
    // Validate the epilogue against the whole output before the first
    // store, so a short bias panics with `c_data` untouched — not after
    // earlier bands or strips were already written.
    epi.check(m, n);
    // A tile the host can run implies its path can run: the GEMV
    // dispatch below trusts the path it is handed.
    tile.assert_available();
    if m == 1 && n > 0 {
        kernels::gemv_packed_with(tile.path(), a_data, n, packed_b, c_data, epi);
        return Ok(());
    }
    let panels = n.div_ceil(PANEL);
    let strip = strip_panels(k);
    for p0 in (0..panels).step_by(strip) {
        let strip_range = p0..(p0 + strip).min(panels);
        for (band, c_band) in c_data.chunks_mut((ROW_BAND * n).max(1)).enumerate() {
            kernels::gemm_packed_band_tile_with(
                tile,
                a_data,
                k,
                n,
                packed_b,
                c_band,
                band * ROW_BAND,
                strip_range.clone(),
                epi,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::EpiBias;
    use crate::reference::gemm_naive;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple deterministic fill; values small enough to avoid f32 blowup.
        Matrix::from_fn(rows, cols, |r, c| {
            let h = r
                .wrapping_mul(31)
                .wrapping_add(c.wrapping_mul(17))
                .wrapping_add(seed as usize);
            ((h % 13) as f32 - 6.0) / 6.0
        })
    }

    #[test]
    fn identity_left() {
        let b = mat(4, 5, 1);
        let i = Matrix::identity(4);
        let c = gemm(&i, &b).unwrap();
        assert!(c.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn identity_right() {
        let a = mat(4, 5, 2);
        let i = Matrix::identity(5);
        let c = gemm(&a, &i).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn matches_naive_rectangular() {
        let a = mat(37, 19, 3);
        let b = mat(19, 53, 4);
        let fast = gemm(&a, &b).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn matches_naive_large_enough_for_multiple_bands() {
        let a = mat(100, 70, 5);
        let b = mat(70, 40, 6);
        let fast = gemm(&a, &b).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
    }

    #[test]
    fn prepacked_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = PackedB::pack(&Matrix::zeros(3, 2));
        let mut c = Matrix::zeros(2, 3);
        assert!(gemm_prepacked(&a, &b, &mut c).is_err());
    }

    #[test]
    fn prepacked_overwrites_stale_contents() {
        let a = Matrix::identity(3);
        let b = mat(3, 3, 7);
        let mut c = Matrix::full(3, 3, 99.0);
        gemm_prepacked(&a, &PackedB::pack(&b), &mut c).unwrap();
        assert!(c.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn batch1_gemv_route_is_bitwise_equal_to_band_path() {
        // m == 1 routes through the GEMV kernel; outputs must be
        // bit-equal to the naive ascending-kk chain the row-band path
        // also computes.
        let k = 40;
        for n in [1usize, 7, 8, 63, 64, 257, 32 * PANEL + 5] {
            let a = mat(1, k, 11);
            let b = mat(k, n, 12);
            let packed = PackedB::pack(&b);
            let mut c = Matrix::zeros(1, n);
            gemm_prepacked(&a, &packed, &mut c).unwrap();
            let oracle = gemm_naive(&a, &b).unwrap();
            for j in 0..n {
                let (got, want) = (c.get(0, j), oracle.get(0, j));
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, column {j}");
            }
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_passes_bitwise() {
        // Fused bias+ReLU must equal plain GEMM followed by separate
        // bias-add and ReLU passes, bit for bit, for both m == 1 (GEMV
        // route) and a multi-band m.
        for (m, n) in [(1usize, 300usize), (37, 53)] {
            let k = 29;
            let a = mat(m, k, 21);
            let b = mat(k, n, 22);
            let bias = mat(1, n, 23);
            let packed = PackedB::pack(&b);

            let mut unfused = Matrix::zeros(m, n);
            gemm_prepacked(&a, &packed, &mut unfused).unwrap();
            for r in 0..m {
                for c in 0..n {
                    let v = unfused.get(r, c) + bias.get(0, c);
                    unfused.set(r, c, if v > 0.0 { v } else { 0.0 });
                }
            }

            let mut fused = Matrix::zeros(m, n);
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(bias.as_slice())),
                relu: true,
            };
            gemm_packed(
                a.as_slice(),
                m,
                k,
                n,
                packed.as_slice(),
                fused.as_mut_slice(),
                epi,
            )
            .unwrap();

            let got: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = unfused.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "m = {m}, n = {n}");
        }
    }

    #[test]
    fn strips_are_whole_panel_pairs_within_the_budget() {
        for k in [0usize, 1, 147, 576, 1200, 2304, 4096, 9216, 1 << 20] {
            let strip = strip_panels(k);
            assert!(strip >= 2 && strip.is_multiple_of(2), "k = {k}: {strip}");
            let bytes = strip * k * PANEL * std::mem::size_of::<f32>();
            assert!(strip == 2 || bytes <= STRIP_BYTES, "k = {k}: {bytes} B");
        }
        // Caffenet conv2's 1200 taps: 13 panels fit, 12 make whole pairs.
        assert_eq!(strip_panels(1200), 12);
    }

    #[test]
    #[should_panic(expected = "per-row bias has 33 entries, need 40")]
    fn short_bias_panics_before_any_store() {
        // 40 rows, 5 panels of 128 KiB each (three 2-panel strips): a
        // 33-entry bias covers every tile except the second row band's.
        // It must be caught at entry, with `c` still untouched.
        let (m, k, n) = (40, 4100, 40);
        let a = mat(m, k, 31);
        let packed = PackedB::pack(&mat(k, n, 32));
        let bias = vec![0.5f32; 33];
        let mut c = vec![7.0f32; m * n];
        let epi = Epilogue {
            bias: Some(EpiBias::PerRow(&bias)),
            relu: true,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gemm_packed(a.as_slice(), m, k, n, packed.as_slice(), &mut c, epi)
        }));
        assert!(
            c.iter().all(|&v| v == 7.0),
            "c was written before the check"
        );
        std::panic::resume_unwind(outcome.expect_err("a short bias must panic"));
    }

    #[test]
    fn pack_transposed_into_is_pack_of_the_transpose() {
        // Ragged and degenerate shapes.
        for (rows, k) in [(1, 1), (8, 5), (13, 7), (16, 1), (37, 29), (0, 5)] {
            let x = mat(rows, k, (rows + 2 * k) as u64);
            let mut dst = Matrix::full(3, 3, f32::NAN);
            pack_transposed_into(x.as_slice(), k, &mut dst);
            let want = PackedB::pack(&x.transpose());
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(dst.as_slice()), bits(want.as_slice()), "{rows}x{k}");
        }
    }

    #[test]
    fn zero_sized_dims() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 4));

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    proptest! {
        #[test]
        fn prop_matches_naive(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(1));
            let fast = gemm(&a, &b).unwrap();
            let slow = gemm_naive(&a, &b).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
        }

        #[test]
        fn prop_distributes_over_addition(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..500) {
            // A*(B1+B2) == A*B1 + A*B2
            let a = mat(m, k, seed);
            let b1 = mat(k, n, seed.wrapping_add(10));
            let b2 = mat(k, n, seed.wrapping_add(20));
            let mut bsum = b1.clone();
            bsum.axpy(1.0, &b2).unwrap();
            let lhs = gemm(&a, &bsum).unwrap();
            let mut rhs = gemm(&a, &b1).unwrap();
            rhs.axpy(1.0, &gemm(&a, &b2).unwrap()).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        }
    }
}
