//! Runtime-dispatched SIMD microkernels.
//!
//! Every hot inner loop of the crate — the packed-panel GEMM band, the
//! CSR sparse×dense row kernel, and the elementwise ReLU / bias /
//! max-pool loops — funnels through this module, which selects an
//! implementation **once per process** and hands the hot loops a
//! [`KernelPath`] they can carry by value:
//!
//! * [`KernelPath::Scalar`] — safe Rust, the portable fallback and the
//!   correctness oracle ([`scalar`]). Runs everywhere.
//! * [`KernelPath::Avx2`] — explicit AVX2 + FMA intrinsics
//!   ([`avx2`], `x86_64` only), eight `f32` lanes across the GEMM
//!   `PANEL` dimension, in the **same per-element, ascending-`kk`
//!   order** as the scalar code, so results are **bit-identical** to
//!   [`KernelPath::Scalar`].
//!
//! **The f32 multiply-accumulate contract is FMA.** Each step of every
//! multiply-accumulate chain — the packed GEMM band and GEMV, the CSR
//! row and dot, `axpy` — is one fused multiply-add, rounded once: the
//! scalar oracle writes `f32::mul_add`, the AVX2 kernels
//! `_mm256_fmadd_ps`. On `x86_64` the scalar chains run an
//! FMA-compiled build of the same source whenever the CPU has FMA
//! (`scalar_mac!` below), and a plain build whose `mul_add` is libm's
//! correctly rounded `fmaf` only where it does not — same bits, much
//! slower. What is not a chain keeps its separate roundings: the
//! epilogue's bias add and ReLU, int8 dequantization (an `i32` sum
//! times a scale, plus the bias), pools, LRN window sums, and the
//! tolerance oracles in [`crate::reference`] and [`crate::Matrix`].
//!
//! That is the one contract every path keeps: the kernel path is a
//! speed choice, never an accuracy one, so the parity guarantees of
//! `run_batched` / `ParallelEngine` / the DAG executor hold whichever
//! path runs, and parity tests assert bitwise on every path.
//!
//! Selection happens on first use and honors the `CAP_TENSOR_KERNEL`
//! environment variable: `auto` (default; AVX2 when the CPU has AVX2
//! and FMA, scalar otherwise), `scalar`, or `avx2`. Requesting a
//! path the host cannot run falls back to scalar — never an error, so
//! a binary built on an AVX2 machine still runs (and its tests still
//! pass, none skipped) on one without. Any *other* value is fatal at
//! first use (see [`crate::knob`]).
//!
//! The resolved path is published to the observability layer as the
//! `kernel_path` gauge (see `cap_obs::kernel_path_name`), so metric
//! snapshots and `ProfileReport`s record which backend produced their
//! numbers.
//!
//! All `unsafe` in `cap-tensor` lives in this directory and in
//! [`crate::team`]: here the [`avx2`] submodule (intrinsics) and the
//! dispatch call sites below that enter it or the scalar FMA build,
//! each with a safety comment tying the call to the CPU-feature check
//! that makes it sound.

pub mod int8;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

use crate::knob::{Knob, KnobValue};
use crate::pool::Pool2dParams;
use std::ops::Range;

/// Column-panel width shared by [`crate::PackedB`] and the GEMM
/// microkernels: eight `f32` values — exactly one AVX2 `__m256` lane
/// group, which the scalar kernels' FMA build also fills (two SSE
/// registers in their plain build).
pub const PANEL: usize = 8;

/// Output rows register-blocked together by the packed GEMM band
/// kernel. `ROW_BLOCK * PANEL` accumulators stay live per panel pass —
/// enough independent multiply-add chains to cover FP latency.
pub const ROW_BLOCK: usize = 4;

/// Which axis of the output a fused bias broadcasts along.
#[derive(Debug, Clone, Copy)]
pub enum EpiBias<'a> {
    /// `bias[r]` is added to every element of output row `r` — the
    /// convolution flavor, where GEMM rows are output channels.
    PerRow(&'a [f32]),
    /// `bias[j]` is added to column `j` of every output row — the
    /// fully-connected flavor (`Y = X·Wᵀ`, columns are out features).
    PerCol(&'a [f32]),
}

/// A fused epilogue: optional bias add followed by an optional ReLU,
/// applied between the final accumulate and the store so the output
/// makes one memory round-trip instead of three.
///
/// The ReLU uses the `forward_into` semantics of [`relu_into_with`]
/// (`v > 0.0` keeps `v`; negatives, `-0.0` and NaN become `+0.0`), and
/// the bias add is the same single rounded `f32` addition the unfused
/// bias pass performs — so a fused kernel is **bitwise identical** to
/// the unfused kernel + bias pass + ReLU pass it replaces, on every
/// [`KernelPath`]. No epilogue operation is performed for `None`/
/// `false` fields (adding a literal `0.0` is *not* a no-op for NaN
/// payloads and `-0.0`, so absent parts are skipped, not zero-filled).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Bias to fold into the store, if any.
    pub bias: Option<EpiBias<'a>>,
    /// Apply ReLU after the bias add.
    pub relu: bool,
}

impl Epilogue<'_> {
    /// The identity epilogue: every kernel degrades to its plain form
    /// (same code path, zero extra floating-point operations).
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        relu: false,
    };

    /// This epilogue as seen by the sub-block of the output that starts
    /// at row `row0`, column `col0`: a per-row bias starts at entry
    /// `row0`, a per-column bias at entry `col0`. What a piece of a
    /// split multiply (a row range of a conv, a column range of a GEMV)
    /// hands its kernel, so each element gets the bias it would get
    /// unsplit.
    pub fn offset(self, row0: usize, col0: usize) -> Self {
        let bias = self.bias.map(|b| match b {
            EpiBias::PerRow(b) => EpiBias::PerRow(&b[row0.min(b.len())..]),
            EpiBias::PerCol(b) => EpiBias::PerCol(&b[col0.min(b.len())..]),
        });
        Epilogue { bias, ..self }
    }

    /// Whether this epilogue performs no work at all.
    pub fn is_noop(&self) -> bool {
        self.bias.is_none() && !self.relu
    }

    /// Assert the bias slice covers the output this epilogue will be
    /// applied to: `rows_needed` rows (absolute — `row0 + rows_here`
    /// for a band) for [`EpiBias::PerRow`], `n` columns for
    /// [`EpiBias::PerCol`]. Called at every fused kernel entry so the
    /// AVX2 raw bias loads are in bounds by construction.
    pub fn check(&self, rows_needed: usize, n: usize) {
        match self.bias {
            Some(EpiBias::PerRow(b)) => assert!(
                b.len() >= rows_needed,
                "per-row bias has {} entries, need {rows_needed}",
                b.len()
            ),
            Some(EpiBias::PerCol(b)) => assert!(
                b.len() >= n,
                "per-col bias has {} entries, need {n}",
                b.len()
            ),
            None => {}
        }
    }
}

/// Which microkernel implementation services the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable safe-Rust loops. Always available; the parity oracle.
    Scalar,
    /// AVX2 fused multiply-add intrinsics, bit-identical to
    /// [`KernelPath::Scalar`]. Available only where the CPU has both
    /// `avx2` and `fma`; an AVX2 host without FMA runs scalar.
    Avx2,
}

impl KnobValue for KernelPath {
    const VALUES: &'static [Self] = &[KernelPath::Scalar, KernelPath::Avx2];

    fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
        }
    }
}

impl KernelPath {
    /// Stable lower-case name (`scalar` / `avx2`), as
    /// accepted by `CAP_TENSOR_KERNEL` and shown in reports.
    pub fn name(self) -> &'static str {
        KnobValue::name(self)
    }

    /// Numeric code published to the `kernel_path` metrics gauge.
    /// Matches [`cap_obs::kernel_path_name`]; `0` is reserved for
    /// "unset" (no kernel has run yet).
    pub fn code(self) -> u64 {
        match self {
            KernelPath::Scalar => 1,
            KernelPath::Avx2 => 2,
        }
    }

    /// Whether the current host can execute this path.
    pub fn is_available(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelPath::Avx2 => false,
        }
    }
}

/// Every [`KernelPath`] the current host can execute, scalar first.
/// Parity tests iterate this list, so on a non-AVX2 host they compare
/// scalar against scalar and still pass — zero skipped tests.
pub fn available_paths() -> Vec<KernelPath> {
    KernelPath::VALUES
        .iter()
        .copied()
        .filter(|p| p.is_available())
        .collect()
}

/// `CAP_TENSOR_KERNEL`: an explicit request if the host can run it
/// (scalar otherwise — a clean fallback), else the fastest path the
/// host has. Publishes the `kernel_path` gauge so
/// snapshots and profiles record which backend produced their numbers.
static KNOB: Knob<KernelPath> = Knob::new("CAP_TENSOR_KERNEL", |requested| {
    let path = match requested {
        Some(p) if p.is_available() => p,
        Some(_) => KernelPath::Scalar,
        None if KernelPath::Avx2.is_available() => KernelPath::Avx2,
        None => KernelPath::Scalar,
    };
    cap_obs::metrics().kernel_path.set(path.code());
    path
});

/// Force every subsequent dispatch onto `path` (or back to the
/// automatic selection with `None`).
///
/// This is a **test and ablation hook**: parity suites and the
/// `kernels` experiment use it to run the same workload on two paths
/// inside one process. It is process-global, so concurrent tests that
/// depend on a *specific* path must serialize around it (results stay
/// correct either way — that is the parity guarantee — but a torn
/// override muddies which path produced them).
///
/// # Panics
/// If `path` is not available on this host ([`KernelPath::is_available`]).
pub fn force(path: Option<KernelPath>) {
    if let Some(p) = path {
        assert!(
            p.is_available(),
            "kernel path {} is not available on this host",
            p.name()
        );
    }
    KNOB.force(path);
}

/// The kernel path servicing this process's hot loops.
///
/// Resolved once from `CAP_TENSOR_KERNEL` and CPU feature detection
/// (see module docs); after that a single relaxed atomic load plus a
/// cached read. Hot loops call this once per band/row and carry the
/// result by value.
///
/// ```
/// use cap_tensor::kernels;
/// let p = kernels::selected();
/// assert!(p.is_available());
/// ```
#[inline]
pub fn selected() -> KernelPath {
    KNOB.selected()
}

// ---------------------------------------------------------------------------
// Dispatching kernel entry points: one per microkernel, taking the path
// explicitly (hot loops hoist `selected()` out of their band/row loops;
// tests pin paths) and the epilogue to fuse into the store.
// ---------------------------------------------------------------------------

/// Call the scalar multiply-accumulate kernel `scalar::$kernel`: its
/// FMA-compiled build when the CPU has FMA, the plain build (libm
/// `fmaf`, the same bits, ~30× slower) only where it does not. Which
/// build runs is a CPU property invisible in the output, so it is not
/// a [`KernelPath`].
macro_rules! scalar_mac {
    ($kernel:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        let out = if is_x86_feature_detected!("fma") {
            // SAFETY: the CPU has just reported the `fma` feature this
            // build is compiled for.
            unsafe { scalar::fma::$kernel($($arg),*) }
        } else {
            scalar::$kernel($($arg),*)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let out = scalar::$kernel($($arg),*);
        out
    }};
}

/// One tile of the packed-panel GEMM — a row band × a panel range:
/// multiply rows `row0 .. row0 + c_band.len()/n` of the `m×k`
/// row-major `a_data` against panels `panels` of the panel-packed
/// `b_data` (`n.div_ceil(PANEL)` panels of `k × PANEL`), writing
/// columns `panels.start * PANEL .. min(n, panels.end * PANEL)` of the
/// `c_band` slice of the row-major output (full `n`-wide rows; the
/// other columns are not touched) with `epi` folded into the store
/// (one memory round-trip instead of three; [`Epilogue::NONE`] runs
/// the plain kernel). [`crate::gemm_packed`] picks the ranges so that
/// one range of `B` stays cache-resident across every band.
///
/// Accumulation is ascending-`kk` per output element on every path —
/// the range only selects *which* elements a call computes — see
/// [`KernelPath`] and [`Epilogue`] for the parity contract.
///
/// # Panics
/// If `panels.end > n.div_ceil(PANEL)`, or a slice is too short for
/// the band, or the epilogue's bias does not cover it.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_band_with(
    path: KernelPath,
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: Epilogue<'_>,
) {
    match path {
        KernelPath::Scalar => {
            scalar_mac!(gemm_packed_band(
                a_data, k, n, b_data, c_band, row0, panels, epi
            ))
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only ever produced by `selected()` /
        // `force()`, both of which verify via `is_available()` that the
        // CPU reports the avx2 and fma features the target_feature
        // functions require. Slice, panel-range and bias-length bounds
        // are asserted inside the kernels before any raw load.
        KernelPath::Avx2 => unsafe {
            avx2::gemm_packed_band(a_data, k, n, b_data, c_band, row0, panels, epi)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::gemm_packed_band(a_data, k, n, b_data, c_band, row0, panels, epi),
    }
}

/// Row-major matvec against a panel-packed B: `c_row[..n] = a_row · B`
/// with `k = a_row.len()` and `b_data` holding `n.div_ceil(PANEL)`
/// panels of `k × PANEL` — the batch-1 shape of the packed GEMM,
/// streamed through a kernel built for a lone row (four panels × eight
/// lanes of live accumulators; B read exactly once), `epi` fused into
/// the store. A per-row bias indexes entry 0 (the matvec result is
/// row 0 of a `1×n` output).
///
/// This is the band kernel's own trailing single-row path, extracted:
/// outputs are bit-identical to [`gemm_packed_band_with`] on a 1-row
/// band, on every path.
#[inline]
pub fn gemv_packed_with(
    path: KernelPath,
    a_row: &[f32],
    n: usize,
    b_data: &[f32],
    c_row: &mut [f32],
    epi: Epilogue<'_>,
) {
    match path {
        KernelPath::Scalar => scalar_mac!(gemv_packed(a_row, n, b_data, c_row, epi)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // slice and bias-length bounds asserted in the kernel.
        KernelPath::Avx2 => unsafe { avx2::gemv_packed(a_row, n, b_data, c_row, epi) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::gemv_packed(a_row, n, b_data, c_row, epi),
    }
}

/// One CSR row of sparse×dense: `c_row = Σ_i values[i] * B[col_idx[i], :]`
/// over the `k×n` row-major `b_data`, then a scalar-bias/ReLU epilogue.
/// `c_row` is overwritten (not accumulated into). Ascending-`i`
/// accumulation per output element on every path.
///
/// One CSR output row has a single bias value (its output channel /
/// feature), so the epilogue here is `(Option<f32>, bool)` rather than
/// an [`Epilogue`]; `(None, false)` runs the plain kernel. Bias adds
/// first, then the `forward_into`-flavor ReLU; bitwise identical to
/// the plain kernel + bias pass + ReLU pass.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn spmm_row_with(
    path: KernelPath,
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
    bias: Option<f32>,
    relu: bool,
) {
    match path {
        KernelPath::Scalar => {
            scalar_mac!(spmm_row(values, col_idx, b_data, n, c_row, bias, relu))
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // bounds asserted in the kernel.
        KernelPath::Avx2 => unsafe {
            avx2::spmm_row(values, col_idx, b_data, n, c_row, bias, relu)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::spmm_row(values, col_idx, b_data, n, c_row, bias, relu),
    }
}

/// Sparse matvec dot — one CSR row against a dense vector:
/// `Σ_i values[i] * x[col_idx[i]]`, ascending `i`, then the same
/// bias/ReLU epilogue as [`spmm_row_with`] (`None` skips the bias add
/// entirely).
///
/// Every kernel path shares the scalar body (its FMA build where the
/// CPU has FMA): a single ascending-order dot product cannot be
/// lane-split without reordering the summation, which would break the
/// bit-identity contract — and batch-1 sparse FC is bandwidth-bound,
/// so the matvec win comes from eliminating the transpose/allocation
/// round-trips, not from SIMD lanes.
#[inline]
pub fn spmv(values: &[f32], col_idx: &[u32], x: &[f32], bias: Option<f32>, relu: bool) -> f32 {
    scalar_mac!(spmv(values, col_idx, x, bias, relu))
}

/// `c_row[j] = a * b_row[j] + c_row[j]`, fused, over
/// `min(c_row.len(), b_row.len())` elements — the inner loop of the
/// unpacked GEMM.
#[inline]
pub fn axpy_with(path: KernelPath, c_row: &mut [f32], a: f32, b_row: &[f32]) {
    match path {
        KernelPath::Scalar => scalar_mac!(axpy(c_row, a, b_row)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`.
        KernelPath::Avx2 => unsafe { avx2::axpy(c_row, a, b_row) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::axpy(c_row, a, b_row),
    }
}

/// In-place ReLU: `v = if v < 0.0 { 0.0 } else { v }`. Preserves NaN
/// and `-0.0` exactly like the scalar comparison does (the AVX2 path
/// uses compare+mask, not `max`, for bit-identity).
#[inline]
pub fn relu_inplace_with(path: KernelPath, data: &mut [f32]) {
    match path {
        KernelPath::Scalar => scalar::relu_inplace(data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`.
        KernelPath::Avx2 => unsafe { avx2::relu_inplace(data) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::relu_inplace(data),
    }
}

/// Out-of-place ReLU: `dst[i] = if src[i] > 0.0 { src[i] } else { 0.0 }`
/// (the `forward_into` flavor: NaN and `-0.0` map to `+0.0`, matching
/// the scalar ternary).
#[inline]
pub fn relu_into_with(path: KernelPath, src: &[f32], dst: &mut [f32]) {
    match path {
        KernelPath::Scalar => scalar::relu_into(src, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`.
        KernelPath::Avx2 => unsafe { avx2::relu_into(src, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::relu_into(src, dst),
    }
}

/// One output row of 2-D max pooling over a single `h×w` input plane:
/// fills `out_row` (length `ow`) for output row `oy`. Padding cells
/// never win (treated as `-inf`); an all-padding window yields `0.0`.
///
/// The AVX2 path assigns one output column per lane and replays the
/// scalar cell's exact `(ky asc, kx asc)` compare sequence per lane,
/// so `-0.0`/NaN tie-breaking is bit-identical; window positions that
/// clip the plane's left/right edge always take the scalar cell code.
#[inline]
pub fn max_pool_row_with(
    path: KernelPath,
    plane: &[f32],
    h: usize,
    w: usize,
    params: &Pool2dParams,
    oy: usize,
    out_row: &mut [f32],
) {
    match path {
        KernelPath::Scalar => scalar::max_pool_row(plane, h, w, params, oy, out_row),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // the kernel asserts `plane.len() >= h*w` before any raw load.
        KernelPath::Avx2 => unsafe { avx2::max_pool_row(plane, h, w, params, oy, out_row) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::max_pool_row(plane, h, w, params, oy, out_row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_are_stable() {
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Avx2.name(), "avx2");
        for p in [KernelPath::Scalar, KernelPath::Avx2] {
            // The obs-side label table must agree with our codes.
            assert_eq!(cap_obs::kernel_path_name(p.code()), p.name());
        }
        assert_eq!(cap_obs::kernel_path_name(0), "unset");
    }

    #[test]
    fn env_values_parse_and_unknown_is_an_error() {
        assert_eq!(KNOB.parse("scalar"), Ok(Some(KernelPath::Scalar)));
        assert_eq!(KNOB.parse("AVX2"), Ok(Some(KernelPath::Avx2)));
        assert_eq!(KNOB.parse("auto"), Ok(None));
        assert_eq!(KNOB.parse(""), Ok(None));
        let message = KNOB.parse("riscv-vector").unwrap_err();
        assert!(message.contains("CAP_TENSOR_KERNEL"), "{message}");
        assert!(message.contains("riscv-vector"), "{message}");
        assert!(
            message.ends_with("accepted: auto, scalar, avx2"),
            "{message}"
        );
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelPath::Scalar.is_available());
        assert!(available_paths().contains(&KernelPath::Scalar));
        assert!(available_paths()[0] == KernelPath::Scalar);
    }

    #[test]
    fn selected_is_available_and_bit_identical_by_default() {
        let p = selected();
        assert!(p.is_available());
        // Every path is bit-identical to scalar, so the only thing left
        // to check is that the knob resolved to one of them.
        assert!(KernelPath::VALUES.contains(&p));
    }

    #[test]
    fn force_overrides_and_restores() {
        force(Some(KernelPath::Scalar));
        assert_eq!(selected(), KernelPath::Scalar);
        force(None);
        assert!(selected().is_available());
    }
}
