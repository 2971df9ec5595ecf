//! Runtime-dispatched SIMD microkernels.
//!
//! Every hot inner loop of the crate — the packed-panel GEMM band, the
//! row GEMV of a fully-connected layer, the CSR sparse×dense row kernel, the elementwise ReLU / bias loops, max
//! pooling, the LRN channel step and the uniform weight fill
//! ([`uniform_fill_with`], the ChaCha8 keystream of
//! [`crate::init::xavier_uniform`] eight blocks at a time) — funnels through this module,
//! which selects an implementation **once per process** and hands the
//! hot loops a [`KernelPath`] they can carry by value:
//!
//! * [`KernelPath::Scalar`] — safe Rust, the portable fallback and the
//!   correctness oracle ([`scalar`]). Runs everywhere.
//! * [`KernelPath::Avx2`] — explicit AVX2 + FMA intrinsics
//!   ([`avx2`], `x86_64` only), eight `f32` lanes across the GEMM
//!   `PANEL` dimension — sixteen in the f32 GEMM band where the CPU
//!   also reports AVX-512F, one 512-bit register per panel pair (the
//!   zmm [`F32Tile`]) — in the **same per-element, ascending-`kk`
//!   order** as the scalar code, so results are **bit-identical** to
//!   [`KernelPath::Scalar`].
//!
//! **The f32 multiply-accumulate contract is FMA.** Each step of every
//! multiply-accumulate chain — the packed GEMM band and GEMV, the row
//! GEMV, the CSR row — is one fused multiply-add, rounded once: the scalar oracle
//! writes `f32::mul_add`, the AVX2 kernels `_mm256_fmadd_ps`. On
//! `x86_64` the scalar chains run an FMA-compiled build of the same
//! source whenever the CPU has FMA (`scalar_mac!` below), and a plain build whose `mul_add` is libm's
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
//! `kernel_path` gauge (see `cap_obs::kernel_path_name`), and the f32
//! GEMM tile it runs on as the `f32_tile` gauge
//! (`cap_obs::f32_tile_name`), so metric snapshots and
//! `ProfileReport`s record which backend produced their numbers.
//!
//! All `unsafe` in `cap-tensor` lives in this directory and in
//! [`crate::team`]: here the [`avx2`] submodule (intrinsics) and the
//! dispatch call sites below that enter it, the scalar FMA build or the
//! weight fill's `#[target_feature]` builds of its lane body
//! ([`keystream`], safe Rust itself), each with a safety comment tying
//! the call to the CPU-feature check that makes it sound.

pub mod int8;
pub mod keystream;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

use crate::knob::{Knob, KnobValue};
use crate::pool::Pool2dParams;
use rand_chacha::ChaCha8Rng;
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
    /// flavor of a fully-connected `Y = X·Wᵀ` (the int8 fc; columns are
    /// out features).
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

    /// [`Epilogue::check`] for an output column of `rows` rows, the row
    /// GEMV's: its bias can only be per row.
    pub fn check_column(&self, rows: usize) {
        assert!(
            !matches!(self.bias, Some(EpiBias::PerCol(_))),
            "a column's bias is per row"
        );
        self.check(rows, 1);
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

/// Which register tile runs the f32 packed GEMM band. All three are
/// bitwise equal (every output element is one ascending-`kk` FMA chain
/// from `+0.0` on each); the variants exist so tests and benches can
/// name each one, not so anything can choose — the process's
/// [`KernelPath`] and the CPU decide ([`F32Tile::for_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F32Tile {
    /// The scalar oracle ([`scalar::gemm_packed_band`]).
    Scalar,
    /// 4 rows × one panel pair in eight ymm accumulators
    /// ([`avx2::gemm_packed_band`]).
    Ymm,
    /// 14 (or 12) rows × two panel pairs in 28 (24) zmm accumulators,
    /// then 4 rows × three pairs, with the ymm tile on what is left
    /// ([`avx2::gemm_packed_band_zmm`]). Needs the CPU's `avx512f` on
    /// top of what [`F32Tile::Ymm`] needs.
    Zmm,
}

impl F32Tile {
    /// Every tile, scalar first.
    pub const ALL: [F32Tile; 3] = [F32Tile::Scalar, F32Tile::Ymm, F32Tile::Zmm];

    /// Stable lower-case name (`scalar` / `ymm` / `zmm`) shown in
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            F32Tile::Scalar => "scalar",
            F32Tile::Ymm => "ymm",
            F32Tile::Zmm => "zmm",
        }
    }

    /// Numeric code published to the `f32_tile` metrics gauge.
    /// Matches [`cap_obs::f32_tile_name`]; `0` is reserved for "unset".
    pub fn code(self) -> u64 {
        match self {
            F32Tile::Scalar => 1,
            F32Tile::Ymm => 2,
            F32Tile::Zmm => 3,
        }
    }

    /// Whether the current host can execute this tile (the CPU
    /// features are detected once per process and cached by `std`).
    pub fn is_available(self) -> bool {
        match self {
            F32Tile::Scalar => true,
            F32Tile::Ymm => KernelPath::Avx2.is_available(),
            #[cfg(target_arch = "x86_64")]
            F32Tile::Zmm => KernelPath::Avx2.is_available() && is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            F32Tile::Zmm => false,
        }
    }

    /// [`F32Tile::is_available`] for a dispatcher about to enter the
    /// tile.
    ///
    /// # Panics
    /// If the host cannot run this tile.
    pub(crate) fn assert_available(self) {
        assert!(
            self.is_available(),
            "f32 tile {} is not available on this host",
            self.name()
        );
    }

    /// Every tile the current host can execute, scalar first.
    pub fn available() -> Vec<F32Tile> {
        Self::ALL.into_iter().filter(|t| t.is_available()).collect()
    }

    /// The tile that multiplies under `path`: scalar stays scalar, and
    /// the SIMD path takes the widest tile the CPU has.
    pub fn for_path(path: KernelPath) -> F32Tile {
        match path {
            KernelPath::Scalar => F32Tile::Scalar,
            KernelPath::Avx2 if F32Tile::Zmm.is_available() => F32Tile::Zmm,
            KernelPath::Avx2 => F32Tile::Ymm,
        }
    }

    /// Rows of a band of `rows` this tile runs outside its main register
    /// blocks, on slower paths: for the zmm tile those outside its 14-
    /// and 12-row blocks, for the others those outside whole
    /// [`ROW_BLOCK`]s.
    pub(crate) fn rows_outside_blocks(self, rows: usize) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            F32Tile::Zmm => avx2::zmm_rows_outside_blocks(rows),
            _ => rows % ROW_BLOCK,
        }
    }

    /// The kernel path this tile belongs to: what the rest of a
    /// multiply — the batch-1 GEMV — runs on.
    pub fn path(self) -> KernelPath {
        match self {
            F32Tile::Scalar => KernelPath::Scalar,
            F32Tile::Ymm | F32Tile::Zmm => KernelPath::Avx2,
        }
    }
}

/// Which `#[target_feature]` build of the weight fill's lane body
/// ([`keystream::uniform_steps`]) a fill runs on. Both are bitwise the
/// scalar oracle ([`scalar::uniform_fill`]); the variants exist so tests
/// and benches can name each one — under [`KernelPath::Avx2`] the CPU
/// decides ([`FillLanes::for_host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLanes {
    /// The body compiled for AVX2: eight 32-bit lanes per register.
    Avx2,
    /// The body compiled for AVX-512F/DQ/VL: vector rotates, and the
    /// 64-bit integer conversions of DQ. Needs all three.
    Avx512,
}

impl FillLanes {
    /// Every build, narrowest first.
    pub const ALL: [FillLanes; 2] = [FillLanes::Avx2, FillLanes::Avx512];

    /// Stable lower-case name (`avx2` / `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            FillLanes::Avx2 => "avx2",
            FillLanes::Avx512 => "avx512",
        }
    }

    /// Whether the current host can execute this build. AVX-512DQ is
    /// asked for by name: a CPU may have the `avx512f` the zmm
    /// [`F32Tile`] needs without it.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            FillLanes::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            FillLanes::Avx512 => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every build the current host can execute, narrowest first.
    pub fn available() -> Vec<FillLanes> {
        Self::ALL.into_iter().filter(|b| b.is_available()).collect()
    }

    /// The build a fill under [`KernelPath::Avx2`] runs: the widest the
    /// CPU has (AVX2 itself wherever that path is available).
    pub fn for_host() -> FillLanes {
        if FillLanes::Avx512.is_available() {
            FillLanes::Avx512
        } else {
            FillLanes::Avx2
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
    let metrics = cap_obs::metrics();
    metrics.kernel_path.set(path.code());
    metrics.f32_tile.set(F32Tile::for_path(path).code());
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
/// [`KernelPath`] and [`Epilogue`] for the parity contract. The band
/// runs on [`F32Tile::for_path`]`(path)`: the zmm tile under
/// [`KernelPath::Avx2`] where the CPU has `avx512f`.
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
    let tile = F32Tile::for_path(path);
    gemm_packed_band_tile_with(tile, a_data, k, n, b_data, c_band, row0, panels, epi);
}

/// [`gemm_packed_band_with`] on a named [`F32Tile`]; outputs are
/// bitwise equal on every tile.
///
/// # Panics
/// As [`gemm_packed_band_with`], and if the host cannot run `tile`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_band_tile_with(
    tile: F32Tile,
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: Epilogue<'_>,
) {
    tile.assert_available();
    match tile {
        F32Tile::Scalar => {
            scalar_mac!(gemm_packed_band(
                a_data, k, n, b_data, c_band, row0, panels, epi
            ))
        }
        // SAFETY (both): `assert_available` just saw the CPU report every
        // feature the arm's `#[target_feature]` function enables
        // (avx2 and fma; avx512f too for zmm). Slice, panel-range and
        // bias-length bounds are asserted inside the kernels before any
        // raw load.
        #[cfg(target_arch = "x86_64")]
        F32Tile::Ymm => unsafe {
            avx2::gemm_packed_band(a_data, k, n, b_data, c_band, row0, panels, epi)
        },
        #[cfg(target_arch = "x86_64")]
        F32Tile::Zmm => unsafe {
            avx2::gemm_packed_band_zmm(a_data, k, n, b_data, c_band, row0, panels, epi)
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

/// Rows of a row-major matrix times a vector, `W` read in place:
/// `y[r] = epi(Σ_kk x[kk] · w[r*k + kk])` for the `y.len()` rows of
/// `w` (`k = x.len()` columns) — a batch-1 fully-connected layer's
/// `W · x`. The output is a column: its bias is per row, `bias[r]`.
///
/// Every output is one ascending-`kk` FMA chain from `+0.0`, `x[kk]`
/// the first factor, on every tile — bitwise [`crate::gemm_packed`] of
/// `x` against the packed `Wᵀ`, and [`crate::reference::gemm_naive`]
/// of `x · Wᵀ`. The SIMD tiles keep one output row per lane (8 rows on
/// ymm, 16 on zmm): each square block of `W` is transposed in
/// registers, then one FMA per depth runs in ascending order, and each
/// row is prefetched a few hundred floats ahead.
///
/// # Panics
/// If `w` is shorter than `y.len() × x.len()`, the epilogue's bias is
/// per column or does not cover the output, or the host cannot run
/// `tile`.
#[inline]
pub fn gemv_rows_with(tile: F32Tile, w: &[f32], x: &[f32], y: &mut [f32], epi: Epilogue<'_>) {
    tile.assert_available();
    match tile {
        F32Tile::Scalar => scalar_mac!(gemv_rows(w, x, y, epi)),
        // SAFETY (both): `assert_available` just saw the CPU report every
        // feature the arm's `#[target_feature]` function enables (avx2
        // and fma; avx512f too for zmm). The kernels assert `w`'s length
        // and the bias bounds before any raw load.
        #[cfg(target_arch = "x86_64")]
        F32Tile::Ymm => unsafe { avx2::gemv_rows(w, x, y, epi) },
        #[cfg(target_arch = "x86_64")]
        F32Tile::Zmm => unsafe { avx2::gemv_rows_zmm(w, x, y, epi) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::gemv_rows(w, x, y, epi),
    }
}

/// One CSR row of sparse×dense: `c_row = Σ_i values[i] * B[col_idx[i], :]`
/// over the `k×n` row-major `b_data`. `c_row` is overwritten (not
/// accumulated into). Ascending-`i` accumulation per output element on
/// every path.
#[inline]
pub fn spmm_row_with(
    path: KernelPath,
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
) {
    match path {
        KernelPath::Scalar => scalar_mac!(spmm_row(values, col_idx, b_data, n, c_row)),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // bounds asserted in the kernel.
        KernelPath::Avx2 => unsafe { avx2::spmm_row(values, col_idx, b_data, n, c_row) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::spmm_row(values, col_idx, b_data, n, c_row),
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

/// Max pooling of whole planes: `out` holds `out.len() / (oh·ow)`
/// output planes, plane `p` pooled from the `h×w` plane `p` of
/// `input`. Padding cells never win (treated as `-inf`); an
/// all-padding window yields `0.0`.
///
/// The scalar path is the oracle: each cell walks its window clipped
/// to the plane, `(ky asc, kx asc)`, with a strict `>`. The AVX2 path
/// copies each plane into `padded` (the piece's own scratch) with a
/// `-inf` border wide enough that every output row, ceil-mode overhang
/// included, runs in whole 8-lane blocks, one output column per lane;
/// each lane replays the scalar compare sequence over the padded
/// window, so `-0.0`/NaN tie-breaking is bit-identical. The scalar path
/// leaves `padded` untouched.
///
/// # Panics
/// If `input` holds fewer planes than `out`, or `out` is not whole
/// `oh × ow` planes.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn max_pool_planes_with(
    path: KernelPath,
    input: &[f32],
    in_hw: (usize, usize),
    params: &Pool2dParams,
    out_hw: (usize, usize),
    padded: &mut Vec<f32>,
    out: &mut [f32],
) {
    match path {
        KernelPath::Scalar => scalar::max_pool_planes(input, in_hw, params, out_hw, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // the kernel asserts the input and output lengths before any raw
        // load and sizes `padded` for every window it reads.
        KernelPath::Avx2 => unsafe {
            avx2::max_pool_planes(input, in_hw, params, out_hw, padded, out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::max_pool_planes(input, in_hw, params, out_hw, out),
    }
}

/// One channel step of across-channel LRN over a plane of window
/// square sums `sums`: when `out` is `Some((x, y))`, the β = 0.75
/// output `y = x / d^0.75` with `d = k + scale·sums`, computed as
/// `x / (r · √r)` with `r = √d`; then `sums += e²` for the plane
/// `enter` and `sums -= l²` for `leave`, in that order. Over
/// `sums.len()` elements.
///
/// Every operation is a correctly rounded square root, multiply, add,
/// subtract or divide, so every path gives the same bits — except a
/// NaN's sign and payload where two NaNs meet, which Rust's float
/// semantics leave open (the NaNs themselves land alike). LRN is not
/// a multiply-accumulate chain: it stays outside the FMA contract, each
/// square and each sum rounded separately. Any other β is the caller's
/// (`powf`, scalar only), passing `out = None`.
///
/// # Panics
/// If a given plane is shorter than `sums`.
#[inline]
pub fn lrn_step_with(
    path: KernelPath,
    k: f32,
    scale: f32,
    out: Option<(&[f32], &mut [f32])>,
    enter: Option<&[f32]>,
    leave: Option<&[f32]>,
    sums: &mut [f32],
) {
    match path {
        KernelPath::Scalar => scalar::lrn_step(k, scale, out, enter, leave, sums),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 and fma verified available by `selected()`/`force()`;
        // the kernel asserts every plane covers `sums` before any raw load.
        KernelPath::Avx2 => unsafe { avx2::lrn_step(k, scale, out, enter, leave, sums) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::lrn_step(k, scale, out, enter, leave, sums),
    }
}

/// The uniform weight fill: `out[i] = rng.gen_range(lo..=hi)` in order,
/// leaving `rng` where that loop leaves it — the loop itself under
/// [`KernelPath::Scalar`], the keystream lane body
/// ([`keystream::uniform_steps`], on [`FillLanes::for_host`]) under
/// [`KernelPath::Avx2`]: bitwise the same, on every path.
///
/// Each element takes two words of the stream, so when `rng` stands on
/// an even word, element `e` of the stream from word 0 is a function of
/// block `e / 8` alone. The lane body then fills every whole step of
/// [`keystream::STEP_ELEMS`] elements; the elements before the first
/// step boundary and after the last run the loop, which computes one
/// block per eight elements, as does a fill from an odd word.
#[inline]
pub fn uniform_fill_with(
    path: KernelPath,
    rng: &mut ChaCha8Rng,
    lo: f32,
    hi: f32,
    out: &mut [f32],
) {
    match path {
        KernelPath::Scalar => scalar::uniform_fill(rng, lo, hi, out),
        KernelPath::Avx2 => uniform_fill_lanes_with(FillLanes::for_host(), rng, lo, hi, out),
    }
}

/// [`uniform_fill_with`] on a named [`FillLanes`] build; outputs are
/// bitwise equal on every build.
///
/// # Panics
/// If the host cannot run `lanes`.
pub fn uniform_fill_lanes_with(
    lanes: FillLanes,
    rng: &mut ChaCha8Rng,
    lo: f32,
    hi: f32,
    out: &mut [f32],
) {
    use keystream::{BLOCK_ELEMS, STEP_ELEMS};
    assert!(
        lanes.is_available(),
        "fill lanes {} are not available on this host",
        lanes.name()
    );
    let word = rng.get_word_pos();
    if !word.is_multiple_of(2) {
        return scalar::uniform_fill(rng, lo, hi, out);
    }
    // The fill's first element, counted from word 0; the lane body
    // starts at the next whole step.
    let first = word / 2;
    let head = ((first.next_multiple_of(STEP_ELEMS as u128) - first) as usize).min(out.len());
    let (head_out, rest) = out.split_at_mut(head);
    scalar::uniform_fill(rng, lo, hi, head_out);
    let (body, tail) = rest.split_at_mut(rest.len() / STEP_ELEMS * STEP_ELEMS);
    if !body.is_empty() {
        let key = keystream::key_words(rng);
        let block = ((first + head as u128) / BLOCK_ELEMS as u128) as u64;
        match lanes {
            // SAFETY (both): the assert above just saw the CPU report
            // every feature the arm's `#[target_feature]` function
            // enables. The body is safe Rust: no raw access to check.
            #[cfg(target_arch = "x86_64")]
            FillLanes::Avx2 => unsafe {
                keystream::simd::uniform_steps_avx2(&key, block, lo, hi, body)
            },
            #[cfg(target_arch = "x86_64")]
            FillLanes::Avx512 => unsafe {
                keystream::simd::uniform_steps_avx512(&key, block, lo, hi, body)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no lane build is available off x86-64"),
        }
        rng.set_word_pos(word + 2 * (head + body.len()) as u128);
    }
    scalar::uniform_fill(rng, lo, hi, tail);
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
    #[should_panic(expected = "a column's bias is per row")]
    fn the_row_gemv_refuses_a_per_column_bias() {
        let epi = Epilogue {
            bias: Some(EpiBias::PerCol(&[1.0])),
            relu: false,
        };
        gemv_rows_with(F32Tile::Scalar, &[1.0], &[1.0], &mut [0.0], epi);
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
