//! Int8 integer microkernels: the slice quantizer, and GEMM band and
//! GEMV with i32 accumulation and a dequantize-in-epilogue store.
//!
//! These are the quantized counterparts of the f32 kernels in
//! [`super::scalar`] / [`super::avx2`]. Operands are symmetric int8 (see
//! [`crate::quant`]): weights and activations are `q = clamp(round(x/s),
//! -127, 127)` for per-tensor scales, so a GEMM accumulates exact
//! integer products and multiplies the combined scale back in at the
//! store — `c = (Σ a_q·b_q) as f32 * (s_a·s_b)`, followed by the same
//! bias-add/ReLU sequence as the f32 [`Epilogue`].
//!
//! # Layouts
//!
//! * `A` is row-major i8 with row stride `kp` = [`padded_depth`]`(k)`,
//!   `k` rounded up to a whole [`QUAD`] (pad bytes are zero — harmless
//!   under symmetric quantization, `0` maps to `0.0`).
//! * `B` is quad-interleaved panel-packed: `n.div_ceil(PANEL)` panels of
//!   `kp × PANEL` i8, where each panel stores, per depth *quad* `r/4`,
//!   the four depth bytes of column `j` side by side — row `r`, column
//!   `j` of a panel sits at `(r/4)*4*PANEL + 4*j + (r%4)`. One 32-byte
//!   load is therefore eight columns × four depths, each 32-bit lane
//!   one column: the operand shape of `vpdpbusd`, and — sign-extended
//!   half by half — of `vpmaddwd`. Two writers fill it, both
//!   interleaving four patch rows' bytes into a quad with the same
//!   `punpcklbw` + `punpck{l,h}wd`: [`store_row_quad_with`] from four
//!   row-major rows (the packers in [`crate::quant`]), and
//!   [`lower_quad_panels_with`] panel by panel
//!   straight from a padded image (the int8 convolution's lowering,
//!   [`mod@crate::im2col`]). Each is tested against the layout's
//!   definition.
//!
//! # Four multiply kernels, one result
//!
//! Which integer kernel multiplies is a property of the CPU and the OS
//! ([`Int8Kernel`], resolved by [`selected`] from the process's
//! [`KernelPath`] and feature detection — there is no knob for it):
//!
//! * **scalar** — the oracle: four products per column per quad, in i32.
//! * **avx2** — `vpmaddwd` on operands sign-extended to i16: the two
//!   16-byte halves of a quad row against a `vpbroadcastq` of four
//!   widened `A` values, two accumulators per row and panel (each lane
//!   half a column's quad), folded by one `vphaddd` + `vpermd` at the
//!   store. `A` is widened once per call into a thread-local.
//! * **vnni** — `vpdpbusd`, 32 u8×s8 products into eight i32 lanes in
//!   one µop with no intermediate saturation, on hosts reporting
//!   `avxvnni` or `avx512vnni`+`avx512vl` (ymm either way; one body,
//!   two encodings). `A` is read as signed bytes straight from the
//!   caller's slice; the instruction wants its *other* operand
//!   unsigned, so each loaded `B` quad row is flipped with one
//!   `vpxor 0x80` (`b + 128` as u8, shared by every row of the tile)
//!   and the surplus `128 · Σₖ a[r][k]` is subtracted per row before
//!   the store.
//! * **amx** — `tdpbssd` on the AMX tile unit: signed × signed bytes,
//!   sixteen rows × eight columns of i32 sums per `C` tile, 64 depth
//!   bytes per instruction. A block of up to 32 rows × two panels holds
//!   four `C` tiles, two `A` tiles of 16 rows × 64 depth bytes and two
//!   `B` tiles — each sixteen depth quads of one panel, 512 contiguous
//!   bytes of the layout above (`colsb` 32, row stride 32): all eight
//!   tiles. `A` is copied into tile order per 64 rows (aligned, zero
//!   past the rows and the depth), so row tails — the fc layers' eight
//!   rows, a team's row parts — compute on zero rows that are never
//!   stored, and a depth that is not a multiple of 64 (conv1's 364,
//!   conv2's 1200) ends in one more step on zero-padded copies of the
//!   panels' tails. The stored tiles go through the same dequantize
//!   store as the other kernels. Picked where the CPU reports AMX-TILE
//!   and AMX-INT8 (CPUID leaf 7 EDX bits 24–25), XCR0 enables tile
//!   state (bits 17–18), a VNNI encoding exists, and Linux grants the
//!   process tile data — `arch_prctl(ARCH_REQ_XCOMP_PERM,
//!   XFEATURE_XTILEDATA)`, asked once per process; the grant covers
//!   this process only. Anywhere else the pick falls back to `vnni`
//!   without running a tile instruction. Each band call configures the
//!   tiles on entry and releases them on exit, so no thread holds tile
//!   state between calls. The GEMV (`m = 1`) runs the `vnni` body: one
//!   row fills a sixteenth of a tile.
//!
//! Int8×int8→i32 accumulation is **exact**: every product is at most
//! `2¹⁴` in magnitude and at most [`MAX_K_I8`] of them are summed, so
//! the true sum — and every partial sum of the scalar and `vpmaddwd`
//! walks — fits an i32 for *any* bytes, raw `-128` included (`vpmaddwd`
//! saturates only on two `-32768` inputs, unreachable from i8). The
//! biased `vpdpbusd` sums can exceed i32, but the instruction wraps,
//! the subtraction wraps, and arithmetic mod 2³² lands on the true sum
//! because that sum fits. Every partial sum of the tile walk adds at
//! most [`MAX_K_I8`] of the same products (the zero pads add zero), so
//! it fits as well. Exact integer addition is associative, so all four
//! kernels produce the *same* i32 totals regardless of blocking. The
//! dequantize store then performs an identical float sequence
//! everywhere — `i32 as f32` (one round-to-nearest-even, exactly what
//! `_mm256_cvtepi32_ps` performs), one `* scale`, one `+ bias`,
//! compare-and-mask ReLU, never an FMA — so the int8 kernels are
//! **bitwise identical**, under every [`KernelPath`]. The f32 FMA
//! contract of [`super`] covers multiply-accumulate chains; this store
//! is not one (one product, one bias add), so it keeps both roundings.
//!
//! The other way to feed signed×signed into `vpdpbusd` — `vpabsb` one
//! operand, `vpsignb` the other by its sign — spends a second µop on
//! every product vector instead of one `vpxor` per tile column, and is
//! wrong for `-128` (`vpsignb` cannot negate it).

use super::{EpiBias, Epilogue, KernelPath, PANEL};

/// Depth bytes of one column that sit side by side in a packed `B`
/// panel (one 32-bit lane of a quad row).
pub const QUAD: usize = 4;

/// The row stride of an int8 `A` operand and the panel depth of an
/// int8 `B` operand for logical depth `k`: `k` rounded up to a whole
/// [`QUAD`].
#[inline]
pub fn padded_depth(k: usize) -> usize {
    k.next_multiple_of(QUAD)
}

/// Maximum depth (`kp`) the int8 kernels accept:
/// `MAX_K_I8 * 128 * 128 < 2³¹`, so the i32 sum of any `MAX_K_I8`
/// i8×i8 products cannot wrap. Far above any layer in this workspace
/// (Caffenet fc6 has `k = 9216`).
pub const MAX_K_I8: usize = (1 << 17) - QUAD;

/// Rows of `A` the `vpmaddwd` and `vpdpbusd` band kernels hold against
/// one group of `B` panels — eight six-row register tiles. A band call
/// of any height runs as sub-bands of this many rows (the tile kernel
/// takes 64 at a time).
pub const ROW_BAND: usize = 48;

/// Quantize one value: `clamp(round(v * inv_scale), -127, 127)`.
/// `inv_scale` is `1.0 / scale` (hoisted by callers); `round` is half
/// away from zero, NaN maps to 0. The scalar oracle of
/// [`quantize_slice_with`].
#[inline]
pub fn quantize_i8(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// Which integer multiply kernel runs the int8 GEMM band and GEMV.
/// All four are bitwise equal (module docs); the variants exist so
/// tests and benches can name each one, not so anything can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Kernel {
    /// Portable safe-Rust loops. Always available; the parity oracle.
    Scalar,
    /// `vpmaddwd` on sign-extended operands.
    Avx2,
    /// `vpdpbusd` (`avxvnni`, or `avx512vnni` + `avx512vl`).
    Vnni,
    /// `tdpbssd` on the AMX tile unit, where the CPU reports AMX-TILE
    /// and AMX-INT8, the OS enables tile state in XCR0 and grants this
    /// process the tile data; needs [`Int8Kernel::Vnni`] too, whose
    /// body runs its GEMV.
    Amx,
}

/// An [`Int8Kernel`] the host was seen to support, down to the
/// instruction encoding — what the dispatchers match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    VnniVex,
    #[cfg(target_arch = "x86_64")]
    VnniEvex,
    #[cfg(target_arch = "x86_64")]
    Amx,
}

/// The resolution table of the tile kernel: [`Isa::Amx`] when the CPU
/// reports AMX-TILE and AMX-INT8 (`cpu_reports_amx`), XCR0 enables the
/// tile configuration and tile data state (`xcr0_enables_tiles`), the
/// host has a VNNI encoding (`vnni`, which the tile kernel's GEMV runs
/// on) and the OS grants the tile data (`os_grants`, asked only when
/// everything else holds); otherwise `vnni` — the kernel a SIMD path
/// ran before the tile unit existed. Pure but for `os_grants`, so every
/// row is testable on any host.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_variables))]
fn resolve_amx(
    cpu_reports_amx: bool,
    xcr0_enables_tiles: bool,
    os_grants: impl FnOnce() -> bool,
    vnni: Option<Isa>,
) -> Option<Isa> {
    #[cfg(target_arch = "x86_64")]
    if cpu_reports_amx && xcr0_enables_tiles && vnni.is_some() && os_grants() {
        return Some(Isa::Amx);
    }
    vnni
}

/// Whether this process may run the tile kernel: [`resolve_amx`] on
/// what the CPU and the OS report, asking the OS at most once per
/// process (the grant is process-wide and cannot be taken back).
#[cfg(target_arch = "x86_64")]
fn amx_granted() -> bool {
    static PICK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PICK.get_or_init(|| {
        let vnni = Int8Kernel::Vnni.isa();
        let (cpu, xcr0) = (x86::amx::cpu_reports_amx(), x86::amx::xcr0_enables_tiles());
        resolve_amx(cpu, xcr0, x86::amx::request_tile_data, vnni) == Some(Isa::Amx)
    })
}

impl Int8Kernel {
    /// Every kernel, scalar first.
    pub const ALL: [Int8Kernel; 4] = [
        Int8Kernel::Scalar,
        Int8Kernel::Avx2,
        Int8Kernel::Vnni,
        Int8Kernel::Amx,
    ];

    /// Stable lower-case name (`scalar` / `avx2` / `vnni` / `amx`)
    /// shown in reports.
    pub fn name(self) -> &'static str {
        match self {
            Int8Kernel::Scalar => "scalar",
            Int8Kernel::Avx2 => "avx2",
            Int8Kernel::Vnni => "vnni",
            Int8Kernel::Amx => "amx",
        }
    }

    /// Numeric code published to the `int8_kernel` metrics gauge.
    /// Matches [`cap_obs::int8_kernel_name`]; `0` is reserved for
    /// "unset" (no int8 multiply has been dispatched yet).
    pub fn code(self) -> u64 {
        match self {
            Int8Kernel::Scalar => 1,
            Int8Kernel::Avx2 => 2,
            Int8Kernel::Vnni => 3,
            Int8Kernel::Amx => 4,
        }
    }

    /// Detect the CPU features this kernel's `#[target_feature]`
    /// functions are compiled with (cached by `std`; a relaxed load
    /// per feature) — for the tile kernel, the cached
    /// [`resolve_amx`] pick.
    fn isa(self) -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if self == Int8Kernel::Amx {
            return amx_granted().then_some(Isa::Amx);
        }
        #[cfg(target_arch = "x86_64")]
        if self != Int8Kernel::Scalar && is_x86_feature_detected!("avx2") {
            if self == Int8Kernel::Avx2 {
                return Some(Isa::Avx2);
            }
            if is_x86_feature_detected!("avxvnni") {
                return Some(Isa::VnniVex);
            }
            if is_x86_feature_detected!("avx512vnni") && is_x86_feature_detected!("avx512vl") {
                return Some(Isa::VnniEvex);
            }
        }
        (self == Int8Kernel::Scalar).then_some(Isa::Scalar)
    }

    /// [`Int8Kernel::isa`] for a dispatcher about to enter the kernel.
    ///
    /// # Panics
    /// If the host cannot run this kernel.
    fn checked_isa(self) -> Isa {
        self.isa()
            .unwrap_or_else(|| panic!("int8 kernel {} is not available on this host", self.name()))
    }

    /// Whether the current host can execute this kernel.
    pub fn is_available(self) -> bool {
        self.isa().is_some()
    }

    /// Every kernel the current host can execute, scalar first.
    pub fn available() -> Vec<Int8Kernel> {
        Self::ALL.into_iter().filter(|k| k.is_available()).collect()
    }

    /// The kernel that multiplies under `path`: scalar stays scalar,
    /// and the SIMD path takes the fastest integer kernel the host has
    /// — the tile unit, else `vpdpbusd`, else `vpmaddwd`.
    pub fn for_path(path: KernelPath) -> Int8Kernel {
        match path {
            KernelPath::Scalar => Int8Kernel::Scalar,
            KernelPath::Avx2 if Int8Kernel::Amx.is_available() => Int8Kernel::Amx,
            KernelPath::Avx2 if Int8Kernel::Vnni.is_available() => Int8Kernel::Vnni,
            KernelPath::Avx2 => Int8Kernel::Avx2,
        }
    }
}

/// The integer kernel behind [`crate::gemm_i8`] in this process:
/// [`Int8Kernel::for_path`] of [`super::selected`]. Publishes the
/// `int8_kernel` gauge, so any report of an int8 time can say which
/// kernel produced it (written only when it changes: every multiply
/// on every thread passes through here).
#[inline]
pub fn selected() -> Int8Kernel {
    let kernel = Int8Kernel::for_path(super::selected());
    let gauge = &cap_obs::metrics().int8_kernel;
    if gauge.get() != kernel.code() {
        gauge.set(kernel.code());
    }
    kernel
}

/// Quantize `src` element-wise into `dst` (equal lengths, asserted):
/// `dst[i] = quantize_i8(src[i], inv_scale)`, bitwise on every
/// [`KernelPath`]. The one slice quantizer behind every `*_into` of
/// [`crate::quant`] and the int8 convolution's image quantize.
#[inline]
pub fn quantize_slice_with(path: KernelPath, src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize: src and dst lengths differ");
    match path {
        KernelPath::Scalar => scalar::quantize_slice(src, inv_scale, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only ever produced by
        // `super::selected()` / `super::force()`, both of which verify
        // via `is_available()` that the CPU reports the avx2 feature
        // the target_feature kernel requires; the lengths were asserted
        // equal above, which is all the kernel's raw loads and stores
        // rely on.
        KernelPath::Avx2 => unsafe { x86::quantize_slice(src, inv_scale, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::quantize_slice(src, inv_scale, dst),
    }
}

/// Write depth rows `4q .. 4q + 4` of a `B` operand into the
/// quad-interleaved panel layout: column `j` of panel `p` gets the four
/// adjacent bytes `rows[0..4][p*PANEL + j]` at `p*kp*PANEL +
/// q*4*PANEL + 4*j`. The rows hold whole panels (callers zero the lanes
/// past the last real column, and pass zero rows for the pad rows of a
/// depth that is not a multiple of four), so all `4*PANEL` bytes of
/// quad `q` are written in every panel the rows cover, starting at
/// `packed`'s first panel.
#[inline]
pub fn store_row_quad_with(
    path: KernelPath,
    rows: [&[i8]; QUAD],
    q: usize,
    kp: usize,
    packed: &mut [i8],
) {
    let lanes = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == lanes) && lanes.is_multiple_of(PANEL));
    assert!(kp.is_multiple_of(QUAD) && QUAD * (q + 1) <= kp);
    assert!(packed.len() >= lanes * kp, "packed B too short");
    match path {
        KernelPath::Scalar => scalar::store_row_quad(rows, q, kp, packed),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 verified available by `selected()`/`force()`
        // (see `quantize_slice_with`); the asserts above are the bounds
        // of every raw load and store in the kernel.
        KernelPath::Avx2 => unsafe { x86::store_row_quad(rows, q, kp, packed) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::store_row_quad(rows, q, kp, packed),
    }
}

/// Bytes one load of the quad lowering's window walk reads: a lane
/// table (`pshufb`) picks a panel's lanes out of them.
const WINDOW: usize = 16;

/// Windows a panel's lanes may need before its walk falls back to the
/// byte gather: enough for every panel of a stride-4 lowering whose
/// output rows are at least two lanes wide.
const MAX_WINDOWS: usize = 4;

/// How [`lower_quad_panels_with`] reads one panel's lanes, resolved once
/// for all its patch rows. Built only by [`PanelWalk::of`], whose
/// asserts bound every load the SIMD walks make.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum PanelWalk {
    /// Eight lanes of consecutive bytes from `src` past each tap: one
    /// 8-byte load per patch row.
    Run(usize),
    /// The lanes of window `w` lie in the 16 bytes from `base[w]` past
    /// each tap; `table[w]` holds each such lane's byte in the window,
    /// every other lane `-128` (a `pshufb` zero). One load and one
    /// shuffle per window and patch row, OR'd.
    Windows {
        count: usize,
        base: [usize; MAX_WINDOWS],
        table: [[i8; WINDOW]; MAX_WINDOWS],
    },
    /// Byte by byte: the scalar oracle.
    Gather,
}

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl PanelWalk {
    /// The walk of a panel whose lane `j` reads `lanes[j]` past each
    /// tap, none past `last`, from a padded image of `len` bytes.
    /// A window whose 16 bytes would pass the image's end at the last
    /// tap starts early enough to end on its last byte; where the image
    /// is shorter than that, or the lanes need more than
    /// [`MAX_WINDOWS`] windows or do not ascend, the panel gathers.
    ///
    /// # Panics
    /// If a lane's byte lies past the image at the last tap, or a load
    /// of the walk would (the second is this function's own bound).
    fn of(lanes: &[usize], last: usize, len: usize) -> PanelWalk {
        let Some(&top) = lanes.iter().max() else {
            return PanelWalk::Gather;
        };
        assert!(
            last + top < len,
            "quad lowering: a lane reads past the image"
        );
        if lanes.len() == PANEL && lanes.iter().enumerate().all(|(j, &s)| s == lanes[0] + j) {
            return PanelWalk::Run(lanes[0]);
        }
        let mut count = 0;
        let mut base = [0; MAX_WINDOWS];
        let mut table = [[i8::MIN; WINDOW]; MAX_WINDOWS];
        for (j, &s) in lanes.iter().enumerate() {
            if count == 0 || s >= base[count - 1] + WINDOW {
                if count == MAX_WINDOWS {
                    return PanelWalk::Gather;
                }
                base[count] = s;
                count += 1;
            } else if s < base[count - 1] {
                return PanelWalk::Gather;
            }
            table[count - 1][j] = (s - base[count - 1]) as i8;
        }
        // Every lane of window `w` reads below `len - last`, so moving
        // the window back to end there keeps each inside it.
        let Some(end) = len.checked_sub(last + WINDOW) else {
            return PanelWalk::Gather;
        };
        for (b, t) in base.iter_mut().zip(&mut table).take(count) {
            if *b > end {
                let back = (*b - end) as i8;
                for lane in t.iter_mut().filter(|l| **l >= 0) {
                    *lane += back;
                }
                *b = end;
            }
            assert!(
                last + *b + WINDOW <= len,
                "quad lowering: a window passes the image"
            );
        }
        PanelWalk::Windows { count, base, table }
    }

    /// How far past a tap the walk's loads end (0 for the gather).
    fn reach(&self) -> usize {
        match self {
            PanelWalk::Run(src) => src + PANEL,
            PanelWalk::Windows { count, base, .. } => {
                base[..*count].iter().max().map_or(0, |b| b + WINDOW)
            }
            PanelWalk::Gather => 0,
        }
    }
}

/// The patch rows of an int8 quad lowering: each row's offset into the
/// padded image, in depth order, and the largest of them — found once
/// per lowering, then shared by every panel (and every piece of a
/// split) that [`lower_quad_panels_with`] writes. The walks bound their
/// loads at that largest tap.
#[derive(Debug, Clone, Copy)]
pub struct QuadTaps<'a> {
    at: &'a [u32],
    last: usize,
}

impl<'a> QuadTaps<'a> {
    /// The rows whose offsets `at` lists (none: a zero-depth lowering).
    pub fn new(at: &'a [u32]) -> Self {
        let last = at.iter().max().map_or(0, |&a| a as usize);
        QuadTaps { at, last }
    }

    /// Patch rows: the depth before padding to whole quads.
    pub fn rows(&self) -> usize {
        self.at.len()
    }
}

/// Panels of the int8 quad lowering ([`crate::Lowering::quads_into`]):
/// `blocks` holds consecutive `kp × PANEL` blocks of a packed `B` (layout
/// above); in block `i`, row `r`, lane `j` is `padded[at_r + lanes[j] +
/// step * i]` — `at_r` the offset of patch row `r` in `taps` — and every
/// other byte (lanes past `lanes`, pad rows past the depth) zero; every
/// byte of `blocks` written. One panel is one block at any `step`; the
/// panels inside one run of the lowering are one call, `step` being
/// `PANEL * stride`. Read straight from the padded image, quad by quad:
/// the AVX2 walk loads each patch row's eight lanes into a register —
/// one 8-byte load where they are consecutive, else one 16-byte load per
/// window and a lane-table shuffle — and interleaves four rows into the
/// quad's thirty-two bytes as [`store_row_quad_with`] does. The first
/// block's walk (`PanelWalk`, resolved once) serves every block whose
/// loads, moved `step` bytes a block, stay inside `padded`; each block
/// past those (the image's last, at the last taps) resolves its own.
/// Bitwise the scalar oracle on every [`KernelPath`].
///
/// # Panics
/// If `lanes` holds more than `PANEL` sources, `blocks` is not whole
/// `padded_depth(taps.rows()) × PANEL` blocks (at least one), or a
/// lane's byte lies past `padded` at the last tap.
pub fn lower_quad_panels_with(
    path: KernelPath,
    padded: &[i8],
    taps: QuadTaps<'_>,
    lanes: &[usize],
    step: usize,
    blocks: &mut [i8],
) {
    let block = padded_depth(taps.rows()) * PANEL;
    assert!(
        lanes.len() <= PANEL,
        "quad lowering: more lanes than a panel"
    );
    assert!(
        block > 0 && !blocks.is_empty() && blocks.len().is_multiple_of(block),
        "quad lowering: whole blocks"
    );
    let walk = match path {
        KernelPath::Scalar => PanelWalk::Gather,
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx2 => PanelWalk::of(lanes, taps.last, padded.len()),
        #[cfg(not(target_arch = "x86_64"))]
        _ => PanelWalk::Gather,
    };
    // Block `i`'s lanes, and its loads, lie `step * i` past the first
    // block's, whose loads end inside the image at the last tap
    // (`PanelWalk::of`).
    let shifted = |i: usize| -> [usize; PANEL] {
        std::array::from_fn(|j| lanes.get(j).map_or(0, |s| s + step * i))
    };
    let panels = blocks.len() / block;
    let moved = match walk {
        PanelWalk::Gather => panels,
        _ => (padded.len() - taps.last - walk.reach())
            .checked_div(step)
            .map_or(panels, |fit| (fit + 1).min(panels)),
    };
    assert!(
        matches!(walk, PanelWalk::Gather)
            || taps.last + walk.reach() + step * (moved - 1) <= padded.len(),
        "quad lowering: a moved walk passes the image"
    );
    let (together, alone) = blocks.split_at_mut(moved * block);
    match walk {
        PanelWalk::Gather => {
            for (i, block) in together.chunks_exact_mut(block).enumerate() {
                scalar::lower_quad_panel(padded, taps.at, &shifted(i)[..lanes.len()], block);
            }
        }
        // SAFETY (both): avx2 verified available by `selected()`/`force()`
        // (see `quantize_slice_with`); every load of block `i < moved`
        // ends at most `taps.last + reach + step * i` bytes into
        // `padded`, at every tap — inside it, by the assert above —; and
        // `together` was cut into whole blocks of the `kp / 4` quads the
        // walk stores.
        #[cfg(target_arch = "x86_64")]
        PanelWalk::Run(src) => unsafe { x86::quad_panel_run(padded, taps.at, src, step, together) },
        #[cfg(target_arch = "x86_64")]
        PanelWalk::Windows { count, base, table } => unsafe {
            x86::quad_panel_windows(padded, taps.at, count, &base, &table, step, together)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD walks exist on x86_64 only"),
    }
    for (i, block) in (moved..).zip(alone.chunks_exact_mut(block)) {
        lower_quad_panels_with(path, padded, taps, &shifted(i)[..lanes.len()], 0, block);
    }
}

/// One row band of the quad-interleaved int8 GEMM with a fused
/// dequantize + bias/ReLU store: rows `row0 .. row0 + c_band.len()/n`
/// of the row-major i8 `a_data` (row stride `kp`, a multiple of
/// [`QUAD`]) against the panel-packed i8 `b_data`, writing dequantized
/// f32 into `c_band`.
///
/// `scale` is the combined dequantization factor (`s_a · s_b`); `epi`
/// is applied after it exactly as in the f32 fused kernels. Outputs are
/// bitwise identical on every [`Int8Kernel`] (see module docs).
///
/// # Panics
/// If the host cannot run `kernel`, `kp` is not a multiple of four or
/// exceeds [`MAX_K_I8`], or a slice or the epilogue's bias is too short
/// for the band.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_packed_band_with(
    kernel: Int8Kernel,
    a_data: &[i8],
    kp: usize,
    n: usize,
    b_data: &[i8],
    c_band: &mut [f32],
    row0: usize,
    scale: f32,
    epi: Epilogue<'_>,
) {
    match kernel.checked_isa() {
        Isa::Scalar => scalar::gemm_i8_packed_band(a_data, kp, n, b_data, c_band, row0, scale, epi),
        // SAFETY (all four): `checked_isa` just saw the CPU report
        // every feature the arm's `#[target_feature]` function enables
        // — for the tile kernel, AMX-TILE and AMX-INT8 with tile state
        // enabled in XCR0 and granted to this process, and avx2 —;
        // slice, depth and bias bounds are asserted inside the kernel
        // before any raw load.
        #[cfg(target_arch = "x86_64")]
        Isa::Amx => unsafe { x86::amx::band(a_data, kp, n, b_data, c_band, row0, scale, epi) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::band_madd(a_data, kp, n, b_data, c_band, row0, scale, epi) },
        #[cfg(target_arch = "x86_64")]
        Isa::VnniVex => unsafe {
            x86::band_vnni_vex(a_data, kp, n, b_data, c_band, row0, scale, epi)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::VnniEvex => unsafe {
            x86::band_vnni_evex(a_data, kp, n, b_data, c_band, row0, scale, epi)
        },
    }
}

/// Int8 matvec against the quad-interleaved panel-packed `b_data`:
/// `c_row[..n] = dequant(a_row · B)` with `kp = a_row.len()` (a
/// multiple of [`QUAD`]). `row_abs` is the absolute output row this
/// matvec computes — it indexes a [`EpiBias::PerRow`] bias (0 for a
/// standalone matvec). The batch-1 shape of
/// [`gemm_i8_packed_band_with`] — the same tile at one row × four
/// panels — bit-identical to a 1-row band on every kernel; same panics.
/// [`Int8Kernel::Amx`] runs the VNNI body here: one row would fill one
/// sixteenth of a tile.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemv_i8_packed_with(
    kernel: Int8Kernel,
    a_row: &[i8],
    n: usize,
    b_data: &[i8],
    c_row: &mut [f32],
    row_abs: usize,
    scale: f32,
    epi: Epilogue<'_>,
) {
    let isa = match kernel.checked_isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Amx => Int8Kernel::Vnni.checked_isa(),
        isa => isa,
    };
    match isa {
        Isa::Scalar => scalar::gemv_i8_packed(a_row, n, b_data, c_row, row_abs, scale, epi),
        // SAFETY (all three): as in `gemm_i8_packed_band_with`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::gemv_madd(a_row, n, b_data, c_row, row_abs, scale, epi) },
        #[cfg(target_arch = "x86_64")]
        Isa::VnniVex => unsafe { x86::gemv_vnni_vex(a_row, n, b_data, c_row, row_abs, scale, epi) },
        #[cfg(target_arch = "x86_64")]
        Isa::VnniEvex => unsafe {
            x86::gemv_vnni_evex(a_row, n, b_data, c_row, row_abs, scale, epi)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Amx => unreachable!("the tile kernel's GEMV resolved to VNNI above"),
    }
}

/// Dequantize one accumulator slot and apply the epilogue — the single
/// shared float sequence every kernel replays per element: `i32 as f32`,
/// `* scale`, `+ bias`, compare-ReLU. Kept scalar here as the
/// reference; the AVX2 store performs the same operations eight lanes
/// at a time (`_mm256_cvtepi32_ps` rounds exactly like `as f32`).
#[inline(always)]
fn dequant_one(acc: i32, scale: f32, bias: f32, has_bias: bool, relu: bool) -> f32 {
    let mut v = acc as f32 * scale;
    if has_bias {
        v += bias;
    }
    if relu {
        v = if v > 0.0 { v } else { 0.0 };
    }
    v
}

/// Portable reference kernels — the parity oracle for the SIMD kernels.
mod scalar {
    use super::{dequant_one, quantize_i8, EpiBias, Epilogue, MAX_K_I8, PANEL, QUAD};

    pub fn quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = quantize_i8(v, inv_scale);
        }
    }

    pub fn store_row_quad(rows: [&[i8]; QUAD], q: usize, kp: usize, packed: &mut [i8]) {
        let panels = packed.chunks_exact_mut(kp * PANEL);
        for (p, panel) in panels.take(rows[0].len() / PANEL).enumerate() {
            let quad = &mut panel[q * QUAD * PANEL..(q + 1) * QUAD * PANEL];
            for (j, column) in quad.chunks_exact_mut(QUAD).enumerate() {
                for (d, row) in column.iter_mut().zip(rows) {
                    *d = row[p * PANEL + j];
                }
            }
        }
    }

    pub fn lower_quad_panel(padded: &[i8], taps: &[u32], lanes: &[usize], block: &mut [i8]) {
        for (q, quad) in block.chunks_exact_mut(QUAD * PANEL).enumerate() {
            let ats: [Option<usize>; QUAD] =
                std::array::from_fn(|i| taps.get(QUAD * q + i).map(|&at| at as usize));
            for (j, column) in quad.chunks_exact_mut(QUAD).enumerate() {
                for (d, at) in column.iter_mut().zip(ats) {
                    *d = match (at, lanes.get(j)) {
                        (Some(at), Some(&s)) => padded[at + s],
                        _ => 0,
                    };
                }
            }
        }
    }

    /// Dequantize-and-store one (possibly partial-width) panel slot.
    fn store_dequant(
        acc: &[i32; PANEL],
        row: &mut [f32],
        c0: usize,
        width: usize,
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        for (j, &a) in acc[..width].iter().enumerate() {
            let (bias, has_bias) = match epi.bias {
                Some(EpiBias::PerRow(b)) => (b[row_abs], true),
                Some(EpiBias::PerCol(b)) => (b[c0 + j], true),
                None => (0.0, false),
            };
            row[c0 + j] = dequant_one(a, scale, bias, has_bias, epi.relu);
        }
    }

    pub fn gemv_i8_packed(
        a_row: &[i8],
        n: usize,
        b_data: &[i8],
        c_row: &mut [f32],
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let kp = a_row.len();
        assert!(
            kp.is_multiple_of(QUAD),
            "int8 pack: depth {kp} must be a multiple of {QUAD}"
        );
        assert!(kp <= MAX_K_I8, "int8 kernel: depth {kp} overflows i32");
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        assert!(b_data.len() >= panels * plen);
        assert!(c_row.len() >= n);
        epi.check(row_abs + 1, n);
        for p in 0..panels {
            let panel = &b_data[p * plen..(p + 1) * plen];
            let mut acc = [0i32; PANEL];
            for (quad, a) in panel
                .chunks_exact(QUAD * PANEL)
                .zip(a_row.chunks_exact(QUAD))
            {
                for (sum, column) in acc.iter_mut().zip(quad.chunks_exact(QUAD)) {
                    for (&av, &bv) in a.iter().zip(column) {
                        *sum += av as i32 * bv as i32;
                    }
                }
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            store_dequant(&acc, c_row, c0, width, row_abs, scale, epi);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn gemm_i8_packed_band(
        a_data: &[i8],
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_band: &mut [f32],
        row0: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let rows_here = c_band.len() / n.max(1);
        assert!(a_data.len() >= (row0 + rows_here) * kp);
        // Exact integer accumulation makes any row/panel blocking
        // bit-identical, so the band is simply the GEMV per row — no
        // separate register-blocked variant to keep in lockstep.
        for local_r in 0..rows_here {
            let r = row0 + local_r;
            gemv_i8_packed(
                &a_data[r * kp..(r + 1) * kp],
                n,
                b_data,
                &mut c_band[local_r * n..(local_r + 1) * n],
                r,
                scale,
                epi,
            );
        }
    }
}

/// AVX2 and VNNI int8 kernels (`x86_64` only). The dispatchers above
/// are the only callers: each has seen the CPU report the features of
/// the `#[target_feature]` function it enters, and every such function
/// asserts its slice invariants at entry, before any raw load.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)]
mod x86 {
    use super::{
        padded_depth, EpiBias, Epilogue, MAX_K_I8, MAX_WINDOWS, PANEL, QUAD, ROW_BAND, WINDOW,
    };
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Per-thread scratch holding the `vpmaddwd` kernel's current A
        /// band sign-extended to i16, so four activations reach all
        /// lanes as one `vpbroadcastq` from memory. Purely a speed
        /// transform: the widened values are the same integers. (The
        /// VNNI kernel reads A's bytes where the caller put them.)
        static A16: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
    }
    /// `quantize_i8` on eight lanes, as i32: multiply, NaN → 0, clamp to
    /// ±127, round half away from zero. Clamping first is exact: the
    /// bounds are integers and rounding is monotonic. The rounding is
    /// `trunc(x + copysign(h, x))` with `h = 0.5 − 2⁻²⁵`, the largest
    /// float below 0.5: when `frac(|x|) < 0.5` the exact sum is below
    /// the last float before the next integer and rounds no higher;
    /// otherwise it lies within 2⁻²⁵ of that integer — under half the
    /// float spacing there — and rounds onto it (the one exact tie,
    /// `0.5 + h`, goes to the even 1.0). `_mm256_cvttps_epi32` is the
    /// truncation.
    #[inline(always)]
    unsafe fn quantize8(v: __m256, inv_scale: __m256) -> __m256i {
        let x = _mm256_mul_ps(v, inv_scale);
        let x = _mm256_and_ps(x, _mm256_cmp_ps(x, x, _CMP_ORD_Q));
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(-127.0)),
            _mm256_set1_ps(127.0),
        );
        let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
        let half = _mm256_or_ps(sign, _mm256_set1_ps(0.499_999_97));
        _mm256_cvttps_epi32(_mm256_add_ps(x, half))
    }

    /// Slice quantizer; see the scalar oracle. 32 values per pass
    /// narrow i32 → i16 → i8 with two in-lane saturating packs (no
    /// value exceeds ±127, so nothing saturates) and one cross-lane
    /// permute that restores element order; then eight at a time, then
    /// the scalar expression.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer);
    /// `src.len() == dst.len()` (asserted by the dispatch layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        let n = src.len();
        let inv = _mm256_set1_ps(inv_scale);
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0;
        while i + 32 <= n {
            let a = quantize8(_mm256_loadu_ps(sp.add(i)), inv);
            let b = quantize8(_mm256_loadu_ps(sp.add(i + 8)), inv);
            let c = quantize8(_mm256_loadu_ps(sp.add(i + 16)), inv);
            let d = quantize8(_mm256_loadu_ps(sp.add(i + 24)), inv);
            // Per 128-bit lane: [a b | a b] and [c d | c d] as i16,
            // then [a b c d | a b c d] as i8 in 4-byte groups.
            let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
            let bytes = _mm256_permutevar8x32_epi32(bytes, order);
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, bytes);
            i += 32;
        }
        while i + 8 <= n {
            let q = quantize8(_mm256_loadu_ps(sp.add(i)), inv);
            let lo = _mm256_castsi256_si128(q);
            let hi = _mm256_extracti128_si256(q, 1);
            let words = _mm_packs_epi32(lo, hi);
            _mm_storel_epi64(dp.add(i) as *mut __m128i, _mm_packs_epi16(words, words));
            i += 8;
        }
        super::scalar::quantize_slice(&src[i..], inv_scale, &mut dst[i..]);
    }

    /// Quad store; see the scalar oracle. Per panel, two `punpcklbw`
    /// pair rows 0/1 and 2/3 byte by byte, and `punpcklwd` / `punpckhwd`
    /// of those put the four depth bytes of columns 0–3 / 4–7 side by
    /// side: the thirty-two bytes of depth quad `q`.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer); the four
    /// rows are equally long, a multiple of `PANEL`; `4*(q+1) <= kp`;
    /// `packed.len() >= rows[0].len() * kp` (all asserted by the
    /// dispatch layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn store_row_quad(rows: [&[i8]; QUAD], q: usize, kp: usize, packed: &mut [i8]) {
        let [r0, r1, r2, r3] = rows;
        let dst = packed.as_mut_ptr().add(q * QUAD * PANEL);
        for p in 0..r0.len() / PANEL {
            let at = |row: &[i8]| _mm_loadl_epi64(row.as_ptr().add(p * PANEL) as *const __m128i);
            let r01 = _mm_unpacklo_epi8(at(r0), at(r1));
            let r23 = _mm_unpacklo_epi8(at(r2), at(r3));
            // Last byte written: p*kp*PANEL + (q+1)*QUAD*PANEL - 1,
            // inside panel `p` because QUAD*(q+1) <= kp.
            let quad = dst.add(p * kp * PANEL) as *mut __m128i;
            _mm_storeu_si128(quad, _mm_unpacklo_epi16(r01, r23));
            _mm_storeu_si128(quad.add(1), _mm_unpackhi_epi16(r01, r23));
        }
    }

    /// Four patch rows' eight lanes (the low eight bytes of each
    /// register) interleaved into one depth quad of a panel, stored at
    /// `dst`: the `punpcklbw` / `punpck{l,h}wd` of [`store_row_quad`].
    ///
    /// # Safety
    /// `dst` is valid for 32 bytes of writes.
    #[inline(always)]
    unsafe fn store_quad(rows: [__m128i; QUAD], dst: *mut i8) {
        let r01 = _mm_unpacklo_epi8(rows[0], rows[1]);
        let r23 = _mm_unpacklo_epi8(rows[2], rows[3]);
        _mm_storeu_si128(dst as *mut __m128i, _mm_unpacklo_epi16(r01, r23));
        _mm_storeu_si128(dst.add(16) as *mut __m128i, _mm_unpackhi_epi16(r01, r23));
    }

    /// How one patch row's lanes reach a register, for [`walk_quads`].
    trait Lanes {
        /// The eight lanes of the patch row at tap `at` in the low
        /// eight bytes.
        ///
        /// # Safety
        /// `at` is at most the largest tap the walk was built for.
        unsafe fn load(&self, at: u32) -> __m128i;
    }

    /// [`PanelWalk::Run`](super::PanelWalk::Run): eight consecutive
    /// bytes from `src` past the tap.
    struct Run(*const i8);

    impl Lanes for Run {
        #[inline(always)]
        unsafe fn load(&self, at: u32) -> __m128i {
            _mm_loadl_epi64(self.0.add(at as usize) as *const __m128i)
        }
    }

    /// [`PanelWalk::Windows`](super::PanelWalk::Windows) with `W`
    /// windows: each window's sixteen bytes shuffled by its lane table,
    /// OR'd.
    struct Windows<const W: usize> {
        from: [*const i8; W],
        table: [__m128i; W],
    }

    impl<const W: usize> Lanes for Windows<W> {
        #[inline(always)]
        unsafe fn load(&self, at: u32) -> __m128i {
            let mut v = _mm_setzero_si128();
            for (from, table) in self.from.iter().zip(&self.table) {
                let bytes = _mm_loadu_si128(from.add(at as usize) as *const __m128i);
                v = _mm_or_si128(v, _mm_shuffle_epi8(bytes, *table));
            }
            v
        }
    }

    /// The quads of one panel's block, four patch rows of `taps` at a
    /// time, the pad rows past them zero.
    ///
    /// # Safety
    /// `lanes` reads inside the image at every tap of `taps`;
    /// `block.len() >= padded_depth(taps.len()) * PANEL`.
    #[inline(always)]
    unsafe fn walk_quads(lanes: impl Lanes, taps: &[u32], block: &mut [i8]) {
        let dst = block.as_mut_ptr();
        let (quads, tail) = taps.as_chunks::<QUAD>();
        for (q, &[a0, a1, a2, a3]) in quads.iter().enumerate() {
            // Written out, not `map`ped: a closure would not inline here.
            let quad = [
                lanes.load(a0),
                lanes.load(a1),
                lanes.load(a2),
                lanes.load(a3),
            ];
            store_quad(quad, dst.add(q * QUAD * PANEL));
        }
        if !tail.is_empty() {
            let mut quad = [_mm_setzero_si128(); QUAD];
            for (r, &at) in quad.iter_mut().zip(tail) {
                *r = lanes.load(at);
            }
            store_quad(quad, dst.add(quads.len() * QUAD * PANEL));
        }
    }

    /// The quad walk of whole panels of one run, each `step` bytes past
    /// the one before; see [`super::lower_quad_panels_with`].
    ///
    /// # Safety
    /// CPU must support AVX2; `at + src + step * i + PANEL <=
    /// padded.len()` for every tap `at` and block `i` of `blocks`, which
    /// holds whole `padded_depth(taps.len()) * PANEL` blocks (all
    /// verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quad_panel_run(
        padded: &[i8],
        taps: &[u32],
        src: usize,
        step: usize,
        blocks: &mut [i8],
    ) {
        let block = padded_depth(taps.len()) * PANEL;
        for (i, b) in blocks.chunks_exact_mut(block).enumerate() {
            walk_quads(Run(padded.as_ptr().add(src + step * i)), taps, b);
        }
    }

    /// The quad walk of whole panels read through `count` windows, each
    /// panel's `step` bytes past the one before; see
    /// [`super::lower_quad_panels_with`].
    ///
    /// # Safety
    /// CPU must support AVX2; `1 <= count <= MAX_WINDOWS`, `at +
    /// base[w] + step * i + WINDOW <= padded.len()` for every tap `at`,
    /// window `w` and block `i` of `blocks`, which holds whole
    /// `padded_depth(taps.len()) * PANEL` blocks; every table byte below
    /// 16 or negative (all verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quad_panel_windows(
        padded: &[i8],
        taps: &[u32],
        count: usize,
        base: &[usize; MAX_WINDOWS],
        table: &[[i8; WINDOW]; MAX_WINDOWS],
        step: usize,
        blocks: &mut [i8],
    ) {
        match count {
            1 => windows::<1>(padded, taps, base, table, step, blocks),
            2 => windows::<2>(padded, taps, base, table, step, blocks),
            3 => windows::<3>(padded, taps, base, table, step, blocks),
            4 => windows::<4>(padded, taps, base, table, step, blocks),
            _ => unreachable!("a panel reads through 1 to {MAX_WINDOWS} windows"),
        }
    }

    /// [`quad_panel_windows`] with `W` windows.
    ///
    /// # Safety
    /// As [`quad_panel_windows`], `count` being `W`.
    #[inline(always)]
    unsafe fn windows<const W: usize>(
        padded: &[i8],
        taps: &[u32],
        base: &[usize; MAX_WINDOWS],
        table: &[[i8; WINDOW]; MAX_WINDOWS],
        step: usize,
        blocks: &mut [i8],
    ) {
        let mut luts = [_mm_setzero_si128(); W];
        for (lut, bytes) in luts.iter_mut().zip(table) {
            *lut = _mm_loadu_si128(bytes.as_ptr() as *const __m128i);
        }
        let block = padded_depth(taps.len()) * PANEL;
        for (i, b) in blocks.chunks_exact_mut(block).enumerate() {
            let mut from = [padded.as_ptr(); W];
            for (from, &base) in from.iter_mut().zip(base) {
                *from = padded.as_ptr().add(base + step * i);
            }
            walk_quads(Windows { from, table: luts }, taps, b);
        }
    }

    /// Sign-extend the first `rows` rows of the row-major i8 `a` (row
    /// stride `kp`; `a.len() >= rows * kp`) into `buf` as contiguous
    /// i16 rows.
    #[inline(always)]
    unsafe fn widen_rows(a: &[i8], rows: usize, kp: usize, buf: &mut Vec<i16>) {
        buf.resize(rows * kp, 0);
        for r in 0..rows {
            let src = a.as_ptr().add(r * kp);
            let dst = buf.as_mut_ptr().add(r * kp);
            let mut t = 0;
            while t + 16 <= kp {
                let v = _mm_loadu_si128(src.add(t) as *const __m128i);
                _mm256_storeu_si256(dst.add(t) as *mut __m256i, _mm256_cvtepi8_epi16(v));
                t += 16;
            }
            while t < kp {
                *dst.add(t) = *src.add(t) as i16;
                t += 1;
            }
        }
    }

    /// Where the sums of one band or GEMV call go, and how: the output
    /// rows (`n` wide, the first being absolute row `row0`), the
    /// dequantization scale and the epilogue — built only by
    /// [`Out::checked`], whose asserts are the bounds of every raw load
    /// and store the kernels make.
    struct Out<'c, 'e> {
        kp: usize,
        n: usize,
        c: &'c mut [f32],
        row0: usize,
        scale: f32,
        row_bias: Option<&'e [f32]>,
        col_bias: Option<&'e [f32]>,
        relu: bool,
    }

    impl<'c, 'e> Out<'c, 'e> {
        /// The entry asserts of every band and GEMV kernel: the depth
        /// is whole quads within [`MAX_K_I8`], `a` holds the call's
        /// `rows` rows of it, `b` the panels of `n` columns, `c` the
        /// `rows × n` outputs, and the epilogue's bias covers absolute
        /// rows up to `row0 + rows` and `n` columns.
        #[allow(clippy::too_many_arguments)]
        fn checked(
            kp: usize,
            a: &[i8],
            rows: usize,
            n: usize,
            b: &[i8],
            c: &'c mut [f32],
            row0: usize,
            scale: f32,
            epi: Epilogue<'e>,
        ) -> Self {
            assert!(
                kp.is_multiple_of(QUAD),
                "int8 pack: depth {kp} must be a multiple of {QUAD}"
            );
            assert!(kp <= MAX_K_I8, "int8 kernel: depth {kp} overflows i32");
            assert!(a.len() >= rows * kp);
            assert!(b.len() >= n.div_ceil(PANEL) * kp * PANEL);
            assert!(c.len() >= rows * n);
            epi.check(row0 + rows, n);
            let (row_bias, col_bias) = match epi.bias {
                Some(EpiBias::PerRow(b)) => (Some(b), None),
                Some(EpiBias::PerCol(b)) => (None, Some(b)),
                None => (None, None),
            };
            Out {
                kp,
                n,
                c,
                row0,
                scale,
                row_bias,
                col_bias,
                relu: epi.relu,
            }
        }

        /// Dequantize one register of sums — row `r` of this call,
        /// panel `p` — and store it through the epilogue:
        /// element-wise the exact float sequence of the scalar
        /// `dequant_one`. `_mm256_cvtepi32_ps` rounds like `i32 as f32`
        /// (nearest-even), then one mul, one add, compare-and-mask
        /// ReLU. No FMA anywhere, so lanes are bitwise equal to scalar.
        #[inline(always)]
        unsafe fn store(&mut self, sums: __m256i, r: usize, p: usize) {
            let (n, c0) = (self.n, p * PANEL);
            let width = PANEL.min(n - c0);
            let mut v = _mm256_mul_ps(_mm256_cvtepi32_ps(sums), _mm256_set1_ps(self.scale));
            if let Some(b) = self.row_bias {
                v = _mm256_add_ps(v, _mm256_set1_ps(b[self.row0 + r]));
            }
            if let Some(b) = self.col_bias {
                let bv = if width == PANEL {
                    // In bounds: width == PANEL implies c0 + PANEL <= n
                    // and `checked` asserted b.len() >= n.
                    _mm256_loadu_ps(b.as_ptr().add(c0))
                } else {
                    let mut tmp = [0.0f32; PANEL];
                    tmp[..width].copy_from_slice(&b[c0..c0 + width]);
                    _mm256_loadu_ps(tmp.as_ptr())
                };
                v = _mm256_add_ps(v, bv);
            }
            if self.relu {
                let pos = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
                v = _mm256_and_ps(v, pos);
            }
            let row = &mut self.c[r * n..(r + 1) * n];
            if width == PANEL {
                // In bounds: `row` is `n` long and c0 + PANEL <= n.
                _mm256_storeu_ps(row.as_mut_ptr().add(c0), v);
            } else {
                let mut tmp = [0.0f32; PANEL];
                _mm256_storeu_ps(tmp.as_mut_ptr(), v);
                row[c0..c0 + width].copy_from_slice(&tmp[..width]);
            }
        }
    }

    /// One way of multiplying a register tile of the quad layout:
    /// `R` rows of `A` against `P` panels of `B` over the whole depth.
    /// The band and GEMV walks below are written once over it.
    trait Mac {
        /// Element of the `A` rows the tile reads: the caller's bytes,
        /// or a widened copy.
        type A: Copy;

        /// What [`Mac::tile`] must subtract from every sum of the row
        /// at `a_row` (`kp` elements) — computed once per row, not
        /// once per tile.
        #[inline(always)]
        unsafe fn row_surplus(_a_row: *const Self::A, _kp: usize) -> i32 {
            0
        }

        /// The `R × P` tile: `Σₖ a[r][k] · b[k][j]` for rows `a`,
        /// `a + kp`, … and the eight columns of each panel at `pn`, as
        /// one i32 register per row and panel, lanes in column order.
        /// Reads `R × kp` elements of `a` and `kp × PANEL` bytes of
        /// each panel.
        unsafe fn tile<const R: usize, const P: usize>(
            a: *const Self::A,
            kp: usize,
            surplus: &[i32],
            pn: [*const i8; P],
        ) -> [[__m256i; P]; R];
    }

    /// `vpmaddwd` on sign-extended operands. Exact: the lone
    /// saturating case needs two `-32768` inputs, unreachable from i8.
    struct Madd;

    impl Mac for Madd {
        type A = i16;

        /// Per quad and panel, the two 16-byte halves of the quad row
        /// widen to columns 0–3 and 4–7 (four depths each, adjacent);
        /// `vpmaddwd` against the row's four activations, broadcast as
        /// one 64-bit load, leaves each column's quad as two adjacent
        /// i32 lanes. `lo`/`hi` accumulate those per row; the end folds
        /// each pair with `vphaddd` — which interleaves the halves per
        /// 128-bit lane as columns 0 1 4 5 | 2 3 6 7 — and `vpermd`
        /// restores column order.
        #[inline(always)]
        unsafe fn tile<const R: usize, const P: usize>(
            a: *const i16,
            kp: usize,
            _surplus: &[i32],
            pn: [*const i8; P],
        ) -> [[__m256i; P]; R] {
            let zero = _mm256_setzero_si256();
            let mut lo = [[zero; P]; R];
            let mut hi = [[zero; P]; R];
            for q in 0..kp / QUAD {
                let mut b = [(zero, zero); P];
                for p in 0..P {
                    let quad = pn[p].add(q * QUAD * PANEL) as *const __m128i;
                    b[p] = (
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(quad)),
                        _mm256_cvtepi8_epi16(_mm_loadu_si128(quad.add(1))),
                    );
                }
                for r in 0..R {
                    let four = a.add(r * kp + q * QUAD) as *const i64;
                    let av = _mm256_set1_epi64x(four.read_unaligned());
                    for p in 0..P {
                        lo[r][p] = _mm256_add_epi32(lo[r][p], _mm256_madd_epi16(b[p].0, av));
                        hi[r][p] = _mm256_add_epi32(hi[r][p], _mm256_madd_epi16(b[p].1, av));
                    }
                }
            }
            let order = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
            let mut sums = [[zero; P]; R];
            for r in 0..R {
                for p in 0..P {
                    let folded = _mm256_hadd_epi32(lo[r][p], hi[r][p]);
                    sums[r][p] = _mm256_permutevar8x32_epi32(folded, order);
                }
            }
            sums
        }
    }

    /// Sum of the eight i32 lanes.
    #[inline(always)]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// The `vpdpbusd` kernel for one encoding of the instruction: the
    /// [`Mac`] and its two `#[target_feature]` entry points. `$dpbusd`
    /// is `(acc, u8 lanes, s8 lanes) -> acc + Σ₄ u8·s8` per 32-bit
    /// lane, wrapping.
    macro_rules! vnni_kernel {
        ($mac:ident, $band:ident, $gemv:ident, $features:literal, $dpbusd:ident) => {
            struct $mac;

            impl Mac for $mac {
                type A = i8;

                /// `128 · Σₖ a[k]`: what the `+128` on every `B` byte
                /// adds to each sum of this row. At most `2³¹ − 2¹⁶`
                /// in magnitude ([`MAX_K_I8`]).
                #[inline(always)]
                unsafe fn row_surplus(a_row: *const i8, kp: usize) -> i32 {
                    let ones = _mm256_set1_epi8(1);
                    let mut sums = _mm256_setzero_si256();
                    let mut t = 0;
                    while t + 32 <= kp {
                        let av = _mm256_loadu_si256(a_row.add(t) as *const __m256i);
                        sums = $dpbusd(sums, ones, av);
                        t += 32;
                    }
                    let mut sum = hsum_epi32(sums);
                    while t < kp {
                        sum += *a_row.add(t) as i32;
                        t += 1;
                    }
                    128 * sum
                }

                /// Per quad, each panel's quad row is loaded and
                /// flipped to unsigned once, then multiplied against
                /// every row's four activation bytes (one 32-bit
                /// broadcast load): `R × P` independent `vpdpbusd`
                /// chains — 6 × 2 fills the sixteen ymm registers with
                /// twelve accumulators, two `B` rows, the broadcast and
                /// the flip mask.
                #[inline(always)]
                unsafe fn tile<const R: usize, const P: usize>(
                    a: *const i8,
                    kp: usize,
                    surplus: &[i32],
                    pn: [*const i8; P],
                ) -> [[__m256i; P]; R] {
                    let zero = _mm256_setzero_si256();
                    let flip = _mm256_set1_epi8(-128);
                    let mut sums = [[zero; P]; R];
                    for q in 0..kp / QUAD {
                        let mut b = [zero; P];
                        for p in 0..P {
                            let quad = pn[p].add(q * QUAD * PANEL) as *const __m256i;
                            b[p] = _mm256_xor_si256(_mm256_loadu_si256(quad), flip);
                        }
                        for r in 0..R {
                            let four = a.add(r * kp + q * QUAD) as *const i32;
                            let av = _mm256_set1_epi32(four.read_unaligned());
                            for p in 0..P {
                                sums[r][p] = $dpbusd(sums[r][p], b[p], av);
                            }
                        }
                    }
                    for r in 0..R {
                        let over = _mm256_set1_epi32(surplus[r]);
                        for p in 0..P {
                            sums[r][p] = _mm256_sub_epi32(sums[r][p], over);
                        }
                    }
                    sums
                }
            }

            /// Int8 GEMM band on `vpdpbusd`; see the scalar oracle.
            ///
            /// # Safety
            /// The CPU must support the enabled target features
            /// (verified by the dispatch layer).
            #[target_feature(enable = $features)]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn $band(
                a_data: &[i8],
                kp: usize,
                n: usize,
                b_data: &[i8],
                c_band: &mut [f32],
                row0: usize,
                scale: f32,
                epi: Epilogue<'_>,
            ) {
                let rows = c_band.len() / n.max(1);
                let a = &a_data[row0 * kp..];
                let mut out = Out::checked(kp, a, rows, n, b_data, c_band, row0, scale, epi);
                band_body::<$mac, 2>(a.as_ptr(), rows, b_data, &mut out);
            }

            /// Int8 GEMV on `vpdpbusd`; see the scalar oracle.
            ///
            /// # Safety
            /// The CPU must support the enabled target features
            /// (verified by the dispatch layer).
            #[target_feature(enable = $features)]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn $gemv(
                a_row: &[i8],
                n: usize,
                b_data: &[i8],
                c_row: &mut [f32],
                row_abs: usize,
                scale: f32,
                epi: Epilogue<'_>,
            ) {
                let kp = a_row.len();
                let mut out = Out::checked(kp, a_row, 1, n, b_data, c_row, row_abs, scale, epi);
                rows_by_panels::<$mac, 4>(a_row.as_ptr(), 0, 1, b_data, &mut out);
            }
        };
    }

    vnni_kernel!(
        VnniVex,
        band_vnni_vex,
        gemv_vnni_vex,
        "avx2,avxvnni",
        _mm256_dpbusd_avx_epi32
    );
    vnni_kernel!(
        VnniEvex,
        band_vnni_evex,
        gemv_vnni_evex,
        "avx2,avx512vnni,avx512vl",
        _mm256_dpbusd_epi32
    );

    /// Int8 GEMM band on `vpmaddwd`; see the scalar oracle.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn band_madd(
        a_data: &[i8],
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_band: &mut [f32],
        row0: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let rows = c_band.len() / n.max(1);
        let a = &a_data[row0 * kp..];
        let mut out = Out::checked(kp, a, rows, n, b_data, c_band, row0, scale, epi);
        A16.with(|cell| {
            let wide = &mut *cell.borrow_mut();
            widen_rows(a, rows, kp, wide);
            band_body::<Madd, 1>(wide.as_ptr(), rows, b_data, &mut out);
        });
    }

    /// Int8 GEMV on `vpmaddwd`; see the scalar oracle.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemv_madd(
        a_row: &[i8],
        n: usize,
        b_data: &[i8],
        c_row: &mut [f32],
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let kp = a_row.len();
        let mut out = Out::checked(kp, a_row, 1, n, b_data, c_row, row_abs, scale, epi);
        A16.with(|cell| {
            let wide = &mut *cell.borrow_mut();
            widen_rows(a_row, 1, kp, wide);
            rows_by_panels::<Madd, 4>(wide.as_ptr(), 0, 1, b_data, &mut out);
        });
    }

    /// Rows `r .. r + rows` of the call (at most [`ROW_BAND`]; `a`
    /// points at row `r`) against every panel of `B`, `P` panels at a
    /// time and the ragged rest one by one. Panels are the outer walk:
    /// each group of `B` panels is streamed in once and stays in L1
    /// while the `A` rows — L1- or L2-resident — pass over it tile by
    /// tile, so however large `B` is, it is read from memory exactly
    /// once per call.
    #[inline(always)]
    unsafe fn rows_by_panels<K: Mac, const P: usize>(
        a: *const K::A,
        r: usize,
        rows: usize,
        b_data: &[i8],
        out: &mut Out<'_, '_>,
    ) {
        let kp = out.kp;
        let panels = out.n.div_ceil(PANEL);
        let plen = kp * PANEL;
        let b = b_data.as_ptr();
        let mut surplus = [0i32; ROW_BAND];
        for (i, over) in surplus[..rows].iter_mut().enumerate() {
            *over = K::row_surplus(a.add(i * kp), kp);
        }
        let mut p = 0;
        while p + P <= panels {
            let mut pn = [b; P];
            for (j, panel) in pn.iter_mut().enumerate() {
                *panel = b.add((p + j) * plen);
            }
            rows_by_tiles::<K, P>(a, r, rows, &surplus, pn, p, out);
            p += P;
        }
        while p < panels {
            rows_by_tiles::<K, 1>(a, r, rows, &surplus, [b.add(p * plen)], p, out);
            p += 1;
        }
    }

    /// Rows `r .. r + rows` against the `P` panels `pn` (panel index
    /// `p` on): register tiles of six rows, then the one tile of
    /// whatever rows remain, each dequantized and stored.
    #[inline(always)]
    unsafe fn rows_by_tiles<K: Mac, const P: usize>(
        a: *const K::A,
        r: usize,
        rows: usize,
        surplus: &[i32; ROW_BAND],
        pn: [*const i8; P],
        p: usize,
        out: &mut Out<'_, '_>,
    ) {
        macro_rules! tile {
            ($rows:literal, $at:expr) => {{
                let sums = K::tile::<$rows, P>(a.add($at * out.kp), out.kp, &surplus[$at..], pn);
                for (i, row_sums) in sums.iter().enumerate() {
                    for (j, &sum) in row_sums.iter().enumerate() {
                        out.store(sum, r + $at + i, p + j);
                    }
                }
            }};
        }
        let mut at = 0;
        while at + 6 <= rows {
            tile!(6, at);
            at += 6;
        }
        match rows - at {
            5 => tile!(5, at),
            4 => tile!(4, at),
            3 => tile!(3, at),
            2 => tile!(2, at),
            1 => tile!(1, at),
            _ => {}
        }
    }

    /// A band of any height as sub-bands of at most [`ROW_BAND`] rows.
    #[inline(always)]
    unsafe fn band_body<K: Mac, const P: usize>(
        a: *const K::A,
        rows: usize,
        b_data: &[i8],
        out: &mut Out<'_, '_>,
    ) {
        for r in (0..rows).step_by(ROW_BAND) {
            let sub = ROW_BAND.min(rows - r);
            rows_by_panels::<K, P>(a.add(r * out.kp), r, sub, b_data, out);
        }
    }

    /// The AMX tile kernel: `tdpbssd`, sixteen rows × eight columns of
    /// exact i32 sums per tile, each over 64 depth bytes per
    /// instruction. Tile `tmm(2i + j)` holds the sums of row half `i`
    /// and panel `j` of a block of at most 32 rows × two panels — four
    /// `C` tiles, two `A` tiles (`tmm4`/`tmm5`) and two `B` tiles
    /// (`tmm6`/`tmm7`): all eight. One `B` tile is sixteen depth quads
    /// of one panel, 512 contiguous bytes of the quad layout, loaded
    /// with a row stride of 32 straight from the caller's slice. `A` is
    /// first copied, 64 rows at a time, into a per-thread scratch in
    /// tile order (16 rows × 64 depth bytes per 1 KiB, aligned), zero
    /// past the last row and the depth: row tails then compute on zero
    /// rows that are never stored, and the depth past the last whole 64
    /// bytes runs as one more step whose `B` tiles are zero-padded
    /// copies of the panels' tails (zero products add nothing). Stored
    /// `C` tiles go through the shared dequantize store. The code is
    /// `asm!`: the tile instructions have no stable intrinsics.
    pub mod amx {
        use super::{Epilogue, Out, PANEL, QUAD};
        use std::arch::asm;
        use std::arch::x86_64::*;
        use std::cell::RefCell;

        /// Depth bytes of one `A` tile row: the depth one `tdpbssd`
        /// covers.
        const DEPTH: usize = 64;
        /// Rows of a full tile (`A` and `C`), and depth quads of a `B`
        /// tile.
        const TILE_ROWS: usize = 16;
        /// Bytes of one `B` (and `C`) tile row: one quad row of a panel,
        /// eight columns × four depth bytes (eight i32 sums in `C`).
        const B_ROW: usize = QUAD * PANEL;
        /// Bytes of one `B` tile: `DEPTH` depth bytes of one panel.
        const B_TILE: usize = DEPTH * PANEL;
        /// Rows of `A` copied to tile order at a time: two blocks of two
        /// row halves, so every panel pair is read once per 64 rows.
        const SUB_BAND: usize = 4 * TILE_ROWS;
        /// Bytes of one `A` tile.
        const A_TILE: usize = TILE_ROWS * DEPTH;

        /// CPUID leaf 7 reports AMX-TILE (EDX bit 24) and AMX-INT8
        /// (EDX bit 25).
        pub fn cpu_reports_amx() -> bool {
            // Leaf 7 is read only where leaf 0 says it exists.
            __cpuid(0).eax >= 7 && (__cpuid_count(7, 0).edx >> 24) & 0b11 == 0b11
        }

        /// XCR0 enables the tile configuration (bit 17) and tile data
        /// (bit 18) state: the OS saves and restores the tiles.
        pub fn xcr0_enables_tiles() -> bool {
            if (__cpuid(1).ecx >> 27) & 1 == 0 {
                return false;
            }
            let xcr0: u32;
            // SAFETY: XGETBV faults only where CPUID leaf 1 does not
            // report OSXSAVE (ECX bit 27), checked above; it reads XCR0
            // into edx:eax and touches nothing else.
            unsafe {
                asm!(
                    "xgetbv",
                    in("ecx") 0u32,
                    out("eax") xcr0,
                    out("edx") _,
                    options(nomem, nostack, preserves_flags)
                );
            }
            (xcr0 >> 17) & 0b11 == 0b11
        }

        /// Ask Linux for this process's permission to use tile data:
        /// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`, true
        /// when it returns 0. Until it is granted, the first tile
        /// instruction faults. The permission covers this process only
        /// and changes nothing outside it.
        #[cfg(target_os = "linux")]
        pub fn request_tile_data() -> bool {
            const SYS_ARCH_PRCTL: usize = 158;
            const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
            const XFEATURE_XTILEDATA: usize = 18;
            let ret: isize;
            // SAFETY: a raw Linux x86_64 system call with the kernel's
            // ABI: number in rax, arguments in rdi/rsi, result in rax,
            // rcx and r11 clobbered. `arch_prctl` with these arguments
            // reads and writes no user memory.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_ARCH_PRCTL => ret,
                    in("rdi") ARCH_REQ_XCOMP_PERM,
                    in("rsi") XFEATURE_XTILEDATA,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack, preserves_flags)
                );
            }
            ret == 0
        }

        /// Other systems have their own way to grant tile data; until
        /// this crate asks them, the tile kernel stays off there.
        #[cfg(not(target_os = "linux"))]
        pub fn request_tile_data() -> bool {
            false
        }

        /// The palette-1 tile configuration: sixteen rows in every
        /// tile; `C` tiles `tmm0–3` and `B` tiles `tmm6–7` [`B_ROW`]
        /// bytes wide, `A` tiles `tmm4–5` [`DEPTH`].
        #[repr(C, align(64))]
        struct Config([u8; 64]);

        impl Config {
            fn new() -> Config {
                let mut bytes = [0u8; 64];
                bytes[0] = 1;
                for tile in 0..8 {
                    let colsb = if tile == 4 || tile == 5 { DEPTH } else { B_ROW } as u16;
                    bytes[16 + 2 * tile..18 + 2 * tile].copy_from_slice(&colsb.to_le_bytes());
                    bytes[48 + tile] = TILE_ROWS as u8;
                }
                Config(bytes)
            }
        }

        /// The tile unit, configured: `ldtilecfg` on creation,
        /// `tilerelease` on drop, so no thread keeps tile state past
        /// the band call that loaded it — not even one that panics.
        struct Tiles;

        impl Tiles {
            /// # Safety
            /// The host must run AMX-TILE with tile data granted.
            #[inline(always)]
            unsafe fn configure() -> Tiles {
                let config = Config::new();
                asm!(
                    "ldtilecfg [{}]",
                    in(reg) config.0.as_ptr(),
                    options(nostack, readonly, preserves_flags)
                );
                Tiles
            }
        }

        impl Drop for Tiles {
            #[inline(always)]
            fn drop(&mut self) {
                // SAFETY: a `Tiles` exists only after `configure`
                // ran, so the host has AMX-TILE.
                unsafe { asm!("tilerelease", options(nomem, nostack, preserves_flags)) }
            }
        }

        /// One cache line: the unit the `A` copy is laid out and
        /// aligned in.
        #[derive(Clone, Copy)]
        #[repr(C, align(64))]
        struct Line([i8; DEPTH]);

        thread_local! {
            /// Per-thread copy of the current sub-band of `A` in tile
            /// order: tile (`half`, `s`) — rows `16·half ..` and depth
            /// bytes `64·s ..` — is the 1 KiB at line `(half · steps +
            /// s) · 16`, zero past the last row and the depth. A tile
            /// load from it reads sixteen whole, aligned lines; one
            /// straight from the caller's rows would split a line per
            /// row wherever the slice is not 64-byte aligned, which
            /// costs the tile unit about five times the load time.
            static A_TILES: RefCell<Vec<Line>> = const { RefCell::new(Vec::new()) };
        }

        /// Zero-padded copies of one panel pair's depth past the last
        /// whole [`DEPTH`]: the `B` tiles of a sub-band's last step.
        #[repr(C, align(64))]
        struct Tails([[i8; B_TILE]; 2]);

        /// The stored `C` tiles of one block: tile `2i + j`, row, column.
        #[repr(C, align(64))]
        struct Sums([[[i32; PANEL]; TILE_ROWS]; 4]);

        /// Copy rows `0 .. rows` of the row-major `a` (row stride `kp`)
        /// into `tiles` in tile order over `steps` depth steps.
        fn copy_a(a: &[i8], rows: usize, kp: usize, steps: usize, tiles: &mut Vec<Line>) {
            let halves = rows.div_ceil(TILE_ROWS);
            tiles.clear();
            tiles.resize(halves * steps * TILE_ROWS, Line([0; DEPTH]));
            if kp == 0 {
                // No depth, no tiles: every sum stays zero.
                return;
            }
            for (i, row) in a.chunks_exact(kp).take(rows).enumerate() {
                let (half, at) = (i / TILE_ROWS, i % TILE_ROWS);
                let lines = tiles[half * steps * TILE_ROWS + at..].iter_mut();
                for (chunk, line) in row.chunks(DEPTH).zip(lines.step_by(TILE_ROWS)) {
                    line.0[..chunk.len()].copy_from_slice(chunk);
                }
            }
        }

        /// One depth step of an `R × P` block (`R` row halves, `P`
        /// panels): `A` tiles at `a` and `a + half` (sixteen lines
        /// each), `B` tiles at `b`. Each `A` and `B` tile is loaded
        /// just before its first product.
        ///
        /// # Safety
        /// Tiles configured; the 1 KiB at `a` (and `a + half` when
        /// `R == 2`) and the 512 bytes at each used `b[j]` readable.
        #[inline(always)]
        unsafe fn step<const R: usize, const P: usize>(
            a: *const i8,
            half: usize,
            b: [*const i8; 2],
        ) {
            asm!(
                "tileloadd tmm4, [{a} + {sa}*1]",
                "tileloadd tmm6, [{b} + {sb}*1]",
                "tdpbssd tmm0, tmm4, tmm6",
                a = in(reg) a,
                sa = in(reg) DEPTH,
                b = in(reg) b[0],
                sb = in(reg) B_ROW,
                options(nostack, readonly, preserves_flags)
            );
            if P == 2 {
                asm!(
                    "tileloadd tmm7, [{b} + {sb}*1]",
                    "tdpbssd tmm1, tmm4, tmm7",
                    b = in(reg) b[1],
                    sb = in(reg) B_ROW,
                    options(nostack, readonly, preserves_flags)
                );
            }
            if R == 2 {
                asm!(
                    "tileloadd tmm5, [{a} + {sa}*1]",
                    "tdpbssd tmm2, tmm5, tmm6",
                    a = in(reg) a.add(half),
                    sa = in(reg) DEPTH,
                    options(nostack, readonly, preserves_flags)
                );
                if P == 2 {
                    asm!(
                        "tdpbssd tmm3, tmm5, tmm7",
                        options(nomem, nostack, preserves_flags)
                    );
                }
            }
        }

        /// The `R × P` block of sums over the whole depth, stored into
        /// `sums` (all four `C` tiles; those past the block stay zero):
        /// `A` tiles from `a` on (tile order, the second half `half`
        /// bytes on), the panels' whole steps from `b`, and the last
        /// step's `B` tiles from `tails` when the depth has a tail.
        ///
        /// # Safety
        /// Tiles configured; `a` holds `R` halves of `kp.div_ceil(64)`
        /// tiles, each `b[j]` a panel of depth `kp`.
        #[inline(always)]
        unsafe fn block<const R: usize, const P: usize>(
            a: *const i8,
            half: usize,
            kp: usize,
            b: [*const i8; 2],
            tails: Option<&Tails>,
            sums: &mut Sums,
        ) {
            asm!(
                "tilezero tmm0",
                "tilezero tmm1",
                "tilezero tmm2",
                "tilezero tmm3",
                options(nomem, nostack, preserves_flags)
            );
            let whole = kp / DEPTH;
            for s in 0..whole {
                let bs = [b[0].add(s * B_TILE), b[1].add(s * B_TILE)];
                step::<R, P>(a.add(s * A_TILE), half, bs);
            }
            if let Some(tails) = tails {
                let bs = [tails.0[0].as_ptr(), tails.0[1].as_ptr()];
                step::<R, P>(a.add(whole * A_TILE), half, bs);
            }
            let c = sums.0.as_mut_ptr();
            asm!(
                "tilestored [{c0} + {sc}*1], tmm0",
                "tilestored [{c1} + {sc}*1], tmm1",
                "tilestored [{c2} + {sc}*1], tmm2",
                "tilestored [{c3} + {sc}*1], tmm3",
                c0 = in(reg) c,
                c1 = in(reg) c.add(1),
                c2 = in(reg) c.add(2),
                c3 = in(reg) c.add(3),
                sc = in(reg) B_ROW,
                options(nostack, preserves_flags)
            );
        }

        /// Rows `r .. r + rows` of the call (at most [`SUB_BAND`],
        /// copied to `a` in tile order) against every panel: each
        /// panel pair — its depth tails copied once — against blocks
        /// of two row halves, then one.
        ///
        /// # Safety
        /// Tiles configured; `out` checked for the call; `a` as
        /// [`copy_a`] left it for these rows.
        #[inline(always)]
        unsafe fn sweep(a: &[Line], r: usize, rows: usize, b_data: &[i8], out: &mut Out<'_, '_>) {
            let kp = out.kp;
            let tail = kp % DEPTH;
            // Bytes from one row half's tiles to the next's.
            let half = kp.div_ceil(DEPTH) * A_TILE;
            let (a, plen) = (a.as_ptr() as *const i8, kp * PANEL);
            let panels = out.n.div_ceil(PANEL);
            let mut tails = Tails([[0; B_TILE]; 2]);
            let mut sums = Sums([[[0; PANEL]; TILE_ROWS]; 4]);
            let mut p = 0;
            while p < panels {
                let pair = (panels - p).min(2);
                let b_at = |j: usize| b_data.as_ptr().add((p + j.min(pair - 1)) * plen);
                let b = [b_at(0), b_at(1)];
                for (j, copy) in tails.0.iter_mut().enumerate().take(pair) {
                    let src = &b_data[(p + j + 1) * plen - tail * PANEL..(p + j + 1) * plen];
                    copy[..tail * PANEL].copy_from_slice(src);
                }
                let tails = (tail > 0).then_some(&tails);
                let mut i = 0;
                while i < rows {
                    let h = (rows - i).min(2 * TILE_ROWS);
                    let a = a.add(i / TILE_ROWS * half);
                    match (h > TILE_ROWS, pair == 2) {
                        (true, true) => block::<2, 2>(a, half, kp, b, tails, &mut sums),
                        (true, false) => block::<2, 1>(a, half, kp, b, tails, &mut sums),
                        (false, true) => block::<1, 2>(a, half, kp, b, tails, &mut sums),
                        (false, false) => block::<1, 1>(a, half, kp, b, tails, &mut sums),
                    }
                    for row in 0..h {
                        let (i_half, at) = (row / TILE_ROWS, row % TILE_ROWS);
                        for j in 0..pair {
                            let v = sums.0[2 * i_half + j][at].as_ptr() as *const __m256i;
                            out.store(_mm256_load_si256(v), r + i + row, p + j);
                        }
                    }
                    i += h;
                }
                p += pair;
            }
        }

        /// Int8 GEMM band on the tile unit; see the scalar oracle.
        ///
        /// # Safety
        /// The CPU must run AMX-TILE and AMX-INT8 with tile state
        /// enabled and tile data granted to this process, and AVX2
        /// (verified by the dispatch layer).
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn band(
            a_data: &[i8],
            kp: usize,
            n: usize,
            b_data: &[i8],
            c_band: &mut [f32],
            row0: usize,
            scale: f32,
            epi: Epilogue<'_>,
        ) {
            let rows = c_band.len() / n.max(1);
            let a = &a_data[row0 * kp..];
            let mut out = Out::checked(kp, a, rows, n, b_data, c_band, row0, scale, epi);
            let steps = kp.div_ceil(DEPTH);
            A_TILES.with(|cell| {
                let tiles = &mut *cell.borrow_mut();
                let _unit = Tiles::configure();
                for r in (0..rows).step_by(SUB_BAND) {
                    let sub = SUB_BAND.min(rows - r);
                    copy_a(&a[r * kp..], sub, kp, steps, tiles);
                    sweep(tiles, r, sub, b_data, &mut out);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::available_paths;
    use super::*;

    fn det_i8(i: usize, m: usize) -> i8 {
        (((i * 37 + 11) % m) as i64 - (m as i64 / 2)) as i8
    }

    /// Pack a row-major i8 `k×n` matrix into quad-interleaved panels,
    /// from the layout's definition (test-local; the production packers
    /// in `crate::quant` quantize from f32 and are tested there).
    fn pack_quads(b: &[i8], k: usize, n: usize) -> (Vec<i8>, usize) {
        let kp = padded_depth(k);
        let mut out = vec![0i8; n.div_ceil(PANEL) * kp * PANEL];
        for r in 0..k {
            for c in 0..n {
                let (p, j) = (c / PANEL, c % PANEL);
                out[p * kp * PANEL + (r / 4) * 4 * PANEL + 4 * j + (r % 4)] = b[r * n + c];
            }
        }
        (out, kp)
    }

    fn reference_gemm(a: &[i8], m: usize, k: usize, n: usize, b: &[i8], scale: f32) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for t in 0..k {
                    acc += a[r * k + t] as i32 * b[t * n + j] as i32;
                }
                c[r * n + j] = acc as f32 * scale;
            }
        }
        c
    }

    #[test]
    fn names_codes_and_resolution() {
        for k in Int8Kernel::ALL {
            // The obs-side label table must agree with our codes.
            assert_eq!(cap_obs::int8_kernel_name(k.code()), k.name());
        }
        assert_eq!(cap_obs::int8_kernel_name(0), "unset");
        assert_eq!(Int8Kernel::available()[0], Int8Kernel::Scalar);
        assert_eq!(Int8Kernel::for_path(KernelPath::Scalar), Int8Kernel::Scalar);
        // A SIMD path takes the best integer kernel the host has, and
        // both SIMD paths take the same one.
        let best = *Int8Kernel::available().last().unwrap();
        for path in available_paths() {
            if path != KernelPath::Scalar {
                assert_eq!(Int8Kernel::for_path(path), best);
            }
        }
        let kernel = selected();
        assert!(kernel.is_available());
        assert_eq!(cap_obs::metrics().int8_kernel.get(), kernel.code());
    }

    /// All eight rows of the tile kernel's resolution table: the tile
    /// unit only when the CPU reports it, XCR0 enables it and the OS
    /// grants it — otherwise the VNNI kernel, with no tile instruction
    /// ever dispatched — and the OS asked only when the other two hold.
    #[test]
    fn amx_resolution_table() {
        #[cfg(target_arch = "x86_64")]
        let (vnni, amx) = (Some(Isa::VnniEvex), Some(Isa::Amx));
        #[cfg(not(target_arch = "x86_64"))]
        let (vnni, amx) = (None, None);
        // The pick, and whether it asked the OS.
        let resolve = |cpu, xcr0, grants, vnni| {
            let asked = std::cell::Cell::new(false);
            let grant = || {
                asked.set(true);
                grants
            };
            (resolve_amx(cpu, xcr0, grant, vnni), asked.get())
        };
        for row in 0..8 {
            let (cpu, xcr0, grants) = (row & 4 != 0, row & 2 != 0, row & 1 != 0);
            let want = if cpu && xcr0 && grants { amx } else { vnni };
            let what = format!("cpu {cpu} xcr0 {xcr0} grants {grants}");
            assert_eq!(
                resolve(cpu, xcr0, grants, vnni),
                (want, cpu && xcr0),
                "{what}"
            );
            // Without a VNNI kernel for its GEMV, the tile kernel is
            // never picked and the OS never asked.
            assert_eq!(resolve(cpu, xcr0, grants, None), (None, false), "{what}");
        }
    }

    /// The SIMD path takes the tile kernel exactly where the host runs
    /// it, and the tile kernel is never available without VNNI.
    #[test]
    fn the_simd_path_prefers_amx_exactly_when_available() {
        let amx = Int8Kernel::Amx.is_available();
        assert_eq!(
            Int8Kernel::for_path(KernelPath::Avx2) == Int8Kernel::Amx,
            amx
        );
        assert!(!amx || Int8Kernel::Vnni.is_available());
        if !amx && Int8Kernel::Vnni.is_available() {
            assert_eq!(Int8Kernel::for_path(KernelPath::Avx2), Int8Kernel::Vnni);
        }
    }

    #[test]
    fn band_matches_reference_on_all_kernels() {
        for &(m, k, n) in &[(1, 5, 3), (4, 8, 16), (7, 9, 13), (3, 0, 5), (5, 6, 1)] {
            let a: Vec<i8> = (0..m * k).map(|i| det_i8(i, 255)).collect();
            let b: Vec<i8> = (0..k * n).map(|i| det_i8(i + 3, 255)).collect();
            let (packed, kp) = pack_quads(&b, k, n);
            // Re-pad A rows to the quad stride.
            let mut ap = vec![0i8; m * kp];
            for r in 0..m {
                ap[r * kp..r * kp + k].copy_from_slice(&a[r * k..(r + 1) * k]);
            }
            let want = reference_gemm(&a, m, k, n, &b, 0.125);
            for kernel in Int8Kernel::available() {
                let mut got = vec![0.0f32; m * n];
                gemm_i8_packed_band_with(
                    kernel,
                    &ap,
                    kp,
                    n,
                    &packed,
                    &mut got,
                    0,
                    0.125,
                    Epilogue::NONE,
                );
                assert_eq!(got, want, "kernel {} shape {m}x{k}x{n}", kernel.name());
            }
        }
    }

    #[test]
    fn epilogue_bias_and_relu_apply() {
        let (m, k, n) = (2, 4, 6);
        let a: Vec<i8> = (0..m * k).map(|i| det_i8(i, 9)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| det_i8(i + 1, 9)).collect();
        let (packed, kp) = pack_quads(&b, k, n);
        let row_bias = [10.0f32, -100.0];
        let plain = reference_gemm(&a, m, k, n, &b, 1.0);
        for kernel in Int8Kernel::available() {
            let mut got = vec![0.0f32; m * n];
            gemm_i8_packed_band_with(
                kernel,
                &a,
                kp,
                n,
                &packed,
                &mut got,
                0,
                1.0,
                Epilogue {
                    bias: Some(EpiBias::PerRow(&row_bias)),
                    relu: true,
                },
            );
            for r in 0..m {
                for j in 0..n {
                    let want = (plain[r * n + j] + row_bias[r]).max(0.0);
                    assert_eq!(got[r * n + j], want, "kernel {}", kernel.name());
                }
            }
        }
    }

    /// The quad panel walk against its definition on every path, with
    /// lanes that take each walk — one run, one to four windows (a
    /// panel tail, two runs at stride 1, stride 2 and 4, four runs), a
    /// window moved back to end on the image's last byte, and the byte
    /// gather (lanes needing five windows, lanes out of order, an image
    /// shorter than a window) — over seven patch rows (a pad row in the
    /// second quad), into a poisoned block.
    #[test]
    fn quad_panel_walks_match_the_definition_on_all_paths() {
        let image: Vec<i8> = (0..200).map(|i| det_i8(i, 251) | 1).collect();
        let taps: [u32; 7] = [0, 1, 2, 9, 10, 11, 40];
        let last = 40;
        let stride = |from: usize, by: usize| (0..PANEL).map(|j| from + by * j).collect();
        let cases: [(&[i8], Vec<usize>, &str); 13] = [
            (&image, stride(100, 1), "run"),
            (
                &image,
                vec![100, 101, 102, 110, 111, 112, 113, 114],
                "1 window",
            ),
            (&image, vec![100, 101, 102], "1 window"),
            (&image, stride(100, 2), "1 window"),
            (&image, stride(100, 4), "2 windows"),
            (&image, vec![0, 1, 30, 31, 60, 61, 90, 91], "4 windows"),
            // The last tap's last lane on the image's last byte (159 + 40).
            (&image, stride(152, 1), "run"),
            (&image, vec![159], "1 window"),
            (&image, stride(131, 4), "2 windows"),
            (&image, stride(0, 20), "gather"),
            (&image, vec![5, 3], "gather"),
            // Windows moved back to the image's first byte.
            (&image[..56], vec![14, 15], "1 window"),
            (&image[..56], vec![3, 10, 15], "1 window"),
        ];
        for (padded, lanes, walk) in &cases {
            let got = match PanelWalk::of(lanes, last, padded.len()) {
                PanelWalk::Run(_) => "run".to_string(),
                PanelWalk::Windows { count: 1, .. } => "1 window".to_string(),
                PanelWalk::Windows { count, .. } => format!("{count} windows"),
                PanelWalk::Gather => "gather".to_string(),
            };
            assert_eq!(&got, walk, "lanes {lanes:?}");
            for path in available_paths() {
                let mut block = vec![77i8; 8 * PANEL];
                lower_quad_panels_with(path, padded, QuadTaps::new(&taps), lanes, 0, &mut block);
                for (at, &got) in block.iter().enumerate() {
                    let (r, j) = (
                        at / (QUAD * PANEL) * QUAD + at % QUAD,
                        at % (QUAD * PANEL) / QUAD,
                    );
                    let want = match (taps.get(r), lanes.get(j)) {
                        (Some(&t), Some(&s)) => padded[t as usize + s],
                        _ => 0,
                    };
                    assert_eq!(got, want, "{} {lanes:?} byte {at}", path.name());
                }
            }
        }
        // An image too short for one window past the last tap gathers.
        assert!(matches!(PanelWalk::of(&[5], 40, 50), PanelWalk::Gather));
    }

    /// Whole panels of one run at strides 1 to 5, against each panel's
    /// definition on every path: runs that end well inside the image,
    /// and runs whose last panels end on its last byte at the last tap
    /// (walked one by one past the first panel's moved loads).
    #[test]
    fn quad_run_matches_the_definition_on_all_paths() {
        let image: Vec<i8> = (0..400).map(|i| det_i8(i, 253) | 1).collect();
        let taps: [u32; 6] = [0, 1, 2, 30, 31, 32];
        let (last, kp) = (32, 8);
        for stride in 1..=5 {
            for panels in 1..=4 {
                let span = stride * (PANEL * panels - 1) + 1;
                for src in [0, 17, image.len() - last - span] {
                    for path in available_paths() {
                        let mut blocks = vec![77i8; panels * kp * PANEL];
                        let taps = QuadTaps::new(&taps);
                        let lanes: Vec<usize> = (0..PANEL).map(|j| src + stride * j).collect();
                        let step = PANEL * stride;
                        lower_quad_panels_with(path, &image, taps, &lanes, step, &mut blocks);
                        for (at, &got) in blocks.iter().enumerate() {
                            let (p, rest) = (at / (kp * PANEL), at % (kp * PANEL));
                            let (r, j) = (
                                rest / (QUAD * PANEL) * QUAD + rest % QUAD,
                                rest % (QUAD * PANEL) / QUAD,
                            );
                            let want = taps
                                .at
                                .get(r)
                                .map_or(0, |&t| image[t as usize + src + stride * (PANEL * p + j)]);
                            let what =
                                format!("{} stride {stride} src {src} byte {at}", path.name());
                            assert_eq!(got, want, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// The quad store against the layout's definition on every path:
    /// three panels, a middle quad of a deeper panel, and a poisoned
    /// destination whose other quads must stay untouched.
    #[test]
    fn store_row_quad_writes_exactly_its_quad_on_all_paths() {
        let (lanes, kp, q) = (3 * PANEL, 12, 1);
        let rows: Vec<Vec<i8>> = (0..QUAD)
            .map(|i| (0..lanes).map(|c| det_i8(i * 100 + c, 251)).collect())
            .collect();
        for path in available_paths() {
            let mut packed = vec![77i8; lanes * kp + 5];
            let views = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            store_row_quad_with(path, views, q, kp, &mut packed);
            for (at, &got) in packed.iter().enumerate() {
                let (p, rest) = (at / (kp * PANEL), at % (kp * PANEL));
                let (quad, j, i) = (rest / (4 * PANEL), rest % (4 * PANEL) / 4, rest % 4);
                let want = if p < 3 && quad == q {
                    rows[i][p * PANEL + j]
                } else {
                    77
                };
                assert_eq!(got, want, "path {} byte {at}", path.name());
            }
        }
    }
}
