//! Winograd F(2×2, 3×3) for 3×3, stride-1, pad-1 convolutions (Lavin
//! & Gray, "Fast Algorithms for Convolutional Neural Networks"): each
//! 2×2 output tile is `Aᵀ [(G g Gᵀ) ⊙ (Bᵀ d B)] A` over the 4×4 input
//! tile `d` it reads, so a tile costs 16 multiplies per input channel
//! and filter where the direct product costs 36 — 2.25× fewer.
//!
//! Summed over a group's input channels, the element-wise products
//! become 16 independent matrix products, one per tile position
//! `e = 4ξ + ν`: `M_e = U_e · V_e`, where `U_e` (`out_per_group ×
//! in_per_group`) holds position `e` of every transformed filter
//! `G g Gᵀ` and `V_e` (`in_per_group × tiles`) position `e` of every
//! transformed input tile `Bᵀ d B`. They run on [`gemm_packed`]: the
//! input transform writes each `V_e` panel-packed, and the output
//! transform reads each tile's 16 values of `M` back, applies `Aᵀ·A`,
//! the bias and the ReLU, and stores the 2×2 outputs in place.
//!
//! The transforms are plain Rust over [`PANEL`]-lane arrays — eight
//! tiles side by side — with additions, subtractions and (in the
//! weight transform only) halvings, which are exact: no multiply to
//! fuse, so one source gives the same bits on every kernel path, and
//! the products are [`gemm_packed`]'s, bitwise equal on every path by
//! its own contract. The tiles split by panel ranges, the products and
//! the output transform by output-channel rows, so the output is also
//! bitwise independent of the team size and the batch.

use crate::conv::Conv2dParams;
use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::gemm::gemm_packed;
use crate::kernels::{scalar::epilogue_one, Epilogue, PANEL, ROW_BLOCK};
use crate::team::{self, Team};
use std::ops::Range;

/// Tile positions: the 4×4 transformed tile, one matrix product each.
pub(crate) const POSITIONS: usize = 16;

/// Elements of one part's `M` chunk (all 16 positions) the products
/// write before the output transform reads them back: 128 KiB, so `M`
/// round-trips through L2, not memory. Of 32 Ki, 128 Ki and 512 Ki
/// elements, with [`CHUNK_TILES`] at 64 or 256, this one was fastest
/// over the 13 model shapes on one thread (1.29–1.36× im2col in total
/// against 1.20–1.31× for the others; EXPERIMENTS.md "PR 36").
const M_CHUNK: usize = 1 << 15;

/// Most tiles one `M` chunk spans: the products' `n`.
const CHUNK_TILES: usize = 64;

/// Most parts one input transform is cut into (teams wider than this
/// lower in this many): the per-part slices live on the stack.
const MAX_PARTS: usize = 8;

/// Whether `params` is a convolution this form computes: 3×3, stride
/// 1, pad 1 (so the output map is the input map).
pub fn fits(params: &Conv2dParams) -> bool {
    params.kh == 3 && params.kw == 3 && params.stride == 1 && params.pad == 1
}

/// [`fits`] as a shape check, naming the geometry it got.
pub(crate) fn check_fits(params: &Conv2dParams) -> TensorResult<()> {
    if fits(params) {
        return Ok(());
    }
    Err(ShapeError::new(format!(
        "conv: Winograd needs a 3x3 stride-1 pad-1 kernel, got {}x{} stride {} pad {}",
        params.kh, params.kw, params.stride, params.pad
    )))
}

/// One channel group's transformed filters: the 16 `out_per_group ×
/// in_per_group` matrices `U_e`, one after the other, row-major. Built
/// by [`WinogradBand::transform`], per group of a dense matrix by
/// [`crate::ConvWeights::winograd_bands`].
#[derive(Debug, Clone)]
pub struct WinogradBand {
    out_per_group: usize,
    in_per_group: usize,
    u: Vec<f32>,
}

impl WinogradBand {
    /// `G g Gᵀ` of every filter of one group: `filters` holds the
    /// group's `out_per_group` rows of `in_per_group × 3 × 3` taps
    /// (panics unless it holds exactly that many).
    /// Computed in f64 and rounded once, so each `U` element is the
    /// correctly rounded transform of the f32 weights.
    pub fn transform(filters: &[f32], out_per_group: usize, in_per_group: usize) -> Self {
        let per = out_per_group * in_per_group;
        assert_eq!(filters.len(), per * 9, "out × in × 3 × 3 filter taps");
        let mut u = vec![0.0; POSITIONS * per];
        // G·x for one 3-vector: [x0, (x0+x1+x2)/2, (x0−x1+x2)/2, x2].
        let g = |x: [f64; 3]| {
            [
                x[0],
                (x[0] + x[1] + x[2]) * 0.5,
                (x[0] - x[1] + x[2]) * 0.5,
                x[2],
            ]
        };
        for (o, row) in filters.chunks_exact((in_per_group * 9).max(1)).enumerate() {
            for (c, taps) in row.chunks_exact(9).enumerate() {
                let tap = |y: usize, x: usize| f64::from(taps[y * 3 + x]);
                // Columns first (G g), then rows ((G g) Gᵀ).
                let cols: [[f64; 4]; 3] =
                    std::array::from_fn(|x| g([tap(0, x), tap(1, x), tap(2, x)]));
                for xi in 0..4 {
                    let row = g([cols[0][xi], cols[1][xi], cols[2][xi]]);
                    for (nu, v) in row.into_iter().enumerate() {
                        u[(xi * 4 + nu) * per + o * in_per_group + c] = v as f32;
                    }
                }
            }
        }
        Self {
            out_per_group,
            in_per_group,
            u,
        }
    }

    /// `(out_per_group, in_per_group)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.out_per_group, self.in_per_group)
    }

    /// Rows `rows` of `U_e`.
    fn rows(&self, e: usize, rows: Range<usize>) -> &[f32] {
        let per = self.out_per_group * self.in_per_group;
        &self.u[e * per..(e + 1) * per]
            [rows.start * self.in_per_group..rows.end * self.in_per_group]
    }
}

/// The tiling of one `c × h × w` input: `th × tw` tiles of 2×2 outputs,
/// each reading the 4×4 window at `(2·ty, 2·tx)` of the input padded by
/// one on the top and left and by enough on the bottom and right that
/// the last tile row and column — which overhang the map when `h` or
/// `w` is odd — read zeros.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tiles {
    c: usize,
    h: usize,
    w: usize,
    tw: usize,
    /// Padded plane: `2·th + 2` × `2·tw + 2`.
    hp: usize,
    wp: usize,
    count: usize,
}

impl Tiles {
    pub(crate) fn new(c: usize, h: usize, w: usize) -> Self {
        let (th, tw) = (h.div_ceil(2), w.div_ceil(2));
        Self {
            c,
            h,
            w,
            tw,
            hp: 2 * th + 2,
            wp: 2 * tw + 2,
            count: th * tw,
        }
    }

    /// Tiles per output plane.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Column panels of each packed `V_e`: tiles / `PANEL`, rounded up.
    fn panels(&self) -> usize {
        self.count.div_ceil(PANEL)
    }

    /// Elements of one packed `V_e`.
    fn block(&self) -> usize {
        self.panels() * self.c * PANEL
    }

    /// Distance between consecutive `V_e`: [`skewed`] `block`.
    fn stride(&self) -> usize {
        skewed(self.block())
    }

    /// The `c×h×w` `image` into `dst` (resized; every element written)
    /// with its zero border.
    fn pad(&self, image: &[f32], dst: &mut Vec<f32>) {
        let Self { h, w, hp, wp, .. } = *self;
        dst.clear();
        dst.resize(self.c * hp * wp, 0.0);
        for (plane, src) in dst.chunks_exact_mut(hp * wp).zip(image.chunks_exact(h * w)) {
            for (row, line) in plane[wp..].chunks_exact_mut(wp).zip(src.chunks_exact(w)) {
                row[1..=w].copy_from_slice(line);
            }
        }
    }

    /// Tile `t`'s row and column of 2×2 outputs.
    fn tile(&self, t: usize) -> (usize, usize) {
        (t / self.tw, t % self.tw)
    }

    /// Offset in a padded plane of each lane's tile window in panel
    /// `p` (tail lanes repeat the last tile), and how many lanes hold a
    /// tile.
    fn lanes(&self, p: usize) -> ([usize; PANEL], usize) {
        let live = (self.count - p * PANEL).min(PANEL);
        let at = std::array::from_fn(|j| {
            let (ty, tx) = self.tile((p * PANEL + j).min(self.count - 1));
            2 * ty * self.wp + 2 * tx
        });
        (at, live)
    }

    /// The input transform of tile panels `panels`: for every channel,
    /// `Bᵀ d B` of each lane's 4×4 window, position `e` stored as that
    /// channel's row of panel `p` in `v[e]` (which starts at the first
    /// panel of the range). Tail lanes are zero.
    fn transform_input(&self, padded: &[f32], panels: Range<usize>, v: &mut [&mut [f32]]) {
        let Self { c, hp, wp, .. } = *self;
        let window = 3 * wp + 4;
        for (k, p) in panels.enumerate() {
            let (at, live) = self.lanes(p);
            for (ch, plane) in padded.chunks_exact(hp * wp).take(c).enumerate() {
                let mut d = [[[0.0; PANEL]; 4]; 4];
                for (j, &at) in at.iter().enumerate() {
                    let src = &plane[at..at + window];
                    for (r, row) in d.iter_mut().enumerate() {
                        for (s, lanes) in row.iter_mut().enumerate() {
                            lanes[j] = src[r * wp + s];
                        }
                    }
                }
                // Bᵀ d: rows d0−d2, d1+d2, d2−d1, d1−d3; then the same
                // combination of the columns of each.
                let t = [
                    rows(&d[0], &d[2], sub),
                    rows(&d[1], &d[2], add),
                    rows(&d[2], &d[1], sub),
                    rows(&d[1], &d[3], sub),
                ];
                let at_row = (k * c + ch) * PANEL;
                for (xi, t) in t.iter().enumerate() {
                    let cols = [
                        sub(t[0], t[2]),
                        add(t[1], t[2]),
                        sub(t[2], t[1]),
                        sub(t[1], t[3]),
                    ];
                    for (nu, mut col) in cols.into_iter().enumerate() {
                        col[live..].fill(0.0);
                        v[xi * 4 + nu][at_row..at_row + PANEL].copy_from_slice(&col);
                    }
                }
            }
        }
    }

    /// Where the 2×2 outputs of tiles `t0..t0 + live` go, one per lane:
    /// the offset of the top-left output in the output plane, and
    /// whether the right column and bottom row lie inside the map (the
    /// last tile column and row overhang an odd map).
    fn outputs(&self, t0: usize, live: usize) -> [(usize, bool, bool); PANEL] {
        std::array::from_fn(|j| {
            let (ty, tx) = self.tile((t0 + j.min(live - 1)).min(self.count - 1));
            let (oy, ox) = (2 * ty, 2 * tx);
            (oy * self.w + ox, ox + 1 < self.w, oy + 1 < self.h)
        })
    }
}

/// Eight tiles' values of one tile element.
type Lanes = [f32; PANEL];

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|j| a[j] + b[j])
}

#[inline(always)]
fn sub(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|j| a[j] - b[j])
}

/// The bias add and ReLU of [`epilogue_one`] on eight lanes.
#[inline(always)]
fn epilogue(mut lanes: Lanes, bias: Option<f32>, relu: bool) -> Lanes {
    for v in &mut lanes {
        *v = epilogue_one(*v, bias, relu);
    }
    lanes
}

/// `op` applied to two rows of a 4×4 tile, element by element.
#[inline(always)]
fn rows(a: &[Lanes; 4], b: &[Lanes; 4], op: fn(Lanes, Lanes) -> Lanes) -> [Lanes; 4] {
    std::array::from_fn(|s| op(a[s], b[s]))
}

/// The `M` chunk a part of `rows` output rows over `tiles` tiles works
/// in: up to [`CHUNK_TILES`] tiles (whole panels), and as many whole
/// [`ROW_BLOCK`]s of rows as keep all 16 positions within [`M_CHUNK`].
fn chunk(rows: usize, tiles: usize) -> (usize, usize) {
    let tn = tiles.next_multiple_of(PANEL).clamp(PANEL, CHUNK_TILES);
    let rn = (M_CHUNK / (POSITIONS * tn) / ROW_BLOCK).max(1) * ROW_BLOCK;
    (rn.min(rows.max(1)), tn)
}

/// The input transform of one image's group: `image` (`c×h×w`) padded
/// into `padded`, then every tile panel's `V_e` into `packed` (resized;
/// every element written), the panels cut into up to `parts` ranges
/// across `team`.
pub(crate) fn transform_image(
    tiles: &Tiles,
    image: &[f32],
    team: Option<&mut Team>,
    parts: usize,
    padded: &mut Vec<f32>,
    packed: &mut Matrix,
) -> TensorResult<()> {
    if image.len() != tiles.c * tiles.h * tiles.w {
        return Err(ShapeError::new(format!(
            "winograd: image length {} != {}x{}x{}",
            image.len(),
            tiles.c,
            tiles.h,
            tiles.w
        )));
    }
    tiles.pad(image, padded);
    let (block, stride) = (tiles.block(), tiles.stride());
    packed.resize_for_overwrite(POSITIONS, stride);
    let panels = tiles.panels();
    let parts = parts.clamp(1, MAX_PARTS).min(panels.max(1));
    // Each part's panel range, in each of the 16 `V_e`: cut every
    // block at the same panel boundaries and hand part `q` its pieces.
    let mut blocks: [&mut [f32]; POSITIONS] = {
        let mut it = packed.as_mut_slice().chunks_exact_mut(stride);
        std::array::from_fn(|_| it.next().map_or(&mut [][..], |v_e| &mut v_e[..block]))
    };
    let ranges = |q: usize| q * panels / parts..(q + 1) * panels / parts;
    let mut shares: [[&mut [f32]; POSITIONS]; MAX_PARTS] = std::array::from_fn(|q| {
        let len = if q < parts {
            ranges(q).len() * tiles.c * PANEL
        } else {
            0
        };
        std::array::from_fn(|e| {
            let (head, tail) = std::mem::take(&mut blocks[e]).split_at_mut(len);
            blocks[e] = tail;
            head
        })
    });
    let padded = padded.as_slice();
    team::split(team, parts, &mut shares[..parts], 1, &|first, shares| {
        for (q, share) in (first..).zip(shares.iter_mut()) {
            tiles.transform_input(padded, ranges(q), share);
        }
        Ok(())
    })
}

/// `len` rounded up past a whole number of 4 KiB pages plus one cache
/// line: the 16 `V_e` and `M_e` sit this far apart, so the 16 reads a
/// tile makes across them do not all map to one L1 set.
fn skewed(len: usize) -> usize {
    const PAGE: usize = 1024;
    const LINE: usize = 16;
    len.next_multiple_of(PAGE) + LINE
}

/// The 16 products and the output transform for one image's group,
/// output rows `rows` of the band, into `out` (those rows of the
/// `out_per_group × h*w` band): `M_e` chunk by chunk of tiles in
/// `m` (resized), then each tile's `Aᵀ M A`, the group's `bias` and
/// the ReLU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn products_into(
    tiles: &Tiles,
    band: &WinogradBand,
    v: &[f32],
    rows: Range<usize>,
    bias: Option<&[f32]>,
    relu: bool,
    m: &mut Matrix,
    out: &mut [f32],
) -> TensorResult<()> {
    let cpg = band.in_per_group;
    let plane = tiles.h * tiles.w;
    let stride = tiles.stride();
    let (rn, tn) = chunk(rows.len(), tiles.count);
    for t0 in (0..tiles.count).step_by(tn) {
        let tn = tn.min(tiles.count - t0);
        let from = (t0 / PANEL) * cpg * PANEL;
        for r0 in (rows.start..rows.end).step_by(rn) {
            let chunk_rows = r0..(r0 + rn).min(rows.end);
            let n = chunk_rows.len();
            let m_stride = skewed(n * tn);
            m.resize_for_overwrite(POSITIONS, m_stride);
            for (e, m_e) in m.as_mut_slice().chunks_exact_mut(m_stride).enumerate() {
                let m_e = &mut m_e[..n * tn];
                let v_e = &v[e * stride + from..(e + 1) * stride];
                let u_e = band.rows(e, chunk_rows.clone());
                gemm_packed(u_e, n, cpg, tn, v_e, m_e, Epilogue::NONE)?;
            }
            // Row by row, so each `M_e` row is read front to back; the
            // lanes' output offsets are the same for every row.
            let m = m.as_slice();
            let panels = tn.div_ceil(PANEL);
            let mut outs = [[(0, false, false); PANEL]; CHUNK_TILES / PANEL];
            for (p, outs) in outs.iter_mut().enumerate().take(panels) {
                *outs = tiles.outputs(t0 + p * PANEL, (tn - p * PANEL).min(PANEL));
            }
            for r in 0..n {
                let b = bias.map(|b| b[r0 + r]);
                let dst = &mut out[(r0 - rows.start + r) * plane..][..plane];
                for (p, outs) in outs.iter().enumerate().take(panels) {
                    let (at, live) = (r * tn + p * PANEL, (tn - p * PANEL).min(PANEL));
                    let mut mv = [[0.0; PANEL]; POSITIONS];
                    for (e, lanes) in mv.iter_mut().enumerate() {
                        let src = &m[e * m_stride + at..];
                        if live == PANEL {
                            *lanes = src[..PANEL].try_into().expect("PANEL lanes");
                        } else {
                            lanes[..live].copy_from_slice(&src[..live]);
                        }
                    }
                    let y = transform_output(&mv);
                    let [top, bottom] = y.map(|row| row.map(|lanes| epilogue(lanes, b, relu)));
                    for (j, &(o, right, below)) in outs.iter().enumerate().take(live) {
                        dst[o] = top[0][j];
                        if right {
                            dst[o + 1] = top[1][j];
                        }
                        if below {
                            dst[o + tiles.w] = bottom[0][j];
                            if right {
                                dst[o + tiles.w + 1] = bottom[1][j];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// `Aᵀ m A` of eight tiles' 4×4 products `m[4ξ + ν]`: the 2×2 outputs
/// `y[a][b]`.
#[inline(always)]
fn transform_output(m: &[Lanes; POSITIONS]) -> [[Lanes; 2]; 2] {
    // Aᵀ m: rows m0+m1+m2 and m1−m2−m3.
    let s: [[Lanes; 4]; 2] = [
        std::array::from_fn(|nu| add(add(m[nu], m[4 + nu]), m[8 + nu])),
        std::array::from_fn(|nu| sub(sub(m[4 + nu], m[8 + nu]), m[12 + nu])),
    ];
    s.map(|s| [add(add(s[0], s[1]), s[2]), sub(sub(s[1], s[2]), s[3])])
}
