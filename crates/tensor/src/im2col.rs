//! im2col / col2im lowering for convolution-as-GEMM.
//!
//! Caffe implements convolution by unrolling input patches into a matrix
//! (`im2col`) and multiplying with the filter matrix. We follow the same
//! scheme: for an input image of shape `C×H×W` and a kernel `kh×kw` with
//! stride/pad, the column matrix has shape
//! `(C*kh*kw) × (out_h*out_w)`.
//!
//! Every lowering reads the image **padded once**: each `h×w` plane
//! copied into the middle of a zero `(h+2·pad)×(w+2·pad)` one
//! ([`Lowering::padded`]; the int8 convolution quantizes straight into
//! it, [`Lowering::quantize_padded`]). No tap then falls outside its
//! source, and all three lowerings (f32 row-major, f32 panel-packed, i8
//! quad-packed) walk one decomposition of the patch matrix: patch row `(ci, ky, kx)`
//! reads padded plane `ci` from offset `ky*wp + kx`, the taps in one
//! flat loop, and the output columns cut into *runs* — stretches inside
//! one output row, whose sources sit `stride` apart. A row-major
//! lowering ([`Lowering::rows_into`]) copies a patch row run by run; so
//! does the int8 quad lowering ([`Lowering::quads_into`]), four rows
//! into line buffers, then interleaved into their quad. The f32 panel
//! lowering ([`Lowering::panels_into`]) writes `B` one panel at a time,
//! contiguously: it resolves the runs of a panel's `PANEL` columns
//! once, then gathers each patch row's `PANEL` lanes into an array and
//! stores it — one 8-float copy when the panel lies inside one output
//! row at stride 1. Because its panels are contiguous, it splits across
//! a [`Team`] by panel ranges; lowering only moves values and writes
//! zeros, so the split is bitwise invisible.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels::int8::{padded_depth, quantize_slice_with, store_row_quad_with, QUAD};
use crate::kernels::{self, PANEL};
use crate::quant::I8Storage;
use crate::team::{self, Team};
use std::ops::Range;

/// Output spatial size of a convolution/pooling window sweep.
///
/// Returns `(out_h, out_w)` for input `h×w`, kernel `kh×kw`, given pad and
/// stride; errors if the window never fits.
pub fn out_spatial(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<(usize, usize)> {
    if stride == 0 {
        return Err(ShapeError::new("out_spatial: stride must be >= 1"));
    }
    if kh == 0 || kw == 0 {
        return Err(ShapeError::new("out_spatial: kernel dims must be >= 1"));
    }
    let h_eff = h + 2 * pad;
    let w_eff = w + 2 * pad;
    if h_eff < kh || w_eff < kw {
        return Err(ShapeError::new(format!(
            "out_spatial: kernel {}x{} larger than padded input {}x{}",
            kh, kw, h_eff, w_eff
        )));
    }
    Ok(((h_eff - kh) / stride + 1, (w_eff - kw) / stride + 1))
}

/// Unroll one image (`C×H×W`, flattened channel-major) into a column
/// matrix of shape `(c*kh*kw) × (out_h*out_w)`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<Matrix> {
    let lo = Lowering::for_image("im2col", image.len(), c, h, w, kh, kw, pad, stride)?;
    let mut cols = Matrix::zeros(lo.rows, lo.n_out);
    lo.rows_into(
        lo.padded(image, None, &mut Vec::new())?,
        cols.as_mut_slice(),
    )?;
    Ok(cols)
}

/// One lowering's geometry, validated once: a `c×h×w` image by a
/// `kh×kw` kernel at `pad` and `stride`, into the patch matrix of
/// [`Lowering::rows`] × `out_h*out_w`. Patch row
/// `(ci*kh + ky)*kw + kx` holds tap `(ky, kx)` of channel `ci` for every
/// output pixel `(oy, ox)`, column `oy*out_w + ox`. See the
/// [module docs](self) for the walk every lowering shares.
#[derive(Debug, Clone, Copy)]
pub struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    /// The padded plane: `h + 2*pad` × `w + 2*pad`.
    hp: usize,
    wp: usize,
    out_w: usize,
    /// `c * kh * kw`.
    rows: usize,
    /// `out_h * out_w`.
    n_out: usize,
}

impl Lowering {
    /// The lowering of a `c×h×w` image; errors if the window never fits.
    pub fn new(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
    ) -> TensorResult<Self> {
        let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
        Ok(Self {
            c,
            h,
            w,
            kh,
            kw,
            pad,
            stride,
            hp: h + 2 * pad,
            wp: w + 2 * pad,
            out_w,
            rows: c * kh * kw,
            n_out: out_h * out_w,
        })
    }

    /// [`Lowering::new`] for an entry point handed the image: checks its
    /// length too.
    #[allow(clippy::too_many_arguments)]
    fn for_image(
        what: &str,
        image_len: usize,
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
    ) -> TensorResult<Self> {
        let lo = Self::new(c, h, w, kh, kw, pad, stride)?;
        lo.check_image(what, image_len)?;
        Ok(lo)
    }

    /// Errors unless the image is `c×h×w` long.
    fn check_image(&self, what: &str, image_len: usize) -> TensorResult<()> {
        let Self { c, h, w, .. } = *self;
        if image_len != c * h * w {
            return Err(ShapeError::new(format!(
                "{what}: image length {image_len} != {c}x{h}x{w}"
            )));
        }
        Ok(())
    }

    /// Errors unless the padded image is [`Lowering::padded_len`] long.
    fn check_padded(&self, padded_len: usize) -> TensorResult<()> {
        if padded_len != self.padded_len() {
            return Err(ShapeError::new(format!(
                "lowering: padded image length {padded_len} != {}",
                self.padded_len()
            )));
        }
        Ok(())
    }

    /// Patch rows: `c * kh * kw`, the depth of the multiply.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column panels of the packed layouts: `n_out / PANEL`, rounded up.
    pub fn panels(&self) -> usize {
        self.n_out.div_ceil(PANEL)
    }

    /// Elements of the padded image the lowerings read:
    /// `c × (h + 2*pad) × (w + 2*pad)`.
    pub fn padded_len(&self) -> usize {
        self.c * self.hp * self.wp
    }

    /// The `c×h×w` image this lowering reads, with its zero border in
    /// place. With `live` `None`, `image` is those `c` planes: `image`
    /// itself when `pad` is 0, else its planes padded into `scratch`
    /// (resized; every element written). With `live` `Some`, `image`
    /// holds any number of `h×w` planes and the lowering reads the `c`
    /// ascending planes `live` lists — copied into `scratch`, padded,
    /// unless they are all of them and `pad` is 0. Errors if `image` is
    /// not `c×h×w` long, or not whole planes that `live` indexes.
    pub fn padded<'a, T: Copy + Default>(
        &self,
        image: &'a [T],
        live: Option<&[usize]>,
        scratch: &'a mut Vec<T>,
    ) -> TensorResult<&'a [T]> {
        let every = self.check_planes("padded", image.len(), live)?;
        if self.pad == 0 && every {
            return Ok(image);
        }
        let plane = self.h * self.w;
        self.pad_with(scratch, |dst| {
            for_live_runs(live, image.len() / plane.max(1), |src, at, count| {
                dst[at * plane..(at + count) * plane]
                    .copy_from_slice(&image[src * plane..(src + count) * plane]);
            })
        });
        Ok(scratch)
    }

    /// Quantize the `c×h×w` image this lowering reads (`image` and
    /// `live` as in [`Lowering::padded`]) by `inv_scale` straight into
    /// its padded layout in `dst` (resized; every byte written): one
    /// quantize per run of consecutive planes, then each row moved to
    /// its place. The border is `0`, what a padding `0.0` quantizes to.
    /// Errors as [`Lowering::padded`] does.
    pub fn quantize_padded(
        &self,
        image: &[f32],
        live: Option<&[usize]>,
        inv_scale: f32,
        dst: &mut Vec<i8>,
    ) -> TensorResult<()> {
        self.check_planes("quantize_padded", image.len(), live)?;
        let path = kernels::selected();
        let plane = self.h * self.w;
        self.pad_with(dst, |dst| {
            for_live_runs(live, image.len() / plane.max(1), |src, at, count| {
                quantize_slice_with(
                    path,
                    &image[src * plane..(src + count) * plane],
                    inv_scale,
                    &mut dst[at * plane..(at + count) * plane],
                );
            })
        });
        Ok(())
    }

    /// Check `image_len` against the planes the lowering reads (see
    /// [`Lowering::padded`]); whether they are every plane of `image`.
    fn check_planes(
        &self,
        what: &str,
        image_len: usize,
        live: Option<&[usize]>,
    ) -> TensorResult<bool> {
        let Some(live) = live else {
            self.check_image(what, image_len)?;
            return Ok(true);
        };
        let plane = self.h * self.w;
        let planes = image_len / plane.max(1);
        if live.len() != self.c
            || planes * plane != image_len
            || live.last().is_some_and(|&p| p >= planes)
        {
            return Err(ShapeError::new(format!(
                "{what}: {} live planes of an image of length {image_len} for {}x{}x{}",
                live.len(),
                self.c,
                self.h,
                self.w
            )));
        }
        Ok(live.len() == planes)
    }

    /// Resize `dst` to the padded layout, let `fill` write the `c×h×w`
    /// unpadded planes at its head, then spread their rows to their
    /// padded places and zero the border.
    fn pad_with<T: Copy + Default>(&self, dst: &mut Vec<T>, fill: impl FnOnce(&mut [T])) {
        let Self {
            c,
            h,
            w,
            pad,
            hp,
            wp,
            ..
        } = *self;
        dst.resize(self.padded_len(), T::default());
        fill(&mut dst[..c * h * w]);
        if pad == 0 {
            return;
        }
        // Back to front: row `r`'s padded place starts at or past its
        // unpadded one, `r*w`, and every row before it still lies
        // unread below `r*w`, so no move overwrites a row yet to move.
        // Behind each moved row, the zeros up to the next row's place
        // (its right pad and the next row's left one, or the bottom and
        // top pad rows between planes) are one run.
        let mut end = dst.len();
        for r in (0..c * h).rev() {
            let at = (r / h) * hp * wp + (r % h + pad) * wp + pad;
            dst.copy_within(r * w..(r + 1) * w, at);
            dst[at + w..end].fill(T::default());
            end = at;
        }
        dst[..end].fill(T::default());
    }

    /// Every patch row's offset into the padded image, in row order:
    /// row `(ci*kh + ky)*kw + kx` reads from `at = (ci*hp + ky)*wp + kx`.
    fn taps(&self) -> Taps {
        Taps {
            lo: *self,
            left: self.rows,
            ky: 0,
            kx: 0,
            at: 0,
        }
    }

    /// Cut the output columns `cols` into runs and call
    /// `f(col, len, src)` for each: column `col + i` of every patch row
    /// reads `src + i*stride` past the row's `at`. A run is a stretch of
    /// one output row — the whole map when output rows are as wide as
    /// the padded plane (a 1×1 kernel without padding), since they then
    /// follow one another in it.
    #[inline(always)]
    fn runs(&self, cols: Range<usize>, mut f: impl FnMut(usize, usize, usize)) {
        let row = if self.out_w == self.wp {
            self.n_out
        } else {
            self.out_w
        };
        let mut col = cols.start;
        while col < cols.end {
            let (oy, ox) = (col / row, col % row);
            let len = (row - ox).min(cols.end - col);
            f(col, len, (oy * self.wp + ox) * self.stride);
            col += len;
        }
    }

    /// Patch row `at` of the padded image into `line` (`n_out` long),
    /// run by run.
    #[inline(always)]
    fn row_into<T: Copy>(&self, padded: &[T], at: usize, line: &mut [T]) {
        let stride = self.stride;
        self.runs(0..self.n_out, |col, len, src| {
            let (dst, src) = (&mut line[col..col + len], &padded[at + src..]);
            if stride == 1 {
                dst.copy_from_slice(&src[..len]);
            } else {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = src[i * stride];
                }
            }
        });
    }

    /// The row-major lowering of the padded image (the f32 CSR form's):
    /// patch row `r` is `cols[r*n_out..]`, every element written.
    /// Errors if `padded` is not [`Lowering::padded_len`] long or `cols`
    /// not `rows * n_out`.
    pub fn rows_into(&self, padded: &[f32], cols: &mut [f32]) -> TensorResult<()> {
        self.check_padded(padded.len())?;
        if cols.len() != self.rows * self.n_out {
            return Err(ShapeError::new(format!(
                "lowering: patch matrix length {} != {}x{}",
                cols.len(),
                self.rows,
                self.n_out
            )));
        }
        for (line, at) in cols.chunks_exact_mut(self.n_out).zip(self.taps()) {
            self.row_into(padded, at, line);
        }
        Ok(())
    }

    /// The f32 panel lowering: the packed `B` [`crate::gemm_packed`]
    /// multiplies — `n_out / PANEL` panels (rounded up), each
    /// `rows × PANEL` row-major, tail lanes zero — into `packed`
    /// (reshaped; every element written), cut by panel ranges into up to
    /// `parts` pieces across `team` (at most one per thread and per
    /// panel; `None` or one part lowers inline). Errors if `padded` is
    /// not [`Lowering::padded_len`] long.
    pub fn panels_into(
        &self,
        team: Option<&mut Team>,
        parts: usize,
        padded: &[f32],
        packed: &mut Matrix,
    ) -> TensorResult<()> {
        self.check_padded(padded.len())?;
        packed.resize_for_overwrite(self.panels().max(1), self.rows * PANEL);
        let block = self.rows * PANEL;
        team::split(
            team,
            parts,
            packed.as_mut_slice(),
            block,
            &|offset, piece| {
                self.lower_panels(padded, offset / block, piece);
                Ok(())
            },
        )
    }

    /// Write panels `first..` into `out`, whole `rows × PANEL` blocks,
    /// one after the other: each patch row's `PANEL` lanes gathered into
    /// an array and stored as one 8-float copy. The gather is itself one
    /// copy when the panel lies inside one output row at stride 1.
    fn lower_panels(&self, padded: &[f32], first: usize, out: &mut [f32]) {
        let stride = self.stride;
        for (p, block) in (first..).zip(out.chunks_exact_mut(self.rows * PANEL)) {
            let cols = p * PANEL..((p + 1) * PANEL).min(self.n_out);
            let from = Sources::of(self, cols);
            match from.whole {
                Some(s) if stride == 1 => self.walk(block, |at| {
                    let run = &padded[at + s..at + s + PANEL];
                    run.try_into().expect("PANEL lanes")
                }),
                Some(s) => self.walk(block, |at| {
                    let run = &padded[at + s..at + s + stride * (PANEL - 1) + 1];
                    std::array::from_fn(|j| run[stride * j])
                }),
                None => self.walk(block, |at| {
                    std::array::from_fn(|j| {
                        if j < from.live {
                            padded[at + from.lane[j]]
                        } else {
                            0.0
                        }
                    })
                }),
            }
        }
    }

    /// Fill one panel's `block`, patch row `r`'s lanes being `lanes(at)`
    /// for its `at`.
    #[inline(always)]
    fn walk(&self, block: &mut [f32], lanes: impl Fn(usize) -> [f32; PANEL]) {
        for (row, at) in block.chunks_exact_mut(PANEL).zip(self.taps()) {
            row.copy_from_slice(&lanes(at));
        }
    }

    /// The int8 quad lowering: the quad-interleaved panels
    /// [`crate::gemm_i8`] multiplies (layout in
    /// [`crate::kernels::int8`]) — byte for byte what
    /// [`crate::pack_b_i8_into`] makes of the f32 patch matrix of the
    /// unquantized image — into `packed` (resized). Four patch rows at a
    /// time are lowered into `lines` (resized: four rows of whole
    /// panels, tail lanes zero) and stored as one depth quad
    /// ([`store_row_quad_with`]), so every byte of `packed` — pad rows
    /// past the depth and panel tail lanes included — is written and
    /// neither buffer needs clearing. Returns the padded depth `kp`.
    /// Errors if `padded` is not [`Lowering::padded_len`] long.
    pub fn quads_into(
        &self,
        padded: &[i8],
        lines: &mut Vec<i8>,
        packed: &mut impl I8Storage,
    ) -> TensorResult<usize> {
        self.check_padded(padded.len())?;
        let (kp, n_out) = (padded_depth(self.rows), self.n_out);
        let lanes = n_out.next_multiple_of(PANEL);
        let packed = packed.resize_for_overwrite(lanes * kp);
        lines.resize(QUAD * lanes, 0);
        let path = kernels::selected();
        let mut taps = self.taps();
        for q in 0..kp / QUAD {
            for line in lines.chunks_exact_mut(lanes) {
                if let Some(at) = taps.next() {
                    self.row_into(padded, at, &mut line[..n_out]);
                    line[n_out..].fill(0);
                } else {
                    // A pad row past the depth.
                    line.fill(0);
                }
            }
            let rows = std::array::from_fn(|i| &lines[i * lanes..(i + 1) * lanes]);
            store_row_quad_with(path, rows, q, kp, packed);
        }
        Ok(kp)
    }
}

/// Call `copy(src, at, count)` for each run of consecutive planes the
/// lowering reads, in order: `count` planes from plane `src` of the
/// image go to plane `at` of the unpadded head. `live` `None` is every
/// one of the image's `planes`, one run.
fn for_live_runs(live: Option<&[usize]>, planes: usize, mut copy: impl FnMut(usize, usize, usize)) {
    let Some(live) = live else {
        copy(0, 0, planes);
        return;
    };
    let mut at = 0;
    while at < live.len() {
        let count = live[at..]
            .iter()
            .enumerate()
            .take_while(|&(i, &p)| p == live[at] + i)
            .count();
        copy(live[at], at, count);
        at += count;
    }
}

/// Where one panel's lanes come from, relative to a patch row's `at`,
/// resolved once for all its patch rows: each live lane's source (lanes
/// past `live` are a tail past `n_out`, zero), and the whole panel's
/// when it is one run of `PANEL` lanes.
struct Sources {
    lane: [usize; PANEL],
    live: usize,
    whole: Option<usize>,
}

impl Sources {
    fn of(lo: &Lowering, cols: Range<usize>) -> Self {
        let mut from = Self {
            lane: [0; PANEL],
            live: cols.len(),
            whole: None,
        };
        lo.runs(cols.clone(), |col, len, at| {
            if len == PANEL {
                from.whole = Some(at);
            }
            let lane = col - cols.start;
            for i in 0..len {
                from.lane[lane + i] = at + i * lo.stride;
            }
        });
        from
    }
}

/// [`Lowering::taps`]: one flat loop stepping `at`. (A nest of three
/// with a one-trip inner loop — every 1×1 conv — costs several times
/// the 8-lane copy it drives.)
struct Taps {
    lo: Lowering,
    left: usize,
    ky: usize,
    kx: usize,
    at: usize,
}

impl Iterator for Taps {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        let (lo, at) = (&self.lo, self.at);
        self.left -= 1;
        (self.kx, self.at) = (self.kx + 1, at + 1);
        if self.kx == lo.kw {
            (self.kx, self.ky, self.at) = (0, self.ky + 1, self.at + lo.wp - lo.kw);
            if self.ky == lo.kh {
                (self.ky, self.at) = (0, self.at + (lo.hp - lo.kh) * lo.wp);
            }
        }
        Some(at)
    }
}

/// `im2col` straight into the GEMM's panel-packed `B` layout, fusing the
/// unroll and the pack into one write pass.
///
/// Produces bit-for-bit the buffer `PackedB::pack(&im2col(..))` would:
/// `out_h*out_w` columns in `PANEL`-column panels, each panel stored
/// `(c*kh*kw) × PANEL` row-major, tail lanes zero. The separate pack is a
/// full read + write of the column matrix per convolution per forward;
/// emitting packed layout directly deletes that round-trip, which is pure
/// memory bandwidth at batch 1. Every lane of `packed` is written (valid
/// taps, zero margins, zero tail), so no stale scratch survives reuse.
///
/// One thread, and **not allocation-free when `pad > 0`**: each call
/// pads the image into a temporary `Vec` (allocated, filled and freed
/// per call). [`crate::conv2d`] instead pads into its
/// [`crate::Workspace`] with [`Lowering::padded`] and lowers with
/// [`Lowering::panels_into`], the same lowering, on a team.
#[allow(clippy::too_many_arguments)]
pub fn im2col_packed_prealloc(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    packed: &mut Matrix,
) -> TensorResult<()> {
    let lo = Lowering::for_image("im2col_packed", image.len(), c, h, w, kh, kw, pad, stride)?;
    lo.panels_into(None, 1, lo.padded(image, None, &mut Vec::new())?, packed)
}

/// Fold a column matrix back into an image, **accumulating** overlapping
/// contributions (the adjoint of `im2col`, used by the conv backward pass).
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Matrix,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<Vec<f32>> {
    let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
    if cols.shape() != (c * kh * kw, out_h * out_w) {
        return Err(ShapeError::new(format!(
            "col2im: cols shape {:?} != {:?}",
            cols.shape(),
            (c * kh * kw, out_h * out_w)
        )));
    }
    let mut image = vec![0.0_f32; c * h * w];
    let n_out = out_h * out_w;
    let data = cols.as_slice();
    for ci in 0..c {
        let ch = &mut image[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let col_row = &data[row * n_out..(row + 1) * n_out];
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        ch[iy as usize * w + ix as usize] += col_row[oy * out_w + ox];
                    }
                }
            }
        }
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_spatial_basic() {
        // Caffenet conv1: 224x224, k=11, pad=0 (per Figure 1, stride 4 -> 55 needs pad?).
        // AlexNet canonical: 227x227 k11 s4 p0 -> 55. With 224 input, pad 2: (224+4-11)/4+1 = 55.
        assert_eq!(out_spatial(227, 227, 11, 11, 0, 4).unwrap(), (55, 55));
        assert_eq!(out_spatial(224, 224, 11, 11, 2, 4).unwrap(), (55, 55));
        assert_eq!(out_spatial(5, 5, 3, 3, 1, 1).unwrap(), (5, 5));
    }

    #[test]
    fn out_spatial_rejects_degenerate() {
        assert!(out_spatial(5, 5, 3, 3, 0, 0).is_err());
        assert!(out_spatial(2, 2, 3, 3, 0, 1).is_err());
        assert!(out_spatial(5, 5, 0, 3, 0, 1).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: cols == image reshaped.
        let image: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let cols = im2col(&image, 2, 3, 3, 1, 1, 0, 1).unwrap();
        assert_eq!(cols.shape(), (2, 9));
        assert_eq!(cols.as_slice(), image.as_slice());
    }

    #[test]
    fn im2col_known_3x3() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 cols.
        let image = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let cols = im2col(&image, 1, 3, 3, 2, 2, 0, 1).unwrap();
        assert_eq!(cols.shape(), (4, 4));
        // Patch at (0,0): [1,2,4,5]; (0,1): [2,3,5,6]; (1,0): [4,5,7,8]; (1,1): [5,6,8,9].
        // Row = kernel position, column = patch.
        assert_eq!(cols.row(0), &[1.0, 2.0, 4.0, 5.0]); // top-left of each patch
        assert_eq!(cols.row(1), &[2.0, 3.0, 5.0, 6.0]); // top-right
        assert_eq!(cols.row(2), &[4.0, 5.0, 7.0, 8.0]); // bottom-left
        assert_eq!(cols.row(3), &[5.0, 6.0, 8.0, 9.0]); // bottom-right
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let image = vec![1.0; 4]; // 1x2x2
        let cols = im2col(&image, 1, 2, 2, 3, 3, 1, 1).unwrap();
        assert_eq!(cols.shape(), (9, 4));
        // Center kernel tap (ky=1,kx=1) always lands inside -> all ones.
        assert_eq!(cols.row(4), &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap only valid for bottom-right output.
        assert_eq!(cols.row(0), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn im2col_rejects_bad_image_len() {
        assert!(im2col(&[0.0; 5], 1, 2, 3, 1, 1, 0, 1).is_err());
    }

    #[test]
    fn col2im_adjoint_counts_overlaps() {
        // ones image; im2col then col2im counts how many patches each pixel is in.
        let image = vec![1.0; 9];
        let cols = im2col(&image, 1, 3, 3, 2, 2, 0, 1).unwrap();
        let back = col2im(&cols, 1, 3, 3, 2, 2, 0, 1).unwrap();
        // Corner pixels appear in 1 patch, edges in 2, center in 4.
        assert_eq!(back, vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]);
    }

    /// The straightforward per-element im2col the fast-path run
    /// decomposition must reproduce exactly.
    #[allow(clippy::too_many_arguments)]
    fn im2col_reference(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
    ) -> Matrix {
        let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride).unwrap();
        Matrix::from_fn(c * kh * kw, out_h * out_w, |row, col| {
            let (ci, rem) = (row / (kh * kw), row % (kh * kw));
            let (ky, kx) = (rem / kw, rem % kw);
            let (oy, ox) = (col / out_w, col % out_w);
            let iy = (oy * stride + ky) as isize - pad as isize;
            let ix = (ox * stride + kx) as isize - pad as isize;
            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                image[ci * h * w + iy as usize * w + ix as usize]
            } else {
                0.0
            }
        })
    }

    /// A deterministic image of `len` values in `[-5, 5)`.
    fn det_image(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0
            })
            .collect()
    }

    /// The f32 panel lowering cut across a team of 2 and of 3 (one part
    /// per thread, or per panel when there are fewer), and the int8 quad
    /// lowering (one thread) of the image quantized into its padded
    /// layout, byte for byte against their layouts' definitions over
    /// [`im2col_reference`]: f32 panel `p`, row `r`, lane `j` at
    /// `p*k*PANEL + r*PANEL + j`; the int8 one at
    /// `p*kp*PANEL + (r/4)*4*PANEL + 4*j + r%4` of the quantized
    /// reference; every other element zero. Every buffer — padded images
    /// and line buffers included — starts oversized and poisoned, so an
    /// element no piece wrote, or a piece lowering another's panels,
    /// shows.
    #[allow(clippy::too_many_arguments)]
    fn split_lowerings_match(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let image = det_image(c * h * w, seed);
        let cols = im2col_reference(&image, c, h, w, kh, kw, pad, stride);
        let (k, n) = cols.shape();
        let (panels, kp, inv_scale) = (n.div_ceil(PANEL), k.next_multiple_of(QUAD), 127.0 / 4.0);
        let mut want_f32 = vec![0.0f32; panels * k * PANEL];
        let mut want_i8 = vec![0i8; panels * kp * PANEL];
        for r in 0..k {
            for col in 0..n {
                let (p, j) = (col / PANEL, col % PANEL);
                want_f32[p * k * PANEL + r * PANEL + j] = cols.get(r, col);
                want_i8[p * kp * PANEL + (r / QUAD) * QUAD * PANEL + QUAD * j + r % QUAD] =
                    crate::quantize_i8(cols.get(r, col), inv_scale);
            }
        }
        let lo = Lowering::new(c, h, w, kh, kw, pad, stride).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [2, 3] {
            let mut team = Team::new(threads).with_min_part_macs(0);
            let mut scratch = vec![f32::NAN; lo.padded_len() + 7];
            let mut packed = Matrix::from_fn(3, 7, |_, _| f32::NAN);
            let padded = lo.padded(&image, None, &mut scratch).unwrap();
            lo.panels_into(Some(&mut team), threads, padded, &mut packed)
                .unwrap();
            prop_assert_eq!(
                bits(packed.as_slice()),
                bits(&want_f32),
                "f32, team of {}",
                threads
            );
        }

        let mut q_padded = vec![77i8; lo.padded_len() + 7];
        lo.quantize_padded(&image, None, inv_scale, &mut q_padded)
            .unwrap();
        let (mut lines, mut q_packed) = (vec![77i8; 64], vec![77i8; 2 * want_i8.len() + 5]);
        let got_kp = lo.quads_into(&q_padded, &mut lines, &mut q_packed).unwrap();
        prop_assert_eq!(got_kp, kp);
        prop_assert_eq!(&q_packed, &want_i8, "int8");
        Ok(())
    }

    #[test]
    fn live_planes_lower_like_the_image_of_just_those_planes() {
        let (c, h, w) = (6, 5, 7);
        let plane = h * w;
        let image = det_image(c * plane, 3);
        // Runs of one, two and one plane; every plane; none.
        for live in [vec![0, 2, 3, 5], (0..c).collect(), vec![]] {
            let gathered: Vec<f32> = live
                .iter()
                .flat_map(|&p| image[p * plane..(p + 1) * plane].to_vec())
                .collect();
            for pad in [0, 1, 2] {
                let lo = Lowering::new(live.len(), h, w, 3, 3, pad, 1).unwrap();
                let (mut want, mut got) = (Vec::new(), vec![f32::NAN; 3]);
                let want = lo.padded(&gathered, None, &mut want).unwrap();
                let got = lo.padded(&image, Some(&live), &mut got).unwrap();
                assert_eq!(got, want, "live {live:?} pad {pad}");
                let (mut want, mut got) = (Vec::new(), vec![9i8; 1000]);
                lo.quantize_padded(&gathered, None, 30.0, &mut want)
                    .unwrap();
                lo.quantize_padded(&image, Some(&live), 30.0, &mut got)
                    .unwrap();
                assert_eq!(got, want, "int8 live {live:?} pad {pad}");
            }
        }
        // A live list that is not `c` planes of the image is an error.
        let lo = Lowering::new(2, h, w, 3, 3, 1, 1).unwrap();
        for (live, len) in [
            (&[0, 1, 2][..], c * plane),
            (&[1, 6][..], c * plane),
            (&[0, 1][..], c * plane - 1),
        ] {
            assert!(lo
                .padded(&image[..len], Some(live), &mut Vec::new())
                .is_err());
            let mut q = Vec::new();
            assert!(lo
                .quantize_padded(&image[..len], Some(live), 1.0, &mut q)
                .is_err());
        }
    }

    #[test]
    fn lowering_entry_points_reject_a_short_image() {
        let lo = Lowering::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let short = vec![0.5f32; 2 * 5 * 5 - 1];
        for pad in [1, 0] {
            let lo = Lowering::new(2, 5, 5, 3, 3, pad, 1).unwrap();
            let err = lo.padded(&short, None, &mut Vec::new()).unwrap_err();
            assert!(
                err.to_string().contains("image length 49 != 2x5x5"),
                "{err}"
            );
        }
        assert!(lo
            .quantize_padded(&short, None, 1.0, &mut Vec::new())
            .is_err());
        let (padded, wrong) = (
            vec![0.0f32; lo.padded_len()],
            vec![0.0f32; lo.padded_len() - 1],
        );
        let mut cols = vec![0.0f32; lo.rows() * 25];
        assert!(lo.rows_into(&wrong, &mut cols).is_err());
        assert!(lo.rows_into(&padded, &mut cols[1..]).is_err());
        assert!(lo
            .panels_into(None, 1, &wrong, &mut Matrix::zeros(0, 0))
            .is_err());
        let q_wrong = vec![0i8; lo.padded_len() + 1];
        assert!(lo
            .quads_into(&q_wrong, &mut Vec::new(), &mut Vec::new())
            .is_err());
    }

    #[test]
    fn split_lowerings_match_on_stem_shapes() {
        for (what, c, hw, k, pad, stride) in [
            // 12×12 output: panels straddle output rows; depth 147.
            ("googlenet conv1, 7x7 s2 p3", 3, 23, 7, 3, 2),
            // 6×6 output, a 4-lane tail panel; depth 363.
            ("caffenet conv1, 11x11 s4 p2", 3, 27, 11, 2, 4),
            // A 7×7 map (out_w < PANEL); depth 45.
            ("7x7 map, 3x3 p1", 5, 7, 3, 1, 1),
            // Pad past every tap's offset: whole zero rows and columns.
            ("1x1 p3", 2, 5, 1, 3, 1),
            // A 1×1 pack: one run over the whole map.
            ("1x1 pack", 6, 9, 1, 0, 1),
        ] {
            split_lowerings_match(c, hw, hw, k, k, pad, stride, 7)
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        }
    }

    proptest! {
        /// <x, im2col(y)> == <col2im(x), y> — adjointness of the pair,
        /// checked via the count matrix trick on random shapes.
        #[test]
        fn prop_im2col_shape(c in 1usize..4, h in 3usize..8, w in 3usize..8,
                             k in 1usize..4, pad in 0usize..2, stride in 1usize..3) {
            let image = vec![0.5; c * h * w];
            if let Ok((oh, ow)) = out_spatial(h, w, k, k, pad, stride) {
                let cols = im2col(&image, c, h, w, k, k, pad, stride).unwrap();
                prop_assert_eq!(cols.shape(), (c * k * k, oh * ow));
                let back = col2im(&cols, c, h, w, k, k, pad, stride).unwrap();
                prop_assert_eq!(back.len(), image.len());
            }
        }

        /// The run-decomposed fast path (margin zero-fill + contiguous
        /// copy / strided gather) is element-for-element identical to
        /// the per-element reference on arbitrary geometry, ragged
        /// kernels (kh != kw) and pads that exceed the kernel offset.
        #[test]
        fn prop_im2col_matches_reference(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let fast = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let slow = im2col_reference(&image, c, h, w, kh, kw, pad, stride);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// The fused unroll+pack emits bit-for-bit the buffer the
        /// two-pass `im2col` → `PackedB::pack` pipeline produces,
        /// including zero margins and zero panel-tail lanes — even when
        /// the scratch matrix starts full of stale garbage.
        #[test]
        fn prop_im2col_packed_matches_two_pass(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let cols = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let two_pass = crate::gemm::PackedB::pack(&cols);
            // Poison the fused-path scratch to prove every lane is written.
            let mut fused = Matrix::from_fn(3, 7, |_, _| f32::NAN);
            im2col_packed_prealloc(&image, c, h, w, kh, kw, pad, stride, &mut fused).unwrap();
            prop_assert_eq!(fused.len(), two_pass.as_slice().len());
            for (x, y) in fused.as_slice().iter().zip(two_pass.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Quantize-then-lower is byte for byte lower-then-quantize, for
        /// both i8 layouts: the i8 lowerings of the quantized image
        /// against the f32 patch matrix quantized element by element
        /// into each layout's definition (and, for the packed one, the
        /// f32 packer too). The
        /// scale clips part of the range, and every scratch buffer
        /// starts oversized and poisoned, so an unwritten byte (pad row
        /// past the depth, panel tail lane, zero margin) would show.
        #[test]
        fn prop_i8_lowerings_match_quantized_f32_lowering(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..5,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let inv_scale = 127.0 / 4.0;
            let cols = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let (k, n) = cols.shape();
            let q_image: Vec<i8> = image.iter().map(|&v| crate::quantize_i8(v, inv_scale)).collect();

            // The quad layout from its definition: row `r`, column `c`
            // of the patch matrix at `(r/4)*4*PANEL + 4*(c%PANEL) + r%4`
            // of panel `c/PANEL`; everything else zero.
            let kp = k.next_multiple_of(4);
            let mut want = vec![0i8; n.div_ceil(PANEL) * kp * PANEL];
            for r in 0..k {
                for col in 0..n {
                    let at = (col / PANEL) * kp * PANEL + (r / 4) * 4 * PANEL + 4 * (col % PANEL) + r % 4;
                    want[at] = crate::quantize_i8(cols.get(r, col), inv_scale);
                }
            }
            let mut via_f32 = vec![77i8; 2 * want.len() + 9];
            prop_assert_eq!(crate::pack_b_i8_into(cols.as_slice(), k, n, inv_scale, &mut via_f32), kp);
            prop_assert_eq!(&via_f32, &want);
            // The quantized image padded, and the image quantized
            // straight into its padded layout (`conv2d`'s way), agree.
            let lo = Lowering::new(c, h, w, kh, kw, pad, stride).unwrap();
            let mut scratch = vec![77i8; 3];
            let q_padded = lo.padded(&q_image, None, &mut scratch).unwrap();
            let mut fused = vec![77i8; lo.padded_len() + 11];
            lo.quantize_padded(&image, None, inv_scale, &mut fused).unwrap();
            prop_assert_eq!(&fused[..], q_padded);
            let (mut lines, mut packed) = (vec![77i8; 64], vec![77i8; 4 * want.len() + 5]);
            prop_assert_eq!(lo.quads_into(q_padded, &mut lines, &mut packed).unwrap(), kp);
            prop_assert_eq!(&packed, &want);
        }

        /// The f32 panel lowering split by panel ranges across a team of
        /// 2 and of 3, and the int8 quad lowering, are byte for byte
        /// their layouts' definitions ([`split_lowerings_match`]), on
        /// ragged kernels, strides up to 4, pads past the kernel offset,
        /// maps narrower than a panel and depths of every residue mod 4.
        #[test]
        fn prop_split_lowerings_match_reference(
            c in 1usize..5, h in 1usize..12, w in 1usize..12,
            kh in 1usize..6, kw in 1usize..6,
            pad in 0usize..4, stride in 1usize..5,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            split_lowerings_match(c, h, w, kh, kw, pad, stride, seed)?;
        }
    }
}
