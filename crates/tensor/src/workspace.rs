//! Reusable kernel scratch for allocation-free steady-state passes.
//!
//! The im2col+GEMM convolution path needs per-image lowering scratch:
//! the input padded once (f32, or for int8 quantized straight into its
//! padded layout) and the unrolled patch matrix lowered from it,
//! row-major or panel-packed.
//! Allocating it per image would put `malloc` inside the loops §3 of
//! the paper times.
//!
//! A [`Workspace`] owns those scratch slots; kernels resize them in
//! place ([`Matrix::resize`] reuses capacity, `Vec::resize` likewise),
//! so once it has seen the largest shape that passes through it no
//! allocator calls remain. It belongs to the thread that runs the pass:
//! a caller lends it by `&mut`, so there is nothing to check out, lock
//! or count. `cap-cnn`'s `ForwardArena` keeps one for the calling
//! thread and every layer of the pass shares it — any workspace fits
//! any shape, so scratch grows with the largest layer, not the layer
//! count. The same workspace carries the [`Team`] that thread may split
//! a kernel across; each helper of the team keeps a workspace of its
//! own. An f32 lowering split across the team uses none of the
//! helpers': its pieces read the caller's padded image and write their
//! own panels of the caller's patch matrix.

use crate::dense::Matrix;
use crate::quant::AlignedI8;
use crate::team::Team;

/// Scratch buffers for one kernel call at a time. The slots are
/// independent (no invariant ties them together), handed out unshaped:
/// whichever kernel uses one resizes it first and overwrites every
/// element it later reads, so stale contents from earlier,
/// differently-shaped work never leak into results.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Row-major f32 scratch: the CSR convolution's im2col patch matrix
    /// (`in_per_group*kh*kw × oh*ow`), the Winograd convolution's `M`
    /// chunk (16 products of a few rows × tiles, [`mod@crate::winograd`]),
    /// [`crate::lrn_into`]'s square-sum plane, a narrowed fc's live input
    /// features.
    pub cols: Matrix,
    /// The dense convolution's panel-packed patch matrix, shaped by
    /// [`crate::Lowering::panels_into`], or the Winograd form's 16
    /// panel-packed transformed input tiles `V`.
    pub packed: Matrix,
    /// Quantized-operand bytes, resized and fully rewritten by whoever
    /// fills it: the fc layers' activation rows
    /// ([`crate::quantize_rows_into`]), or the int8 convolution's patch
    /// matrix (quad-packed by [`crate::Lowering::quads_into`]), which
    /// the tile kernel loads fastest from a cache-line boundary, where
    /// [`AlignedI8`] starts it.
    pub qbuf: AlignedI8,
    /// The f32 convolution's input channels of one group, padded once
    /// ([`crate::Lowering::padded`]: `in_per_group ×
    /// (h+2·pad) × (w+2·pad)`) for the lowering to read; untouched when
    /// `pad` is 0, where the input is read in place. The Winograd form
    /// pads into it too, to whole 4×4 tile windows. Also the AVX2 max
    /// pool's one `-inf`-padded input plane
    /// ([`crate::kernels::max_pool_planes_with`]), and a batched dense
    /// fc's column blocks when it splits by columns
    /// ([`crate::team::split_columns`]).
    pub padded: Vec<f32>,
    /// The int8 convolution's input channels of one group, quantized
    /// once, straight into their padded layout
    /// ([`crate::Lowering::quantize_padded`]) — a quarter of the
    /// bytes of the padded f32 planes, where the f32 `cols` detour it
    /// replaced held `kh*kw` times more.
    pub qimage: Vec<i8>,
    /// The four patch rows [`crate::Lowering::quads_into`] has in
    /// flight (`4 × oh*ow` rounded up to whole panels).
    pub qlines: Vec<i8>,
    /// The helpers a kernel called with this workspace may split its
    /// work across ([`crate::team`]); `None` runs every kernel
    /// inline on the calling thread. A helper's own workspace never has
    /// one, so a split never nests.
    pub team: Option<Team>,
}

impl Workspace {
    /// An empty workspace; slots grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the slots retain, the team's helpers' workspaces
    /// included: capacities, not lengths — a slot's length follows the
    /// last kernel that shaped it, its footprint is the largest shape it
    /// has held.
    pub fn reserved_bytes(&self) -> usize {
        (self.cols.capacity() + self.packed.capacity() + self.padded.capacity())
            * std::mem::size_of::<f32>()
            + self.qbuf.capacity()
            + self.qimage.capacity()
            + self.qlines.capacity()
            + self.team.as_ref().map_or(0, Team::scratch_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_resize_zeroes_and_keeps_capacity() {
        let mut ws = Workspace::new();
        ws.cols.resize(100, 100);
        ws.cols.set(1, 1, 5.0);
        ws.cols.resize(2, 2);
        // Resizing zeroes stale contents, at any size.
        ws.cols.resize(100, 100);
        assert_eq!(ws.cols.shape(), (100, 100));
        assert!(ws.cols.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(ws.reserved_bytes(), 100 * 100 * 4);
    }

    #[test]
    fn int8_operands_start_on_a_cache_line() {
        use crate::quant::{I8Storage, PackedBI8, I8_ALIGN};
        let mut ws = Workspace::new();
        // Growing (a new allocation each time) and shrinking alike.
        for len in [1, 100, 4096, 70_000, 3, 1 << 20, 17] {
            let bytes = ws.qbuf.resize_for_overwrite(len);
            assert_eq!(bytes.len(), len);
            assert_eq!(bytes.as_ptr() as usize % I8_ALIGN, 0, "qbuf of {len}");
            assert_eq!(ws.qbuf.as_slice().as_ptr() as usize % I8_ALIGN, 0);
        }
        for (k, n) in [(3, 5), (1200, 129), (4608, 64)] {
            let b = Matrix::from_fn(k, n, |r, c| (r * 7 + c) as f32 % 5.0 - 2.0);
            for packed in [
                PackedBI8::pack(&b, 0.05),
                PackedBI8::pack_transposed(&b, std::slice::from_ref(&(0..n)), 0.05),
            ] {
                let at = packed.data().as_ptr() as usize;
                assert_eq!(at % I8_ALIGN, 0, "PackedBI8 of {k}x{n}");
            }
        }
    }
}
