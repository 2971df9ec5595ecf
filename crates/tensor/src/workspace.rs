//! Reusable kernel scratch for allocation-free steady-state passes.
//!
//! The im2col+GEMM convolution path needs per-image lowering scratch
//! (the unrolled patch matrix, row-major or panel-packed, f32 or int8,
//! and for int8 the quantized input image it is lowered from).
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
//! own.

use crate::dense::Matrix;
use crate::team::Team;

/// Scratch buffers for one kernel call at a time. The slots are
/// independent (no invariant ties them together), handed out unshaped:
/// whichever kernel uses one resizes it first and overwrites every
/// element it later reads, so stale contents from earlier,
/// differently-shaped work never leak into results.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Row-major f32 scratch: the CSR convolution's im2col patch matrix
    /// (`in_per_group*kh*kw × oh*ow`), the LRN layer's square-sum
    /// plane, the batched sparse fc's `Xᵀ`.
    pub cols: Matrix,
    /// The dense convolution's panel-packed patch matrix, shaped by
    /// [`crate::im2col_packed_prealloc`]; the batched sparse fc's
    /// `W·Xᵀ` before it is transposed into the output.
    pub packed: Matrix,
    /// Quantized-operand bytes, resized and fully rewritten by whoever
    /// fills it: the fc layers' activation rows
    /// ([`crate::quantize_rows_into`]), or the int8 convolution's patch
    /// matrix ([`crate::im2col_i8_packed_prealloc`] /
    /// [`crate::im2col_i8_prealloc`]).
    pub qbuf: Vec<i8>,
    /// The int8 convolution's input image, quantized once per image
    /// (`in_channels × h × w` bytes — a quarter of the f32 image, where
    /// the f32 `cols` detour it replaced held `kh*kw` times more).
    pub qimage: Vec<i8>,
    /// The four patch rows [`crate::im2col_i8_packed_prealloc`] has in
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
        (self.cols.capacity() + self.packed.capacity()) * std::mem::size_of::<f32>()
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
}
