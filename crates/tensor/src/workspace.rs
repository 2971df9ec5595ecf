//! Reusable scratch arenas for allocation-free steady-state kernels.
//!
//! The im2col+GEMM convolution path needs per-image lowering scratch
//! (the unrolled patch matrix, row-major or panel-packed, f32 or int8,
//! and for int8 the quantized input image it is lowered from).
//! Allocating it per image puts the allocator on the critical
//! path of every forward pass; §3 of the paper times exactly these loops,
//! so the harness must not measure `malloc`.
//!
//! A [`Workspace`] owns those scratch slots; kernels resize them in
//! place ([`Matrix::resize`] reuses capacity, `Vec::resize` likewise),
//! so after the first pass over a given layer shape no allocator calls
//! remain. A [`WorkspacePool`] hands
//! workspaces out to rayon workers: kernels draw one per worker with
//! `for_each_init`-style loops and the pool recycles them across calls,
//! keyed by nothing — any workspace fits any shape because slots grow to
//! the high-water mark of whatever passes through them.

use crate::dense::Matrix;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};

/// Scratch buffers for one in-flight image. The slots are independent
/// (no invariant ties them together), handed out unshaped: whichever
/// kernel uses one resizes it first and overwrites every element it
/// later reads, so stale contents from earlier, differently-shaped work
/// never leak into results.
#[derive(Debug)]
pub struct Workspace {
    /// Row-major im2col patch matrix (`in_per_group*kh*kw × oh*ow`).
    pub cols: Matrix,
    /// Panel-packed patch matrix, shaped by
    /// [`crate::im2col_packed_prealloc`].
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
    /// The two patch rows [`crate::im2col_i8_packed_prealloc`] has in
    /// flight (`2 × oh*ow` rounded up to whole panels).
    pub qlines: Vec<i8>,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace; slots grow on first use.
    pub fn new() -> Self {
        Self {
            cols: Matrix::zeros(0, 0),
            packed: Matrix::zeros(0, 0),
            qbuf: Vec::new(),
            qimage: Vec::new(),
            qlines: Vec::new(),
        }
    }

    /// Bytes currently live across all slots (lengths, not capacities —
    /// `Matrix` does not expose its backing capacity).
    pub fn reserved_bytes(&self) -> usize {
        (self.cols.len() + self.packed.len()) * std::mem::size_of::<f32>()
            + self.qbuf.len()
            + self.qimage.len()
            + self.qlines.len()
    }
}

/// A checkout/return pool of [`Workspace`]s shared by rayon workers.
///
/// Layers own one pool each; every `forward` draws however many
/// workspaces the worker count demands (one per worker) and returns them
/// on drop. Steady state therefore holds the pool size at the maximum
/// concurrency ever seen, and no allocation happens after warm-up.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Draw a workspace, creating one only if the pool is empty.
    ///
    /// Every checkout is counted in the global metrics registry: a
    /// recycled workspace is a `workspace_hits`, a fresh build is a
    /// `workspace_misses` — the steady-state claim "the pool stopped
    /// allocating" is `misses` staying flat while `hits` climbs.
    pub fn checkout(&self) -> PooledWorkspace<'_> {
        let ws = match self.free.lock().pop() {
            Some(ws) => {
                cap_obs::metrics().workspace_hits.inc();
                ws
            }
            None => {
                cap_obs::metrics().workspace_misses.inc();
                Workspace::new()
            }
        };
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Number of idle workspaces currently in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

/// RAII guard for a pooled [`Workspace`]; returns it on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'a> {
    pool: &'a WorkspacePool,
    ws: Option<Workspace>,
}

impl Deref for PooledWorkspace<'_> {
    type Target = Workspace;

    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.free.lock().push(ws);
        }
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
    fn pool_recycles_workspaces() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut a = pool.checkout();
            a.cols.resize(10, 10);
            let _b = pool.checkout();
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
        {
            // One of the two recycled workspaces kept its grown slot.
            let first = pool.checkout();
            let second = pool.checkout();
            assert_eq!(first.cols.len() + second.cols.len(), 100);
        }
        assert_eq!(pool.idle(), 2);
    }
}
