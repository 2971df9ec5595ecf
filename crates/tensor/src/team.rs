//! A persistent worker team: the threads one forward pass, or one
//! data-parallel run, runs on.
//!
//! A [`Team`] of `threads` is the calling thread plus `threads - 1`
//! helpers spawned once and kept for the team's lifetime (`cap-cnn`'s
//! `ForwardArena` holds one in its [`Workspace`], created on the first
//! pass that wants more than one thread and joined when it drops; its
//! `ParallelEngine` holds one and runs its workers' chunk ranges as the
//! pieces of [`run_pieces`]). In a pass it runs the parts of one
//! kernel: an output slice cut into contiguous pieces of whole units,
//! one closure call per piece, piece 0 on the caller. [`split_rows`]
//! cuts a multiply by rows of `A` (a conv's filters, a batched f32 fc's
//! rows of `W`), [`split_columns`] an fc multiply by panel-aligned
//! column ranges (the int8 fc's, and the batch-1 f32 fc's rows of
//! `W`), [`crate::Lowering`] the f32 packed `B`
//! it writes by panel ranges (as many parts as the multiply it feeds),
//! [`crate::conv2d`] cuts its output bands (groups, images) and the
//! pools and [`crate::lrn_into`] their output planes (images,
//! channels), handing every piece its thread's own [`Workspace`]. A
//! piece is a contiguous sub-problem of the same kernel (a row range of
//! `A` and `C`, a panel range of `B` and `C`, a range of planes), so
//! every output element is still computed by one thread in the same
//! order: splitting is bitwise invisible.
//!
//! A split is only worth its fork-join when every part carries enough
//! work: a piece gets at least the team's per-part minimum of
//! multiply-accumulates (`MIN_PART_MACS` unless a test lowers it), and
//! there are never more pieces than threads or units. A workspace
//! without a team — a helper's own, the caller's while its team is
//! lent out, any one-off — always runs the whole call inline, so a
//! split never nests.
//!
//! Idle helpers spin for `SPIN` after their last part (long enough to
//! bridge the gap between back-to-back kernels, short against a concat,
//! a layer too small to split or the tail of a branch), then park on a
//! condition variable, so a quiet team costs no core.
//!
//! All `unsafe` outside [`crate::kernels`] lives in this module: the
//! lifetime-erased job a helper reads, and the disjoint pieces of one
//! output slice. Each block's `# Safety` comment names the test below
//! that fails when the block's invariant is weakened.

use crate::error::{ShapeError, TensorResult};
use crate::kernels::{PANEL, ROW_BLOCK};
use crate::workspace::Workspace;
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Multiply-accumulates one part of a split must carry before the
/// split engages. On the 2-core host a fork-join costs ~1 µs while the
/// helpers spin and ~20–25 µs (median) once they have parked, and 2²⁰
/// MACs take 34–47 µs on one core in the packed GEMM — so a part of
/// this size gains at least what it costs (EXPERIMENTS.md, the section
/// on the per-arena worker team). It keeps the 3×16×16 serving demo
/// net and the TinyNet preset inline. A constant with its measurement
/// on record, deliberately not a knob; only the hidden test seam
/// `Team::with_min_part_macs` overrides it, per team.
const MIN_PART_MACS: u64 = 1 << 20;

/// How long an idle thread — a helper waiting for its next part, or a
/// caller waiting for its helpers — spins before it parks. Measured as
/// a helper's idle time before each job over staged batch-1 passes on
/// a two-thread team on the 2-core host: Caffenet's 12 jobs per pass
/// leave ~7 gaps under 50 µs, which the spin bridges, and ~5 of
/// 0.05–5 ms; Googlenet's 18 (its split stem and pool steps, its nine
/// module stages) leave ~4 under 50 µs and ~14 longer, five of them
/// 50–100 µs, the length of a concat before a module stage. A parked
/// helper picks its job up ~10–17 µs late, so parking costs Googlenet
/// at most ~0.25 ms of a ~53 ms pass. Spinning 100 µs would save ~5 of
/// those parks (~0.06 ms) for ~0.56 ms more of the second core per
/// pass, and 200 µs ~7.5 parks for ~1.4 ms (EXPERIMENTS.md, "How long
/// a helper spins").
const SPIN: Duration = Duration::from_micros(50);

/// One part of a job, run on a helper: `(part, helper's workspace)`.
type PartFn<'a> = dyn Fn(usize, &mut Workspace) + Sync + 'a;

/// One fork-join, on the caller's stack for the length of
/// [`Team::run_parts`].
struct Job<'a> {
    part: &'a PartFn<'a>,
    /// Helper parts not yet finished; the caller returns at zero.
    pending: AtomicUsize,
    /// The panic of the lowest-numbered helper part that panicked.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

/// A helper's mailbox.
#[derive(Default)]
struct Slot {
    /// The posted job, null while idle; taken (swapped to null) by the
    /// helper.
    job: AtomicPtr<Job<'static>>,
    /// Set by `Drop for Team`: exit instead of waiting.
    quit: AtomicBool,
    /// The helper is parked (or about to park) on `wake`.
    sleeping: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
    /// Bytes the helper's workspace retains, after its last part.
    scratch_bytes: AtomicUsize,
}

#[derive(Default)]
struct Shared {
    slots: Box<[Slot]>,
    /// The caller is parked (or about to park) on `done`.
    caller_sleeping: AtomicBool,
    lock: Mutex<()>,
    done: Condvar,
}

fn lock(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    // The mutexes guard no data, only the park/wake handshake.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin on `ready` for up to [`SPIN`]; true if it turned true.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    let mut spins = 0u32;
    loop {
        if ready() {
            return true;
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && start.elapsed() > SPIN {
            return false;
        }
        std::hint::spin_loop();
    }
}

impl Slot {
    /// Take the posted job, if any: one SeqCst swap, whichever path
    /// asks (the spin path only calls it once a relaxed look has seen
    /// a job).
    fn take(&self) -> Option<*const Job<'static>> {
        let job = self.job.swap(std::ptr::null_mut(), Ordering::SeqCst);
        (!job.is_null()).then_some(job.cast_const())
    }

    /// The helper's wait: the next job, or `None` once the team drops.
    fn next_job(&self) -> Option<*const Job<'static>> {
        let ready =
            || !self.job.load(Ordering::Relaxed).is_null() || self.quit.load(Ordering::Relaxed);
        if spin_until(ready) {
            if let Some(job) = self.take() {
                return Some(job);
            }
        }
        let mut guard = lock(&self.lock);
        loop {
            // Announce the park (a SeqCst store to `sleeping`) before
            // the last look at the mailbox (the SeqCst swap in `take`);
            // `post` stores the job (SeqCst) before it loads `sleeping`
            // (SeqCst). All four accesses sit in one total order, so
            // either `post` sees `sleeping` and notifies — under the
            // lock this thread holds until `wait` releases it, so the
            // notify cannot fall between the look and the wait — or the
            // swap sees the job. A weaker look (a relaxed load before
            // the swap, say) lets both miss on a weakly ordered CPU: a
            // lost wake-up, which hangs `tests::ten_thousand_tiny_joins`
            // (it lets the helpers park a hundred times). On x86 that
            // interleaving needs a store-buffer window of nanoseconds,
            // so the test is a detector, not a proof.
            self.sleeping.store(true, Ordering::SeqCst);
            if let Some(job) = self.take() {
                self.sleeping.store(false, Ordering::Relaxed);
                return Some(job);
            }
            if self.quit.load(Ordering::SeqCst) {
                return None;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn post(&self, job: *const Job<'static>) {
        self.job.store(job.cast_mut(), Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            let _guard = lock(&self.lock);
            self.wake.notify_one();
        }
    }
}

/// Helper `index`'s thread: run posted parts with its own workspace
/// until the team drops.
fn helper_main(shared: Arc<Shared>, index: usize) {
    let slot = &shared.slots[index];
    let mut ws = Workspace::new();
    let part = index + 1;
    while let Some(job) = slot.next_job() {
        // SAFETY: `run_parts` posts a pointer to a `Job` on its own
        // stack and does not return — not even by unwinding — until
        // `pending` reads zero, and this helper does not touch `job`
        // after its decrement below. So the job and everything its
        // `part` closure borrows outlive every use here, whatever
        // lifetime the pointer was erased from. Sharing it is sound
        // because every field is `Sync` (the closure is `Fn + Sync`,
        // the rest atomics and a mutex). If `run_parts` stops waiting,
        // `tests::caller_panic_waits_for_every_helper` fails: its
        // helper writes through the job after the caller's part has
        // panicked (measured: a segfault).
        let job = unsafe { &*job };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| (job.part)(part, &mut ws)));
        if let Err(payload) = outcome {
            let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|(p, _)| part < *p) {
                *first = Some((part, payload));
            }
        }
        slot.scratch_bytes
            .store(ws.reserved_bytes(), Ordering::Relaxed);
        // Release: this part's writes happen-before the caller's return
        // (its acquiring load of zero) — `tests::ten_thousand_tiny_joins`
        // reads every helper's write right after each join. SeqCst
        // against the caller's `caller_sleeping` store, as in
        // `Slot::next_job`.
        if job.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && shared.caller_sleeping.load(Ordering::SeqCst)
        {
            let _guard = lock(&shared.lock);
            shared.done.notify_one();
        }
    }
}

/// The threads one pass runs on: the caller plus persistent helpers.
/// See the [module docs](self).
pub struct Team {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    min_part_macs: u64,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("threads", &self.threads())
            .field("min_part_macs", &self.min_part_macs)
            .finish()
    }
}

impl Team {
    /// A team of `threads` (at least 1): the calling thread plus
    /// `threads - 1` helpers, spawned now and parked until work comes.
    /// A helper the OS refuses to spawn leaves the team smaller.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            slots: (1..threads.max(1)).map(|_| Slot::default()).collect(),
            ..Shared::default()
        });
        let mut helpers = Vec::with_capacity(shared.slots.len());
        for index in 0..shared.slots.len() {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("cap-team-{}", index + 1))
                .spawn(move || helper_main(shared, index));
            match spawned {
                Ok(handle) => helpers.push(handle),
                Err(_) => break,
            }
        }
        Self {
            shared,
            helpers,
            min_part_macs: MIN_PART_MACS,
        }
    }

    /// Test seam, not a tuning option: this team with a different
    /// per-part minimum of multiply-accumulates (0: split whatever has
    /// two units), so parity and stress tests can split shapes far
    /// below the measured default. Production code never calls it.
    #[doc(hidden)]
    pub fn with_min_part_macs(mut self, macs: u64) -> Self {
        self.min_part_macs = macs;
        self
    }

    /// Threads in the team, the caller included.
    pub fn threads(&self) -> usize {
        1 + self.helpers.len()
    }

    /// Bytes the helpers' own workspaces retain (the caller's is its
    /// own business), as of their last part.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.shared
            .slots
            .iter()
            .map(|s| s.scratch_bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// How many parts a call of `macs` multiply-accumulates that can be
    /// cut at `units` points should run as: at most one per thread and
    /// per unit, and no part below the per-part minimum. 1 means
    /// inline.
    fn parts_for(&self, macs: u64, units: usize) -> usize {
        part_count(self.threads(), macs, units, self.min_part_macs)
    }

    /// Post parts `1..parts` to the helpers, run `own` (part 0) here,
    /// wait for the helpers, then resurface the first panic.
    fn run_parts(&mut self, parts: usize, part: &PartFn<'_>, own: impl FnOnce()) {
        assert!(
            (1..=self.threads()).contains(&parts),
            "{parts} parts on a team of {}",
            self.threads()
        );
        if parts == 1 {
            return own();
        }
        let job = Job {
            part,
            pending: AtomicUsize::new(parts - 1),
            panic: Mutex::new(None),
        };
        // Lifetime erasure only: `helper_main`'s SAFETY comment is the
        // argument that the pointer never outlives `job`.
        let posted = (&job as *const Job<'_>).cast::<Job<'static>>();
        for slot in &self.shared.slots[..parts - 1] {
            slot.post(posted);
        }
        let own_outcome = panic::catch_unwind(AssertUnwindSafe(own));
        self.wait(&job);
        let helper_panic = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Err(payload) = own_outcome {
            panic::resume_unwind(payload);
        }
        if let Some((_, payload)) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Return once every helper part of `job` has finished.
    fn wait(&self, job: &Job<'_>) {
        let done = || job.pending.load(Ordering::Acquire) == 0;
        if spin_until(done) {
            return;
        }
        let shared = &self.shared;
        let mut guard = lock(&shared.lock);
        shared.caller_sleeping.store(true, Ordering::SeqCst);
        while job.pending.load(Ordering::SeqCst) != 0 {
            guard = shared
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        shared.caller_sleeping.store(false, Ordering::Relaxed);
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        for slot in self.shared.slots.iter() {
            slot.quit.store(true, Ordering::SeqCst);
            let _guard = lock(&slot.lock);
            slot.wake.notify_one();
        }
        for handle in self.helpers.drain(..) {
            // A part's panic is caught inside the helper; the thread
            // itself cannot have panicked.
            let _ = handle.join();
        }
    }
}

/// `out` cut into `parts` contiguous pieces at unit boundaries: `units`
/// units, unit `u` starting at element `start(u)` (monotone, `start(0)
/// = 0`, `start(units) = out.len()`), balanced by unit count: piece `i`
/// covers units `i*units/parts .. (i+1)*units/parts`. Whole `unit`s of
/// equal length ([`piece_range`]) are the common case; a conv with
/// groups of uneven widths cuts at its bands.
struct Pieces<'a, 'f, T> {
    base: *mut T,
    units: usize,
    parts: usize,
    start: &'f (dyn Fn(usize) -> usize + Sync),
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `Pieces` is a `&mut [T]` handed out piecewise; sharing it
// between threads shares nothing but the right to take *disjoint*
// pieces (see `Pieces::take`), so it is `Sync` exactly when
// `&mut [T]` is `Send`. `tests::pieces_partition_the_output` fails if
// the pieces overlap or miss an element.
unsafe impl<T: Send> Sync for Pieces<'_, '_, T> {}

impl<'a, 'f, T> Pieces<'a, 'f, T> {
    fn new(
        out: &'a mut [T],
        units: usize,
        parts: usize,
        start: &'f (dyn Fn(usize) -> usize + Sync),
    ) -> Self {
        assert_eq!(start(units), out.len(), "the last unit ends the output");
        Self {
            base: out.as_mut_ptr(),
            units,
            parts,
            start,
            _borrow: PhantomData,
        }
    }

    /// Element range of piece `part`.
    fn range(&self, part: usize) -> Range<usize> {
        let at = |p: usize| (self.start)(p * self.units / self.parts);
        at(part)..at(part + 1)
    }

    /// Piece `part` and its offset in `out`.
    ///
    /// # Safety
    /// Each `part < parts` is taken at most once while `self` lives.
    unsafe fn take(&self, part: usize) -> (usize, &'a mut [T]) {
        let range = self.range(part);
        // SAFETY: `range` lies inside `out` (`start` is monotone and ends
        // at its length) and the ranges of distinct parts are disjoint,
        // so with each part taken once no two live `&mut` overlap — the
        // borrow of `out` is split, not duplicated.
        // `tests::pieces_partition_the_output` fails if a range overlaps
        // its neighbour or leaves a gap.
        let piece =
            unsafe { std::slice::from_raw_parts_mut(self.base.add(range.start), range.len()) };
        (range.start, piece)
    }
}

/// Element range of piece `part` of `len` elements cut into `parts`
/// pieces of whole `unit`s ([`Pieces`]; the last may be short).
fn piece_range(len: usize, unit: usize, parts: usize, part: usize) -> Range<usize> {
    let units = len.div_ceil(unit);
    let at = |p: usize| (p * units / parts * unit).min(len);
    at(part)..at(part + 1)
}

/// The first error by part number — what running the parts in order
/// and stopping at the first failure would return.
#[derive(Default)]
struct FirstError(Mutex<Option<(usize, ShapeError)>>);

impl FirstError {
    fn record(&self, part: usize, outcome: TensorResult<()>) {
        if let Err(e) = outcome {
            let mut first = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|(p, _)| part < *p) {
                *first = Some((part, e));
            }
        }
    }

    fn into_result(self) -> TensorResult<()> {
        match self.0.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// A kernel over one piece of a split output: `(offset, piece)`.
type SplitFn<'a, T> = dyn Fn(usize, &mut [T]) -> TensorResult<()> + Sync + 'a;

/// A [`SplitFn`] that also gets its thread's workspace.
type ScratchSplitFn<'a, T> =
    dyn Fn(usize, &mut [T], &mut Workspace) -> TensorResult<()> + Sync + 'a;

/// Cut `out` into `parts` contiguous pieces of whole `unit`s — fewer
/// where the team has fewer threads or `out` fewer units — and run
/// `f(offset, piece)` on each across `team`; with one part, or no team,
/// once, inline, over all of `out`. Piece 0 runs on the calling thread.
/// Returns the error of the lowest-offset piece that failed, the one an
/// unsplit call would have hit first. A panic in any piece resurfaces
/// here once every piece is done (the caller's own first, else the
/// lowest-numbered helper's). The callers choose `parts` by [`Team::parts_for`]
/// (`split_rows`, `split_columns`), or take a multiply's count for the
/// lowering that feeds it ([`crate::conv2d`]).
pub(crate) fn split<T: Send>(
    team: Option<&mut Team>,
    parts: usize,
    out: &mut [T],
    unit: usize,
    f: &SplitFn<'_, T>,
) -> TensorResult<()> {
    let unit = unit.max(1);
    let parts = team
        .as_deref()
        .map_or(1, |t| parts.min(t.threads()).min(out.len().div_ceil(unit)));
    let Some(team) = team.filter(|_| parts > 1) else {
        return f(0, out);
    };
    cap_obs::metrics().intra_op_splits.inc();
    run_pieces(team, parts, out, unit, f)
}

/// Cut `out` into `parts` contiguous pieces of whole `unit`s and run
/// `f(offset, piece)` on each across `team`, piece 0 on the calling
/// thread; panics unless `parts` is 1 to `team.threads()`. The
/// fork-join under every kernel split, but it counts no split:
/// `cap-cnn`'s `ParallelEngine` runs its workers through it, one share
/// — a pooled arena, a chunk range and that range's slice of the
/// outputs — per piece. Returns the error of the lowest-offset piece
/// that failed; a panic in any piece resurfaces once every piece is
/// done.
pub fn run_pieces<T: Send>(
    team: &mut Team,
    parts: usize,
    out: &mut [T],
    unit: usize,
    f: &(dyn Fn(usize, &mut [T]) -> TensorResult<()> + Sync),
) -> TensorResult<()> {
    let (len, unit) = (out.len(), unit.max(1));
    let start = |u: usize| (u * unit).min(len);
    let pieces = Pieces::new(out, len.div_ceil(unit), parts, &start);
    let first = FirstError::default();
    let run = |part: usize| {
        // SAFETY: `run_parts` calls this once per part number.
        let (offset, piece) = unsafe { pieces.take(part) };
        first.record(part, f(offset, piece));
    };
    team.run_parts(parts, &|part, _| run(part), || run(0));
    first.into_result()
}

/// [`split`] where every piece also needs kernel scratch: the team is
/// `ws`'s own, piece 0 runs on the caller with `ws` (its team lent out,
/// so nothing inside splits again) and piece `t` on helper `t` with
/// that helper's workspace. This is how the pools and LRN cut their
/// planes.
pub(crate) fn split_scratch<T: Send>(
    ws: &mut Workspace,
    macs: u64,
    out: &mut [T],
    unit: usize,
    f: &ScratchSplitFn<'_, T>,
) -> TensorResult<()> {
    let (len, unit) = (out.len(), unit.max(1));
    split_scratch_at(
        ws,
        macs,
        out,
        len.div_ceil(unit),
        &|u| (u * unit).min(len),
        f,
    )
}

/// [`split_scratch`] over `units` units of uneven length, unit `u`
/// starting at element `start(u)` (see [`Pieces`]): how
/// [`crate::conv2d`] cuts its output bands, one per image and group,
/// whatever each group's width.
pub(crate) fn split_scratch_at<T: Send>(
    ws: &mut Workspace,
    macs: u64,
    out: &mut [T],
    units: usize,
    start: &(dyn Fn(usize) -> usize + Sync),
    f: &ScratchSplitFn<'_, T>,
) -> TensorResult<()> {
    let parts = ws.team.as_ref().map_or(1, |t| t.parts_for(macs, units));
    let mut team = match ws.team.take() {
        Some(team) if parts > 1 => team,
        team => {
            ws.team = team;
            return f(0, out, ws);
        }
    };
    cap_obs::metrics().intra_op_splits.inc();
    let pieces = Pieces::new(out, units, parts, start);
    let first = FirstError::default();
    let run = |part: usize, ws: &mut Workspace| {
        // SAFETY: `run_parts` calls this once per part number.
        let (offset, piece) = unsafe { pieces.take(part) };
        first.record(part, f(offset, piece, ws));
    };
    team.run_parts(parts, &run, || run(0, ws));
    // Not restored if a part panicked: the team drops (joining its
    // idle helpers) and the owner builds a new one when it next wants
    // one.
    ws.team = Some(team);
    first.into_result()
}

/// The one split rule: how many parts a call of `macs`
/// multiply-accumulates that can be cut at `units` points runs as on
/// `threads` threads — at most one per thread and per unit, and none
/// below `min_part_macs`. 1 means inline.
fn part_count(threads: usize, macs: u64, units: usize, min_part_macs: u64) -> usize {
    let by_work = macs.checked_div(min_part_macs).unwrap_or(u64::MAX);
    let by_work = usize::try_from(by_work).unwrap_or(usize::MAX);
    threads.min(units).min(by_work).max(1)
}

/// Whether a kernel of `macs` multiply-accumulates would split on a
/// new team of `threads` (the rule every split follows, at the measured
/// minimum) — what an owner asks before it builds a team, so passes
/// whose largest kernel cannot fill two parts never spawn a helper.
pub fn worth_a_team(threads: usize, macs: u64) -> bool {
    part_count(threads, macs, usize::MAX, MIN_PART_MACS) > 1
}

/// Columns of one batch-1 GEMV step: the int8 GEMV walks four panels
/// at a time and the f32 row GEMV blocks of 16 rows, so a column piece
/// made of whole steps keeps every piece on the kernels' main bodies.
const GEMV_STEP: usize = 4 * PANEL;

/// A multiply over a range of output rows (or columns) into the
/// matching piece of the output.
pub type PieceFn<'a> = dyn Fn(Range<usize>, &mut [f32]) -> TensorResult<()> + Sync + 'a;

/// Run `multiply(rows, piece)` over the row-major `rows × n` output
/// `out` of a depth-`depth` multiply, cut by rows of `A` across `team`
/// where that pays, in whole [`ROW_BLOCK`]s (the microkernels' row
/// tile). `piece` holds rows `rows` of `out`; the caller multiplies
/// those rows of `A` into it, with its epilogue
/// [offset](crate::Epilogue::offset) by `rows.start`.
pub fn split_rows(
    team: Option<&mut Team>,
    depth: usize,
    n: usize,
    out: &mut [f32],
    multiply: &PieceFn<'_>,
) -> TensorResult<()> {
    let n = n.max(1);
    let parts = row_parts(team.as_deref(), depth, n, out.len());
    split(team, parts, out, ROW_BLOCK * n, &|offset, piece| {
        let r0 = offset / n;
        multiply(r0..r0 + piece.len() / n, piece)
    })
}

/// How many parts [`split_rows`] cuts the `len`-element output (rows of
/// `n`) of a depth-`depth` multiply into on `team`: 1 without one.
pub(crate) fn row_parts(team: Option<&Team>, depth: usize, n: usize, len: usize) -> usize {
    team.map_or(1, |t| {
        t.parts_for((len * depth) as u64, len.div_ceil(ROW_BLOCK * n.max(1)))
    })
}

/// Run `multiply(cols, piece)` over the row-major `rows × n` output
/// `out` of a multiply of depth `depth` (a batch-`rows` fc), cut by
/// panel-aligned column ranges across `team` where that pays. `piece`
/// is the row-major `rows × cols.len()` block of columns `cols`: for
/// one row, `out[cols]` itself; for more, a block of `stage` (resized;
/// the blocks of the parts one after the other), copied into `out`'s
/// columns once every part is done. `cols.start` is a whole number of
/// panels, so the caller's packed `B` for it starts at panel
/// `cols.start / PANEL` — `&b[cols.start * kp..]` for an int8 fc's
/// `Wᵀ` — with its epilogue [offset](crate::Epilogue::offset) by
/// `cols.start` columns; a batch-1 f32 fc's columns are rows `cols` of
/// its `W`. Columns are independent sums, so the cut changes no bit.
pub fn split_columns(
    team: Option<&mut Team>,
    depth: usize,
    rows: usize,
    out: &mut [f32],
    stage: &mut Vec<f32>,
    multiply: &PieceFn<'_>,
) -> TensorResult<()> {
    let rows = rows.max(1);
    let n = out.len() / rows;
    let macs = (out.len() * depth) as u64;
    let parts = team
        .as_deref()
        .map_or(1, |t| t.parts_for(macs, n.div_ceil(GEMV_STEP)));
    if rows == 1 {
        return split(team, parts, out, GEMV_STEP, &|offset, piece| {
            multiply(offset..offset + piece.len(), piece)
        });
    }
    if parts == 1 {
        return multiply(0..n, out);
    }
    // A part's block is `rows × width`, starting at `rows * cols.start`.
    let unit = rows * GEMV_STEP;
    stage.resize(out.len(), 0.0);
    split(team, parts, stage, unit, &|offset, block| {
        let start = offset / rows;
        multiply(start..start + block.len() / rows, block)
    })?;
    for part in 0..parts {
        let range = piece_range(stage.len(), unit, parts, part);
        let (start, width) = (range.start / rows, range.len() / rows);
        let block = &stage[range];
        for (row, src) in out
            .chunks_exact_mut(n)
            .zip(block.chunks_exact(width.max(1)))
        {
            row[start..start + width].copy_from_slice(src);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parts_follow_threads_units_and_work() {
        let team = Team::new(3);
        assert_eq!(team.threads(), 3);
        assert_eq!(team.parts_for(u64::MAX, 2), 2);
        assert_eq!(team.parts_for(u64::MAX, 100), 3);
        assert_eq!(team.parts_for(MIN_PART_MACS * 2, 100), 2);
        assert_eq!(team.parts_for(MIN_PART_MACS - 1, 100), 1);
        assert_eq!(team.parts_for(0, 0), 1);
        let eager = Team::new(2).with_min_part_macs(0);
        assert_eq!(eager.parts_for(0, 5), 2);
        assert_eq!(Team::new(0).threads(), 1);
    }

    #[test]
    fn pieces_partition_the_output() {
        // Every element is visited exactly once and by the piece that
        // owns its offset; pieces are whole units but the last.
        for (len, unit, parts) in [(10, 1, 3), (37, 4, 3), (32, 8, 2), (5, 8, 1), (9, 2, 5)] {
            let units = usize::div_ceil(len, unit);
            if parts > units {
                continue;
            }
            let mut out = vec![0u32; len];
            let mut team = Team::new(parts).with_min_part_macs(0);
            let f = |offset: usize, piece: &mut [u32]| {
                assert!(offset.is_multiple_of(unit), "offset {offset} unit {unit}");
                for (i, v) in piece.iter_mut().enumerate() {
                    *v += (offset + i) as u32 + 1;
                }
                Ok(())
            };
            split(Some(&mut team), usize::MAX, &mut out, unit, &f).unwrap();
            let want: Vec<u32> = (1..=len as u32).collect();
            assert_eq!(out, want, "len {len} unit {unit} parts {parts}");
        }
    }

    #[test]
    fn uneven_units_cut_at_their_starts() {
        // Units of 3, 5, 0, 4 and 1 elements (a conv's bands at uneven
        // group widths), cut across two and three threads.
        let starts = [0, 3, 8, 8, 12, 13];
        for threads in [2, 3] {
            let mut out = vec![0u32; 13];
            let mut ws = Workspace::new();
            ws.team = Some(Team::new(threads).with_min_part_macs(0));
            let f = |offset: usize, piece: &mut [u32], _: &mut Workspace| {
                assert!(starts.contains(&offset), "offset {offset}");
                assert!(starts.contains(&(offset + piece.len())));
                for (i, v) in piece.iter_mut().enumerate() {
                    *v += (offset + i) as u32 + 1;
                }
                Ok(())
            };
            split_scratch_at(&mut ws, u64::MAX, &mut out, 5, &|u| starts[u], &f).unwrap();
            assert_eq!(out, (1..=13).collect::<Vec<u32>>(), "{threads} threads");
        }
    }

    #[test]
    fn caller_panic_waits_for_every_helper() {
        // The caller's piece panics; the helper's piece starts only once
        // the caller is about to, then takes a while and writes through
        // a borrow of this frame. `split` must not unwind past the frame
        // before that write lands.
        let mut team = Team::new(2).with_min_part_macs(0);
        let late = AtomicU64::new(0);
        let (panicking, caller_panics) = std::sync::mpsc::sync_channel::<()>(1);
        let caller_panics = Mutex::new(caller_panics);
        let mut out = [0u8; 2];
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            split(Some(&mut team), usize::MAX, &mut out, 1, &|offset, _| {
                if offset == 0 {
                    panicking.send(()).unwrap();
                    panic!("caller part");
                }
                caller_panics.lock().unwrap().recv().unwrap();
                std::thread::sleep(Duration::from_millis(30));
                late.store(7, Ordering::Relaxed);
                Ok(())
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(late.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn helper_panic_resurfaces_and_the_team_stays_usable() {
        let mut team = Team::new(3).with_min_part_macs(0);
        let mut out = [0u8; 3];
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            split(Some(&mut team), usize::MAX, &mut out, 1, &|offset, _| {
                if offset == 2 {
                    panic!("part two");
                }
                Ok(())
            })
        }));
        let payload = outcome.expect_err("a helper panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part two"));
        split(
            Some(&mut team),
            usize::MAX,
            &mut out,
            1,
            &|offset, piece| {
                piece[0] = offset as u8 + 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn lowest_failing_piece_wins() {
        let mut team = Team::new(3).with_min_part_macs(0);
        let mut out = [0u8; 3];
        let err = split(Some(&mut team), usize::MAX, &mut out, 1, &|offset, _| {
            if offset >= 1 {
                Err(ShapeError::new(format!("part {offset}")))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), ShapeError::new("part 1").to_string());
    }

    #[test]
    fn ten_thousand_tiny_joins() {
        // Back-to-back fork-joins, each handing the helpers fresh data
        // and reading theirs back: a lost wake-up hangs here, a missing
        // release shows as a stale value.
        let mut team = Team::new(3).with_min_part_macs(0);
        let mut out = [0u64; 3];
        for round in 1..=10_000u64 {
            split(
                Some(&mut team),
                usize::MAX,
                &mut out,
                1,
                &|offset, piece| {
                    piece[0] = round * 10 + offset as u64;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(out, [round * 10, round * 10 + 1, round * 10 + 2]);
            if round % 100 == 0 {
                // Let the helpers park, so the next post must wake them.
                std::thread::sleep(SPIN * 2);
            }
        }
    }

    #[test]
    fn scratch_pieces_get_their_own_workspace() {
        let mut ws = Workspace::new();
        ws.team = Some(Team::new(2).with_min_part_macs(0));
        let mut out = [0usize; 4];
        split_scratch(&mut ws, u64::MAX, &mut out, 2, &|offset, piece, ws| {
            // Nothing inside a piece splits again.
            assert!(ws.team.is_none());
            ws.cols.resize(offset + 1, 100);
            piece.fill(offset);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, [0, 0, 2, 2]);
        assert!(ws.team.is_some(), "the team is handed back");
        assert_eq!(ws.cols.shape(), (1, 100));
        assert_eq!(ws.team.as_ref().unwrap().scratch_bytes(), 3 * 100 * 4);
    }

    #[test]
    fn scratch_split_below_the_minimum_runs_inline_and_keeps_the_team() {
        let mut ws = Workspace::new();
        ws.team = Some(Team::new(2));
        let mut out = [0u8; 8];
        split_scratch(&mut ws, MIN_PART_MACS, &mut out, 1, &|offset, piece, ws| {
            assert_eq!((offset, piece.len()), (0, 8));
            assert!(ws.team.is_some(), "an inline call keeps the team in place");
            Ok(())
        })
        .unwrap();
        assert_eq!(ws.team.as_ref().map(Team::threads), Some(2));
    }

    #[test]
    fn no_team_runs_inline_once() {
        let mut out = [0u8; 4];
        let calls = AtomicUsize::new(0);
        split(None, usize::MAX, &mut out, 1, &|offset, piece| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((offset, piece.len()), (0, 4));
            Ok(())
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
