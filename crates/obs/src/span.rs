//! Span tracing: the [`Tracer`] trait and its two standard
//! implementations.
//!
//! A *span* is one timed region of the pipeline — a layer's forward
//! pass, a parallel worker's chunk loop, a configuration-grid sweep.
//! Instrumented code is generic over `T: Tracer`; callers that want
//! visibility pass a [`CollectingTracer`], everyone else gets
//! [`NoopTracer`] and pays nothing (see the crate docs for the
//! zero-overhead contract).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Next process-local thread id to hand out (ids start at 1 so the
/// thread-local `0` can mean "not yet assigned").
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// A small, stable, process-local id for the calling thread.
///
/// Ids are assigned on first use, in first-call order, starting at 1 —
/// dense enough to use as Chrome-trace track ids, unlike
/// [`std::thread::ThreadId`] which has no stable integer form. The
/// lookup is one thread-local read (no allocation, no lock), so tracers
/// can stamp every span with it.
#[inline]
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Which part of the pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanScope {
    /// One whole forward pass through a network (all layers).
    Forward,
    /// One DAG node (layer) inside a forward pass.
    Layer,
    /// One data-parallel worker's chunk-range loop.
    Worker,
    /// One served request's whole lifecycle (enqueue → completion) on
    /// its tenant's track; virtual-clock timestamped by the router.
    Request,
    /// The queue-wait portion of a served request (enqueue → dispatch),
    /// nested inside its [`SpanScope::Request`] span.
    QueueWait,
    /// One batch's assembly window (head-of-line arrival → dispatch) on
    /// the tenant's track.
    BatchAssembly,
    /// One dispatched batch's virtual service time on a router worker
    /// slot (dispatch → completion).
    ServeCompute,
}

impl SpanScope {
    /// Stable lower-case tag for exporters (`"layer"`, `"worker"`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            SpanScope::Forward => "forward",
            SpanScope::Layer => "layer",
            SpanScope::Worker => "worker",
            SpanScope::Request => "request",
            SpanScope::QueueWait => "queue_wait",
            SpanScope::BatchAssembly => "batch_assembly",
            SpanScope::ServeCompute => "serve_compute",
        }
    }
}

/// Borrowed description of a span, passed to [`Tracer`] hooks.
///
/// Everything is borrowed or `Copy` so that building one performs no
/// allocation; a tracer that needs to retain the data (like
/// [`CollectingTracer`]) copies what it wants on exit.
#[derive(Debug, Clone, Copy)]
pub struct SpanInfo<'a> {
    /// Pipeline region this span covers.
    pub scope: SpanScope,
    /// Span name: the layer name, `"worker"`, `"evaluate_grid"`, ...
    pub name: &'a str,
    /// Secondary tag: the layer kind (`"conv"`, `"fc"`, ...) for layer
    /// spans, empty otherwise.
    pub kind: &'a str,
    /// NCHW shape of the span's output (layer/forward spans), or a
    /// scope-specific size vector (e.g. `[versions, configs, batches, 0]`
    /// for grid spans). All zeros when not applicable.
    pub shape: [usize; 4],
    /// Execution index: node index for layers, worker index for workers,
    /// 0 otherwise.
    pub index: usize,
}

impl<'a> SpanInfo<'a> {
    /// A span with only a scope and name; shape and index zeroed.
    pub fn new(scope: SpanScope, name: &'a str) -> Self {
        Self {
            scope,
            name,
            kind: "",
            shape: [0; 4],
            index: 0,
        }
    }
}

/// Span enter/exit hooks.
///
/// Implementations must be cheap to call and thread-safe: layer spans
/// fire on every forward pass, and `ParallelEngine` workers report
/// concurrently. The trait is dyn-compatible, but instrumented code
/// takes `T: Tracer` generically so that the no-op implementation
/// monomorphizes away entirely.
pub trait Tracer: Send + Sync {
    /// Whether this tracer wants spans at all. Hot paths consult this
    /// before reading the clock; returning `false` (statically, like
    /// [`NoopTracer`]) removes the instrumentation at compile time.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// A span is about to start. Default: do nothing.
    #[inline]
    fn span_enter(&self, _info: &SpanInfo<'_>) {}

    /// A span finished after `elapsed`.
    fn span_exit(&self, info: &SpanInfo<'_>, elapsed: Duration);

    /// A span with an *externally supplied* timeline position: `start`
    /// is an offset on the caller's own epoch and `track` is the
    /// caller's track id (in place of the recording thread's
    /// [`current_tid`]). This is how the `cap-serve` router reports
    /// virtual-clock request-lifecycle spans — the router's clock, not
    /// the wall clock, owns both coordinates, so same seed ⇒ identical
    /// spans.
    ///
    /// The default forwards to [`Tracer::span_exit`], discarding the
    /// placement — correct for aggregating tracers that only care about
    /// durations; timeline-retaining tracers ([`CollectingTracer`])
    /// override it to keep `start`/`track` verbatim.
    #[inline]
    fn span_at(&self, info: &SpanInfo<'_>, start: Duration, elapsed: Duration, track: u64) {
        let _ = (start, track);
        self.span_exit(info, elapsed);
    }
}

/// Blanket impl so instrumented generics accept `&T` as well as `T`.
impl<T: Tracer + ?Sized> Tracer for &T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn span_enter(&self, info: &SpanInfo<'_>) {
        (**self).span_enter(info)
    }

    #[inline]
    fn span_exit(&self, info: &SpanInfo<'_>, elapsed: Duration) {
        (**self).span_exit(info, elapsed)
    }

    #[inline]
    fn span_at(&self, info: &SpanInfo<'_>, start: Duration, elapsed: Duration, track: u64) {
        (**self).span_at(info, start, elapsed, track)
    }
}

/// The disabled tracer: every hook is an empty inline function and
/// [`Tracer::enabled`] is statically `false`, so instrumented code
/// monomorphized over `NoopTracer` contains no tracing residue — no
/// clock reads, no branches that survive constant folding, and no
/// allocation (verified by `cap-cnn`'s allocator-counting test).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_exit(&self, _info: &SpanInfo<'_>, _elapsed: Duration) {}
}

/// An owned copy of one finished span, as retained by
/// [`CollectingTracer`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Pipeline region.
    pub scope: SpanScope,
    /// Span name (layer name, `"worker"`, ...).
    pub name: String,
    /// Layer kind tag, empty for non-layer spans.
    pub kind: String,
    /// Output shape / size vector (see [`SpanInfo::shape`]).
    pub shape: [usize; 4],
    /// Execution index (node or worker index).
    pub index: usize,
    /// Wall-clock time spent inside the span.
    pub elapsed: Duration,
    /// Wall-clock start of the span, as an offset from the recording
    /// tracer's epoch (its construction instant). Spans recorded by the
    /// same tracer therefore share a timeline — what
    /// [`crate::trace_export::chrome_trace_json`] lays out as `ts`.
    ///
    /// Derived on exit as `epoch.elapsed() - elapsed`, since
    /// instrumented code only reports finished spans.
    pub start: Duration,
    /// Process-local id of the thread the span ran on (see
    /// [`current_tid`]): the Chrome-trace track id. Spans from
    /// different [`ParallelEngine`](https://docs.rs/cap-cnn) workers
    /// carry different `tid`s because each worker is its own thread.
    pub tid: u64,
}

/// A tracer that records every finished span for later aggregation
/// (feed the records to [`crate::ProfileReport::from_spans`]).
///
/// Recording allocates (the span's name/kind are copied into owned
/// strings and pushed onto a mutex-guarded `Vec`) — that cost is the
/// tracer's, by design: the *instrumented code* stays allocation-free
/// and the collection overhead appears only when profiling is on.
///
/// ```
/// use cap_obs::{CollectingTracer, SpanInfo, SpanScope, Tracer};
/// use std::time::Duration;
///
/// let tracer = CollectingTracer::new();
/// tracer.span_exit(
///     &SpanInfo::new(SpanScope::Layer, "conv1"),
///     Duration::from_micros(250),
/// );
/// let spans = tracer.take_spans();
/// assert_eq!(spans.len(), 1);
/// assert_eq!(spans[0].name, "conv1");
/// assert!(spans[0].tid > 0); // stamped with the recording thread's id
/// ```
#[derive(Debug)]
pub struct CollectingTracer {
    /// Construction instant: the zero point of every retained span's
    /// [`SpanRecord::start`] offset.
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for CollectingTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingTracer {
    /// An empty collector; its construction instant becomes the epoch
    /// that retained spans' [`SpanRecord::start`] offsets count from.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// True if no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return all recorded spans (collection order).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }

    /// Clone of all recorded spans, leaving them in place.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

impl Tracer for CollectingTracer {
    fn span_exit(&self, info: &SpanInfo<'_>, elapsed: Duration) {
        // The span just finished, so it started `elapsed` ago;
        // saturating guards spans reported before the tracer's epoch
        // (possible only if a tracer is created mid-span).
        let start = self.epoch.elapsed().saturating_sub(elapsed);
        self.span_at(info, start, elapsed, current_tid());
    }

    /// Retains the caller's `start` offset and `track` id verbatim —
    /// the hook virtual-clock instrumentation (the `cap-serve` router)
    /// relies on for reproducible timelines.
    fn span_at(&self, info: &SpanInfo<'_>, start: Duration, elapsed: Duration, track: u64) {
        let record = SpanRecord {
            scope: info.scope,
            name: info.name.to_string(),
            kind: info.kind.to_string(),
            shape: info.shape,
            index: info.index,
            elapsed,
            start,
            tid: track,
        };
        self.spans.lock().expect("span lock poisoned").push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopTracer.enabled());
        // And via the blanket &T impl, as generic call sites see it.
        fn enabled_behind_ref<T: Tracer + ?Sized>(tracer: &T) -> bool {
            Tracer::enabled(&tracer)
        }
        assert!(!enabled_behind_ref(&NoopTracer));
    }

    #[test]
    fn collector_records_in_order() {
        let t = CollectingTracer::new();
        assert!(t.is_empty());
        for (i, name) in ["conv1", "relu1", "pool1"].iter().enumerate() {
            let mut info = SpanInfo::new(SpanScope::Layer, name);
            info.index = i;
            t.span_exit(&info, Duration::from_micros(i as u64 + 1));
        }
        assert_eq!(t.len(), 3);
        let spans = t.take_spans();
        assert!(t.is_empty());
        assert_eq!(spans[0].name, "conv1");
        assert_eq!(spans[2].index, 2);
        assert_eq!(spans[1].elapsed, Duration::from_micros(2));
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let t = CollectingTracer::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let mut info = SpanInfo::new(SpanScope::Worker, "worker");
                    info.index = w;
                    t.span_exit(&info, Duration::from_micros(10 * (w as u64 + 1)));
                });
            }
        });
        let mut spans = t.take_spans();
        spans.sort_by_key(|s| s.index);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].elapsed, Duration::from_micros(40));
    }

    #[test]
    fn scope_tags_are_stable() {
        assert_eq!(SpanScope::Layer.tag(), "layer");
        assert_eq!(SpanScope::ServeCompute.tag(), "serve_compute");
    }

    #[test]
    fn collector_stamps_start_offsets_and_tid() {
        let t = CollectingTracer::new();
        let info = SpanInfo::new(SpanScope::Layer, "conv1");
        t.span_exit(&info, Duration::from_micros(10));
        std::thread::sleep(Duration::from_millis(2));
        t.span_exit(&info, Duration::from_micros(10));
        let spans = t.take_spans();
        assert_eq!(spans[0].tid, current_tid());
        assert_eq!(spans[1].tid, spans[0].tid, "same thread, same tid");
        assert!(
            spans[1].start > spans[0].start,
            "later span starts later on the tracer's timeline"
        );
        // An elapsed longer than the tracer's whole lifetime saturates
        // to a zero start instead of wrapping.
        t.span_exit(&info, Duration::from_secs(3600));
        assert_eq!(t.take_spans()[0].start, Duration::ZERO);
    }

    #[test]
    fn tids_are_distinct_per_thread_and_stable_within_one() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, other);
        assert!(here > 0 && other > 0);
    }
}
