//! The benchmark-owned span recorder used by the traced run.
//!
//! Spans are opened here, in benchmark code, around each public call
//! into a layer; where an entry point already accepts a tracer, the
//! recorder is passed in (see `adapter.rs`) so the program's own
//! forward / layer / worker spans nest under the benchmark's. Spans
//! stay in memory until the run ends. Nothing in this file touches the
//! program under test.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a span covers. `Op` spans are the benchmark's own; the rest are
/// reported by the program through the tracer it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Benchmark-owned span around one public call.
    Op,
    /// One whole forward pass, reported by the executor.
    Forward,
    /// One executed plan step (layer), reported by the executor.
    Layer,
    /// One engine worker's chunk loop.
    Worker,
    /// A span placed on the router's virtual clock (request lifecycle);
    /// its coordinates are not wall time and never enter a self-time.
    Virtual,
}

/// One finished span. `start_ns`/`end_ns` are offsets from the
/// recorder's epoch; `parent` is a span id (0 = root); `op` is shared
/// by every span of one benchmark op.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub scope: Scope,
    pub name: u32,
    pub kind: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a benchmark-owned span that is still open.
#[derive(Debug)]
pub struct OpenSpan {
    id: u32,
    parent: u32,
    name: u32,
    start_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    next_id: u32,
    /// Op id and span id of the innermost open benchmark span: program
    /// spans reported meanwhile hang under it.
    current_op: u32,
    current_parent: u32,
}

impl State {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }
}

pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder lock poisoned: a traced op panicked")
    }

    /// Open a benchmark-owned span for op number `op`.
    pub fn open(&self, name: &str, op: u32) -> OpenSpan {
        let mut st = self.lock();
        let id = st.fresh_id();
        let name = st.intern(name);
        let parent = st.current_parent;
        st.current_op = op;
        st.current_parent = id;
        drop(st);
        // Clock read last, so the span covers the call and not the
        // recorder's own bookkeeping.
        OpenSpan {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a benchmark-owned span; returns its duration.
    pub fn close(&self, open: OpenSpan) -> Duration {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let op = st.current_op;
        st.current_parent = open.parent;
        st.spans.push(Span {
            id: open.id,
            parent: open.parent,
            op,
            scope: Scope::Op,
            name: open.name,
            kind: 0,
            start_ns: open.start_ns,
            end_ns,
            tid: 0,
        });
        Duration::from_nanos(end_ns - open.start_ns)
    }

    /// A span the program reports on exit: it ended now and lasted
    /// `elapsed`. Hangs under the innermost open benchmark span; spans it
    /// encloses (reported earlier, by the same rule) are re-parented to
    /// it, which is how layer spans end up under their forward span and
    /// forward spans under their worker span.
    pub fn finished(&self, scope: Scope, name: &str, kind: &str, elapsed: Duration, tid: u64) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(elapsed.as_nanos() as u64);
        let mut st = self.lock();
        let id = st.fresh_id();
        let (name, kind) = (st.intern(name), st.intern(kind));
        let (op, parent) = (st.current_op, st.current_parent);
        if matches!(scope, Scope::Forward | Scope::Worker) {
            // A forward pass runs its steps on its own thread or, under
            // the DAG scheduler, on helpers while it blocks; either way
            // it encloses them in time. Engine workers run concurrent
            // forwards, so there only same-thread spans are adopted.
            let cross_thread = scope == Scope::Forward;
            for s in st.spans.iter_mut().rev() {
                if s.op != op {
                    break;
                }
                let inside = s.start_ns >= start_ns && s.end_ns <= end_ns;
                let adoptable = s.parent == parent
                    && inside
                    && (s.tid == tid || (cross_thread && s.scope == Scope::Layer));
                if adoptable {
                    s.parent = id;
                }
            }
        }
        st.spans.push(Span {
            id,
            parent,
            op,
            scope,
            name,
            kind,
            start_ns,
            end_ns,
            tid,
        });
    }

    /// A span on the router's virtual clock, kept verbatim.
    pub fn virtual_span(&self, name: &str, start: Duration, elapsed: Duration, track: u64) {
        let mut st = self.lock();
        let id = st.fresh_id();
        let name = st.intern(name);
        let (op, parent) = (st.current_op, st.current_parent);
        st.spans.push(Span {
            id,
            parent,
            op,
            scope: Scope::Virtual,
            name,
            kind: 0,
            start_ns: start.as_nanos() as u64,
            end_ns: (start + elapsed).as_nanos() as u64,
            tid: track,
        });
    }

    /// Take every recorded span plus the name table.
    pub fn take(&self) -> Trace {
        let mut st = self.lock();
        Trace {
            spans: std::mem::take(&mut st.spans),
            names: st.names.clone(),
        }
    }
}

/// The finished spans of a traced run.
pub struct Trace {
    pub spans: Vec<Span>,
    pub names: Vec<String>,
}

impl Trace {
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// One line per span: `id parent op scope name kind start_ns end_ns tid`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tscope\tname\tkind\tstart_ns\tend_ns\ttid\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\n",
                s.id,
                s.parent,
                s.op,
                s.scope,
                self.name(s.name),
                self.name(s.kind),
                s.start_ns,
                s.end_ns,
                s.tid
            ));
        }
        out
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of its interval that
/// `children` cover (children are clipped to the span; overlapping
/// children, e.g. branches on two threads, count once).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.clamp(s, e), ce.clamp(s, e)))
        .filter(|&(cs, ce)| ce > cs)
        .collect();
    (e - s) - union_ns(clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_interval_union() {
        // Two disjoint children.
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two threads) count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested and touching children.
        assert_eq!(self_time_ns((0, 100), &[(0, 50), (10, 20), (50, 100)]), 0);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        // No children: all self.
        assert_eq!(self_time_ns((5, 9), &[]), 4);
        assert_eq!(union_ns(vec![(3, 4), (1, 2), (2, 3)]), 3);
    }

    #[test]
    fn program_spans_nest_under_the_benchmark_span() {
        let rec = Recorder::new();
        let open = rec.open("cnn.forward", 7);
        std::thread::sleep(Duration::from_millis(3));
        rec.finished(Scope::Layer, "conv1", "conv", Duration::from_millis(1), 1);
        rec.finished(Scope::Layer, "fc", "fc", Duration::from_millis(1), 2);
        rec.finished(Scope::Forward, "net", "", Duration::from_millis(3), 1);
        rec.close(open);
        let trace = rec.take();
        assert_eq!(trace.spans.len(), 4);
        let op = trace.spans.iter().find(|s| s.scope == Scope::Op).unwrap();
        let fwd = trace
            .spans
            .iter()
            .find(|s| s.scope == Scope::Forward)
            .unwrap();
        assert_eq!(op.parent, 0);
        assert_eq!(fwd.parent, op.id);
        for layer in trace.spans.iter().filter(|s| s.scope == Scope::Layer) {
            // Both layers, one on a helper thread, hang under the forward.
            assert_eq!(layer.parent, fwd.id);
            assert_eq!(layer.op, 7);
        }
        assert_eq!(trace.name(op.name), "cnn.forward");
    }

    #[test]
    fn worker_spans_adopt_only_their_own_thread() {
        let rec = Recorder::new();
        let open = rec.open("cnn.engine_run", 0);
        std::thread::sleep(Duration::from_millis(2));
        rec.finished(Scope::Forward, "net", "", Duration::from_millis(1), 11);
        rec.finished(Scope::Forward, "net", "", Duration::from_millis(1), 12);
        rec.finished(Scope::Worker, "worker", "", Duration::from_millis(2), 11);
        rec.close(open);
        let t = rec.take();
        let worker = t.spans.iter().find(|s| s.scope == Scope::Worker).unwrap();
        let fwd: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.scope == Scope::Forward)
            .collect();
        assert_eq!(fwd[0].parent, worker.id);
        assert_ne!(fwd[1].parent, worker.id);
    }
}
