//! Intra-network DAG-parallel execution: mode selection and the
//! critical-path analyzer.
//!
//! Data-parallel chunking ([`crate::ParallelEngine`]) cannot speed up a
//! single request — batch-1 latency is bounded by one forward pass.
//! But a branchy [`Network`] (Googlenet's inception
//! modules carry four independent branches per module) encodes
//! parallelism *inside* that pass. This module turns it into wall-clock:
//! the network executor can run independent DAG nodes concurrently on a
//! ready-queue scheduler (atomic indegree counters, a shared injector
//! queue, and a chained fast path for the single-successor case), with
//! every node writing its own arena slot and every worker — the calling
//! thread or a helper of the arena's persistent worker team — drawing
//! scratch from its own workspace, so concurrent branches share no
//! mutable state. The queue runs only the stages where the plan
//! branches (an inception module's four branches); the steps between
//! them — Googlenet's stem, concats and pools, a chain's every step —
//! have nothing to overlap, and there the same team splits their large
//! kernels instead (DESIGN.md §10).
//!
//! # Bitwise parity
//!
//! DAG-parallel output is **bitwise identical** to the sequential
//! schedule: each node's kernel runs exactly once, on exactly the same
//! inputs, into exactly the same arena slot — only *when* it runs
//! changes. The contract is proptested across kernel × fusion arms
//! (including pruned/CSR layers) in `crates/cnn/tests/dag_parity.rs`,
//! the same shape of guarantee PR 2/5/6 established for the
//! data-parallel engine, the SIMD kernels, and the fusion pass.
//!
//! # Selection
//!
//! Mirrors `CAP_TENSOR_KERNEL` / `CAP_TENSOR_FUSION`: the `CAP_CNN_DAG`
//! environment variable is read once per process — `off` or `auto` (the
//! default). It decides how many threads a pass gets; the plan decides
//! how they are used. `Auto` gives a pass the host's cores unless it is
//! already running inside a [`crate::ParallelEngine`] worker (stacking
//! them on data-parallelism would oversubscribe the machine). The pass
//! walks the plan's stages with them: a stage where two or more steps
//! are ready at some depth (`width > 1`) runs them on the ready queue,
//! every other step runs alone with its large kernels split across
//! them, and a chain with no kernel big enough to split runs on one.
//! `Off` is one thread per pass — the sequential escape hatch and the
//! baseline arm of the `dagpar` ablation. Any other value is fatal at
//! first use (see [`cap_tensor::knob`]). An arena made with
//! [`crate::ForwardArena::with_team`] pins its passes' thread count
//! instead, whatever the knob says.

use crate::network::{ForwardRecord, Network, INPUT};
use cap_tensor::knob::{Knob, KnobValue};
use cap_tensor::{ShapeError, TensorResult};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Duration;

/// Whether the network executor runs independent DAG branches in
/// parallel within a single forward pass.
///
/// ```
/// use cap_cnn::DagMode;
///
/// assert_eq!(DagMode::Auto.name(), "auto");
/// assert!(DagMode::Auto.enabled());
/// assert!(!DagMode::Off.enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMode {
    /// The host's cores per pass, unless inside a data-parallel engine
    /// worker: the ready queue in each stage where the plan branches
    /// (`width > 1`), kernel splits in every other step.
    Auto,
    /// One thread per pass: the sequential schedule, no kernel splits
    /// — the parity escape hatch and the baseline arm of the `dagpar`
    /// ablation experiment.
    Off,
}

impl KnobValue for DagMode {
    const VALUES: &'static [Self] = &[DagMode::Auto, DagMode::Off];

    fn name(self) -> &'static str {
        match self {
            DagMode::Auto => "auto",
            DagMode::Off => "off",
        }
    }
}

impl DagMode {
    /// Stable lower-case name as accepted by `CAP_CNN_DAG`.
    pub fn name(self) -> &'static str {
        KnobValue::name(self)
    }

    /// Whether this mode permits the DAG-parallel scheduler at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, DagMode::Off)
    }
}

/// `CAP_CNN_DAG`, defaulting to [`DagMode::Auto`].
static KNOB: Knob<DagMode> = Knob::new("CAP_CNN_DAG", |requested| {
    requested.unwrap_or(DagMode::Auto)
});

/// Force every subsequent forward pass into `mode` (or back to the
/// environment-driven selection with `None`).
///
/// A **test and ablation hook**, process-global like
/// [`crate::fusion::force`] and `cap_tensor::kernels::force`: the
/// `dagpar` experiment and the parity suite use it to run both arms in
/// one process. Outputs are identical either way — that is the DAG
/// parity guarantee — but concurrent tests asserting on a *specific*
/// mode must serialize around it.
pub fn force(mode: Option<DagMode>) {
    KNOB.force(mode);
}

/// The DAG execution mode governing this process's forward passes.
///
/// Resolved once from `CAP_CNN_DAG` (default `auto`); after that a
/// single relaxed atomic load plus a cached read. The [`force`]
/// override, when set, wins without touching the cache.
#[inline]
pub fn selected() -> DagMode {
    KNOB.selected()
}

/// Cached `std::thread::available_parallelism()` — consulted on every
/// `Auto` forward pass, so one syscall for the process lifetime.
pub(crate) fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// True while this thread is a [`crate::ParallelEngine`] worker
    /// executing its chunk loop. `DagMode::Auto` checks it to avoid
    /// stacking a pass's worker team on top of data-parallel threads.
    static IN_ENGINE_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// RAII flag marking the current thread as a data-parallel engine
/// worker for its lifetime; `DagMode::Auto` gives passes on such
/// threads one thread.
pub(crate) struct EngineWorkerGuard {
    was: bool,
}

impl EngineWorkerGuard {
    pub(crate) fn enter() -> Self {
        let was = IN_ENGINE_WORKER.with(|f| f.replace(true));
        Self { was }
    }
}

impl Drop for EngineWorkerGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_ENGINE_WORKER.with(|f| f.set(was));
    }
}

/// Whether the current thread is inside a data-parallel engine worker.
pub(crate) fn in_engine_worker() -> bool {
    IN_ENGINE_WORKER.with(|f| f.get())
}

/// Critical-path analysis of one measured forward pass: the theoretical
/// batch-1 latency floor of a network on given per-node times.
///
/// Built from a [`ForwardRecord`] (per-node wall-clock durations in
/// execution order, always unfused — see [`Network::forward_timed`]) by
/// a memoized longest-path DFS over the network's DAG: a node's finish
/// time is its own duration plus the slowest of its producers'. The
/// longest finish time over all nodes is the **critical path** — no
/// node scheduler, however wide, can complete the pass faster, because
/// those nodes depend on each other serially. The gap between
/// `total_work` (the sequential latency) and `critical_path` is exactly
/// what the DAG-parallel executor can reclaim.
///
/// `cap_obs::DagSummary` exports the floor next to the achieved
/// latency in a `ProfileReport`.
///
/// ```
/// use cap_cnn::layer::{ConcatLayer, PoolLayer, PoolMode, ReluLayer};
/// use cap_cnn::network::{Network, INPUT};
/// use cap_cnn::CriticalPathReport;
/// use cap_tensor::Tensor4;
///
/// // Two parallel branches joined by a concat.
/// let mut net = Network::new("fork", (1, 4, 4));
/// let a = net.add_layer(Box::new(ReluLayer::new("a")), &[INPUT]).unwrap();
/// let b = net
///     .add_layer(Box::new(PoolLayer::new("b", PoolMode::Max, 1, 0, 1)), &[INPUT])
///     .unwrap();
/// net.add_layer(Box::new(ConcatLayer::new("cat")), &[a, b]).unwrap();
///
/// let rec = net.forward_timed(&Tensor4::zeros(1, 1, 4, 4)).unwrap();
/// let cp = CriticalPathReport::from_forward_record(&net, &rec).unwrap();
///
/// // The floor counts the slower branch plus the join — never all three
/// // nodes — so it is bounded by the sequential total on both sides.
/// assert!(cp.critical_path <= cp.total_work);
/// assert_eq!(cp.path.last().map(String::as_str), Some("cat"));
/// assert!(cp.max_speedup() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// Network name the record was measured on.
    pub network: String,
    /// Sum of all per-node durations — the sequential batch-1 latency.
    pub total_work: Duration,
    /// Longest dependency chain through the DAG — the theoretical
    /// batch-1 latency floor for any node-parallel schedule.
    pub critical_path: Duration,
    /// Layer names on the critical path, in execution order.
    pub path: Vec<String>,
}

impl CriticalPathReport {
    /// Analyze one timed forward pass against the network's DAG.
    ///
    /// Errors when `rec` does not carry exactly one timing per network
    /// node (a [`ForwardRecord`] from a *different* network, or from a
    /// network mutated since).
    pub fn from_forward_record(net: &Network, rec: &ForwardRecord) -> TensorResult<Self> {
        let durs: Vec<Duration> = rec.timings.iter().map(|t| t.duration).collect();
        if durs.len() != net.len() {
            return Err(ShapeError::new(format!(
                "critical path: {} timings for a {}-node network",
                durs.len(),
                net.len()
            )));
        }
        // Memoized longest-path DFS (the `MaxDepthExec` shape): finish
        // time of a node is its duration plus the latest finish among
        // its producers; `best_in` remembers which producer realized
        // the max so the path can be read back.
        let n = net.len();
        let mut finish: Vec<Option<Duration>> = vec![None; n];
        let mut best_in: Vec<Option<usize>> = vec![None; n];
        fn dfs(
            net: &Network,
            durs: &[Duration],
            finish: &mut [Option<Duration>],
            best_in: &mut [Option<usize>],
            i: usize,
        ) -> Duration {
            if let Some(f) = finish[i] {
                return f;
            }
            let mut latest = Duration::ZERO;
            for inp in net.inputs_of(i) {
                if inp == INPUT {
                    continue;
                }
                let f = dfs(net, durs, finish, best_in, inp.0);
                if f > latest {
                    latest = f;
                    best_in[i] = Some(inp.0);
                }
            }
            let f = latest + durs[i];
            finish[i] = Some(f);
            f
        }
        let mut span = Duration::ZERO;
        let mut sink = None;
        for i in 0..n {
            let f = dfs(net, &durs, &mut finish, &mut best_in, i);
            if f > span || sink.is_none() {
                span = span.max(f);
                if finish[i] == Some(span) {
                    sink = Some(i);
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = sink;
        while let Some(i) = cur {
            path.push(rec.timings[i].name.clone());
            cur = best_in[i];
        }
        path.reverse();
        let total_work: Duration = durs.iter().sum();
        Ok(Self {
            network: net.name().to_string(),
            total_work,
            critical_path: span,
            path,
        })
    }

    /// The theoretical latency floor (alias for
    /// [`CriticalPathReport::critical_path`], the operative name in
    /// reports).
    pub fn latency_floor(&self) -> Duration {
        self.critical_path
    }

    /// Upper bound on intra-network parallel speedup:
    /// `total_work / critical_path` (1.0 for a pure chain).
    pub fn max_speedup(&self) -> f64 {
        let cp = self.critical_path.as_secs_f64();
        if cp <= 0.0 {
            1.0
        } else {
            (self.total_work.as_secs_f64() / cp).max(1.0)
        }
    }

    /// Achieved parallel efficiency of a measured latency against the
    /// floor: `critical_path / achieved`. 1.0 means the scheduler hit
    /// the floor; values can exceed 1.0 only through measurement noise
    /// (the floor itself is measured, not derived).
    pub fn efficiency(&self, achieved: Duration) -> f64 {
        let a = achieved.as_secs_f64();
        if a <= 0.0 {
            0.0
        } else {
            self.critical_path.as_secs_f64() / a
        }
    }

    /// Package the floor against a measured latency as a
    /// [`cap_obs::DagSummary`], ready to attach to a profile via
    /// [`cap_obs::ProfileReport::with_dag_summary`] — this is how the
    /// `profile`/`dagpar` experiments report floor vs. achieved.
    pub fn summary(&self, achieved: Duration, workers: u64) -> cap_obs::DagSummary {
        cap_obs::DagSummary {
            critical_path: self.critical_path,
            total_work: self.total_work,
            achieved,
            workers,
        }
    }

    /// Render the analysis as a short text block (the `dagpar`
    /// experiment embeds it).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "critical path ({}): {:.3} ms floor vs {:.3} ms sequential work \
             (max speedup {:.2}x, {} nodes on path)",
            self.network,
            self.critical_path.as_secs_f64() * 1e3,
            self.total_work.as_secs_f64() * 1e3,
            self.max_speedup(),
            self.path.len(),
        )
        .unwrap();
        writeln!(out, "path: {}", self.path.join(" -> ")).unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConcatLayer, ConvLayer, PoolLayer, PoolMode, ReluLayer};
    use cap_tensor::{init::xavier_uniform, Conv2dParams, Tensor4};

    #[test]
    fn env_values_parse_and_unknown_is_an_error() {
        assert_eq!(KNOB.parse(" OFF "), Ok(Some(DagMode::Off)));
        assert_eq!(KNOB.parse("auto"), Ok(Some(DagMode::Auto)));
        assert_eq!(KNOB.parse(""), Ok(None));
        for removed in ["bogus", "on"] {
            let message = KNOB.parse(removed).unwrap_err();
            assert!(message.contains("CAP_CNN_DAG"), "{message}");
            assert!(message.contains(removed), "{message}");
            assert!(message.contains("auto, off"), "{message}");
        }
    }

    #[test]
    fn mode_enablement() {
        assert!(DagMode::Auto.enabled());
        assert!(!DagMode::Off.enabled());
    }

    #[test]
    fn engine_worker_guard_nests() {
        assert!(!in_engine_worker());
        {
            let _a = EngineWorkerGuard::enter();
            assert!(in_engine_worker());
            {
                let _b = EngineWorkerGuard::enter();
                assert!(in_engine_worker());
            }
            assert!(in_engine_worker());
        }
        assert!(!in_engine_worker());
    }

    /// input → convA → relu ─┐
    /// input → convB ────────┴ concat
    fn branchy() -> Network {
        let mut net = Network::new("branchy", (3, 6, 6));
        let p = Conv2dParams::new(3, 2, 3, 1, 1);
        let a = net
            .add_layer(
                Box::new(ConvLayer::new("a", p, xavier_uniform(2, 27, 1), vec![0.1; 2]).unwrap()),
                &[INPUT],
            )
            .unwrap();
        let ar = net.add_layer(Box::new(ReluLayer::new("ar")), &[a]).unwrap();
        let b = net
            .add_layer(
                Box::new(ConvLayer::new("b", p, xavier_uniform(2, 27, 2), vec![-0.1; 2]).unwrap()),
                &[INPUT],
            )
            .unwrap();
        net.add_layer(Box::new(ConcatLayer::new("cat")), &[ar, b])
            .unwrap();
        net
    }

    #[test]
    fn critical_path_on_chain_equals_total() {
        let mut net = Network::new("chain", (1, 4, 4));
        net.add_sequential(Box::new(ReluLayer::new("r1"))).unwrap();
        net.add_sequential(Box::new(PoolLayer::new("p1", PoolMode::Max, 2, 0, 2)))
            .unwrap();
        let rec = net.forward_timed(&Tensor4::zeros(1, 1, 4, 4)).unwrap();
        let cp = CriticalPathReport::from_forward_record(&net, &rec).unwrap();
        assert_eq!(cp.critical_path, cp.total_work);
        assert_eq!(cp.path, vec!["r1".to_string(), "p1".to_string()]);
        assert!((cp.max_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_on_fork_excludes_lighter_branch() {
        let net = branchy();
        let rec = net.forward_timed(&Tensor4::zeros(1, 3, 6, 6)).unwrap();
        let cp = CriticalPathReport::from_forward_record(&net, &rec).unwrap();
        assert!(cp.critical_path <= cp.total_work);
        // The path ends at the join and includes exactly one branch.
        assert_eq!(cp.path.last().unwrap(), "cat");
        assert!(cp.path.len() < net.len());
        let txt = cp.to_text();
        assert!(txt.contains("critical path"), "{txt}");
        assert!(txt.contains("-> cat"), "{txt}");
    }

    #[test]
    fn critical_path_rejects_mismatched_record() {
        let net = branchy();
        let mut other = Network::new("other", (1, 4, 4));
        other.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
        let rec = other.forward_timed(&Tensor4::zeros(1, 1, 4, 4)).unwrap();
        assert!(CriticalPathReport::from_forward_record(&net, &rec).is_err());
    }

    #[test]
    fn efficiency_brackets() {
        let net = branchy();
        let rec = net.forward_timed(&Tensor4::zeros(1, 3, 6, 6)).unwrap();
        let cp = CriticalPathReport::from_forward_record(&net, &rec).unwrap();
        assert!((cp.efficiency(cp.critical_path) - 1.0).abs() < 1e-9);
        assert!(cp.efficiency(cp.critical_path * 2) < 0.51);
        assert_eq!(cp.efficiency(Duration::ZERO), 0.0);
    }
}
