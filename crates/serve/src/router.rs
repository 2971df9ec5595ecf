//! The dynamic-batching request router: per-tenant bounded queues,
//! admission control, SLO-driven adaptive batch sizing, and dispatch to
//! the shared [`ParallelEngine`] worker pool — all scheduled on a
//! virtual clock so every run of the same trace is bit-identical.
//!
//! # Execution model
//!
//! ```text
//! trace ──▶ admission ──▶ per-tenant queue ──▶ batcher ──▶ worker pool
//!            (bounded,      (FIFO, depth       (deadline     (ParallelEngine
//!             shed+count)    gauged)            or full)      pooled state)
//! ```
//!
//! The router advances a **virtual clock** over three event sources:
//! trace arrivals, batch completions, and head-of-line batching
//! deadlines. Scheduling state (queue contents, worker occupancy,
//! adaptive batch caps) changes only at these events, and service times
//! come from each tenant's deterministic
//! [`ServiceModel`](crate::tenant::ServiceModel) — so the
//! admitted / shed / batch counts and every latency quantile are a pure
//! function of `(trace, configs)`. Real forward passes still execute
//! for every dispatched batch through the engine's pooled worker state;
//! their outputs are bitwise-identical to `run_batched` on the same
//! images (the serving parity test), and their wall-clock cost is
//! visible through the ordinary forward-pass metrics, but **no
//! scheduling decision ever reads a wall clock**.
//!
//! # Backpressure and shedding
//!
//! Each tenant's queue is bounded by `queue_cap`; an arrival that finds
//! the queue full is shed immediately and counted (`serve_shed` in
//! [`cap_obs::metrics()`], per-tenant in the report). Nothing in the
//! router blocks: overload degrades into a higher shed rate while
//! admitted requests keep their latency distribution — the
//! `shedding_bounds_queue` test drives the system at many times its
//! capacity and asserts both.

use crate::telemetry::{self, Series, TenantTelemetry};
use crate::tenant::TenantConfig;
use crate::trace::ArrivalEvent;
use cap_cnn::{Network, ParallelEngine};
use cap_obs::span::{NoopTracer, Tracer};
use cap_obs::{SloPolicy, SloTracker, TimeSeries};
use cap_tensor::{ShapeError, Tensor4, TensorResult};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Router-level configuration (tenant-independent knobs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Simulated worker slots executing batches concurrently (virtual
    /// time); each dispatched batch also runs for real on the engine's
    /// pooled state.
    pub workers: usize,
    /// Keep every request's output logits in the report (serving parity
    /// tests); off for load sweeps where only counts matter.
    pub collect_outputs: bool,
    /// Telemetry rollup window, virtual µs (see
    /// [`TenantTelemetry`]).
    pub window_us: u64,
    /// Retained telemetry windows per tenant (older windows are
    /// evicted, keeping memory bounded on long traces).
    pub series_windows: usize,
    /// SLO availability target for error-budget accounting: the
    /// fraction of requests that must complete within the tenant's
    /// latency SLO without being shed. Burn-rate thresholds follow
    /// [`SloPolicy::default`].
    pub slo_target: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            collect_outputs: false,
            window_us: 50_000,
            series_windows: 256,
            slo_target: 0.99,
        }
    }
}

/// An admitted request waiting in (or dispatched from) a tenant queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    arrival_us: u64,
}

/// A dispatched batch occupying a worker slot until `finish_us`.
#[derive(Debug)]
struct InFlight {
    finish_us: u64,
    dispatch_us: u64,
    tenant: usize,
    reqs: Vec<Pending>,
}

/// One request's served output (collected when
/// [`RouterConfig::collect_outputs`] is set).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServedOutput {
    /// Tenant index.
    pub tenant: usize,
    /// Per-tenant request sequence number.
    pub seq: u64,
    /// Arrival virtual time, µs.
    pub arrival_us: u64,
    /// Completion virtual time, µs.
    pub completion_us: u64,
    /// The network's output logits for this request's image.
    pub logits: Vec<f32>,
}

/// Per-tenant serving outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests offered by the trace.
    pub offered: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests completed (dispatched and finished).
    pub completed: u64,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
    /// Mean formed batch size.
    pub mean_batch: f64,
    /// Median end-to-end latency (queue wait + service), virtual µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency, virtual µs.
    pub p99_us: u64,
    /// The tenant's SLO, µs (for reading the quantiles against it).
    pub slo_us: u64,
    /// Completed requests whose latency exceeded the SLO.
    pub slo_violations: u64,
    /// Adaptive batch cap at end of run (starts at 1, grows toward
    /// [`TenantConfig::target_batch`], backs off on SLO violations).
    pub final_batch_cap: usize,
    /// Fraction of the run's SLO error budget consumed (1.0 = spent
    /// exactly, > 1.0 = availability target missed). Bad events are
    /// SLO-violating completions plus shed requests; the budget is
    /// `1 - RouterConfig::slo_target`.
    pub budget_consumed: f64,
    /// Fast-burn (short-lookback) burn-rate alerts fired during the
    /// run. Edge-triggered: one alert per excursion.
    pub fast_burn_alerts: u64,
    /// Slow-burn (long-lookback) burn-rate alerts fired during the run.
    pub slow_burn_alerts: u64,
}

/// Whole-run serving outcome: per-tenant breakdowns plus the aggregate
/// throughput the cost figure is computed from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Virtual makespan: last completion (or last arrival), µs.
    pub makespan_us: u64,
    /// Total requests offered.
    pub offered: u64,
    /// Total admitted.
    pub admitted: u64,
    /// Total shed.
    pub shed: u64,
    /// Total batches dispatched.
    pub batches: u64,
    /// Total requests completed.
    pub completed: u64,
    /// Completed requests per virtual second.
    pub throughput_per_s: f64,
    /// Per-request outputs (empty unless
    /// [`RouterConfig::collect_outputs`]).
    pub outputs: Vec<ServedOutput>,
}

impl ServeReport {
    /// Perseus-style cost figure: USD per 1 000 served inferences when
    /// this workload's throughput runs on an instance priced at
    /// `price_per_hour` — the serving hookup into `cap-cloud` pricing.
    pub fn cost_per_1k_usd(&self, price_per_hour: f64) -> f64 {
        cap_cloud::cost_per_1k_inferences(price_per_hour, self.throughput_per_s)
    }
}

/// Nearest-rank quantile over an ascending-sorted slice (exact, not an
/// estimate — serving reports must be reproducible to the microsecond).
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Internal per-tenant serving state.
struct TenantState {
    config: TenantConfig,
    net: Network,
    queue: VecDeque<Pending>,
    /// Adaptive batch cap: starts at 1, additively grows to
    /// `target_batch` while latencies comply, multiplicatively backs
    /// off (×¾) on an SLO-violating batch — unless the queue is above
    /// half capacity, where the violation is queue-wait-driven and the
    /// cap grows instead (a saturated tenant needs throughput to
    /// drain, not smaller batches).
    batch_cap: usize,
    target: usize,
    offered: u64,
    admitted: u64,
    shed: u64,
    batches: u64,
    batch_images: u64,
    slo_violations: u64,
    max_queue_depth: usize,
    latencies: Vec<u64>,
    chunk: Tensor4,
}

impl TenantState {
    fn head_deadline(&self) -> Option<u64> {
        self.queue
            .front()
            .map(|p| p.arrival_us.saturating_add(self.config.batch_deadline_us))
    }

    /// Whether the queue holds a dispatchable batch at `now`: either a
    /// full batch (by the adaptive cap) or a head request whose
    /// batching deadline has expired.
    fn ready(&self, now: u64) -> bool {
        !self.queue.is_empty()
            && (self.queue.len() >= self.batch_cap
                || self.head_deadline().is_some_and(|d| now >= d))
    }
}

/// The multi-tenant dynamic-batching router. See the module docs for
/// the execution model; construct with [`Router::new`], drive with
/// [`Router::serve_trace`].
pub struct Router {
    config: RouterConfig,
    tenants: Vec<TenantState>,
    telemetry: Vec<TenantTelemetry>,
    engine: ParallelEngine,
}

impl Router {
    /// Build a router over `(config, network)` tenants sharing one
    /// engine. Its `config.workers` are slots on the virtual clock: every
    /// batch runs through [`ParallelEngine::run_chunk`] on the calling
    /// thread, one thread per pass, so the router starts no thread.
    pub fn new(config: RouterConfig, tenants: Vec<(TenantConfig, Network)>) -> Self {
        let engine = ParallelEngine::new(config.workers);
        let policy = SloPolicy {
            target: config.slo_target,
            ..SloPolicy::default()
        };
        let n_tenants = tenants.len();
        let telemetry = (0..n_tenants)
            .map(|_| TenantTelemetry::new(config.window_us, config.series_windows, policy))
            .collect();
        let tenants = tenants
            .into_iter()
            .map(|(c, net)| {
                let target = c.target_batch();
                TenantState {
                    config: c,
                    net,
                    queue: VecDeque::new(),
                    batch_cap: 1,
                    target,
                    offered: 0,
                    admitted: 0,
                    shed: 0,
                    batches: 0,
                    batch_images: 0,
                    slo_violations: 0,
                    max_queue_depth: 0,
                    latencies: Vec::new(),
                    chunk: Tensor4::zeros(0, 0, 0, 0),
                }
            })
            .collect();
        Self {
            config,
            tenants,
            telemetry,
            engine,
        }
    }

    /// Tenant count.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant `t`'s windowed time-series from the most recent
    /// [`serve_trace`](Self::serve_trace) run.
    pub fn tenant_series(&self, t: usize) -> Option<&TimeSeries> {
        self.telemetry.get(t).map(|tt| &tt.series)
    }

    /// Tenant `t`'s SLO tracker (budget consumption, burn alerts) from
    /// the most recent run.
    pub fn tenant_slo(&self, t: usize) -> Option<&SloTracker> {
        self.telemetry.get(t).map(|tt| &tt.slo)
    }

    /// Replay an arrival trace against the tenants and return the
    /// serving report. `image_pools[t]` supplies tenant `t`'s request
    /// payloads: request `seq` carries image `seq % pool.n()`.
    ///
    /// Deterministic: scheduling runs entirely on the virtual clock
    /// (see the module docs), so repeat calls with the same trace
    /// produce identical reports — including every latency quantile.
    /// Each dispatched batch really executes on the engine, and with
    /// [`RouterConfig::collect_outputs`] the per-request logits land in
    /// [`ServeReport::outputs`], bitwise-equal to
    /// [`cap_cnn::run_batched`] on the same image sequence.
    pub fn serve_trace(
        &mut self,
        events: &[ArrivalEvent],
        image_pools: &[Tensor4],
    ) -> TensorResult<ServeReport> {
        self.serve_trace_traced(events, image_pools, &NoopTracer)
    }

    /// [`serve_trace`](Self::serve_trace) with request-lifecycle span
    /// emission: every completed request contributes a `Request` and a
    /// nested `QueueWait` span on its tenant's track, and every
    /// dispatched batch a `BatchAssembly` (tenant track) plus
    /// `ServeCompute` (worker-slot track) span — all placed by the
    /// virtual clock via [`Tracer::span_at`], so
    /// [`cap_obs::chrome_trace_json`] renders the run as a Perfetto
    /// timeline with one track per tenant plus worker tracks.
    ///
    /// Span emission is guarded by [`Tracer::enabled`]; with
    /// [`NoopTracer`] this is exactly [`serve_trace`](Self::serve_trace)
    /// (which delegates here).
    pub fn serve_trace_traced<T: Tracer>(
        &mut self,
        events: &[ArrivalEvent],
        image_pools: &[Tensor4],
        tracer: &T,
    ) -> TensorResult<ServeReport> {
        if image_pools.len() != self.tenants.len() {
            return Err(ShapeError::new(format!(
                "serve_trace: {} image pools for {} tenants",
                image_pools.len(),
                self.tenants.len()
            )));
        }
        for (t, pool) in image_pools.iter().enumerate() {
            if pool.n() == 0 {
                return Err(ShapeError::new(format!(
                    "serve_trace: empty image pool for tenant {t}"
                )));
            }
        }
        if let Some(bad) = events.iter().find(|e| e.tenant >= self.tenants.len()) {
            return Err(ShapeError::new(format!(
                "serve_trace: event targets tenant {} of {}",
                bad.tenant,
                self.tenants.len()
            )));
        }

        for tt in &mut self.telemetry {
            tt.reset();
        }
        let metrics = cap_obs::metrics();
        let mut outputs: Vec<ServedOutput> = Vec::new();
        let mut in_flight: Vec<Option<InFlight>> =
            (0..self.config.workers.max(1)).map(|_| None).collect();
        let mut now = 0u64;
        let mut ei = 0usize;
        let mut last_completion = 0u64;
        // Round-robin cursor over tenants for dispatch. Age-based
        // policies (oldest head-of-line first) look natural but are
        // FIFO across tenants: an overloaded tenant's backlog is always
        // older than a lightly loaded co-tenant's fresh requests, so
        // the cool tenant starves. Round-robin gives every ready tenant
        // a worker slot per rotation — the isolation property the
        // co-location test in `tests/admission.rs` pins down — and is
        // deterministic.
        let mut rr_cursor = 0usize;

        loop {
            // Next event: the earliest of (a) the next trace arrival,
            // (b) the earliest in-flight completion, (c) the earliest
            // head-of-line batching deadline — (c) only when a worker
            // is idle, since a deadline with every worker busy can
            // trigger nothing until a completion frees one.
            let mut next: Option<u64> = events.get(ei).map(|e| e.t_us);
            for f in in_flight.iter().flatten() {
                next = Some(next.map_or(f.finish_us, |n| n.min(f.finish_us)));
            }
            if in_flight.iter().any(|f| f.is_none()) {
                for t in &self.tenants {
                    if let Some(d) = t.head_deadline() {
                        next = Some(next.map_or(d, |n| n.min(d)));
                    }
                }
            }
            let Some(t_next) = next else {
                break; // no arrivals, nothing in flight, queues empty
            };
            now = now.max(t_next);

            // 1. Completions at or before `now` free their workers and
            //    settle request latencies.
            for slot in in_flight.iter_mut() {
                if slot.as_ref().is_some_and(|f| f.finish_us <= now) {
                    let f = slot.take().expect("checked occupied");
                    last_completion = last_completion.max(f.finish_us);
                    let tenant = &mut self.tenants[f.tenant];
                    let tel = &mut self.telemetry[f.tenant];
                    let traced = tracer.enabled();
                    let mut worst = 0u64;
                    for req in &f.reqs {
                        let lat = f.finish_us - req.arrival_us;
                        worst = worst.max(lat);
                        if lat > tenant.config.slo_us {
                            tenant.slo_violations += 1;
                            tel.series.add(f.finish_us, Series::Violations.col(), 1);
                        }
                        tenant.latencies.push(lat);
                        metrics.serve_latency_us.record(lat);
                        tel.series.add(f.finish_us, Series::Completed.col(), 1);
                        tel.series
                            .observe(f.finish_us, Series::LatencyUs.col(), lat);
                        if traced {
                            telemetry::emit_request_spans(
                                tracer,
                                &tenant.config.name,
                                f.tenant,
                                req.seq,
                                req.arrival_us,
                                f.dispatch_us,
                                f.finish_us,
                            );
                        }
                    }
                    // Adaptive batch sizing, AIMD: grow additively
                    // while compliant; back off ×¾ on a violation —
                    // unless backpressure (queue above half capacity)
                    // says the violation is queue-wait-driven, where
                    // *larger* batches drain faster, so grow instead.
                    // Without that override, sustained overload keeps
                    // every batch violating, the cap can never recover,
                    // and throughput collapses into singletons.
                    let congested = tenant.queue.len() * 2 >= tenant.config.queue_cap;
                    if worst > tenant.config.slo_us && !congested {
                        tenant.batch_cap = (tenant.batch_cap * 3 / 4).max(1);
                    } else if tenant.batch_cap < tenant.target {
                        tenant.batch_cap += 1;
                    }
                }
            }

            // 2. Admit or shed every arrival at `now`.
            while events.get(ei).is_some_and(|e| e.t_us <= now) {
                let e = events[ei];
                ei += 1;
                let tenant = &mut self.tenants[e.tenant];
                let tel = &mut self.telemetry[e.tenant];
                tenant.offered += 1;
                metrics.serve_requests.inc();
                tel.series.add(e.t_us, Series::Offered.col(), 1);
                if tenant.queue.len() >= tenant.config.queue_cap {
                    tenant.shed += 1;
                    metrics.serve_shed.inc();
                    tel.series.add(e.t_us, Series::Shed.col(), 1);
                } else {
                    tenant.admitted += 1;
                    metrics.serve_admitted.inc();
                    tel.series.add(e.t_us, Series::Admitted.col(), 1);
                    tenant.queue.push_back(Pending {
                        seq: e.seq,
                        arrival_us: e.t_us,
                    });
                    tenant.max_queue_depth = tenant.max_queue_depth.max(tenant.queue.len());
                    metrics
                        .serve_queue_depth
                        .record_max(tenant.queue.len() as u64);
                }
            }

            // 3. Fill idle workers with ready batches, round-robin
            //    across ready tenants (see `rr_cursor` above).
            while let Some(widx) = in_flight.iter().position(|f| f.is_none()) {
                let n_t = self.tenants.len();
                let Some(tidx) = (0..n_t)
                    .map(|k| (rr_cursor + k) % n_t)
                    .find(|&i| self.tenants[i].ready(now))
                else {
                    break;
                };
                rr_cursor = (tidx + 1) % n_t;
                let tenant = &mut self.tenants[tidx];
                let take = tenant.batch_cap.min(tenant.queue.len());
                let reqs: Vec<Pending> = tenant.queue.drain(..take).collect();

                // Real execution on the engine's pooled worker state.
                let pool = &image_pools[tidx];
                let (c, h, w) = (pool.c(), pool.h(), pool.w());
                tenant.chunk.resize(take, c, h, w);
                for (j, req) in reqs.iter().enumerate() {
                    let img = (req.seq % pool.n() as u64) as usize;
                    tenant.chunk.image_mut(j).copy_from_slice(pool.image(img));
                }
                let logits = self.engine.run_chunk(&tenant.net, &tenant.chunk)?;

                let service_us = tenant.config.service.service_us(take);
                let finish_us = now + service_us;
                let tel = &mut self.telemetry[tidx];
                tel.series.add(now, Series::Batches.col(), 1);
                tel.series
                    .observe(now, Series::BatchOccupancy.col(), take as u64);
                if tracer.enabled() {
                    telemetry::emit_batch_spans(
                        tracer,
                        &tenant.config.name,
                        tidx,
                        tenant.batches,
                        take,
                        reqs[0].arrival_us,
                        now,
                        service_us,
                        widx,
                    );
                }
                tenant.batches += 1;
                tenant.batch_images += take as u64;
                metrics.serve_batches.inc();
                metrics.serve_batch_occupancy.record(take as u64);
                if self.config.collect_outputs {
                    for (req, out) in reqs.iter().zip(logits) {
                        outputs.push(ServedOutput {
                            tenant: tidx,
                            seq: req.seq,
                            arrival_us: req.arrival_us,
                            completion_us: finish_us,
                            logits: out,
                        });
                    }
                }
                in_flight[widx] = Some(InFlight {
                    finish_us,
                    dispatch_us: now,
                    tenant: tidx,
                    reqs,
                });
            }
        }

        let makespan_us = last_completion.max(now);
        let mut report = ServeReport {
            tenants: Vec::with_capacity(self.tenants.len()),
            makespan_us,
            offered: 0,
            admitted: 0,
            shed: 0,
            batches: 0,
            completed: 0,
            throughput_per_s: 0.0,
            outputs,
        };
        for (t, tel) in self.tenants.iter_mut().zip(&mut self.telemetry) {
            t.latencies.sort_unstable();
            tel.finalize_slo();
            let standing = tel.standing();
            report.offered += t.offered;
            report.admitted += t.admitted;
            report.shed += t.shed;
            report.batches += t.batches;
            report.completed += t.latencies.len() as u64;
            report.tenants.push(TenantReport {
                name: t.config.name.clone(),
                offered: t.offered,
                admitted: t.admitted,
                shed: t.shed,
                batches: t.batches,
                completed: t.latencies.len() as u64,
                max_queue_depth: t.max_queue_depth,
                mean_batch: if t.batches == 0 {
                    0.0
                } else {
                    t.batch_images as f64 / t.batches as f64
                },
                p50_us: quantile_sorted(&t.latencies, 0.50),
                p99_us: quantile_sorted(&t.latencies, 0.99),
                slo_us: t.config.slo_us,
                slo_violations: t.slo_violations,
                final_batch_cap: t.batch_cap,
                budget_consumed: standing.budget_consumed,
                fast_burn_alerts: standing.fast_alerts as u64,
                slow_burn_alerts: standing.slow_alerts as u64,
            });
        }
        if makespan_us > 0 {
            report.throughput_per_s = report.completed as f64 / (makespan_us as f64 / 1e6);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::ServiceModel;
    use crate::trace::{generate_trace, ArrivalPattern};
    use cap_cnn::layer::{ConvLayer, PoolLayer, PoolMode, ReluLayer};
    use cap_tensor::{init::xavier_uniform, Conv2dParams};

    fn small_net(seed: u64) -> Network {
        let mut net = Network::new("t", (2, 8, 8));
        let p = Conv2dParams::new(2, 4, 3, 1, 1);
        net.add_sequential(Box::new(
            ConvLayer::new("c1", p, xavier_uniform(4, 18, seed), vec![0.0; 4]).unwrap(),
        ))
        .unwrap();
        net.add_sequential(Box::new(ReluLayer::new("r1"))).unwrap();
        net.add_sequential(Box::new(PoolLayer::new("p1", PoolMode::Max, 2, 0, 2)))
            .unwrap();
        net
    }

    fn pool(n: usize) -> Tensor4 {
        Tensor4::from_fn(n, 2, 8, 8, |i, c, h, w| {
            ((i * 5 + c * 3 + h + w) % 7) as f32 - 3.0
        })
    }

    fn tenant(name: &str) -> TenantConfig {
        TenantConfig::new(
            name,
            ServiceModel {
                fixed_us: 200,
                per_image_us: 150,
            },
        )
    }

    fn router(n_tenants: usize) -> Router {
        let tenants = (0..n_tenants)
            .map(|i| (tenant(&format!("t{i}")), small_net(i as u64 + 1)))
            .collect();
        Router::new(RouterConfig::default(), tenants)
    }

    #[test]
    fn conservation_offered_equals_admitted_plus_shed() {
        let events = generate_trace(3, &[ArrivalPattern::Poisson { rate_per_s: 800.0 }], 1.0);
        let mut r = router(1);
        let rep = r.serve_trace(&events, &[pool(4)]).unwrap();
        assert_eq!(rep.offered, events.len() as u64);
        assert_eq!(rep.offered, rep.admitted + rep.shed);
        assert_eq!(
            rep.completed, rep.admitted,
            "every admitted request completes"
        );
        assert!(rep.throughput_per_s > 0.0);
    }

    #[test]
    fn two_tenants_share_the_pool_without_crosstalk() {
        let events = generate_trace(
            5,
            &[
                ArrivalPattern::Poisson { rate_per_s: 400.0 },
                ArrivalPattern::Poisson { rate_per_s: 400.0 },
            ],
            1.0,
        );
        let mut r = router(2);
        let rep = r.serve_trace(&events, &[pool(4), pool(4)]).unwrap();
        assert_eq!(rep.tenants.len(), 2);
        for t in &rep.tenants {
            assert_eq!(t.offered, t.admitted + t.shed);
            assert_eq!(t.completed, t.admitted);
            assert!(t.p99_us >= t.p50_us);
        }
    }

    #[test]
    fn batch_cap_grows_under_compliant_load() {
        // Plenty of queued work, generous SLO: the adaptive cap should
        // climb from 1 toward the model-driven target.
        let events = generate_trace(
            7,
            &[ArrivalPattern::Poisson {
                rate_per_s: 2_000.0,
            }],
            0.5,
        );
        let mut r = router(1);
        let rep = r.serve_trace(&events, &[pool(4)]).unwrap();
        let t = &rep.tenants[0];
        assert!(
            t.final_batch_cap > 1,
            "cap stayed at {} despite sustained load",
            t.final_batch_cap
        );
        assert!(t.mean_batch > 1.0, "mean batch {}", t.mean_batch);
    }

    #[test]
    fn deadline_forces_partial_batches_at_low_rate() {
        // 20 req/s: mean inter-arrival 50 ms >> 5 ms deadline, so
        // almost every batch is a forced partial (exponential gaps do
        // land two arrivals inside one deadline window now and then, so
        // "almost": mean occupancy stays far below the batch target).
        let events = generate_trace(9, &[ArrivalPattern::Poisson { rate_per_s: 20.0 }], 1.0);
        let mut r = router(1);
        let rep = r.serve_trace(&events, &[pool(4)]).unwrap();
        let t = &rep.tenants[0];
        assert!(
            t.batches * 4 >= t.admitted * 3,
            "low load batched too aggressively: {} batches for {} admitted",
            t.batches,
            t.admitted
        );
        assert!(t.mean_batch < 2.0, "mean batch {}", t.mean_batch);
        // A lone request waits out the batching deadline, then runs.
        assert!(
            t.p50_us >= 5_000,
            "p50 {} below the deadline wait",
            t.p50_us
        );
        assert!(t.p50_us <= t.slo_us);
    }

    #[test]
    fn identical_runs_produce_identical_reports() {
        let events = generate_trace(
            13,
            &[
                ArrivalPattern::Burst {
                    base_per_s: 200.0,
                    burst_per_s: 3_000.0,
                    burst_every_s: 0.2,
                    burst_len_s: 0.05,
                },
                ArrivalPattern::Poisson { rate_per_s: 500.0 },
            ],
            0.6,
        );
        let run = || {
            let mut r = router(2);
            let rep = r.serve_trace(&events, &[pool(4), pool(4)]).unwrap();
            (
                rep.admitted,
                rep.shed,
                rep.batches,
                rep.makespan_us,
                rep.tenants
                    .iter()
                    .map(|t| (t.p50_us, t.p99_us, t.max_queue_depth))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mismatched_pools_or_bad_tenant_error() {
        let mut r = router(2);
        assert!(r.serve_trace(&[], &[pool(2)]).is_err());
        let bad = [ArrivalEvent {
            t_us: 0,
            tenant: 5,
            seq: 0,
        }];
        assert!(r.serve_trace(&bad, &[pool(2), pool(2)]).is_err());
        assert!(r
            .serve_trace(&[], &[pool(2), Tensor4::zeros(0, 2, 8, 8)])
            .is_err());
    }

    #[test]
    fn quantile_sorted_nearest_rank() {
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
    }
}
