//! Serving-side telemetry: the per-tenant windowed time-series schema,
//! SLO error-budget tracking, request-lifecycle span emission, and the
//! per-tenant Prometheus section.
//!
//! Everything here is driven by the router's virtual clock — window
//! boundaries, span timestamps, burn-rate alerts — so the whole
//! telemetry surface replays bit-identically with the scheduling it
//! observes (pinned by `crates/serve/tests/determinism.rs`).

use crate::router::{ServeReport, TenantReport};
use cap_obs::span::{SpanInfo, SpanScope, Tracer};
use cap_obs::{PromWriter, SloPolicy, SloStanding, SloTracker, TimeSeries};
use std::time::Duration;

/// Chrome-trace track id of tenant `t`'s request-lifecycle track
/// (`tenant-<name>` in Perfetto): `TENANT_TRACK_BASE + t`.
pub const TENANT_TRACK_BASE: u64 = 1_000;

/// Chrome-trace track id of router worker slot `w`'s compute track
/// (`serve-worker-<w>` in Perfetto): `WORKER_TRACK_BASE + w`.
pub const WORKER_TRACK_BASE: u64 = 2_000;

/// One column of a tenant's windowed series. This enum and
/// [`Series::ALL`] are the whole schema: the `TimeSeries` column names
/// and indexes and the per-tenant Prometheus counters are read off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Requests offered by the trace.
    Offered,
    /// Requests admitted into the queue.
    Admitted,
    /// Requests shed at admission.
    Shed,
    /// Requests completed.
    Completed,
    /// Completions over the latency SLO.
    Violations,
    /// Batches dispatched.
    Batches,
    /// End-to-end latency histogram, virtual µs.
    LatencyUs,
    /// Formed-batch-size histogram.
    BatchOccupancy,
}

/// A counter series' per-tenant Prometheus family: name, help text,
/// and the run total in a [`TenantReport`].
type PromCounter = (&'static str, &'static str, fn(&TenantReport) -> u64);

impl Series {
    /// Every series in declaration order — the counter columns, then
    /// the histogram columns — with its `TimeSeries` column name and,
    /// for a counter, its Prometheus family.
    #[rustfmt::skip]
    pub const ALL: [(Series, &'static str, Option<PromCounter>); 8] = [
        (Series::Offered, "offered", Some(("cap_tenant_offered_total", "Requests offered to the tenant.", |t| t.offered))),
        (Series::Admitted, "admitted", Some(("cap_tenant_admitted_total", "Requests admitted.", |t| t.admitted))),
        (Series::Shed, "shed", Some(("cap_tenant_shed_total", "Requests shed at admission.", |t| t.shed))),
        (Series::Completed, "completed", Some(("cap_tenant_completed_total", "Requests completed.", |t| t.completed))),
        (Series::Violations, "violations", Some(("cap_tenant_slo_violations_total", "Completions over the latency SLO.", |t| t.slo_violations))),
        (Series::Batches, "batches", Some(("cap_tenant_batches_total", "Batches dispatched.", |t| t.batches))),
        (Series::LatencyUs, "latency_us", None),
        (Series::BatchOccupancy, "batch_occupancy", None),
    ];

    /// How many of [`Series::ALL`], from the front, are counters.
    const COUNTERS: usize = 6;

    /// Column index in the tenant's `TimeSeries`, which numbers counter
    /// and histogram columns separately.
    pub(crate) const fn col(self) -> usize {
        let i = self as usize;
        if i < Self::COUNTERS {
            i
        } else {
            i - Self::COUNTERS
        }
    }

    fn new_series(window_us: u64, capacity: usize) -> TimeSeries {
        let names = Self::ALL.map(|(_, name, _)| name);
        let (counters, hists) = names.split_at(Self::COUNTERS);
        TimeSeries::new(window_us, capacity, counters, hists)
    }
}

// `col()` reads a variant's place in `ALL` off its discriminant.
const _: () = {
    let mut i = 0;
    while i < Series::ALL.len() {
        let (series, _, prom) = &Series::ALL[i];
        assert!(
            *series as usize == i,
            "Series::ALL out of declaration order"
        );
        assert!(
            prom.is_some() == (i < Series::COUNTERS),
            "Series::COUNTERS miscounts"
        );
        i += 1;
    }
};

/// One tenant's telemetry for one serve run: the windowed series the
/// router feeds event by event, and the SLO tracker derived from it at
/// the end of the run.
#[derive(Debug, Clone)]
pub struct TenantTelemetry {
    /// Windowed rollups of the [`Series`] schema, keyed by the router's
    /// virtual clock.
    pub series: TimeSeries,
    /// Error-budget accounting fed from the series by
    /// [`finalize_slo`](Self::finalize_slo).
    pub slo: SloTracker,
    window_us: u64,
    capacity: usize,
    policy: SloPolicy,
}

impl TenantTelemetry {
    /// Fresh telemetry: `capacity` retained windows of `window_us`
    /// virtual microseconds, SLO policy `policy`.
    pub fn new(window_us: u64, capacity: usize, policy: SloPolicy) -> Self {
        Self {
            series: Series::new_series(window_us, capacity),
            slo: SloTracker::new(policy),
            window_us,
            capacity,
            policy,
        }
    }

    /// Clear all state for a new serve run (each run gets a fresh
    /// series so repeat calls on one router stay independent).
    pub fn reset(&mut self) {
        *self = Self::new(self.window_us, self.capacity, self.policy);
    }

    /// Feed the finished series into the SLO tracker, window by window
    /// in ascending order: `bad` = SLO violations + shed requests,
    /// `good` = compliant completions. Pure function of the series, so
    /// the alert sequence replays exactly.
    pub fn finalize_slo(&mut self) {
        let windows: Vec<(u64, u64, u64)> = self
            .series
            .windows()
            .iter()
            .map(|w| {
                let count = |s: Series| w.counters[s.col()];
                let bad = count(Series::Violations) + count(Series::Shed);
                let good = count(Series::Completed).saturating_sub(count(Series::Violations));
                (w.index, good, bad)
            })
            .collect();
        for (index, good, bad) in windows {
            self.slo.record_window(index, good, bad);
        }
    }

    /// Current SLO standing (call after
    /// [`finalize_slo`](Self::finalize_slo)).
    pub fn standing(&self) -> SloStanding {
        self.slo.standing()
    }
}

/// Emit one request's lifecycle spans at completion: the whole-life
/// `Request` span plus its nested `QueueWait`, both on the tenant's
/// track with virtual-clock placement.
#[inline]
pub(crate) fn emit_request_spans<T: Tracer>(
    tracer: &T,
    tenant_name: &str,
    tenant_idx: usize,
    seq: u64,
    arrival_us: u64,
    dispatch_us: u64,
    finish_us: u64,
) {
    let track = TENANT_TRACK_BASE + tenant_idx as u64;
    let info = SpanInfo {
        scope: SpanScope::Request,
        name: tenant_name,
        kind: "request",
        shape: [1, 0, 0, 0],
        index: seq as usize,
    };
    tracer.span_at(
        &info,
        Duration::from_micros(arrival_us),
        Duration::from_micros(finish_us - arrival_us),
        track,
    );
    let info = SpanInfo {
        scope: SpanScope::QueueWait,
        name: tenant_name,
        kind: "queue_wait",
        shape: [1, 0, 0, 0],
        index: seq as usize,
    };
    tracer.span_at(
        &info,
        Duration::from_micros(arrival_us),
        Duration::from_micros(dispatch_us - arrival_us),
        track,
    );
}

/// Emit one dispatched batch's spans: the `BatchAssembly` window
/// (head-of-line arrival → dispatch) on the tenant track, and the
/// `ServeCompute` service span on the worker slot's track.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_batch_spans<T: Tracer>(
    tracer: &T,
    tenant_name: &str,
    tenant_idx: usize,
    batch_seq: u64,
    batch_size: usize,
    head_arrival_us: u64,
    dispatch_us: u64,
    service_us: u64,
    worker_slot: usize,
) {
    let info = SpanInfo {
        scope: SpanScope::BatchAssembly,
        name: tenant_name,
        kind: "batch_assembly",
        shape: [batch_size, 0, 0, 0],
        index: batch_seq as usize,
    };
    tracer.span_at(
        &info,
        Duration::from_micros(head_arrival_us),
        Duration::from_micros(dispatch_us - head_arrival_us),
        TENANT_TRACK_BASE + tenant_idx as u64,
    );
    let info = SpanInfo {
        scope: SpanScope::ServeCompute,
        name: tenant_name,
        kind: "serve_compute",
        shape: [batch_size, 0, 0, 0],
        index: worker_slot,
    };
    tracer.span_at(
        &info,
        Duration::from_micros(dispatch_us),
        Duration::from_micros(service_us),
        WORKER_TRACK_BASE + worker_slot as u64,
    );
}

/// Append the per-tenant serving section to a Prometheus exposition:
/// labeled admission/violation counters, latency-quantile gauges, and
/// the SLO standing (budget consumed, burn alerts) from a finished
/// [`ServeReport`].
pub fn append_serve_prometheus(w: &mut PromWriter, report: &ServeReport) {
    for (family, help, total) in Series::ALL.iter().filter_map(|(_, _, prom)| *prom) {
        for t in &report.tenants {
            w.counter(family, help, &[("tenant", &t.name)], total(t));
        }
    }
    for t in &report.tenants {
        let l = [("tenant", t.name.as_str())];
        w.gauge(
            "cap_tenant_latency_p50_us",
            "Median end-to-end latency, virtual us.",
            &l,
            t.p50_us as f64,
        );
        w.gauge(
            "cap_tenant_latency_p99_us",
            "p99 end-to-end latency, virtual us.",
            &l,
            t.p99_us as f64,
        );
        w.gauge(
            "cap_tenant_error_budget_consumed",
            "Fraction of the SLO error budget consumed (1.0 = spent).",
            &l,
            t.budget_consumed,
        );
        w.gauge(
            "cap_tenant_burn_alerts",
            "Burn-rate alerts fired during the run, by rule.",
            &[("tenant", t.name.as_str()), ("rule", "fast")],
            t.fast_burn_alerts as f64,
        );
        w.gauge(
            "cap_tenant_burn_alerts",
            "Burn-rate alerts fired during the run, by rule.",
            &[("tenant", t.name.as_str()), ("rule", "slow")],
            t.slow_burn_alerts as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_slo_derives_good_bad_from_series() {
        let mut tt = TenantTelemetry::new(1_000, 64, SloPolicy::default());
        // Window 0: 10 completions, 2 violations, 1 shed → good 8, bad 3.
        tt.series.add(500, Series::Completed.col(), 10);
        tt.series.add(500, Series::Violations.col(), 2);
        tt.series.add(500, Series::Shed.col(), 1);
        tt.finalize_slo();
        let s = tt.standing();
        assert_eq!(s.good, 8);
        assert_eq!(s.bad, 3);
        assert!(s.budget_consumed > 1.0, "3/11 bad blows a 1% budget");
    }

    #[test]
    fn reset_clears_between_runs() {
        let mut tt = TenantTelemetry::new(1_000, 64, SloPolicy::default());
        tt.series.add(0, Series::Offered.col(), 5);
        tt.finalize_slo();
        tt.reset();
        assert!(tt.series.windows().is_empty());
        assert_eq!(tt.standing().good + tt.standing().bad, 0);
    }
}
