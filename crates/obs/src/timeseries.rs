//! Windowed time-series rollups over a virtual clock.
//!
//! The [`MetricsRegistry`](crate::MetricsRegistry) answers "what
//! happened over the whole run"; this module answers "how did it evolve"
//! — a fixed-capacity ring of per-window rollups, each window holding
//! counter deltas and mergeable [`HdrSnapshot`] histograms. Window
//! boundaries are computed from caller-supplied timestamps (the
//! `cap-serve` router feeds its virtual clock), never from a wall
//! clock, so the same seed produces a byte-identical series on every
//! machine and every rerun.
//!
//! Windows are stored sparsely: a window with no events is simply
//! absent, and consumers treat gaps as zero. When the ring exceeds its
//! capacity the oldest window is evicted (counted in
//! [`TimeSeries::evicted`]); events that arrive for an already-evicted
//! window are dropped and counted in [`TimeSeries::late_dropped`]
//! rather than silently resurrecting history.

use crate::hdr::{HdrSnapshot, QUANTILES};
use crate::jsonutil::{write_json_opt_u64, write_json_str};
use std::collections::VecDeque;
use std::fmt::Write;

/// One time window's rollup: counter deltas plus histogram merges for
/// every series the owning [`TimeSeries`] declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Window ordinal: `floor(t_us / window_us)`. Sparse — consecutive
    /// retained windows may skip indexes (empty windows are absent).
    pub index: u64,
    /// Counter deltas within this window, one per declared counter
    /// (see [`TimeSeries::counter_idx`]).
    pub counters: Vec<u64>,
    /// Histogram state for observations within this window, one per
    /// declared histogram (see [`TimeSeries::hist_idx`]).
    pub hists: Vec<HdrSnapshot>,
}

impl Window {
    fn new(index: u64, n_counters: usize, n_hists: usize) -> Self {
        Self {
            index,
            counters: vec![0; n_counters],
            hists: vec![HdrSnapshot::empty(); n_hists],
        }
    }
}

/// A fixed-capacity ring of per-window rollups keyed by an external
/// (virtual) clock.
///
/// ```
/// use cap_obs::TimeSeries;
///
/// let mut ts = TimeSeries::new(1_000, 64, &["completed"], &["latency_us"]);
/// ts.add(250, 0, 1); // window 0
/// ts.add(1_700, 0, 2); // window 1
/// ts.observe(1_700, 0, 420);
/// assert_eq!(ts.windows().len(), 2);
/// assert_eq!(ts.counter_total(0), 3);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_us: u64,
    capacity: usize,
    counter_names: Vec<&'static str>,
    hist_names: Vec<&'static str>,
    windows: VecDeque<Window>,
    evicted: u64,
    late_dropped: u64,
}

impl TimeSeries {
    /// A new empty series with `capacity` retained windows of
    /// `window_us` virtual microseconds each, rolling up the named
    /// counters and histograms.
    ///
    /// # Panics
    ///
    /// If `window_us` is 0 or `capacity` is 0.
    pub fn new(
        window_us: u64,
        capacity: usize,
        counter_names: &[&'static str],
        hist_names: &[&'static str],
    ) -> Self {
        assert!(window_us > 0, "window_us must be positive");
        assert!(capacity > 0, "capacity must be positive");
        Self {
            window_us,
            capacity,
            counter_names: counter_names.to_vec(),
            hist_names: hist_names.to_vec(),
            windows: VecDeque::new(),
            evicted: 0,
            late_dropped: 0,
        }
    }

    /// Retained windows in ascending `index` order (sparse: empty
    /// windows are absent).
    pub fn windows(&self) -> &VecDeque<Window> {
        &self.windows
    }

    /// Windows evicted from the front of the ring to stay within
    /// capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events dropped because they targeted an already-evicted window.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Column index of a counter name, if declared.
    pub fn counter_idx(&self, name: &str) -> Option<usize> {
        self.counter_names.iter().position(|&n| n == name)
    }

    /// Column index of a histogram name, if declared.
    pub fn hist_idx(&self, name: &str) -> Option<usize> {
        self.hist_names.iter().position(|&n| n == name)
    }

    /// Sum of counter column `idx` across all retained windows.
    pub fn counter_total(&self, idx: usize) -> u64 {
        self.windows.iter().map(|w| w.counters[idx]).sum()
    }

    /// Merge of histogram column `idx` across all retained windows.
    pub fn hist_merged(&self, idx: usize) -> HdrSnapshot {
        let mut out = HdrSnapshot::empty();
        for w in &self.windows {
            out.merge(&w.hists[idx]);
        }
        out
    }

    /// The window covering `t_us`, creating (and evicting) as needed.
    /// Returns `None` when the target window was already evicted.
    fn window_mut(&mut self, t_us: u64) -> Option<&mut Window> {
        let index = t_us / self.window_us;
        // Fast path: events arrive in virtual-time order, so the match
        // is almost always the newest window.
        if let Some(back) = self.windows.back() {
            if back.index == index {
                return self.windows.back_mut();
            }
            if back.index < index {
                self.windows.push_back(Window::new(
                    index,
                    self.counter_names.len(),
                    self.hist_names.len(),
                ));
                while self.windows.len() > self.capacity {
                    self.windows.pop_front();
                    self.evicted += 1;
                }
                return self.windows.back_mut();
            }
            // Out-of-order event: find or insert within the retained
            // range, drop if it precedes everything retained after an
            // eviction has occurred.
            if self.evicted > 0 && index < self.windows.front().map_or(0, |w| w.index) {
                self.late_dropped += 1;
                return None;
            }
            let pos = self.windows.partition_point(|w| w.index < index);
            if self.windows.get(pos).map(|w| w.index) != Some(index) {
                self.windows.insert(
                    pos,
                    Window::new(index, self.counter_names.len(), self.hist_names.len()),
                );
            }
            return self.windows.get_mut(pos);
        }
        self.windows.push_back(Window::new(
            index,
            self.counter_names.len(),
            self.hist_names.len(),
        ));
        self.windows.back_mut()
    }

    /// Add `n` to counter column `counter_idx` in the window covering
    /// virtual time `t_us`.
    pub fn add(&mut self, t_us: u64, counter_idx: usize, n: u64) {
        if let Some(w) = self.window_mut(t_us) {
            w.counters[counter_idx] += n;
        }
    }

    /// Record `value` into histogram column `hist_idx` in the window
    /// covering virtual time `t_us`.
    pub fn observe(&mut self, t_us: u64, hist_idx: usize, value: u64) {
        if let Some(w) = self.window_mut(t_us) {
            let h = &mut w.hists[hist_idx];
            h.buckets[crate::hdr::hdr_index(value)] += 1;
            h.count += 1;
            h.sum += value;
        }
    }

    /// Plain-text table: one row per retained window, one column per
    /// counter, then `count/mean/p50/p99` per histogram.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write!(out, "{:>8} {:>12}", "window", "start_us").unwrap();
        for name in &self.counter_names {
            write!(out, " {name:>12}").unwrap();
        }
        for name in &self.hist_names {
            write!(
                out,
                " {:>12} {:>12} {:>12} {:>12}",
                name, "mean", "p50", "p99"
            )
            .unwrap();
        }
        out.push('\n');
        for w in &self.windows {
            write!(out, "{:>8} {:>12}", w.index, w.index * self.window_us).unwrap();
            for &c in &w.counters {
                write!(out, " {c:>12}").unwrap();
            }
            for h in &w.hists {
                write!(
                    out,
                    " {:>12} {:>12.1} {:>12} {:>12}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                )
                .unwrap();
            }
            out.push('\n');
        }
        if self.evicted > 0 || self.late_dropped > 0 {
            writeln!(
                out,
                "({} windows evicted, {} late events dropped)",
                self.evicted, self.late_dropped
            )
            .unwrap();
        }
        out
    }

    /// Deterministic JSON export: schema header plus one object per
    /// retained window (counter values by name; histograms as
    /// `count`/`sum`/`p50`/`p90`/`p95`/`p99`).
    ///
    /// Byte-identical across reruns for identical event sequences —
    /// nothing here reads a wall clock, and map order is the fixed
    /// declaration order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"cap-timeseries-v1\",\"window_us\":");
        write!(out, "{}", self.window_us).unwrap();
        write!(
            out,
            ",\"capacity\":{},\"evicted\":{},\"late_dropped\":{}",
            self.capacity, self.evicted, self.late_dropped
        )
        .unwrap();
        out.push_str(",\"counters\":[");
        for (i, name) in self.counter_names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, name);
        }
        out.push_str("],\"hists\":[");
        for (i, name) in self.hist_names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, name);
        }
        out.push_str("],\"windows\":[");
        for (wi, w) in self.windows.iter().enumerate() {
            if wi > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"index\":{},\"start_us\":{}",
                w.index,
                w.index * self.window_us
            )
            .unwrap();
            out.push_str(",\"counters\":{");
            for (i, (name, &c)) in self.counter_names.iter().zip(&w.counters).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, name);
                write!(out, ":{c}").unwrap();
            }
            out.push_str("},\"hists\":{");
            for (i, (name, h)) in self.hist_names.iter().zip(&w.hists).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, name);
                write!(out, ":{{\"count\":{},\"sum\":{}", h.count, h.sum).unwrap();
                for (label, _, q) in QUANTILES {
                    write!(out, ",\"{label}\":").unwrap();
                    write_json_opt_u64(&mut out, h.quantile(q));
                }
                out.push('}');
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(1_000, 4, &["good", "bad"], &["lat_us"])
    }

    #[test]
    fn windows_are_sparse_and_ordered() {
        let mut ts = series();
        ts.add(100, 0, 1); // window 0
        ts.add(3_500, 1, 2); // window 3 — windows 1..2 absent
        assert_eq!(ts.windows().len(), 2);
        assert_eq!(ts.windows()[0].index, 0);
        assert_eq!(ts.windows()[1].index, 3);
        assert_eq!(ts.counter_total(0), 1);
        assert_eq!(ts.counter_total(1), 2);
    }

    #[test]
    fn eviction_keeps_capacity_and_counts() {
        let mut ts = series();
        for w in 0..6u64 {
            ts.add(w * 1_000, 0, 1);
        }
        assert_eq!(ts.windows().len(), 4);
        assert_eq!(ts.evicted(), 2);
        assert_eq!(ts.windows()[0].index, 2);
        // A late event for the evicted window 0 is dropped, not
        // resurrected.
        ts.add(10, 0, 1);
        assert_eq!(ts.late_dropped(), 1);
        assert_eq!(ts.windows()[0].index, 2);
    }

    #[test]
    fn out_of_order_within_retained_range_lands_in_place() {
        let mut ts = series();
        ts.add(2_500, 0, 1); // window 2
        ts.add(500, 0, 1); // window 0, inserted before
        assert_eq!(ts.windows()[0].index, 0);
        assert_eq!(ts.windows()[1].index, 2);
        ts.add(700, 1, 3); // joins existing window 0
        assert_eq!(ts.windows().len(), 2);
        assert_eq!(ts.windows()[0].counters, vec![1, 3]);
    }

    #[test]
    fn observe_rolls_into_window_histograms() {
        let mut ts = series();
        for v in [100u64, 200, 300] {
            ts.observe(50, 0, v);
        }
        let h = &ts.windows()[0].hists[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 600);
        let merged = ts.hist_merged(0);
        assert_eq!(merged.count, 3);
        assert!(merged.quantile(0.5).unwrap() <= 200);
    }

    #[test]
    fn json_is_deterministic_and_reflects_schema() {
        let build = || {
            let mut ts = series();
            ts.add(100, 0, 5);
            ts.add(1_200, 1, 1);
            ts.observe(1_200, 0, 333);
            ts.to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same event sequence must serialize identically");
        assert!(a.starts_with("{\"schema\":\"cap-timeseries-v1\""));
        assert!(a.contains("\"good\":5"));
        assert!(a.contains("\"count\":1,\"sum\":333"));
    }

    #[test]
    fn text_table_mentions_every_window() {
        let mut ts = series();
        ts.add(0, 0, 1);
        ts.add(2_000, 0, 1);
        let text = ts.to_text();
        assert!(text.contains("window"));
        assert_eq!(text.lines().count(), 3); // header + 2 windows
    }
}
