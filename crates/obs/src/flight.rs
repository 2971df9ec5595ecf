//! The flight recorder: a fixed-capacity, lock-free ring
//! of the last N spans.
//!
//! A [`CollectingTracer`](crate::CollectingTracer) is a profiling tool:
//! it allocates per span and grows without bound, so it is attached
//! deliberately and briefly. A [`FlightRecorder`] is the opposite — an
//! instrument cheap enough to leave attached in release builds, like an
//! aircraft's: it remembers only the most recent [`capacity`] spans,
//! recording into preallocated fixed-size slots with **no allocation,
//! no locks, and no waiting**, and answers "what was the pipeline doing
//! just now?" after a panic, a latency spike, or on demand via
//! [`dump`].
//!
//! [`capacity`]: FlightRecorder::capacity
//! [`dump`]: FlightRecorder::dump
//!
//! # How recording stays lock-free
//!
//! Each span claims a slot by bumping a global ticket counter (one
//! relaxed `fetch_add`; ticket modulo capacity picks the slot, so the
//! ring overwrites oldest-first). The slot itself is a seqlock: a
//! sequence word that is odd while a writer is inside, plus the record
//! encoded into plain `AtomicU64` words (names truncated into inline
//! byte arrays — no heap). Writers make the sequence odd, store the
//! words, and publish with a release store of the next even value.
//! [`dump`] retries any slot whose sequence changed mid-copy, so a
//! record is either observed whole or not at all — **never torn**
//! (`crates/cnn/tests/flight_recorder.rs` hammers this with the
//! parallel engine). Two writers can only contend for the *same* slot
//! a full ring apart, in which case the later ticket spins for the
//! handful of stores the earlier writer has left.
//!
//! Because a stalled writer could in principle hold a slot odd, `dump`
//! bounds its retries and skips such a slot rather than blocking —
//! the recorder is diagnostic, best-effort by design.

use crate::span::{current_tid, SpanInfo, SpanRecord, SpanScope, Tracer};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes of a span name retained inline (longer names truncate).
const NAME_BYTES: usize = 40;
/// Bytes of a kind tag retained inline (longer tags truncate).
const KIND_BYTES: usize = 16;
/// `u64` words per encoded record: 11 header words (ticket, scope,
/// index, elapsed, start, tid, 4x shape, lens) plus the inline strings
/// (see the `w_*` offsets below).
const SLOT_WORDS: usize = 11 + NAME_BYTES / 8 + KIND_BYTES / 8;

// Word layout of one encoded record.
const W_TICKET: usize = 0;
const W_SCOPE: usize = 1;
const W_INDEX: usize = 2;
const W_ELAPSED_NS: usize = 3;
const W_START_NS: usize = 4;
const W_TID: usize = 5;
const W_SHAPE: usize = 6; // ..W_SHAPE+4
const W_LENS: usize = W_SHAPE + 4; // name_len | kind_len << 32
const W_NAME: usize = W_LENS + 1; // 5 words
const W_KIND: usize = W_NAME + NAME_BYTES / 8; // 2 words

/// Copy up to `max` bytes of `s` into consecutive little-endian words
/// starting at `words[at]`, returning the byte count stored.
fn store_str(words: &[AtomicU64], at: usize, s: &str, max: usize) -> u64 {
    // Truncate on a char boundary so decoding yields valid UTF-8.
    let mut len = s.len().min(max);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    let bytes = &s.as_bytes()[..len];
    for (w, chunk) in bytes.chunks(8).enumerate() {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        words[at + w].store(u64::from_le_bytes(buf), Ordering::Relaxed);
    }
    // Zero any trailing words a longer previous occupant left behind.
    for w in len.div_ceil(8)..max / 8 {
        words[at + w].store(0, Ordering::Relaxed);
    }
    len as u64
}

/// Decode `len` bytes (clamped to `max`) of little-endian words
/// starting at `words[at]`.
fn load_str(words: &[u64], at: usize, len: u64, max: usize) -> String {
    let len = (len as usize).min(max);
    let mut bytes = Vec::with_capacity(len.div_ceil(8) * 8);
    for w in 0..len.div_ceil(8) {
        bytes.extend_from_slice(&words[at + w].to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One seqlock-guarded slot: `seq` is odd while a writer is inside.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            seq: AtomicU64::new(0),
            words: [ZERO; SLOT_WORDS],
        }
    }
}

/// A fixed-capacity lock-free ring buffer of the last N spans — the
/// bounded counterpart of [`crate::CollectingTracer`] (module docs
/// explain the seqlock protocol).
///
/// Implements [`Tracer`], so it attaches anywhere a tracer goes:
///
/// ```
/// use cap_obs::{FlightRecorder, SpanInfo, SpanScope, Tracer};
/// use std::time::Duration;
///
/// let fr = FlightRecorder::new(4);
/// for i in 0..6u64 {
///     let mut info = SpanInfo::new(SpanScope::Layer, "conv1");
///     info.index = i as usize;
///     fr.span_exit(&info, Duration::from_micros(i));
/// }
/// let spans = fr.dump();
/// // Only the last 4 of the 6 spans survive, oldest first.
/// assert_eq!(spans.len(), 4);
/// assert_eq!(spans[0].index, 2);
/// assert_eq!(spans[3].index, 5);
/// ```
pub struct FlightRecorder {
    epoch: Instant,
    next: AtomicU64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.next.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` spans (min 1). All slot
    /// memory is allocated here, once; recording never allocates again.
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// Ring capacity: how many most-recent spans [`dump`](Self::dump)
    /// can return.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans currently retained: `min(total recorded, capacity)`.
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.next.load(Ordering::Relaxed) == 0
    }

    /// Record one span. Lock-free and allocation-free: one ticket
    /// `fetch_add`, then plain atomic stores into the claimed slot.
    pub fn record(&self, info: &SpanInfo<'_>, elapsed: Duration) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];

        // Acquire the slot seqlock: flip even -> odd. Contention here
        // means another writer lapped the ring onto this very slot;
        // spin out its handful of stores.
        let mut seq = slot.seq.load(Ordering::Acquire);
        loop {
            if seq & 1 == 0 {
                match slot.seq.compare_exchange_weak(
                    seq,
                    seq + 1,
                    Ordering::Acquire,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(cur) => seq = cur,
                }
            } else {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Acquire);
            }
        }

        let start = self.epoch.elapsed().saturating_sub(elapsed);
        let w = &slot.words;
        w[W_TICKET].store(ticket, Ordering::Relaxed);
        w[W_SCOPE].store(info.scope as u64, Ordering::Relaxed);
        w[W_INDEX].store(info.index as u64, Ordering::Relaxed);
        w[W_ELAPSED_NS].store(elapsed.as_nanos() as u64, Ordering::Relaxed);
        w[W_START_NS].store(start.as_nanos() as u64, Ordering::Relaxed);
        w[W_TID].store(current_tid(), Ordering::Relaxed);
        for (i, &d) in info.shape.iter().enumerate() {
            w[W_SHAPE + i].store(d as u64, Ordering::Relaxed);
        }
        let name_len = store_str(w, W_NAME, info.name, NAME_BYTES);
        let kind_len = store_str(w, W_KIND, info.kind, KIND_BYTES);
        w[W_LENS].store(name_len | (kind_len << 32), Ordering::Relaxed);

        // Publish: even sequence again, release-ordering the stores.
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Copy out the retained spans, oldest first (chronological by
    /// claim ticket), allocating only here — never on the record path.
    ///
    /// Safe to call concurrently with recording: each slot is re-read
    /// until a consistent copy is observed (bounded retries; a slot
    /// overwritten faster than it can be copied is skipped, keeping
    /// the dump non-blocking).
    pub fn dump(&self) -> Vec<SpanRecord> {
        let cap = self.slots.len() as u64;
        let end = self.next.load(Ordering::Acquire);
        let begin = end.saturating_sub(cap);
        let mut out: Vec<(u64, SpanRecord)> = Vec::with_capacity((end - begin) as usize);
        for t in begin..end {
            let slot = &self.slots[(t % cap) as usize];
            let mut copied = [0u64; SLOT_WORDS];
            let mut attempts = 0;
            let consistent = loop {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 & 1 == 0 {
                    for (dst, src) in copied.iter_mut().zip(slot.words.iter()) {
                        *dst = src.load(Ordering::Relaxed);
                    }
                    // Order the word loads before the re-check so a
                    // concurrent writer is always detected.
                    fence(Ordering::Acquire);
                    if slot.seq.load(Ordering::Relaxed) == s1 {
                        break true;
                    }
                }
                attempts += 1;
                if attempts > 1000 {
                    break false; // writer stalled mid-slot: skip it
                }
                std::hint::spin_loop();
            };
            if !consistent {
                continue;
            }
            let Some(&(scope, _)) = SpanScope::ALL.get(copied[W_SCOPE] as usize) else {
                continue; // not a code `record` writes
            };
            let name_len = copied[W_LENS] & 0xffff_ffff;
            let kind_len = copied[W_LENS] >> 32;
            out.push((
                copied[W_TICKET],
                SpanRecord {
                    scope,
                    name: load_str(&copied, W_NAME, name_len, NAME_BYTES),
                    kind: load_str(&copied, W_KIND, kind_len, KIND_BYTES),
                    shape: [
                        copied[W_SHAPE] as usize,
                        copied[W_SHAPE + 1] as usize,
                        copied[W_SHAPE + 2] as usize,
                        copied[W_SHAPE + 3] as usize,
                    ],
                    index: copied[W_INDEX] as usize,
                    elapsed: Duration::from_nanos(copied[W_ELAPSED_NS]),
                    start: Duration::from_nanos(copied[W_START_NS]),
                    tid: copied[W_TID],
                },
            ));
        }
        // Slots are visited in ticket order, but a slot may hold a
        // record newer than its visiting ticket (ring overwrite while
        // dumping); the stored ticket restores true chronology.
        out.sort_by_key(|(ticket, _)| *ticket);
        out.dedup_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Render the retained spans as one-line-per-span plain text —
    /// what the `repro` binary's panic hook prints.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write;
        let spans = self.dump();
        let mut out = String::new();
        writeln!(
            out,
            "# flight recorder: last {} span(s) (capacity {})",
            spans.len(),
            self.capacity()
        )
        .unwrap();
        for s in &spans {
            writeln!(
                out,
                "{:>12.3}ms +{:>10.3}ms tid={:<3} {:<10} {}{}",
                s.start.as_secs_f64() * 1000.0,
                s.elapsed.as_secs_f64() * 1000.0,
                s.tid,
                s.scope.tag(),
                s.name,
                if s.kind.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", s.kind)
                },
            )
            .unwrap();
        }
        out
    }
}

impl Tracer for FlightRecorder {
    fn span_exit(&self, info: &SpanInfo<'_>, elapsed: Duration) {
        self.record(info, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(name: &str, index: usize) -> SpanInfo<'_> {
        SpanInfo {
            scope: SpanScope::Layer,
            name,
            kind: "conv",
            shape: [1, 2, 3, 4],
            index,
        }
    }

    #[test]
    fn keeps_exactly_the_last_n_in_order() {
        let fr = FlightRecorder::new(8);
        assert!(fr.is_empty());
        for i in 0..20 {
            fr.record(&info("layer", i), Duration::from_micros(i as u64));
        }
        assert_eq!(fr.len(), 8);
        let spans = fr.dump();
        assert_eq!(spans.len(), 8);
        let indices: Vec<usize> = spans.iter().map(|s| s.index).collect();
        assert_eq!(indices, (12..20).collect::<Vec<_>>());
        assert_eq!(spans[0].shape, [1, 2, 3, 4]);
        assert_eq!(spans[0].kind, "conv");
    }

    #[test]
    fn every_scope_round_trips() {
        let fr = FlightRecorder::new(SpanScope::ALL.len());
        for (scope, tag) in SpanScope::ALL {
            fr.record(&SpanInfo::new(scope, tag), Duration::ZERO);
        }
        let dumped: Vec<_> = fr.dump().iter().map(|s| s.scope).collect();
        assert_eq!(dumped, SpanScope::ALL.map(|(scope, _)| scope));
    }

    #[test]
    fn fewer_than_capacity_returns_all() {
        let fr = FlightRecorder::new(16);
        fr.record(&info("a", 0), Duration::from_micros(1));
        fr.record(&info("b", 1), Duration::from_micros(2));
        let spans = fr.dump();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert_eq!(spans[1].elapsed, Duration::from_micros(2));
    }

    #[test]
    fn long_names_truncate_on_char_boundary() {
        let fr = FlightRecorder::new(2);
        let long = "x".repeat(NAME_BYTES + 20);
        fr.record(&info(&long, 0), Duration::from_micros(1));
        // Multi-byte char straddling the cut: é is 2 bytes.
        let multi = format!("{}é", "y".repeat(NAME_BYTES - 1));
        fr.record(&info(&multi, 1), Duration::from_micros(1));
        let spans = fr.dump();
        assert_eq!(spans[0].name.len(), NAME_BYTES);
        assert!(spans[0].name.chars().all(|c| c == 'x'));
        assert_eq!(spans[1].name, "y".repeat(NAME_BYTES - 1));
    }

    #[test]
    fn shorter_reuse_zeroes_stale_name_bytes() {
        let fr = FlightRecorder::new(1);
        fr.record(&info("a_rather_long_layer_name", 0), Duration::ZERO);
        fr.record(&info("b", 1), Duration::ZERO);
        let spans = fr.dump();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "b");
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let fr = FlightRecorder::new(32);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let fr = &fr;
                s.spawn(move || {
                    // Per-thread distinctive name/index pairing; a torn
                    // record would mix them.
                    let name = format!("thread-{t}");
                    for i in 0..500 {
                        let mut inf = SpanInfo::new(SpanScope::Worker, &name);
                        inf.index = (t * 1000 + i) as usize;
                        fr.record(&inf, Duration::from_nanos(t * 1000 + i));
                    }
                });
            }
        });
        let spans = fr.dump();
        assert_eq!(spans.len(), 32);
        for s in &spans {
            let t: u64 = s.name.strip_prefix("thread-").unwrap().parse().unwrap();
            assert_eq!(
                s.index as u64 / 1000,
                t,
                "index {} does not belong to {}",
                s.index,
                s.name
            );
            assert_eq!(s.elapsed, Duration::from_nanos(s.index as u64));
        }
    }

    #[test]
    fn dump_text_lists_spans() {
        let fr = FlightRecorder::new(4);
        fr.record(&info("conv1", 0), Duration::from_micros(250));
        let text = fr.dump_text();
        assert!(text.contains("conv1"), "{text}");
        assert!(text.contains("layer"), "{text}");
        assert!(text.contains("capacity 4"), "{text}");
    }
}
