//! Bounded lock-free ring-buffer flight recorder for per-request spans.
//!
//! The newest N completed requests are kept in fixed memory and dumped by
//! the `/debug/requests` route. Writers claim a slot with one
//! `fetch_add` on the head counter and publish through a seqlock (an odd
//! sequence while the slot's fields are being stored, even when
//! consistent), so recording never blocks a request and never allocates;
//! readers simply skip slots caught mid-write. Under wrap-around the
//! oldest records are overwritten — this is a flight recorder, not an
//! audit log.

// Serving hot path: no panics outside tests (`assert!`: tests/lint_policy.rs).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::unreachable)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `model` value for records not tied to a model (admin routes, parse
/// errors).
pub const NO_MODEL: u64 = u64::MAX;

/// One completed request span: who, where, and how long each leg took.
///
/// All fields are plain integers so the record can live in atomic slots;
/// the `/debug/requests` dump resolves `model` to a name. Times are in
/// microseconds; zero means "leg not applicable" (e.g. a request that
/// never reached a scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Request ID, minted at parse time, unique per server.
    pub id: u64,
    /// Generation tag of the connection the request arrived on.
    pub conn_gen: u64,
    /// Registry index of the model that served it, or [`NO_MODEL`].
    pub model: u64,
    /// HTTP status of the response.
    pub status: u64,
    /// ID of the batch the request rode in (0 when it never batched).
    pub batch_id: u64,
    /// Size of that batch.
    pub batch_size: u64,
    /// Time spent queued before its batch started, µs.
    pub queue_us: u64,
    /// Time from batch start to answer (inference + dispatch), µs.
    pub infer_us: u64,
    /// Submit→answer latency, µs.
    pub total_us: u64,
    /// Completion timestamp, µs since the recorder was created.
    pub t_us: u64,
}

const FIELDS: usize = 10;

impl TraceRecord {
    fn to_words(self) -> [u64; FIELDS] {
        [
            self.id,
            self.conn_gen,
            self.model,
            self.status,
            self.batch_id,
            self.batch_size,
            self.queue_us,
            self.infer_us,
            self.total_us,
            self.t_us,
        ]
    }

    fn from_words(w: [u64; FIELDS]) -> Self {
        Self {
            id: w[0],
            conn_gen: w[1],
            model: w[2],
            status: w[3],
            batch_id: w[4],
            batch_size: w[5],
            queue_us: w[6],
            infer_us: w[7],
            total_us: w[8],
            t_us: w[9],
        }
    }
}

/// One ring slot: a seqlock word plus the record's fields.
///
/// `seq` is `2·n + 1` while logical record `n` is being stored and
/// `2·n + 2` once it is consistent; `0` means never written. A reader
/// that sees the same even `seq` before and after reading the fields got
/// a torn-free record.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; FIELDS],
}

/// Fixed-capacity, lock-free ring buffer of [`TraceRecord`]s.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    start: Instant,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            // ordering: Relaxed — debug peek at the monotone counter.
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Recorder keeping the newest `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let slots: Vec<Slot> = (0..capacity.max(1)).map(|_| Slot::default()).collect();
        Self { slots: slots.into_boxed_slice(), head: AtomicU64::new(0), start: Instant::now() }
    }

    /// Microseconds since the recorder was created — the time base of
    /// [`TraceRecord::t_us`].
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Total records ever written (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        // ordering: Relaxed — pairs with `record`'s Relaxed fetch_add; a
        // monotone counter read in isolation needs no ordering.
        self.head.load(Ordering::Relaxed)
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one record. Lock-free: one `fetch_add` claims a logical
    /// position, then the slot publishes through its seqlock. A writer
    /// lapped mid-store simply produces a torn slot that readers skip.
    pub fn record(&self, record: &TraceRecord) {
        // ordering: Relaxed — the fetch_add only claims a unique logical
        // position; publication ordering is carried by `seq` below, and
        // `dump` treats its own `head` read as a racy snapshot.
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        slot.seq.store(2 * n + 1, Ordering::Release);
        // ordering: Relaxed — word stores are fenced by the surrounding
        // Release stores of `seq` and pair with `dump`'s Acquire loads:
        // a reader seeing `2n + 2` before and after its copy saw every
        // word of record n.
        for (dst, src) in slot.words.iter().zip(record.to_words()) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    /// Copies out every consistent record, oldest first. Slots caught
    /// mid-write (or overwritten while being read) are skipped rather
    /// than returned torn.
    pub fn dump(&self) -> Vec<TraceRecord> {
        // ordering: Relaxed — racy snapshot of `record`'s position
        // counter; staleness only under-reads the newest slots, and slot
        // consistency is carried entirely by `seq` below.
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - first) as usize);
        for n in first..head {
            let slot = &self.slots[(n % cap) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            if before != 2 * n + 2 {
                continue; // torn, lapped, or never written
            }
            let mut words = [0u64; FIELDS];
            // ordering: Relaxed — bracketed by the two Acquire loads of
            // `seq`, pairing with `record`'s Release stores; an unchanged
            // `seq` across the copy proves the words are from record n.
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) == before {
                out.push(TraceRecord::from_words(words));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> TraceRecord {
        TraceRecord {
            id,
            conn_gen: id * 7,
            model: 0,
            status: 200,
            batch_id: id / 3,
            batch_size: 2,
            queue_us: 10,
            infer_us: 20,
            total_us: 31,
            t_us: id,
        }
    }

    #[test]
    fn keeps_newest_capacity_records_in_order() {
        let r = FlightRecorder::new(4);
        for id in 0..10 {
            r.record(&rec(id));
        }
        let dump = r.dump();
        assert_eq!(dump.iter().map(|t| t.id).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(dump[0], rec(6));
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn partial_fill_dumps_only_written_slots() {
        let r = FlightRecorder::new(8);
        r.record(&rec(1));
        r.record(&rec(2));
        assert_eq!(r.dump().len(), 2);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_records() {
        // Writers store self-consistent records (every field derived from
        // id); any torn read would break the relation.
        let r = std::sync::Arc::new(FlightRecorder::new(16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..500 {
                        r.record(&rec(t * 1000 + i));
                    }
                });
            }
            for _ in 0..50 {
                for tr in r.dump() {
                    assert_eq!(tr.conn_gen, tr.id * 7, "torn record: {tr:?}");
                    assert_eq!(tr.t_us, tr.id);
                }
            }
        });
        assert_eq!(r.recorded(), 2000);
    }
}
