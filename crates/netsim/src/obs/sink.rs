//! Bounded, backpressure-aware NDJSON event sink for streaming
//! progress.
//!
//! The lab worker pool streams lifecycle events to an observer
//! *without* perturbing the run: a slow or blocked consumer must never
//! stall a worker thread, and the canonical results must stay
//! byte-identical whether or not anyone is watching. An [`EventSink`]
//! keeps that contract by publishing into an [`EventFanout`], the one
//! event queue there is:
//!
//! * [`emit`](EventSink::emit) serialises the event once and publishes
//!   the compact line — a short mutex push, never I/O;
//! * a sink made by [`new`](EventSink::new) owns a fan-out with one
//!   subscriber, its writer. That subscriber's bounded queue is the
//!   sink's bound: when it is full the event is **dropped and counted**
//!   — backpressure sheds load instead of propagating into the
//!   simulation. After publishing, the emitter *opportunistically*
//!   `try_lock`s the writer and drains the queue into it; if another
//!   thread holds the writer, the line rides along with that thread's
//!   drain — nobody ever blocks on I/O except the final
//!   [`finish`](EventSink::finish);
//! * a sink made by [`publishing`](EventSink::publishing) has no writer:
//!   its lines go straight to a fan-out whose subscribers read at their
//!   own pace (the serving layer's event streams);
//! * [`finish`](EventSink::finish) performs one blocking drain and
//!   returns the delivery accounting ([`SinkReport`]), so a lossy
//!   stream is always visible as such. It never closes the fan-out:
//!   whoever owns the stream decides when it is complete.
//!
//! Events are NDJSON: one compact JSON object per line, each carrying an
//! `"event"` discriminator key and a `schema_version` ([`stamped`]).

use crate::obs::fanout::{EventFanout, FanoutSubscriber};
use crate::obs::json::JsonValue;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Version stamp carried by every NDJSON lifecycle event and by the
/// `phastlane-serve` job-status JSON as a `schema_version` field, so
/// API consumers can detect format drift instead of misparsing it.
/// Bump it whenever an existing field changes meaning or shape; adding
/// fields is backward-compatible and does not require a bump.
pub const EVENT_SCHEMA_VERSION: u64 = 1;

/// A schema-stamped JSON object: `event` first when given (a lifecycle
/// line), then `schema_version`, then `fields` in their order.
pub fn stamped(event: Option<&str>, fields: Vec<(String, JsonValue)>) -> JsonValue {
    let event = event.map(|kind| ("event".to_string(), JsonValue::Str(kind.into())));
    let version = (
        "schema_version".to_string(),
        JsonValue::Uint(EVENT_SCHEMA_VERSION),
    );
    JsonValue::Obj(event.into_iter().chain([version]).chain(fields).collect())
}

/// Delivery accounting returned by [`EventSink::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkReport {
    /// Events accepted into the writer's queue and written (or pending
    /// write errors); every event, for a sink without a writer.
    pub emitted: u64,
    /// Events shed because the writer's queue was full.
    pub dropped: u64,
    /// Lines whose write failed (stream kept going).
    pub write_errors: u64,
}

/// The writer subscriber of a sink made by [`EventSink::new`].
struct WriterEnd {
    sub: FanoutSubscriber,
    /// The writer and the count of lines it failed to take.
    out: Mutex<(Box<dyn Write + Send>, u64)>,
}

impl WriterEnd {
    /// Writes every line queued for the writer, one batch per `take`,
    /// so publishers are never held up behind I/O.
    fn drain(&self, (w, write_errors): &mut (Box<dyn Write + Send>, u64)) {
        loop {
            let lines = self.sub.take();
            if lines.is_empty() {
                break;
            }
            let mut batch = String::new();
            for line in &lines {
                batch.push_str(line);
                batch.push('\n');
            }
            if w.write_all(batch.as_bytes()).is_err() {
                *write_errors += lines.len() as u64;
            }
        }
        let _ = w.flush();
    }
}

/// A thread-safe NDJSON event publisher. See the module docs for the
/// backpressure contract.
pub struct EventSink {
    fanout: Arc<EventFanout>,
    writer: Option<WriterEnd>,
}

impl EventSink {
    /// Default bound on queued-but-unwritten events.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A sink writing NDJSON lines to `writer`, queueing at most
    /// `capacity` unwritten events (clamped to ≥ 1).
    pub fn new(writer: Box<dyn Write + Send>, capacity: usize) -> Self {
        // The writer is the only reader: nobody replays the history.
        let fanout = EventFanout::new(1, capacity);
        let sub = fanout.subscribe();
        EventSink {
            fanout,
            writer: Some(WriterEnd {
                sub,
                out: Mutex::new((writer, 0)),
            }),
        }
    }

    /// A sink publishing straight into `fanout`, for its subscribers to
    /// read; it has no writer and no bound of its own.
    pub fn publishing(fanout: Arc<EventFanout>) -> Self {
        EventSink {
            fanout,
            writer: None,
        }
    }

    /// Publishes one event as a compact JSON line and opportunistically
    /// drains the writer's queue. Never blocks on the writer; the
    /// writer's queue sheds the event (counted) if it is full.
    pub fn emit(&self, event: &JsonValue) {
        self.fanout.publish(&event.to_string_compact());
        if let Some(end) = &self.writer {
            if let Ok(mut out) = end.out.try_lock() {
                end.drain(&mut out);
            }
        }
    }

    /// Final blocking drain; returns the delivery accounting.
    pub fn finish(&self) -> SinkReport {
        let Some(end) = &self.writer else {
            return SinkReport {
                emitted: self.fanout.published(),
                ..SinkReport::default()
            };
        };
        let mut out = end.out.lock().unwrap();
        end.drain(&mut out);
        // A line is shed as it is published, so read the drops first.
        let dropped = end.sub.dropped();
        SinkReport {
            emitted: self.fanout.published() - dropped,
            dropped,
            write_errors: out.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Test writer capturing bytes behind a shared handle.
    #[derive(Clone, Default)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn event(i: u64) -> JsonValue {
        JsonValue::Obj(vec![
            ("event".to_string(), JsonValue::Str("test".to_string())),
            ("i".to_string(), JsonValue::Uint(i)),
        ])
    }

    #[test]
    fn writes_one_parseable_json_object_per_line() {
        let cap = Capture::default();
        let sink = EventSink::new(Box::new(cap.clone()), 64);
        for i in 0..5 {
            sink.emit(&event(i));
        }
        let report = sink.finish();
        assert_eq!(report.emitted, 5);
        assert_eq!(report.dropped, 0);
        let text = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).expect("each line is valid JSON");
            assert_eq!(v.get("event").unwrap().as_str(), Some("test"));
            assert_eq!(v.get("i").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn full_queue_sheds_and_counts_instead_of_blocking() {
        /// A writer that always fails, so the queue can only grow.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("down"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Hold the writer lock so emits cannot drain.
        let sink = EventSink::new(Box::new(Broken), 2);
        let guard = sink.writer.as_ref().unwrap().out.lock().unwrap();
        for i in 0..5 {
            sink.emit(&event(i));
        }
        drop(guard);
        let report = sink.finish();
        assert_eq!(report.emitted, 2, "queue capacity");
        assert_eq!(report.dropped, 3, "overflow shed, not blocked");
        assert_eq!(report.write_errors, 2, "failed writes surfaced");
    }

    #[test]
    fn stalled_consumer_sheds_deterministically_and_recovers() {
        use std::sync::Condvar;

        /// Writer whose first write parks on a condvar until the test
        /// opens the gate — a deterministic stand-in for a consumer
        /// that stopped reading (full pipe, wedged terminal).
        struct Gate {
            open: StdMutex<bool>,
            arrived: StdMutex<bool>,
            cv: Condvar,
        }
        struct GatedWriter(Arc<Gate>, Capture);
        impl Write for GatedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                *self.0.arrived.lock().unwrap() = true;
                self.0.cv.notify_all();
                let mut open = self.0.open.lock().unwrap();
                while !*open {
                    open = self.0.cv.wait(open).unwrap();
                }
                drop(open);
                self.1.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let gate = Arc::new(Gate {
            open: StdMutex::new(false),
            arrived: StdMutex::new(false),
            cv: Condvar::new(),
        });
        let cap = Capture::default();
        let sink = Arc::new(EventSink::new(
            Box::new(GatedWriter(Arc::clone(&gate), cap.clone())),
            4,
        ));

        // This emit drains its own event and parks inside write(),
        // holding the writer lock.
        let parked = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || sink.emit(&event(0)))
        };
        {
            let mut arrived = gate.arrived.lock().unwrap();
            while !*arrived {
                arrived = gate.cv.wait(arrived).unwrap();
            }
        }

        // With the writer wedged, emits queue up to capacity (4) and
        // shed the rest — none of these calls may block.
        for i in 1..=7 {
            sink.emit(&event(i));
        }

        // Open the gate: the parked drain resumes and flushes the queue.
        *gate.open.lock().unwrap() = true;
        gate.cv.notify_all();
        parked.join().unwrap();

        let report = sink.finish();
        assert_eq!(report.emitted, 5, "1 draining + 4 queued");
        assert_eq!(report.dropped, 3, "overflow shed while stalled");
        assert_eq!(report.write_errors, 0);
        let text = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 5, "every accepted event written");
    }

    #[test]
    fn concurrent_emitters_lose_nothing_under_capacity() {
        let cap = Capture::default();
        let sink = Arc::new(EventSink::new(Box::new(cap.clone()), 10_000));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.emit(&event(t * 1000 + i));
                    }
                });
            }
        });
        let report = sink.finish();
        assert_eq!(report.emitted, 400);
        assert_eq!(report.dropped, 0);
        let text = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 400);
        for line in text.lines() {
            json::parse(line).expect("interleaving never corrupts lines");
        }
    }
}
