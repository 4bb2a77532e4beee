//! Multi-subscriber fan-out for NDJSON event streams.
//!
//! The [`EventSink`](crate::obs::EventSink) writes one JSON line per
//! lifecycle event to a single writer. A job service needs the opposite
//! cardinality: one producing run, any number of watching HTTP clients,
//! each arriving and leaving at its own pace. [`EventFanout`] is that
//! junction:
//!
//! * the producer side is an ordinary [`Write`] handle
//!   ([`EventFanout::writer`]), so an existing `EventSink` plugs in
//!   unchanged — workers keep the sink's never-block contract because
//!   publishing is a short mutex push, never I/O;
//! * every line is appended to a bounded replay **history**, so a
//!   subscriber that connects late (or after the run finished) still
//!   sees the whole stream up to the history cap;
//! * each [`FanoutSubscriber`] owns a bounded queue. A slow consumer
//!   sheds its *own* events — drops are counted per subscriber and
//!   reported when the stream ends, never inflicted on the producer or
//!   on other subscribers;
//! * [`close`](EventFanout::close) marks the stream complete; drained
//!   subscribers then observe [`FanoutClosed`] with their final drop
//!   accounting.
//!
//! Consumers *block*: [`FanoutSubscriber::wait`] sleeps on a condvar
//! that `publish` and `close` notify, so a line reaches its watchers
//! when it is published, not at the next tick of a timer. Producers
//! still never block: a notify is not a hand-off, and the serving
//! layer's event threads do their socket writes outside the fan-out
//! lock.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};

/// Default bound on replayable history lines.
pub const DEFAULT_HISTORY_CAPACITY: usize = 4096;

/// Default bound on one subscriber's unconsumed lines.
pub const DEFAULT_SUBSCRIBER_CAPACITY: usize = 4096;

/// One subscriber's queue and accounting inside the shared state.
struct SubState {
    id: u64,
    queue: VecDeque<Arc<str>>,
    capacity: usize,
    dropped: u64,
}

/// Shared fan-out state behind one mutex; every operation is a short
/// push/pop, never I/O.
struct FanoutState {
    history: VecDeque<Arc<str>>,
    history_capacity: usize,
    history_dropped: u64,
    subscribers: Vec<SubState>,
    next_sub: u64,
    published: u64,
    closed: bool,
}

/// A bounded broadcast hub for NDJSON event lines. See the module docs
/// for the contract.
pub struct EventFanout {
    state: Mutex<FanoutState>,
    /// Notified by `publish` and `close`; subscribers sleep on it.
    wake: Condvar,
    sub_capacity: usize,
}

/// The end of a subscriber's stream: the fan-out is closed and this
/// subscriber has consumed everything it was queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutClosed {
    /// Lines this subscriber lost to its own queue bound.
    pub dropped: u64,
}

impl EventFanout {
    /// A fan-out with the given history and per-subscriber queue bounds
    /// (each clamped to ≥ 1).
    pub fn new(history_capacity: usize, sub_capacity: usize) -> Arc<EventFanout> {
        Arc::new(EventFanout {
            state: Mutex::new(FanoutState {
                history: VecDeque::new(),
                history_capacity: history_capacity.max(1),
                history_dropped: 0,
                subscribers: Vec::new(),
                next_sub: 0,
                published: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            sub_capacity: sub_capacity.max(1),
        })
    }

    /// A fan-out with the default bounds.
    pub fn with_defaults() -> Arc<EventFanout> {
        EventFanout::new(DEFAULT_HISTORY_CAPACITY, DEFAULT_SUBSCRIBER_CAPACITY)
    }

    /// Publishes one event line (without trailing newline) to the
    /// history and every live subscriber. Short lock, no I/O, never
    /// blocks on a consumer.
    pub fn publish(&self, line: &str) {
        let line: Arc<str> = Arc::from(line);
        let mut s = self.state.lock().unwrap();
        s.published += 1;
        if s.history.len() >= s.history_capacity {
            s.history.pop_front();
            s.history_dropped += 1;
        }
        s.history.push_back(Arc::clone(&line));
        for sub in &mut s.subscribers {
            if sub.queue.len() >= sub.capacity {
                sub.dropped += 1;
            } else {
                sub.queue.push_back(Arc::clone(&line));
            }
        }
        drop(s);
        self.wake.notify_all();
    }

    /// Marks the stream complete. Idempotent; subscribers drain what
    /// they have queued and then observe [`FanoutClosed`].
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.wake.notify_all();
    }

    /// Whether [`close`](EventFanout::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// Total lines published so far.
    pub fn published(&self) -> u64 {
        self.state.lock().unwrap().published
    }

    /// Lines evicted from the replay history plus lines shed by
    /// *current* subscribers — the fan-out's total loss accounting.
    pub fn dropped(&self) -> u64 {
        let s = self.state.lock().unwrap();
        s.history_dropped + s.subscribers.iter().map(|sub| sub.dropped).sum::<u64>()
    }

    /// Registers a subscriber. Its queue starts with the replay history
    /// (subject to the subscriber bound — overflow counts as dropped),
    /// then receives every subsequently published line.
    pub fn subscribe(self: &Arc<Self>) -> FanoutSubscriber {
        let mut s = self.state.lock().unwrap();
        let id = s.next_sub;
        s.next_sub += 1;
        let mut sub = SubState {
            id,
            queue: VecDeque::new(),
            capacity: self.sub_capacity,
            dropped: s.history_dropped,
        };
        for line in &s.history {
            if sub.queue.len() >= sub.capacity {
                sub.dropped += 1;
            } else {
                sub.queue.push_back(Arc::clone(line));
            }
        }
        s.subscribers.push(sub);
        FanoutSubscriber {
            fanout: Arc::clone(self),
            id,
        }
    }

    /// A [`Write`] adapter feeding complete lines into the fan-out —
    /// hand it to [`EventSink::new`](crate::obs::EventSink::new) as the
    /// sink's writer.
    pub fn writer(self: &Arc<Self>) -> FanoutWriter {
        FanoutWriter {
            fanout: Arc::clone(self),
            partial: Vec::new(),
        }
    }
}

/// One consumer's handle; drop it to unsubscribe.
pub struct FanoutSubscriber {
    fanout: Arc<EventFanout>,
    id: u64,
}

impl FanoutSubscriber {
    /// Sleeps until this subscriber has lines queued and takes them all
    /// (never an empty batch).
    ///
    /// # Errors
    ///
    /// [`FanoutClosed`] once the stream is closed *and* the queue is
    /// empty.
    pub fn wait(&self) -> Result<Vec<Arc<str>>, FanoutClosed> {
        let mut s = self.fanout.state.lock().expect("fan-out lock");
        loop {
            let closed = s.closed;
            let sub = s
                .subscribers
                .iter_mut()
                .find(|sub| sub.id == self.id)
                .expect("subscriber still registered");
            if !sub.queue.is_empty() {
                return Ok(sub.queue.drain(..).collect());
            }
            if closed {
                return Err(FanoutClosed {
                    dropped: sub.dropped,
                });
            }
            s = self.fanout.wake.wait(s).expect("fan-out lock");
        }
    }

    /// Lines this subscriber has shed so far.
    pub fn dropped(&self) -> u64 {
        let s = self.fanout.state.lock().unwrap();
        s.subscribers
            .iter()
            .find(|sub| sub.id == self.id)
            .map_or(0, |sub| sub.dropped)
    }
}

impl Drop for FanoutSubscriber {
    fn drop(&mut self) {
        let mut s = self.fanout.state.lock().unwrap();
        s.subscribers.retain(|sub| sub.id != self.id);
    }
}

/// [`Write`] adapter buffering bytes into complete `\n`-terminated
/// lines and publishing each to the fan-out.
pub struct FanoutWriter {
    fanout: Arc<EventFanout>,
    partial: Vec<u8>,
}

impl Write for FanoutWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let rest = self.partial.split_off(pos + 1);
            let mut line = std::mem::replace(&mut self.partial, rest);
            line.pop(); // the newline
            self.fanout.publish(&String::from_utf8_lossy(&line));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::JsonValue;
    use crate::obs::EventSink;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A batch from a stream that must still be open. Only call `wait`
    /// where lines are queued or the stream is closed: it blocks.
    fn lines_of(batch: Result<Vec<Arc<str>>, FanoutClosed>) -> Vec<String> {
        batch
            .expect("stream still open")
            .iter()
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn every_subscriber_sees_every_line_in_order() {
        let f = EventFanout::new(64, 64);
        let a = f.subscribe();
        f.publish("one");
        let b = f.subscribe(); // late: replays history
        f.publish("two");
        assert_eq!(lines_of(a.wait()), vec!["one", "two"]);
        assert_eq!(lines_of(b.wait()), vec!["one", "two"]);
        f.close();
        assert_eq!(a.wait(), Err(FanoutClosed { dropped: 0 }));
        assert_eq!(b.wait(), Err(FanoutClosed { dropped: 0 }));
    }

    #[test]
    fn slow_subscriber_sheds_alone_with_accounting() {
        let f = EventFanout::new(64, 2);
        let slow = f.subscribe();
        for i in 0..5 {
            f.publish(&format!("l{i}"));
        }
        // The slow consumer kept the oldest two and shed three...
        assert_eq!(lines_of(slow.wait()), vec!["l0", "l1"]);
        assert_eq!(slow.dropped(), 3);
        // ...while a fresh subscriber replays from history untouched
        // (its own bound permitting).
        let fresh = f.subscribe();
        assert_eq!(lines_of(fresh.wait()).len(), 2);
        assert_eq!(fresh.dropped(), 3, "over its own 2-line bound");
        f.close();
        assert_eq!(slow.wait(), Err(FanoutClosed { dropped: 3 }));
        assert_eq!(f.published(), 5);
    }

    #[test]
    fn late_subscriber_after_close_still_replays_then_ends() {
        let f = EventFanout::new(64, 64);
        f.publish("only");
        f.close();
        let late = f.subscribe();
        assert_eq!(lines_of(late.wait()), vec!["only"]);
        assert_eq!(late.wait(), Err(FanoutClosed { dropped: 0 }));
    }

    #[test]
    fn history_eviction_is_counted_and_inherited() {
        let f = EventFanout::new(2, 64);
        for i in 0..5 {
            f.publish(&format!("l{i}"));
        }
        assert_eq!(f.dropped(), 3, "history evictions");
        let sub = f.subscribe();
        assert_eq!(lines_of(sub.wait()), vec!["l3", "l4"]);
        f.close();
        assert_eq!(
            sub.wait(),
            Err(FanoutClosed { dropped: 3 }),
            "a late subscriber inherits the eviction count so its \
             consumer knows the stream is lossy"
        );
    }

    #[test]
    fn event_sink_plugs_into_the_writer_side() {
        let f = EventFanout::with_defaults();
        let sink = EventSink::new(Box::new(f.writer()), 64);
        for i in 0..3u64 {
            sink.emit(&JsonValue::Obj(vec![("i".to_string(), JsonValue::Uint(i))]));
        }
        let report = sink.finish();
        assert_eq!(report.emitted, 3);
        let sub = f.subscribe();
        let lines = lines_of(sub.wait());
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = crate::obs::json::parse(line).expect("whole JSON lines");
            assert_eq!(v.get("i").and_then(|x| x.as_u64()), Some(i as u64));
        }
    }

    /// A consumer parked in `wait` is woken by each `publish` and by
    /// `close`. The consumer goes back to `wait` as soon as it has
    /// handed a batch over, so across the rounds the publisher finds it
    /// parked as well as still on its way there; a wake-up lost either
    /// way ends in the `recv_timeout`, not in a hung suite.
    #[test]
    fn blocked_wait_is_woken_by_publish_and_by_close() {
        const ROUNDS: usize = 200;
        let f = EventFanout::new(64, 64);
        let sub = f.subscribe();
        let (tx, rx) = mpsc::channel();
        let consumer = std::thread::spawn(move || loop {
            let batch = sub.wait();
            let ended = batch.is_err();
            tx.send(batch).expect("the test is still listening");
            if ended {
                return;
            }
        });
        assert!(rx.try_recv().is_err(), "nothing published, nothing seen");
        for i in 0..ROUNDS {
            let line = format!("l{i}");
            f.publish(&line);
            let batch = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("publish wakes the waiter");
            assert_eq!(lines_of(batch), vec![line]);
        }
        f.close();
        let end = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("close wakes the waiter");
        assert_eq!(end, Err(FanoutClosed { dropped: 0 }));
        consumer.join().expect("consumer thread");
    }

    #[test]
    fn concurrent_publishers_never_tear_lines() {
        let f = EventFanout::new(10_000, 10_000);
        let subs: Vec<_> = (0..4).map(|_| f.subscribe()).collect();
        let seen: Vec<usize> = std::thread::scope(|scope| {
            // Consumers block in `wait` while the publishers write.
            let consumers: Vec<_> = subs
                .iter()
                .map(|sub| {
                    scope.spawn(move || {
                        let mut seen = 0;
                        loop {
                            match sub.wait() {
                                Ok(lines) => {
                                    assert!(!lines.is_empty(), "wait never returns empty");
                                    for line in &lines {
                                        crate::obs::json::parse(line)
                                            .expect("interleaving never tears a line");
                                    }
                                    seen += lines.len();
                                }
                                Err(FanoutClosed { dropped }) => {
                                    assert_eq!(dropped, 0);
                                    return seen;
                                }
                            }
                        }
                    })
                })
                .collect();
            let publishers: Vec<_> = (0..4u64)
                .map(|t| {
                    let f = Arc::clone(&f);
                    scope.spawn(move || {
                        let mut w = f.writer();
                        for i in 0..100u64 {
                            w.write_all(format!("{{\"v\": {}}}\n", t * 1000 + i).as_bytes())
                                .unwrap();
                        }
                    })
                })
                .collect();
            for p in publishers {
                p.join().expect("publisher thread");
            }
            f.close();
            consumers
                .into_iter()
                .map(|c| c.join().expect("consumer thread"))
                .collect()
        });
        assert_eq!(seen, vec![400; 4]);
    }
}
