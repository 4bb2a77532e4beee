//! In-memory spans for the traced pass.
//!
//! Every span is recorded from the benchmark's own code, around a call
//! into a public function of one layer; nothing inside `crates/` knows
//! it is being traced. Spans stay in memory and are written once, when
//! the traced pass ends.

use phastlane_netsim::obs::json::JsonValue;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// Matrix index of the lab job (or submission number on the serve
    /// workload) this span belongs to; spans of one job share it.
    pub job: Option<usize>,
    /// The repo module that did the work (`core`, `lab`, `serve`, ...);
    /// `bench` marks the benchmark's own glue.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many calls the span summarises (1 for an ordinary span; the
    /// call count for a per-function aggregate of a hot loop).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant `start_ns` / `end_ns` count from, for code that takes
    /// its own readings on other threads and records them afterwards.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`close`](Tracer::close) ends it.
    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        job: Option<usize>,
        layer: &'static str,
        name: &'static str,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(parent, job, layer, name, now, now, 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an interval measured elsewhere (another thread's request,
    /// or the busy time a [`crate::timed::Timed`] decorator summed up).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        job: Option<usize>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            job,
            layer,
            name,
            start_ns,
            end_ns,
            calls,
        });
        self.spans.len() - 1
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Duration of the first direct child of `parent` with this layer
    /// and name.
    pub fn child_duration_ns(&self, parent: SpanId, layer: &str, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.parent == Some(parent) && s.layer == layer && s.name == name)
            .map(Span::duration_ns)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Children may overlap
    /// each other (concurrent requests) and are clipped to the parent,
    /// so covered time is the length of their union, not their sum.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Share of `root`'s duration that lies in spans of a named layer:
    /// everything under it except the self time of `bench` glue spans.
    pub fn attributed_share(&self, root: SpanId) -> f64 {
        let self_ns = self.self_times_ns();
        let mut under_root = vec![false; self.spans.len()];
        let mut glue = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            under_root[i] = i == root || s.parent.is_some_and(|p| under_root[p]);
            if under_root[i] && s.layer == "bench" {
                glue += self_ns[i];
            }
        }
        let total = self.spans[root].duration_ns();
        if total == 0 {
            return 0.0;
        }
        1.0 - glue as f64 / total as f64
    }

    /// `{id, parent, workload, job, layer, name, start_ns, end_ns,
    /// calls}` per span, in recording order.
    pub fn to_json(&self, workload: &str) -> JsonValue {
        let opt = |v: Option<usize>| v.map_or(JsonValue::Null, |v| JsonValue::Uint(v as u64));
        JsonValue::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    JsonValue::Obj(vec![
                        ("id".into(), JsonValue::Uint(id as u64)),
                        ("parent".into(), opt(s.parent)),
                        ("workload".into(), JsonValue::Str(workload.into())),
                        ("job".into(), opt(s.job)),
                        ("layer".into(), JsonValue::Str(s.layer.into())),
                        ("name".into(), JsonValue::Str(s.name.into())),
                        ("start_ns".into(), JsonValue::Uint(s.start_ns)),
                        ("end_ns".into(), JsonValue::Uint(s.end_ns)),
                        ("calls".into(), JsonValue::Uint(s.calls)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(Option<SpanId>, &'static str, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(parent, layer, start, end) in spans {
            t.record(parent, None, layer, "x", start, end, 1);
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t = tracer_with(&[
            (None, "bench", 0, 100),
            (Some(0), "serve", 10, 40),
            (Some(0), "serve", 30, 60), // overlaps the previous child
            (Some(0), "serve", 80, 90),
        ]);
        // Covered: [10, 60) and [80, 90) = 60 ns, not 30 + 30 + 10.
        assert_eq!(t.self_times_ns(), vec![40, 30, 30, 10]);
    }

    #[test]
    fn self_time_counts_direct_children_only_and_clips_to_the_parent() {
        let t = tracer_with(&[
            (None, "bench", 0, 100),
            (Some(0), "lab", 20, 80),
            (Some(1), "core", 30, 70), // grandchild: not subtracted from span 0
            (Some(0), "lab", 90, 130), // runs past the parent's end
        ]);
        assert_eq!(t.self_times_ns(), vec![100 - 60 - 10, 20, 40, 40]);
    }

    #[test]
    fn attributed_share_excludes_only_glue_self_time() {
        let t = tracer_with(&[
            (None, "bench", 0, 100),
            (Some(0), "lab", 0, 90),
            (Some(1), "bench", 10, 20),
            (None, "bench", 0, 1000), // outside the root: ignored
        ]);
        // Glue: 10 ns of the root + 10 ns of the nested bench span.
        assert!((t.attributed_share(0) - 0.8).abs() < 1e-12);
    }
}
