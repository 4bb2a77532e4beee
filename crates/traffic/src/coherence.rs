//! Snoopy-coherence trace synthesis — the substitute for the paper's
//! SESC-generated SPLASH2 traces (`DESIGN.md` substitution #1).
//!
//! The modeled system matches §4: 64 out-of-order cores with private
//! L1/L2 caches (sizes reduced to generate traffic), snoopy coherence
//! where L2 miss requests broadcast to every node, and cache-line
//! interleaved memory controllers with 80-cycle memory latency
//! (Table 4).
//!
//! The trace is **closed-loop**: timing lives in dependency think-times,
//! not absolute timestamps, so a faster network genuinely finishes the
//! workload sooner — which is what Figure 10's "network speedup"
//! measures. Each L2 miss of a core becomes a chain:
//!
//! 1. a **broadcast request** (GetS/GetX), eligible `gap` compute cycles
//!    after the response to the core's miss `outstanding` positions
//!    earlier (the MSHR window) and after the current barrier phase
//!    opened;
//! 2. a **unicast data response** from another cache (cache latency)
//!    when the line is shared, else from the home memory controller
//!    (80-cycle memory latency);
//! 3. occasionally a **writeback** of the evicted dirty line.
//!
//! Barrier-synchronized codes (Ocean, FMM, …) additionally emit, every
//! `barrier_every` misses, a per-core arrival message to a coordinator
//! and a release broadcast that gates every core's next phase. The
//! release makes all 64 cores fire their next miss broadcasts nearly
//! simultaneously — the storm that overflows Phastlane's 10-entry
//! buffers in §5.

use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::harness::{Dep, MsgId, Trace, TraceMessage};
use phastlane_netsim::packet::{DestSet, PacketKind};
use phastlane_netsim::rng::SimRng;

/// Memory latency in cycles (Table 4).
pub const MEMORY_LATENCY: u64 = 80;
/// Remote-cache access latency for cache-to-cache transfers.
pub const CACHE_LATENCY: u64 = 8;

/// Workload parameters for one benchmark (see [`crate::splash2`] for the
/// calibrated SPLASH2 set).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (figure label).
    pub name: &'static str,
    /// L2 misses each core suffers over the traced window.
    pub misses_per_core: usize,
    /// Fraction of misses that are writes/upgrades (GetX).
    pub write_fraction: f64,
    /// Fraction of misses served cache-to-cache (shared data) rather
    /// than from memory.
    pub shared_fraction: f64,
    /// Fraction of misses that also evict a dirty line (writeback).
    pub writeback_fraction: f64,
    /// Mean compute cycles between a core's consecutive misses.
    pub mean_gap: f64,
    /// Barrier phase length in misses (0 = no barriers).
    pub barrier_every: usize,
    /// Probability a response owner is the hot node (contended shared
    /// structures).
    pub hotspot_weight: f64,
    /// Outstanding-miss window per core (OoO MSHRs).
    pub outstanding: usize,
    /// Number of cores actively missing during the traced window (load
    /// imbalance; the rest only participate in barriers implicitly).
    pub active_cores: usize,
    /// RNG seed for this benchmark's trace.
    pub seed: u64,
}

/// Largest miss-count scale a replay accepts. Far above the largest
/// committed use (1.0, the full-scale Figures 10 and 11); at 100 the
/// largest profile (Radix, 8x8) is about four million messages, which
/// still generate in well under a gigabyte, where an unbounded scale
/// saturates the miss count and aborts on allocation.
pub const MAX_SCALE: f64 = 100.0;

/// Checks a miss-count scale for [`BenchmarkProfile::scaled`]: positive,
/// finite, and at most [`MAX_SCALE`].
///
/// # Errors
///
/// Names the rule `scale` breaks.
pub fn check_scale(scale: f64) -> Result<(), String> {
    if scale > 0.0 && scale <= MAX_SCALE {
        Ok(())
    } else {
        Err(format!(
            "scale must be a positive finite number at most {MAX_SCALE}"
        ))
    }
}

impl BenchmarkProfile {
    /// This profile sized for a run at `scale` on `mesh`: `scale` of its
    /// misses per core (`1.0` is the full trace; never fewer than two,
    /// so every core still has a miss to chain on) and no more active
    /// cores than the mesh has nodes. Callers bound `scale` with
    /// [`check_scale`].
    pub fn scaled(&self, scale: f64, mesh: Mesh) -> BenchmarkProfile {
        BenchmarkProfile {
            misses_per_core: ((self.misses_per_core as f64 * scale).round() as usize).max(2),
            active_cores: self.active_cores.min(mesh.nodes()),
            ..self.clone()
        }
    }
}

/// Generates a coherence trace for `profile` on `mesh`.
///
/// The result is deterministic in the profile's seed and passes
/// [`Trace::validate`].
///
/// # Panics
///
/// Panics if the profile has zero misses or a zero outstanding window.
pub fn generate_trace(mesh: Mesh, profile: &BenchmarkProfile) -> Trace {
    assert!(profile.misses_per_core > 0, "profile generates no misses");
    assert!(
        profile.outstanding > 0,
        "outstanding window must be positive"
    );
    assert!(profile.active_cores > 0, "need at least one active core");
    let mut rng = SimRng::seed_from_u64(profile.seed);
    let nodes = mesh.nodes();
    let active = profile.active_cores.min(nodes);
    let hot = NodeId((nodes / 2) as u16);
    let coordinator = hot;

    let mut messages: Vec<TraceMessage> = Vec::new();
    let mut next_id = 0u32;
    let mut fresh_id = move || {
        let id = MsgId(next_id);
        next_id += 1;
        id
    };

    // Per-core state across phases.
    let mut responses: Vec<Vec<MsgId>> = vec![Vec::new(); nodes]; // all resp ids, per core
    let mut issued: Vec<usize> = vec![0; nodes];
    let mut release: Option<MsgId> = None;

    let phase_len = if profile.barrier_every == 0 {
        profile.misses_per_core
    } else {
        profile.barrier_every
    };
    let phases = profile.misses_per_core.div_ceil(phase_len);

    for phase in 0..phases {
        let remaining = profile.misses_per_core - phase * phase_len;
        let this_phase = remaining.min(phase_len);

        // Misses of this phase, core-major. Only active cores miss;
        // inactive ones compute locally.
        for core_idx in 0..active {
            let core = NodeId(core_idx as u16);
            for _ in 0..this_phase {
                let i = issued[core_idx];
                let gap = sample_geometric(&mut rng, profile.mean_gap);

                let mut deps: Vec<Dep> = Vec::new();
                if i >= profile.outstanding {
                    // The window dep waits for the response to arrive at
                    // this core (responses are unicasts to the core).
                    deps.push(Dep::at(responses[core_idx][i - profile.outstanding], core));
                }
                // The first `outstanding` misses of a post-barrier phase
                // gate on the phase's release broadcast; later misses are
                // already chained to this phase's own responses through
                // the window dependency.
                if let Some(r) = release {
                    let local = i - phase * phase_len;
                    if local < profile.outstanding {
                        // The release is a broadcast; this core proceeds
                        // once its own copy arrives. The coordinator is
                        // not a destination of its own broadcast, so it
                        // waits for full delivery instead.
                        if core == coordinator {
                            deps.push(Dep::full(r));
                        } else {
                            deps.push(Dep::at(r, core));
                        }
                    }
                }

                let is_write = rng.gen_bool(profile.write_fraction);
                let req_kind = if is_write {
                    PacketKind::WriteRequest
                } else {
                    PacketKind::ReadRequest
                };
                let req_id = fresh_id();
                messages.push(TraceMessage {
                    id: req_id,
                    src: core,
                    dests: DestSet::Broadcast,
                    kind: req_kind,
                    // A small stagger floor for the dependency-free first
                    // misses; everything else is think-time driven.
                    earliest: if deps.is_empty() {
                        (core_idx as u64 % 8) + gap
                    } else {
                        0
                    },
                    deps,
                    think: gap,
                });

                let shared = rng.gen_bool(profile.shared_fraction);
                let owner = pick_other(&mut rng, nodes, core, hot, profile.hotspot_weight);
                let think = if shared {
                    CACHE_LATENCY
                } else {
                    MEMORY_LATENCY
                };
                let resp_id = fresh_id();
                messages.push(TraceMessage {
                    id: resp_id,
                    src: owner,
                    dests: DestSet::Unicast(core),
                    kind: PacketKind::DataResponse,
                    earliest: 0,
                    // The owner answers as soon as the broadcast request
                    // reaches *it* — not every snooper.
                    deps: vec![Dep::at(req_id, owner)],
                    think,
                });
                responses[core_idx].push(resp_id);

                if rng.gen_bool(profile.writeback_fraction) {
                    let home = pick_other(&mut rng, nodes, core, hot, 0.0);
                    messages.push(TraceMessage {
                        id: fresh_id(),
                        src: core,
                        dests: DestSet::Unicast(home),
                        kind: PacketKind::Writeback,
                        earliest: 0,
                        deps: vec![Dep::at(req_id, home)],
                        think: 0,
                    });
                }
                issued[core_idx] += 1;
            }
        }

        // Barrier: every core reports arrival once its outstanding misses
        // of the phase resolved; the coordinator's release broadcast
        // opens the next phase for everyone at once.
        let is_last = phase + 1 == phases;
        if profile.barrier_every > 0 && !is_last {
            let mut arrival_ids = Vec::with_capacity(active);
            for core_idx in 0..active {
                let core = NodeId(core_idx as u16);
                let tail = profile.outstanding.min(responses[core_idx].len());
                let deps: Vec<Dep> = responses[core_idx][responses[core_idx].len() - tail..]
                    .iter()
                    .map(|&r| Dep::at(r, core))
                    .collect();
                let arr_id = fresh_id();
                messages.push(TraceMessage {
                    id: arr_id,
                    src: core,
                    dests: DestSet::Unicast(coordinator),
                    kind: PacketKind::Data,
                    earliest: 0,
                    deps,
                    think: 1,
                });
                arrival_ids.push(arr_id);
            }
            let rel_id = fresh_id();
            messages.push(TraceMessage {
                id: rel_id,
                src: coordinator,
                dests: DestSet::Broadcast,
                kind: PacketKind::Invalidate,
                earliest: 0,
                deps: arrival_ids
                    .iter()
                    .zip(0..active)
                    .map(|(&a, core_idx)| {
                        if NodeId(core_idx as u16) == coordinator {
                            // The coordinator's own arrival is a self-send
                            // with no network destinations.
                            Dep::full(a)
                        } else {
                            Dep::at(a, coordinator)
                        }
                    })
                    .collect(),
                think: 1,
            });
            release = Some(rel_id);
        }
    }

    let trace = Trace { messages };
    debug_assert!(trace.validate().is_ok());
    trace
}

fn sample_geometric(rng: &mut SimRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    // Inverse-CDF exponential, rounded.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean * u.ln()).round() as u64
}

fn pick_other(rng: &mut SimRng, nodes: usize, not: NodeId, hot: NodeId, hot_weight: f64) -> NodeId {
    if hot != not && hot_weight > 0.0 && rng.gen_bool(hot_weight.clamp(0.0, 1.0)) {
        return hot;
    }
    loop {
        let n = NodeId(rng.gen_range(0..nodes) as u16);
        if n != not {
            return n;
        }
    }
}

/// Per-kind message counts of a trace (used by tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceProfile {
    /// Broadcast coherence requests.
    pub requests: usize,
    /// Unicast data responses.
    pub responses: usize,
    /// Writebacks.
    pub writebacks: usize,
    /// Barrier arrivals and releases.
    pub barrier_msgs: usize,
}

/// Summarizes a trace's message mix.
pub fn summarize(trace: &Trace) -> TraceProfile {
    let mut p = TraceProfile::default();
    for m in &trace.messages {
        match m.kind {
            PacketKind::ReadRequest | PacketKind::WriteRequest => p.requests += 1,
            PacketKind::DataResponse => p.responses += 1,
            PacketKind::Writeback => p.writebacks += 1,
            PacketKind::Data | PacketKind::Invalidate => p.barrier_msgs += 1,
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "test",
            misses_per_core: 20,
            write_fraction: 0.3,
            shared_fraction: 0.6,
            writeback_fraction: 0.25,
            mean_gap: 30.0,
            barrier_every: 0,
            hotspot_weight: 0.1,
            outstanding: 4,
            active_cores: 64,
            seed: 11,
        }
    }

    #[test]
    fn scaled_sizes_misses_and_clamps_cores_to_the_mesh() {
        let p = profile();
        // Rounded, never below two.
        for (scale, misses) in [(0.5, 10), (0.33, 7), (0.001, 2)] {
            assert_eq!(p.scaled(scale, Mesh::PAPER).misses_per_core, misses);
        }
        assert_eq!(p.scaled(1.0, Mesh::PAPER), p);
        let small = p.scaled(1.0, Mesh::new(4, 4));
        assert_eq!(small.active_cores, 16);
        assert_eq!(small.seed, p.seed);
    }

    #[test]
    fn trace_validates_and_has_expected_volume() {
        let t = generate_trace(Mesh::PAPER, &profile());
        assert!(t.validate().is_ok());
        let s = summarize(&t);
        assert_eq!(s.requests, 64 * 20);
        assert_eq!(s.responses, 64 * 20);
        let expect = (64.0 * 20.0 * 0.25) as usize;
        assert!(
            s.writebacks.abs_diff(expect) < expect / 2,
            "writebacks {}",
            s.writebacks
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_trace(Mesh::PAPER, &profile());
        let b = generate_trace(Mesh::PAPER, &profile());
        assert_eq!(a, b);
        let mut p2 = profile();
        p2.seed = 12;
        assert_ne!(generate_trace(Mesh::PAPER, &p2), a);
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "test: lookups only")]
    fn responses_depend_on_their_requests() {
        let t = generate_trace(Mesh::PAPER, &profile());
        let by_id: std::collections::HashMap<_, _> = t.messages.iter().map(|m| (m.id, m)).collect();
        for m in &t.messages {
            if m.kind == PacketKind::DataResponse {
                assert_eq!(m.deps.len(), 1);
                let req = by_id[&m.deps[0].msg];
                assert!(req.kind.is_snoop_broadcast());
                assert_eq!(m.dests, DestSet::Unicast(req.src));
            }
        }
    }

    #[test]
    fn window_dependency_throttles_cores() {
        let mut p = profile();
        p.outstanding = 2;
        let t = generate_trace(Mesh::PAPER, &p);
        let reqs: Vec<_> = t
            .messages
            .iter()
            .filter(|m| m.kind.is_snoop_broadcast() && m.src == NodeId(0))
            .collect();
        let with_dep = reqs.iter().filter(|m| !m.deps.is_empty()).count();
        assert_eq!(with_dep, reqs.len() - 2);
    }

    #[test]
    fn barriers_emit_arrivals_and_releases() {
        let mut p = profile();
        p.barrier_every = 5; // 20 misses -> 4 phases -> 3 barriers
        let t = generate_trace(Mesh::PAPER, &p);
        let s = summarize(&t);
        assert_eq!(s.barrier_msgs, 3 * (64 + 1));
        // Releases are broadcasts from the coordinator.
        let releases: Vec<_> = t
            .messages
            .iter()
            .filter(|m| m.kind == PacketKind::Invalidate)
            .collect();
        assert_eq!(releases.len(), 3);
        for r in releases {
            assert_eq!(r.deps.len(), 64, "release waits for every core's arrival");
            assert_eq!(r.dests, DestSet::Broadcast);
        }
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "test: membership checks only")]
    fn post_barrier_misses_gate_on_release() {
        let mut p = profile();
        p.barrier_every = 5;
        p.outstanding = 2;
        let t = generate_trace(Mesh::PAPER, &p);
        let release_ids: std::collections::HashSet<MsgId> = t
            .messages
            .iter()
            .filter(|m| m.kind == PacketKind::Invalidate)
            .map(|m| m.id)
            .collect();
        let gated = t
            .messages
            .iter()
            .filter(|m| {
                m.kind.is_snoop_broadcast() && m.deps.iter().any(|d| release_ids.contains(&d.msg))
            })
            .count();
        // Each of 3 releases gates `outstanding` misses per core.
        assert_eq!(gated, 3 * 64 * 2);
    }

    #[test]
    fn hotspot_weight_concentrates_owners() {
        let mut p = profile();
        p.hotspot_weight = 0.9;
        let t = generate_trace(Mesh::PAPER, &p);
        let hot = NodeId(32);
        let resp: Vec<_> = t
            .messages
            .iter()
            .filter(|m| m.kind == PacketKind::DataResponse)
            .collect();
        let hot_owned = resp.iter().filter(|m| m.src == hot).count();
        assert!(
            hot_owned as f64 > 0.7 * resp.len() as f64,
            "{hot_owned}/{} responses from the hot node",
            resp.len()
        );
    }

    #[test]
    #[should_panic(expected = "no misses")]
    fn empty_profile_rejected() {
        let mut p = profile();
        p.misses_per_core = 0;
        let _ = generate_trace(Mesh::PAPER, &p);
    }
}
