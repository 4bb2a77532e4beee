//! Cache-accurate coherence trace generation: the higher-fidelity
//! alternative to the statistical synthesizer in [`crate::coherence`].
//!
//! Each core runs a synthetic address stream through a real Table 4 cache
//! hierarchy ([`crate::cache`]). Only actual L2 misses, upgrades of
//! genuinely shared lines, and real dirty evictions generate network
//! messages, with a global line-state map (the generator's omniscient
//! view of the snoopy protocol) deciding who responds:
//!
//! * **GetS/GetX broadcast** on an L2 miss; the data response comes from
//!   the dirty owner or a sharer (cache-to-cache latency) when one
//!   exists, otherwise from the block's home memory controller (80-cycle
//!   memory latency);
//! * **Invalidate broadcast** when a core writes a line that other
//!   caches share (the remote hierarchies really invalidate, raising
//!   their future miss rates);
//! * **Writeback** to the home controller on a dirty L2 eviction.
//!
//! Timing is closed-loop exactly as in [`crate::coherence`]: compute and
//! hit cycles accumulate into think-times on the MSHR-window dependency.

use crate::cache::{CacheHierarchy, HierarchyOutcome};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::harness::{Dep, MsgId, Trace, TraceMessage};
use phastlane_netsim::mask::NodeMask;
use phastlane_netsim::packet::{DestSet, PacketKind};
use phastlane_netsim::rng::SimRng;

/// Cycles an L1 hit costs the core.
pub const L1_HIT_CYCLES: u64 = 1;
/// Cycles an L2 hit costs the core.
pub const L2_HIT_CYCLES: u64 = 8;

/// An address-stream + cache workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Memory accesses each active core performs.
    pub accesses_per_core: usize,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Per-core private region size in bytes.
    pub private_bytes: u64,
    /// Shared region size in bytes (one region for all cores).
    pub shared_bytes: u64,
    /// Probability an access targets the shared region.
    pub shared_fraction: f64,
    /// Probability an access continues sequentially from the previous
    /// one (vs. jumping to a random address in the region).
    pub locality: f64,
    /// Compute cycles between consecutive accesses.
    pub compute_per_access: u64,
    /// Outstanding-miss window per core.
    pub outstanding: usize,
    /// Number of actively-missing cores.
    pub active_cores: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CacheWorkload {
    /// A dense streaming workload: long sequential sweeps over a shared
    /// array (FFT/Ocean-like).
    pub fn streaming() -> Self {
        CacheWorkload {
            name: "streaming",
            accesses_per_core: 30_000,
            write_fraction: 0.3,
            private_bytes: 64 * 1024,
            shared_bytes: 8 * 1024 * 1024,
            shared_fraction: 0.6,
            locality: 0.95,
            compute_per_access: 1,
            outstanding: 4,
            active_cores: 64,
            seed: 0xCAC4_E001,
        }
    }

    /// A pointer-chasing workload: poor locality over a large shared
    /// heap (Barnes/Raytrace-like).
    pub fn pointer_chase() -> Self {
        CacheWorkload {
            name: "pointer-chase",
            accesses_per_core: 12_000,
            write_fraction: 0.1,
            private_bytes: 32 * 1024,
            shared_bytes: 16 * 1024 * 1024,
            shared_fraction: 0.7,
            locality: 0.35,
            compute_per_access: 2,
            outstanding: 1,
            active_cores: 32,
            seed: 0xCAC4_E002,
        }
    }

    /// A write-sharing workload: cores ping-pong ownership of a small hot
    /// shared set (lock/flag-like), maximizing invalidations.
    pub fn write_sharing() -> Self {
        CacheWorkload {
            name: "write-sharing",
            accesses_per_core: 8_000,
            write_fraction: 0.5,
            private_bytes: 32 * 1024,
            shared_bytes: 64 * 1024,
            shared_fraction: 0.5,
            locality: 0.5,
            compute_per_access: 3,
            outstanding: 2,
            active_cores: 64,
            seed: 0xCAC4_E003,
        }
    }
}

/// Global (omniscient) state of one cache line in the snoopy protocol.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    /// Cores whose L2 may hold the line.
    sharers: NodeMask,
    /// Core holding the line modified, if any.
    owner: Option<u16>,
}

/// Summary of the cache simulation behind a generated trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheSimReport {
    /// Total memory accesses simulated.
    pub accesses: u64,
    /// L2 misses (network fetches).
    pub l2_misses: u64,
    /// Upgrade invalidations of genuinely shared lines.
    pub invalidations: u64,
    /// Dirty-eviction writebacks.
    pub writebacks: u64,
    /// Responses served cache-to-cache (vs. memory).
    pub cache_to_cache: u64,
}

impl CacheSimReport {
    /// Global L2 miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.accesses as f64
        }
    }
}

/// Runs the cache simulation and produces a closed-loop coherence trace.
///
/// # Panics
///
/// Panics on a degenerate workload (zero accesses, cores, or window).
pub fn generate_cache_trace(mesh: Mesh, w: &CacheWorkload) -> (Trace, CacheSimReport) {
    assert!(w.accesses_per_core > 0, "workload performs no accesses");
    assert!(w.outstanding > 0, "outstanding window must be positive");
    assert!(w.active_cores > 0, "need at least one active core");
    let nodes = mesh.nodes();
    let active = w.active_cores.min(nodes);
    let mut rng = SimRng::seed_from_u64(w.seed);

    let mut hierarchies: Vec<CacheHierarchy> =
        (0..active).map(|_| CacheHierarchy::table4()).collect();
    let mut lines: std::collections::HashMap<u64, LineState> = std::collections::HashMap::new();
    let mut report = CacheSimReport::default();

    let mut messages: Vec<TraceMessage> = Vec::new();
    let mut next_id = 0u32;
    // Per-core: response ids of past misses (window deps) and the compute
    // time accumulated since the previous miss.
    let mut responses: Vec<Vec<MsgId>> = vec![Vec::new(); active];
    let mut gap: Vec<u64> = vec![0; active];
    // Per-core address cursors.
    let mut cursor_priv: Vec<u64> = (0..active).map(|_| 0).collect();
    let mut cursor_shared: Vec<u64> = (0..active as u64).map(|c| c * 4096).collect();

    // Interleave cores access by access so shared-line interactions are
    // realistic.
    for _round in 0..w.accesses_per_core {
        for core_idx in 0..active {
            let core = NodeId(core_idx as u16);
            report.accesses += 1;
            let shared = rng.gen_bool(w.shared_fraction);
            let write = rng.gen_bool(w.write_fraction);

            // The shared region lives above every private region.
            let addr = if shared {
                let cur = &mut cursor_shared[core_idx];
                (nodes as u64) * w.private_bytes
                    + advance(cur, w.shared_bytes, w.locality, &mut rng)
            } else {
                let cur = &mut cursor_priv[core_idx];
                (core_idx as u64) * w.private_bytes
                    + advance(cur, w.private_bytes, w.locality, &mut rng)
            };

            let block = crate::cache::CacheConfig::L2_SIM.block_of(addr);
            let outcome = hierarchies[core_idx].access(addr, write);
            match outcome {
                hit @ (HierarchyOutcome::L1Hit | HierarchyOutcome::L2Hit) => {
                    let hit_cycles = if hit == HierarchyOutcome::L1Hit {
                        L1_HIT_CYCLES
                    } else {
                        L2_HIT_CYCLES
                    };
                    gap[core_idx] += w.compute_per_access + hit_cycles;
                    if write {
                        upgrade_if_shared(
                            mesh,
                            core,
                            block,
                            &mut lines,
                            &mut hierarchies,
                            &mut messages,
                            &mut next_id,
                            &mut report,
                            &responses[core_idx],
                            w,
                            gap[core_idx],
                        );
                    }
                }
                HierarchyOutcome::L2Miss {
                    block: l2_block,
                    writeback,
                } => {
                    report.l2_misses += 1;
                    let i = responses[core_idx].len();
                    let mut deps: Vec<Dep> = Vec::new();
                    if i >= w.outstanding {
                        deps.push(Dep::at(responses[core_idx][i - w.outstanding], core));
                    }
                    let think = gap[core_idx] + w.compute_per_access;
                    gap[core_idx] = 0;

                    let state = lines.entry(l2_block).or_default();
                    // Pick the responder before updating sharers.
                    let responder = pick_responder(mesh, core, state, block, &mut report);
                    if write {
                        // GetX: every other sharer invalidates for real.
                        invalidate_others(core, l2_block, state, &mut hierarchies, active);
                        state.sharers = NodeMask::from_nodes([core]);
                        state.owner = Some(core_idx as u16);
                    } else {
                        state.sharers.insert(core);
                        if state.owner.is_some() && state.owner != Some(core_idx as u16) {
                            state.owner = None; // downgrade to shared
                        }
                    }

                    let kind = if write {
                        PacketKind::WriteRequest
                    } else {
                        PacketKind::ReadRequest
                    };
                    let req_id = MsgId(next_id);
                    next_id += 1;
                    messages.push(TraceMessage {
                        id: req_id,
                        src: core,
                        dests: DestSet::Broadcast,
                        kind,
                        earliest: if deps.is_empty() { think } else { 0 },
                        deps,
                        think,
                    });

                    let (owner_node, resp_latency) = responder;
                    let resp_id = MsgId(next_id);
                    next_id += 1;
                    messages.push(TraceMessage {
                        id: resp_id,
                        src: owner_node,
                        dests: DestSet::Unicast(core),
                        kind: PacketKind::DataResponse,
                        earliest: 0,
                        deps: vec![Dep::at(req_id, owner_node)],
                        think: resp_latency,
                    });
                    responses[core_idx].push(resp_id);

                    if let Some(victim) = writeback {
                        report.writebacks += 1;
                        let home = home_of(mesh, victim);
                        // Writebacks from the core to a (possibly equal)
                        // home node; self-sends resolve instantly.
                        let wb_id = MsgId(next_id);
                        next_id += 1;
                        messages.push(TraceMessage {
                            id: wb_id,
                            src: core,
                            dests: DestSet::Unicast(home),
                            kind: PacketKind::Writeback,
                            earliest: 0,
                            deps: vec![Dep::at(req_id, pick_dep_node(mesh, core, home))],
                            think: 0,
                        });
                        lines.remove(&victim);
                    }
                }
            }
        }
    }

    let trace = Trace { messages };
    debug_assert!(trace.validate().is_ok());
    (trace, report)
}

/// Moves an address cursor within its `bytes`-sized region — on to the
/// next word with probability `locality`, else to a random one — and
/// returns the new offset.
fn advance(cursor: &mut u64, bytes: u64, locality: f64, rng: &mut SimRng) -> u64 {
    *cursor = if rng.gen_bool(locality) {
        (*cursor + 8) % bytes
    } else {
        rng.gen_range(0..bytes / 8) * 8
    };
    *cursor
}

/// Home memory controller of a block (cache-line interleaved, §2).
fn home_of(mesh: Mesh, block: u64) -> NodeId {
    NodeId(((block / 64) % mesh.nodes() as u64) as u16)
}

/// A node the writeback can key its dependency on: the request's
/// delivery at `home`, unless home is the writing core itself (the
/// request broadcast never reaches its own source), in which case any
/// other broadcast destination works; we use the neighbouring node.
fn pick_dep_node(mesh: Mesh, core: NodeId, home: NodeId) -> NodeId {
    if home != core {
        home
    } else {
        mesh.iter_nodes()
            .find(|&n| n != core)
            .expect("mesh has >= 2 nodes")
    }
}

fn pick_responder(
    mesh: Mesh,
    requester: NodeId,
    state: &LineState,
    block: u64,
    report: &mut CacheSimReport,
) -> (NodeId, u64) {
    if let Some(owner) = state.owner {
        if NodeId(owner) != requester {
            report.cache_to_cache += 1;
            return (NodeId(owner), crate::coherence::CACHE_LATENCY);
        }
    }
    // Any sharer other than the requester can forward the line.
    let mut sharers = state.sharers;
    sharers.remove(requester);
    if let Some(first) = sharers.iter().next() {
        report.cache_to_cache += 1;
        return (first, crate::coherence::CACHE_LATENCY);
    }
    (
        home_or_other(mesh, requester, block),
        crate::coherence::MEMORY_LATENCY,
    )
}

/// The home controller, bounced to a neighbour when it equals the
/// requester (a self-send response would vanish).
fn home_or_other(mesh: Mesh, requester: NodeId, block: u64) -> NodeId {
    let home = home_of(mesh, block);
    if home != requester {
        home
    } else {
        mesh.iter_nodes()
            .find(|&n| n != requester)
            .expect("mesh has >= 2 nodes")
    }
}

#[allow(clippy::too_many_arguments)]
fn upgrade_if_shared(
    _mesh: Mesh,
    core: NodeId,
    block: u64,
    lines: &mut std::collections::HashMap<u64, LineState>,
    hierarchies: &mut [CacheHierarchy],
    messages: &mut Vec<TraceMessage>,
    next_id: &mut u32,
    report: &mut CacheSimReport,
    responses: &[MsgId],
    w: &CacheWorkload,
    gap_now: u64,
) {
    let Some(state) = lines.get_mut(&block) else {
        return;
    };
    let mut others = state.sharers;
    others.remove(core);
    if state.owner == Some(core.0) || others.is_empty() {
        state.owner = Some(core.0);
        state.sharers.insert(core);
        return;
    }
    // A genuine upgrade: broadcast an invalidate; remote caches lose the
    // line for real.
    report.invalidations += 1;
    invalidate_others(core, block, state, hierarchies, hierarchies.len());
    state.sharers = NodeMask::from_nodes([core]);
    state.owner = Some(core.0);

    let deps = responses
        .last()
        .map(|&r| vec![Dep::at(r, core)])
        .unwrap_or_default();
    let id = MsgId(*next_id);
    *next_id += 1;
    messages.push(TraceMessage {
        id,
        src: core,
        dests: DestSet::Broadcast,
        kind: PacketKind::Invalidate,
        earliest: if deps.is_empty() { gap_now } else { 0 },
        deps,
        think: w.compute_per_access,
    });
}

fn invalidate_others(
    core: NodeId,
    block: u64,
    state: &LineState,
    hierarchies: &mut [CacheHierarchy],
    active: usize,
) {
    let mut sharers = state.sharers;
    sharers.remove(core);
    for n in sharers.iter() {
        if n.index() < active {
            hierarchies[n.index()].invalidate(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: &mut CacheWorkload) {
        w.accesses_per_core = 400;
        w.active_cores = 16;
    }

    #[test]
    fn streaming_trace_validates() {
        let mut w = CacheWorkload::streaming();
        tiny(&mut w);
        let (trace, report) = generate_cache_trace(Mesh::PAPER, &w);
        assert!(trace.validate().is_ok());
        assert!(report.l2_misses > 0, "cold caches must miss");
        assert_eq!(report.accesses, 400 * 16);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut w = CacheWorkload::pointer_chase();
        tiny(&mut w);
        let (a, ra) = generate_cache_trace(Mesh::PAPER, &w);
        let (b, rb) = generate_cache_trace(Mesh::PAPER, &w);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn write_sharing_generates_invalidations() {
        let mut w = CacheWorkload::write_sharing();
        tiny(&mut w);
        let (_, report) = generate_cache_trace(Mesh::PAPER, &w);
        assert!(
            report.invalidations > 0,
            "write-shared hot lines must trigger upgrades: {report:?}"
        );
        assert!(report.cache_to_cache > 0, "sharers should serve data");
    }

    #[test]
    fn pointer_chase_misses_more_than_streaming() {
        let mut s = CacheWorkload::streaming();
        let mut p = CacheWorkload::pointer_chase();
        tiny(&mut s);
        tiny(&mut p);
        let (_, rs) = generate_cache_trace(Mesh::PAPER, &s);
        let (_, rp) = generate_cache_trace(Mesh::PAPER, &p);
        assert!(
            rp.miss_ratio() > rs.miss_ratio(),
            "random chasing {:.3} should out-miss sequential streaming {:.3}",
            rp.miss_ratio(),
            rs.miss_ratio()
        );
    }

    #[test]
    fn writebacks_appear_under_write_pressure() {
        let mut w = CacheWorkload::streaming();
        tiny(&mut w);
        w.write_fraction = 0.9;
        // Random dirty writes over a region far beyond the 256 KB L2
        // force dirty capacity evictions.
        w.locality = 0.05;
        w.shared_fraction = 0.9;
        w.accesses_per_core = 9_000;
        w.active_cores = 4;
        let (_, report) = generate_cache_trace(Mesh::PAPER, &w);
        assert!(
            report.writebacks > 0,
            "dirty evictions expected: {report:?}"
        );
    }

    #[test]
    fn private_only_workload_has_no_cache_to_cache() {
        let mut w = CacheWorkload::streaming();
        tiny(&mut w);
        w.shared_fraction = 0.0;
        let (_, report) = generate_cache_trace(Mesh::PAPER, &w);
        assert_eq!(report.cache_to_cache, 0, "private lines have no sharers");
        assert_eq!(report.invalidations, 0);
    }

    #[test]
    fn home_interleaving_covers_nodes() {
        let homes: std::collections::HashSet<u16> =
            (0..64u64).map(|i| home_of(Mesh::PAPER, i * 64).0).collect();
        assert_eq!(homes.len(), 64, "cache-line interleaving spreads homes");
    }
}
