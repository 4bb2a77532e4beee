//! Randomized property tests of workload generation: codec roundtrips
//! for arbitrary traces, pattern bijectivity, and trace structural
//! invariants for arbitrary profiles.
//!
//! Cases are drawn from the in-tree deterministic [`SimRng`], so every
//! run checks the same inputs and failures reproduce exactly.

use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::packet::PacketKind;
use phastlane_netsim::rng::SimRng;
use phastlane_traffic::codec;
use phastlane_traffic::coherence::{generate_trace, BenchmarkProfile};
use phastlane_traffic::patterns::Pattern;

fn random_profile(rng: &mut SimRng) -> BenchmarkProfile {
    BenchmarkProfile {
        name: "prop",
        misses_per_core: rng.gen_range(1usize..12),
        write_fraction: rng.gen_f64(),
        shared_fraction: rng.gen_f64(),
        writeback_fraction: rng.gen_f64(),
        mean_gap: rng.gen_f64() * 60.0,
        barrier_every: if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(2usize..20)
        },
        hotspot_weight: rng.gen_f64() * 0.9,
        outstanding: rng.gen_range(1usize..6),
        active_cores: rng.gen_range(1usize..65),
        seed: rng.gen_u64(),
    }
}

/// Any generated trace validates and roundtrips through the text codec
/// without loss.
#[test]
fn codec_roundtrip_arbitrary_traces() {
    let mut rng = SimRng::seed_from_u64(0x0C0D_EC01);
    for _ in 0..48 {
        let profile = random_profile(&mut rng);
        let trace = generate_trace(Mesh::PAPER, &profile);
        assert!(trace.validate().is_ok(), "{profile:?}");
        let text = codec::encode(&trace);
        let back = codec::decode(&text).expect("roundtrip decodes");
        assert_eq!(trace, back, "{profile:?}");
    }
}

/// Trace structure: every response has exactly one dependency (its
/// request, at the owner), every request broadcasts, and message
/// counts match the profile.
#[test]
fn trace_structure_invariants() {
    let mut rng = SimRng::seed_from_u64(0x0C0D_EC02);
    for _ in 0..48 {
        let profile = random_profile(&mut rng);
        let trace = generate_trace(Mesh::PAPER, &profile);
        let expected_misses = profile.misses_per_core * profile.active_cores.min(64);
        let mut requests = 0usize;
        let mut responses = 0usize;
        for m in &trace.messages {
            match m.kind {
                PacketKind::ReadRequest | PacketKind::WriteRequest => {
                    requests += 1;
                    assert!(m.deps.len() <= 2, "window + release at most: {profile:?}");
                }
                PacketKind::DataResponse => {
                    responses += 1;
                    assert_eq!(m.deps.len(), 1, "{profile:?}");
                }
                _ => {}
            }
        }
        assert_eq!(requests, expected_misses, "{profile:?}");
        assert_eq!(responses, expected_misses, "{profile:?}");
    }
}

/// Determinism: the same profile yields the same trace.
#[test]
fn generation_deterministic() {
    let mut rng = SimRng::seed_from_u64(0x0C0D_EC03);
    for _ in 0..24 {
        let profile = random_profile(&mut rng);
        let a = generate_trace(Mesh::PAPER, &profile);
        let b = generate_trace(Mesh::PAPER, &profile);
        assert_eq!(a, b, "{profile:?}");
    }
}

/// The Figure 9 permutation patterns stay bijective on any power-of-two
/// square mesh.
#[test]
#[expect(clippy::disallowed_types, reason = "test: membership checks only")]
fn patterns_bijective() {
    let mut seeder = SimRng::seed_from_u64(0x0C0D_EC04);
    for pow in 1u32..4 {
        for _ in 0..8 {
            let side = 1u16 << pow;
            let mesh = Mesh::new(side, side);
            let mut rng = SimRng::seed_from_u64(seeder.gen_u64());
            for p in [
                Pattern::BitComplement,
                Pattern::BitReverse,
                Pattern::Shuffle,
                Pattern::Transpose,
            ] {
                let mut seen = std::collections::HashSet::new();
                for src in mesh.iter_nodes() {
                    let d = p.dest(mesh, src, &mut rng);
                    assert!(mesh.contains(d));
                    assert!(seen.insert(d), "{p} not a bijection on {side}x{side}");
                }
            }
        }
    }
}

/// Pattern destinations are deterministic for the deterministic
/// patterns (independent of the RNG).
#[test]
fn deterministic_patterns_ignore_rng() {
    let mut seeder = SimRng::seed_from_u64(0x0C0D_EC05);
    for src in 0u16..64 {
        let mesh = Mesh::PAPER;
        let mut r1 = SimRng::seed_from_u64(seeder.gen_u64());
        let mut r2 = SimRng::seed_from_u64(seeder.gen_u64());
        for p in [
            Pattern::BitComplement,
            Pattern::BitReverse,
            Pattern::Shuffle,
            Pattern::Transpose,
            Pattern::NearestNeighbor,
        ] {
            assert_eq!(
                p.dest(mesh, NodeId(src), &mut r1),
                p.dest(mesh, NodeId(src), &mut r2)
            );
        }
    }
}
