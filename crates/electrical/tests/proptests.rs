//! Randomized property tests of the electrical baseline's allocator and
//! multicast tree, driven by the in-tree deterministic [`SimRng`].

use phastlane_electrical::islip::{Islip, MAX_PORTS};
use phastlane_electrical::vctm::{mask_contains, mask_len, mask_of, tree_fork, TreeRegions};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::rng::SimRng;

/// 5 inputs, each requesting 0..4 of the 4 outputs.
fn random_requests(rng: &mut SimRng) -> Vec<Vec<usize>> {
    (0..5)
        .map(|_| {
            let n = rng.gen_range(0usize..4);
            (0..n).map(|_| rng.gen_range(0usize..4)).collect()
        })
        .collect()
}

/// One `allocate` round over request lists; returns the matches.
fn allocate(
    alloc: &mut Islip,
    reqs: &[Vec<usize>],
    capacity: usize,
    iterations: usize,
) -> Vec<(usize, usize)> {
    let masks: Vec<u8> = reqs
        .iter()
        .map(|outs| outs.iter().fold(0, |m, &o| m | 1 << o))
        .collect();
    let mut matches = [(0, 0); MAX_PORTS];
    let n = alloc.allocate(&masks, capacity, iterations, &mut matches);
    matches[..n].to_vec()
}

fn random_node_set(rng: &mut SimRng, max_len: usize) -> std::collections::BTreeSet<u16> {
    let n = rng.gen_range(0usize..max_len);
    let mut set = std::collections::BTreeSet::new();
    for _ in 0..n {
        set.insert(rng.gen_range(0u16..64));
    }
    set
}

/// iSLIP matches are conflict-free: each output granted at most once,
/// each input within its capacity, and every match was requested.
#[test]
fn islip_matches_are_valid() {
    let mut rng = SimRng::seed_from_u64(0x00E1_EC01);
    for _ in 0..256 {
        let reqs = random_requests(&mut rng);
        let capacity = rng.gen_range(1usize..5);
        let iterations = rng.gen_range(1usize..4);
        let rounds = rng.gen_range(1usize..6);
        let mut alloc = Islip::new(5, 4);
        for _ in 0..rounds {
            let matches = allocate(&mut alloc, &reqs, capacity, iterations);
            let mut out_seen = [false; 4];
            let mut in_count = [0usize; 5];
            for &(i, o) in &matches {
                assert!(reqs[i].contains(&o), "unrequested match ({i},{o})");
                assert!(!out_seen[o], "output {o} matched twice");
                out_seen[o] = true;
                in_count[i] += 1;
            }
            for (i, &c) in in_count.iter().enumerate() {
                assert!(c <= capacity, "input {i} over capacity");
            }
        }
    }
}

/// iSLIP is work-conserving for single requests: a lone
/// (input, output) request is always granted.
#[test]
fn islip_grants_lone_request() {
    for inp in 0usize..5 {
        for out in 0usize..4 {
            for rounds in 1usize..8 {
                let mut alloc = Islip::new(5, 4);
                let mut reqs: Vec<Vec<usize>> = vec![Vec::new(); 5];
                reqs[inp].push(out);
                for _ in 0..rounds {
                    let matches = allocate(&mut alloc, &reqs, 4, 2);
                    assert_eq!(&matches, &vec![(inp, out)]);
                }
            }
        }
    }
}

/// The VCTM tree partitions any target mask: walking the whole tree
/// delivers each masked node exactly once and nothing else.
#[test]
fn vctm_tree_partitions_any_mask() {
    let mut rng = SimRng::seed_from_u64(0x00E1_EC03);
    let mesh = Mesh::PAPER;
    let regions = TreeRegions::new(mesh);
    for _ in 0..128 {
        let src = NodeId(rng.gen_range(0u16..64));
        let nodes = random_node_set(&mut rng, 30);
        let targets: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
        let mask = mask_of(&targets);
        let mut delivered = Vec::new();
        let mut frontier = vec![(src, mask)];
        let mut steps = 0;
        while let Some((at, m)) = frontier.pop() {
            steps += 1;
            assert!(steps < 1000, "tree walk diverged");
            let (branches, deliver) = tree_fork(&regions, src, at, m);
            if deliver {
                delivered.push(at);
            }
            let mut seen = if deliver {
                phastlane_netsim::mask::NodeMask::from_nodes([at])
            } else {
                phastlane_netsim::mask::NodeMask::EMPTY
            };
            for b in branches.iter() {
                assert!(!seen.intersects(&b.submask), "overlapping branches");
                seen = seen.or(&b.submask);
                let next = mesh.neighbor(at, b.out).expect("stays in mesh");
                frontier.push((next, b.submask));
            }
            assert_eq!(seen, m, "branches + local must cover the mask");
        }
        delivered.sort_unstable();
        let mut expect: Vec<NodeId> = targets.clone();
        expect.sort_unstable();
        assert_eq!(delivered, expect);
    }
}

/// Mask helpers agree with each other.
#[test]
fn mask_helpers_consistent() {
    let mut rng = SimRng::seed_from_u64(0x00E1_EC04);
    for _ in 0..128 {
        let nodes = random_node_set(&mut rng, 64);
        let list: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
        let mask = mask_of(&list);
        assert_eq!(mask_len(mask), list.len());
        for n in 0..64u16 {
            assert_eq!(mask_contains(mask, NodeId(n)), nodes.contains(&n));
        }
    }
}
