//! Energy model for the baseline electrical network.
//!
//! The paper uses CACTI for buffers and the Balfour–Dally component
//! models for everything else (§4). We use per-event energies at 16 nm
//! (*calibrated*, see `DESIGN.md` substitution #3): SRAM buffer
//! read/write, crossbar traversal, allocator events, full-swing repeated
//! links at the 1.87 mm node pitch, and per-router leakage dominated by
//! the 50 flit-slots of VC buffers and the allocator logic.
//!
//! The network only counts events ([`EnergyCounts`]); [`energy`] turns
//! the counts into an [`EnergyReport`] when it is read. Every term is a
//! count times a constant, so the report depends on how many events
//! happened, never on the order the hot loop met them.

use phastlane_netsim::stats::EnergyReport;

/// Bits that move per flit event (640 payload + 70 header/control —
/// matched with the optical network for a fair comparison).
pub const FLIT_BITS: f64 = 710.0;

/// Buffer write energy per bit (pJ).
pub const E_BUF_WRITE_PJ_PER_BIT: f64 = 0.012;
/// Buffer read energy per bit (pJ).
pub const E_BUF_READ_PJ_PER_BIT: f64 = 0.010;
/// Crossbar traversal energy per bit (pJ).
pub const E_XBAR_PJ_PER_BIT: f64 = 0.008;
/// Link traversal energy per bit (pJ) for a 1.87 mm full-swing repeated
/// wire at 16 nm (~0.22 pJ/bit/mm).
pub const E_LINK_PJ_PER_BIT: f64 = 0.420;
/// Energy per allocator decision (VC or switch grant), pJ.
pub const E_ARB_PJ: f64 = 0.5;
/// Static leakage per router (mW): 50 eighty-byte VC slots, allocators,
/// crossbar drivers.
pub const LEAKAGE_MW_PER_ROUTER: f64 = 4.0;
/// Network clock period (ps) at 4 GHz.
pub const CLOCK_PS: f64 = 250.0;

/// The electrical network's energy events, counted as they happen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Cycles stepped: one cycle of every router's leakage each.
    pub cycles: u64,
    /// Flits written into a VC buffer: an injection or a link arrival.
    pub buffer_writes: u64,
    /// Flit copies ejected at their destination: one buffer read each.
    pub ejections: u64,
    /// VC-allocation grants.
    pub vc_grants: u64,
    /// Switch traversals, the sum of the link counters. Each one is a
    /// switch grant, a buffer read, a crossbar crossing and a link.
    pub traversals: u64,
}

/// One cycle of leakage across `routers` routers (pJ).
pub fn leakage_pj_per_cycle(routers: usize) -> f64 {
    LEAKAGE_MW_PER_ROUTER * routers as f64 * CLOCK_PS * 1e-3
}

/// The energy `counts` cost on a network of `routers` routers: every
/// term is a count times its per-event energy, summed in a fixed order.
pub fn energy(counts: &EnergyCounts, routers: usize) -> EnergyReport {
    let per_flit = |n: u64, pj_per_bit: f64| n as f64 * (pj_per_bit * FLIT_BITS);
    let grants = counts.vc_grants + counts.traversals;
    EnergyReport {
        dynamic_pj: per_flit(counts.buffer_writes, E_BUF_WRITE_PJ_PER_BIT)
            + per_flit(counts.ejections + counts.traversals, E_BUF_READ_PJ_PER_BIT)
            + per_flit(counts.traversals, E_XBAR_PJ_PER_BIT)
            + grants as f64 * E_ARB_PJ,
        leakage_pj: counts.cycles as f64 * leakage_pj_per_cycle(routers),
        laser_pj: 0.0,
        link_pj: per_flit(counts.traversals, E_LINK_PJ_PER_BIT),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_hop_energy_magnitude() {
        // One hop = write + read + xbar + link + 2 allocations: ~230 pJ.
        let hop = EnergyCounts {
            buffer_writes: 1,
            vc_grants: 1,
            traversals: 1,
            ..EnergyCounts::default()
        };
        let total = energy(&hop, 64).total_pj();
        assert!(total > 150.0 && total < 350.0, "per-hop energy {total} pJ");
    }

    #[test]
    fn leakage_dominates_idle_network() {
        let idle = EnergyCounts {
            cycles: 1000,
            ..EnergyCounts::default()
        };
        let r = energy(&idle, 64);
        assert_eq!(r.dynamic_pj, 0.0);
        // 4 mW x 64 routers = 256 mW -> 64 pJ/cycle.
        assert!((r.leakage_pj / 1000.0 - 64.0).abs() < 1.0);
    }
}
