//! Energy accounting for the Phastlane network.
//!
//! The paper models dynamic and static leakage power "in a manner similar
//! to [Kirman et al.]" (§4). We use per-event energies at 16 nm,
//! *calibrated* (see `DESIGN.md` substitution #3) to land the
//! electrical-vs-optical ratios the paper reports. The optical transmit
//! (laser) energy per launch is derived from the §3.2 loss-budget model:
//! every launch must be provisioned for the worst-case crossing losses of
//! a full `max_hops` traversal, which is why the eight-hop network's
//! transmit power "increases sharply" (§5).
//!
//! The network only counts events ([`EnergyCounts`]); [`energy`] turns
//! the counts into an [`EnergyReport`] when it is read. Every term is a
//! count times a constant, so the report depends on how many events
//! happened, never on the order the hot loop met them.

use phastlane_netsim::stats::EnergyReport;
use phastlane_photonics::delay::CLOCK_PERIOD;
use phastlane_photonics::power::PowerPoint;
use phastlane_photonics::wdm::{WdmConfig, RETURN_PATH_BITS};

/// Bits modulated/received per packet (640 payload + 70 control).
pub const PACKET_CHANNEL_BITS: f64 = 710.0;

/// Modulator drive energy per bit (pJ): ring modulator plus serializer.
pub const E_MOD_PJ_PER_BIT: f64 = 0.015;
/// Receiver energy per bit (pJ): photodetector, TIA, deserializer.
pub const E_RX_PJ_PER_BIT: f64 = 0.015;
/// Electrical buffer write energy per bit (pJ).
pub const E_BUF_WRITE_PJ_PER_BIT: f64 = 0.010;
/// Electrical buffer read energy per bit (pJ).
pub const E_BUF_READ_PJ_PER_BIT: f64 = 0.008;
/// Fixed energy per drop-signal return-path transmission (7 bits of
/// modulation and reception plus the registered path resonators).
pub const E_DROP_SIGNAL_PJ: f64 = 0.5;
/// Static leakage per router (mW): resonator drivers, receiver bias,
/// buffer leakage, arbiters.
pub const LEAKAGE_MW_PER_ROUTER: f64 = 0.5;

/// The optical network's energy events, counted as they happen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Cycles stepped: one cycle of every router's leakage each.
    pub cycles: u64,
    /// Packet launches. Each one modulates every channel, is provisioned
    /// laser power for one cycle, and reads its packet out of a buffer.
    pub launches: u64,
    /// Packets (or copies) received: a destination accept, a multicast
    /// tap, or a blocked packet pulled into the electrical domain.
    pub receives: u64,
    /// Packets written into an electrical buffer: a NIC drain or a
    /// blocked packet.
    pub buffer_writes: u64,
    /// Drop signals sent on the return path, one per dropped packet.
    pub drop_signals: u64,
}

/// Laser energy provisioned per launch (pJ): every packet channel, plus
/// the return path, must overcome the worst-case crossing losses of a
/// full `max_hops` traversal for one cycle.
///
/// # Panics
///
/// Panics where [`PowerPoint::new`] does: a hop count or crossing
/// efficiency outside the power model.
pub fn laser_pj_per_launch(wdm: WdmConfig, max_hops: u32, crossing_efficiency: f64) -> f64 {
    let point = PowerPoint::new(wdm, max_hops, crossing_efficiency);
    let channels = f64::from(wdm.packet_channels() + RETURN_PATH_BITS);
    let per_channel_mw = phastlane_photonics::devices::OpticalReceiver::SENSITIVITY.value()
        / point.path_transmission();
    // mW * ps * 1e-3 = pJ
    channels * per_channel_mw * CLOCK_PERIOD.value() * 1e-3
}

/// One cycle of static leakage across `routers` routers (pJ).
pub fn leakage_pj_per_cycle(routers: usize) -> f64 {
    LEAKAGE_MW_PER_ROUTER * routers as f64 * CLOCK_PERIOD.value() * 1e-3
}

/// The energy `counts` cost on a network of `routers` routers whose
/// launches are provisioned `laser_pj_per_launch` each: every term is a
/// count times its per-event energy, summed in a fixed order.
pub fn energy(counts: &EnergyCounts, routers: usize, laser_pj_per_launch: f64) -> EnergyReport {
    let per_packet = |n: u64, pj_per_bit: f64| n as f64 * (pj_per_bit * PACKET_CHANNEL_BITS);
    EnergyReport {
        dynamic_pj: per_packet(counts.launches, E_MOD_PJ_PER_BIT)
            + per_packet(counts.receives, E_RX_PJ_PER_BIT)
            + per_packet(counts.buffer_writes, E_BUF_WRITE_PJ_PER_BIT)
            + per_packet(counts.launches, E_BUF_READ_PJ_PER_BIT)
            + counts.drop_signals as f64 * E_DROP_SIGNAL_PJ,
        leakage_pj: counts.cycles as f64 * leakage_pj_per_cycle(routers),
        laser_pj: counts.launches as f64 * laser_pj_per_launch,
        link_pj: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laser(max_hops: u32) -> f64 {
        laser_pj_per_launch(WdmConfig::PAPER, max_hops, 0.98)
    }

    #[test]
    fn laser_energy_grows_sharply_with_hop_limit() {
        // §5: the eight-hop network's transmit power increases sharply due
        // to additional crossing losses.
        let (l4, l5, l8) = (laser(4), laser(5), laser(8));
        assert!(l5 > l4);
        assert!(l8 > 5.0 * l4, "8-hop {l8} vs 4-hop {l4}");
    }

    #[test]
    fn four_hop_launch_energy_magnitude() {
        // ~130 mW for 250 ps ≈ 33 pJ; sanity-check the unit chain.
        let l = laser(4);
        assert!(l > 15.0 && l < 60.0, "laser pJ/launch = {l}");
    }

    #[test]
    fn events_accumulate() {
        let one_each = EnergyCounts {
            cycles: 1,
            launches: 1,
            receives: 1,
            buffer_writes: 1,
            drop_signals: 1,
        };
        let r = energy(&one_each, 64, laser(4));
        assert!(r.dynamic_pj > 0.0);
        assert_eq!(r.laser_pj, laser(4));
        assert_eq!(r.leakage_pj, leakage_pj_per_cycle(64));
        assert_eq!(r.link_pj, 0.0);
        let expected_dynamic =
            (E_MOD_PJ_PER_BIT + E_RX_PJ_PER_BIT + E_BUF_WRITE_PJ_PER_BIT + E_BUF_READ_PJ_PER_BIT)
                * PACKET_CHANNEL_BITS
                + E_DROP_SIGNAL_PJ;
        assert!((r.dynamic_pj - expected_dynamic).abs() < 1e-9);
        assert_eq!(
            energy(&EnergyCounts::default(), 64, laser(4)).total_pj(),
            0.0
        );
    }

    #[test]
    fn leakage_scales_with_router_count() {
        assert!((leakage_pj_per_cycle(64) / leakage_pj_per_cycle(16) - 4.0).abs() < 1e-9);
    }
}
