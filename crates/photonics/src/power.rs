//! Peak optical power analysis (§3.2, Figure 7).
//!
//! The peak optical power is the maximum input laser power that can be
//! required in a single cycle. The paper's worst case: every input port of
//! every router simultaneously receives a multicast packet from its nearest
//! neighbour, all packets turn in the same direction to an open output
//! port, every return path signals a dropped packet, and all buffers
//! arbitrate for output ports — maximising crossings and activated
//! components.
//!
//! We model this as a loss budget: each wavelength channel must deliver at
//! least the receiver sensitivity after attenuation through all waveguide
//! crossings (and resonator taps, folded into the per-router crossing
//! count) along the worst-case path. The per-router crossing count is an
//! affine function of the waveguide count, *calibrated* (see `DESIGN.md`)
//! to the paper's quoted operating points: ~32 W at 64 wavelengths / 4 hops
//! / 98 % crossing efficiency, and the same ~32 W at 128 wavelengths /
//! 5 hops.

use crate::devices::{OpticalReceiver, Waveguide};
use crate::units::Milliwatts;
use crate::wdm::{WdmConfig, RETURN_PATH_BITS};

/// Number of routers in the 8x8 mesh.
pub const ROUTERS: u32 = 64;
/// Input ports per router that can hold a packet in the peak scenario.
pub const INPUT_PORTS: u32 = 4;

/// Crossings a packet's light encounters per router traversed:
/// `CROSSINGS_PER_WAVEGUIDE * waveguides + CROSSINGS_FIXED`.
///
/// The affine form captures that each of the packet's waveguides crosses
/// the perpendicular channel's waveguides (proportional term) plus a fixed
/// set of return-path, broadcast-tap, and local-port crossings
/// (*calibrated*).
pub const CROSSINGS_PER_WAVEGUIDE: f64 = 1.44;
/// Fixed crossings per router (see [`CROSSINGS_PER_WAVEGUIDE`]).
pub const CROSSINGS_FIXED: f64 = 18.7;

/// Parameters of one peak-power evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPoint {
    /// WDM packaging.
    pub wdm: WdmConfig,
    /// Maximum hops a packet travels in one cycle.
    pub max_hops: u32,
    /// Per-crossing power transmission (e.g. 0.98).
    pub crossing_efficiency: f64,
}

impl PowerPoint {
    /// Creates an evaluation point.
    ///
    /// # Panics
    ///
    /// Panics if `max_hops` is zero or `crossing_efficiency` is outside
    /// `(0, 1]`.
    pub fn new(wdm: WdmConfig, max_hops: u32, crossing_efficiency: f64) -> Self {
        assert!(max_hops > 0, "max_hops must be positive");
        assert!(
            crossing_efficiency > 0.0 && crossing_efficiency <= 1.0,
            "crossing efficiency must be in (0, 1]"
        );
        PowerPoint {
            wdm,
            max_hops,
            crossing_efficiency,
        }
    }

    /// Worst-case number of crossings along a packet's maximum-length path.
    pub fn worst_case_crossings(&self) -> f64 {
        let per_router =
            CROSSINGS_PER_WAVEGUIDE * f64::from(self.wdm.total_waveguides()) + CROSSINGS_FIXED;
        per_router * f64::from(self.max_hops)
    }

    /// Fraction of launched optical power that survives the worst-case
    /// path.
    pub fn path_transmission(&self) -> f64 {
        Waveguide::crossing_transmission(self.worst_case_crossings(), self.crossing_efficiency)
    }

    /// Number of simultaneously driven wavelength channels in the peak
    /// scenario: a packet on every input port of every router, plus every
    /// return path signalling a drop.
    pub fn peak_active_channels(&self) -> u32 {
        ROUTERS * INPUT_PORTS * (self.wdm.packet_channels() + RETURN_PATH_BITS)
    }

    /// Peak optical input power for the whole network (the z-axis of
    /// Figure 7's contour plot).
    pub fn peak_optical_power(&self) -> Milliwatts {
        let per_channel = OpticalReceiver::SENSITIVITY.value() / self.path_transmission();
        Milliwatts(per_channel * f64::from(self.peak_active_channels()))
    }

    /// Hops per cycle the laser power provisioned for this point still
    /// covers once a laser droop multiplies the crossing efficiency by
    /// `factor` (Li et al.'s worst-case-loss rule): the largest
    /// `h <= max_hops` whose drooped peak power is at most this point's
    /// own. `0` means even one hop no longer closes the loss budget.
    ///
    /// A `factor` of 1 or more is no droop: `max_hops`, with no
    /// arithmetic. The comparison is exact; a drooped efficiency that
    /// underflows to zero (or a NaN factor) reaches no hop.
    pub fn reach_under(&self, factor: f64) -> u32 {
        if factor >= 1.0 {
            return self.max_hops;
        }
        let budget = self.peak_optical_power();
        // `max` also maps a NaN product to the floor.
        let drooped = (self.crossing_efficiency * factor).max(f64::MIN_POSITIVE);
        (1..=self.max_hops)
            .take_while(|&h| PowerPoint::new(self.wdm, h, drooped).peak_optical_power() <= budget)
            .last()
            .unwrap_or(0)
    }
}

/// The Figure 7 contour grid: peak power over
/// (crossing efficiency x wavelengths x max hops).
pub fn figure7_grid(efficiencies: &[f64], hops: &[u32]) -> Vec<(f64, WdmConfig, u32, Milliwatts)> {
    let mut rows = Vec::new();
    for &eff in efficiencies {
        for wdm in WdmConfig::SWEEP {
            for &h in hops {
                let p = PowerPoint::new(wdm, h, eff);
                rows.push((eff, wdm, h, p.peak_optical_power()));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watts(wdm: u32, hops: u32, eff: f64) -> f64 {
        PowerPoint::new(WdmConfig::new(wdm), hops, eff)
            .peak_optical_power()
            .as_watts()
    }

    #[test]
    fn reach_shrinks_with_droop_and_never_panics() {
        let p = PowerPoint::new(WdmConfig::new(64), 4, 0.98);
        assert_eq!(p.reach_under(1.0), 4);
        assert_eq!(p.reach_under(1.5), 4);
        let mut last = 4;
        for factor in [0.9999, 0.999, 0.99, 0.95, 0.9] {
            let h = p.reach_under(factor);
            assert!(h <= last, "{factor}: {h} > {last}");
            last = h;
        }
        assert!(p.reach_under(0.9999) < 4, "any droop costs the last hop");
        // Droop products can underflow to zero; no hop closes then.
        assert_eq!(p.reach_under(1e-300 * 1e-300), 0);
        assert_eq!(p.reach_under(f64::NAN), 0);
    }

    #[test]
    fn paper_operating_point_64wdm_4hop() {
        // Paper: "a four-hop network requires a peak 32W of optical power
        // at 98% crossing efficiency" with 64 wavelengths.
        let w = watts(64, 4, 0.98);
        assert!(
            (w - 32.0).abs() < 4.0,
            "64λ/4hop/98%: {w} W, expected ~32 W"
        );
    }

    #[test]
    fn paper_operating_point_128wdm_5hop() {
        // Paper: "moving to 128 wavelengths permits a five-hop network for
        // the same 32W of power".
        let w = watts(128, 5, 0.98);
        assert!(
            (w - 32.0).abs() < 4.0,
            "128λ/5hop/98%: {w} W, expected ~32 W"
        );
    }

    #[test]
    fn wdm128_4hop_reduces_power() {
        // Paper: 128 wavelengths with a four-hop network reduces peak power
        // from 32 W to ~15 W at 98 % crossing efficiency.
        let w = watts(128, 4, 0.98);
        assert!(w < 22.0 && w > 10.0, "128λ/4hop/98%: {w} W, expected ~15 W");
    }

    #[test]
    fn wdm32_needs_high_efficiency_or_short_hops() {
        // Paper: with 32 wavelengths the network needs >= 99 % crossing
        // efficiency or a 2-3 hop limit to keep peak power reasonable.
        assert!(
            watts(32, 4, 0.98) > 60.0,
            "32λ/4hop/98% should be excessive"
        );
        assert!(
            watts(32, 4, 0.99) < 32.0,
            "32λ/4hop/99% should be reasonable"
        );
        assert!(
            watts(32, 2, 0.98) < 32.0,
            "32λ/2hop/98% should be reasonable"
        );
    }

    #[test]
    fn power_monotonic_in_hops() {
        // "With more hops, more input optical power is required."
        let mut last = 0.0;
        for h in 1..=8 {
            let w = watts(64, h, 0.98);
            assert!(w > last);
            last = w;
        }
    }

    #[test]
    fn power_monotonic_in_efficiency() {
        assert!(watts(64, 4, 0.97) > watts(64, 4, 0.98));
        assert!(watts(64, 4, 0.98) > watts(64, 4, 0.99));
        assert!(watts(64, 4, 0.99) > watts(64, 4, 1.0));
    }

    #[test]
    fn perfect_crossings_leave_only_sensitivity_floor() {
        let p = PowerPoint::new(WdmConfig::PAPER, 4, 1.0);
        let floor =
            f64::from(p.peak_active_channels()) * OpticalReceiver::SENSITIVITY.value() / 1000.0;
        assert!((p.peak_optical_power().as_watts() - floor).abs() < 1e-9);
    }

    #[test]
    fn more_wavelengths_fewer_crossings() {
        let c32 = PowerPoint::new(WdmConfig::new(32), 4, 0.98).worst_case_crossings();
        let c64 = PowerPoint::new(WdmConfig::new(64), 4, 0.98).worst_case_crossings();
        let c128 = PowerPoint::new(WdmConfig::new(128), 4, 0.98).worst_case_crossings();
        assert!(c32 > c64 && c64 > c128);
    }

    #[test]
    fn grid_covers_all_points() {
        let g = figure7_grid(&[0.97, 0.98, 0.99], &[2, 4, 8]);
        assert_eq!(g.len(), 3 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "max_hops")]
    fn zero_hops_rejected() {
        let _ = PowerPoint::new(WdmConfig::PAPER, 0, 0.98);
    }
}
