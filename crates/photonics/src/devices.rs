//! Device-level models for the CMOS-compatible nanophotonic components the
//! Phastlane router is built from: waveguides, ring resonators, modulators,
//! and receivers.
//!
//! Parameters marked *calibrated* were chosen so that the paper's §3
//! analyses reproduce (see `DESIGN.md`); the rest are taken directly from
//! the paper or its cited sources.

use crate::scaling::{chain_delays, Scaling};
use crate::units::{Millimeters, Milliwatts, Picoseconds, TechNode};

/// Signal propagation delay in an on-chip silicon waveguide.
///
/// The paper assumes this stays constant at 10.45 ps/mm across technology
/// nodes (Kirman et al.).
pub const WAVEGUIDE_DELAY_PS_PER_MM: f64 = 10.45;

/// An on-chip silicon waveguide segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    /// Physical length of the segment.
    pub length: Millimeters,
}

impl Waveguide {
    /// Creates a waveguide of the given length.
    ///
    /// # Panics
    ///
    /// Panics if `length` is negative.
    pub fn new(length: Millimeters) -> Self {
        assert!(
            length.value() >= 0.0,
            "waveguide length must be non-negative"
        );
        Waveguide { length }
    }

    /// Light propagation delay along this segment.
    pub fn propagation_delay(&self) -> Picoseconds {
        Picoseconds(self.length.value() * WAVEGUIDE_DELAY_PS_PER_MM)
    }

    /// Checks a per-crossing transmission: a crossing passes some light
    /// and amplifies none, so it lies in `(0, 1]` (NaN is outside).
    ///
    /// # Errors
    ///
    /// Names the rule `crossing_efficiency` breaks.
    pub fn check_crossing_efficiency(crossing_efficiency: f64) -> Result<(), String> {
        if crossing_efficiency > 0.0 && crossing_efficiency <= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "crossing efficiency must be in (0, 1], got {crossing_efficiency}"
            ))
        }
    }

    /// Power transmission through `crossings` perpendicular waveguide
    /// crossings, each with per-crossing efficiency `crossing_efficiency`
    /// (e.g. 0.98 for a 2 % loss per crossing).
    ///
    /// # Panics
    ///
    /// Panics where [`Waveguide::check_crossing_efficiency`] errors.
    pub fn crossing_transmission(crossings: f64, crossing_efficiency: f64) -> f64 {
        if let Err(e) = Waveguide::check_crossing_efficiency(crossing_efficiency) {
            panic!("{e}");
        }
        crossing_efficiency.powf(crossings)
    }
}

/// A ring resonator used for turns, receive taps, and the drop-signal
/// return path.
///
/// Resonators are switched electrically; the paper's Figure 5 shows that
/// *driving* the resonators dominates the router's critical paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingResonator {
    /// Scaling scenario that sets the electrical drive delay.
    pub scaling: Scaling,
}

impl RingResonator {
    /// Creates a resonator under the given scaling scenario.
    pub fn new(scaling: Scaling) -> Self {
        RingResonator { scaling }
    }

    /// Electrical drive delay: the time from a control signal being valid
    /// to the resonator being on/off resonance.
    ///
    /// *Calibrated* per scenario so that the Figure 6 hops-per-cycle
    /// results (8/5/4) emerge from the critical-path model.
    pub fn drive_delay(&self) -> Picoseconds {
        Picoseconds(match self.scaling {
            Scaling::Optimistic => 1.4,
            Scaling::Average => 7.5,
            Scaling::Pessimistic => 11.0,
        })
    }

    /// Fraction of optical power extracted by a *broadcast* tap resonator
    /// (multicast reception couples only part of the power so the packet
    /// can continue to downstream routers, §2.1.4).
    pub const BROADCAST_TAP_FRACTION: f64 = 0.03;
}

/// The optical transmit chain: serializer, driver, and modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modulator {
    scaling: Scaling,
    node: TechNode,
}

impl Modulator {
    /// Creates a modulator model for `scaling` at `node`.
    pub fn new(scaling: Scaling, node: TechNode) -> Self {
        Modulator { scaling, node }
    }

    /// Aggregate transmit-chain delay (Figure 4).
    pub fn transmit_delay(&self) -> Picoseconds {
        chain_delays(self.scaling, self.node).transmit
    }
}

/// The optical receive chain: photodetector, TIA, and deserializer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalReceiver {
    scaling: Scaling,
    node: TechNode,
}

impl OpticalReceiver {
    /// Minimum optical power per wavelength channel for reliable detection.
    ///
    /// *Calibrated*: 10 µW, in the range of published CMOS receiver
    /// sensitivities at multi-Gb/s rates.
    pub const SENSITIVITY: Milliwatts = Milliwatts(0.01);

    /// Creates a receiver model for `scaling` at `node`.
    pub fn new(scaling: Scaling, node: TechNode) -> Self {
        OpticalReceiver { scaling, node }
    }

    /// Aggregate receive-chain delay (Figure 4).
    pub fn receive_delay(&self) -> Picoseconds {
        chain_delays(self.scaling, self.node).receive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveguide_delay_matches_constant() {
        let wg = Waveguide::new(Millimeters(2.0));
        assert!((wg.propagation_delay().value() - 20.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn waveguide_rejects_negative_length() {
        let _ = Waveguide::new(Millimeters(-1.0));
    }

    #[test]
    fn crossing_transmission_compounds() {
        let t = Waveguide::crossing_transmission(2.0, 0.5);
        assert!((t - 0.25).abs() < 1e-12);
        // Zero crossings: lossless.
        assert_eq!(Waveguide::crossing_transmission(0.0, 0.98), 1.0);
    }

    #[test]
    #[should_panic(expected = "crossing efficiency")]
    fn crossing_transmission_rejects_bad_efficiency() {
        let _ = Waveguide::crossing_transmission(1.0, 1.5);
    }

    #[test]
    fn resonator_drive_ordered_by_scenario() {
        let d = |s| RingResonator::new(s).drive_delay();
        assert!(d(Scaling::Optimistic) < d(Scaling::Average));
        assert!(d(Scaling::Average) < d(Scaling::Pessimistic));
    }

    #[test]
    fn modulator_and_receiver_track_scaling() {
        let m_opt = Modulator::new(Scaling::Optimistic, TechNode::NM16);
        let m_pes = Modulator::new(Scaling::Pessimistic, TechNode::NM16);
        assert!(m_opt.transmit_delay() < m_pes.transmit_delay());
        let r_opt = OpticalReceiver::new(Scaling::Optimistic, TechNode::NM16);
        let r_pes = OpticalReceiver::new(Scaling::Pessimistic, TechNode::NM16);
        assert!(r_opt.receive_delay() < r_pes.receive_delay());
    }
}
