//! Wavelength-division-multiplexing packaging of the Phastlane packet.
//!
//! A Phastlane packet is a single flit of 80 bytes: a 64-byte cache line of
//! Data plus Address, Operation Type, Source ID, Error Detection/Correction
//! and miscellaneous bits (640 payload bits total), and 70 bits of Router
//! Control (14 groups of 5 predecoded routing bits). The payload is spread
//! over payload waveguides with `payload_wdm`-way WDM; the control bits
//! always travel in two waveguides (C0 and C1) with 35-way WDM (Table 1,
//! Figure 3).

/// Number of payload bits in a packet (80-byte flit minus router control).
pub const PAYLOAD_BITS: u32 = 640;
/// Number of router-control bits (14 groups x 5 bits).
pub const CONTROL_BITS: u32 = 70;
/// WDM degree of the two control waveguides.
pub const CONTROL_WDM: u32 = 35;
/// Number of control waveguides (C0 and C1).
pub const CONTROL_WAVEGUIDES: u32 = 2;
/// Bits carried on the drop-signal return path (Packet Dropped + 6-bit
/// Node ID, §2.1.2).
pub const RETURN_PATH_BITS: u32 = 7;

/// WDM packaging of one router channel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WdmConfig {
    /// WDM degree of the payload waveguides (32, 64, or 128 in the paper's
    /// design-space exploration; 64 in the final configuration).
    pub payload_wdm: u32,
}

impl WdmConfig {
    /// The paper's final configuration: 64-way WDM (Table 1).
    pub const PAPER: WdmConfig = WdmConfig { payload_wdm: 64 };

    /// The design-space sweep of §3: 32-, 64-, and 128-way WDM.
    pub const SWEEP: [WdmConfig; 3] = [
        WdmConfig { payload_wdm: 32 },
        WdmConfig { payload_wdm: 64 },
        WdmConfig { payload_wdm: 128 },
    ];

    /// Checks a payload WDM degree for [`WdmConfig::new`]: a waveguide
    /// carries at least one wavelength.
    ///
    /// # Errors
    ///
    /// Names the rule `payload_wdm` breaks.
    pub fn check_degree(payload_wdm: u32) -> Result<(), String> {
        if payload_wdm > 0 {
            Ok(())
        } else {
            Err("payload WDM degree must be positive".into())
        }
    }

    /// Creates a configuration with the given payload WDM degree.
    ///
    /// # Panics
    ///
    /// Panics where [`WdmConfig::check_degree`] errors: `payload_wdm` is
    /// zero.
    pub fn new(payload_wdm: u32) -> Self {
        if let Err(e) = WdmConfig::check_degree(payload_wdm) {
            panic!("{e}");
        }
        WdmConfig { payload_wdm }
    }

    /// Number of payload waveguides (D0..Dn): `ceil(640 / wdm)`.
    /// 10 for the paper's 64-way configuration.
    pub fn payload_waveguides(self) -> u32 {
        PAYLOAD_BITS.div_ceil(self.payload_wdm)
    }

    /// Total waveguides per channel direction: payload plus the two control
    /// waveguides. 12 for the paper's configuration.
    pub fn total_waveguides(self) -> u32 {
        self.payload_waveguides() + CONTROL_WAVEGUIDES
    }

    /// Total optical bit-channels per packet transmission (payload +
    /// control). Constant (710) regardless of the WDM degree: more WDM
    /// means fewer waveguides, not fewer bits.
    pub fn packet_channels(self) -> u32 {
        PAYLOAD_BITS + CONTROL_BITS
    }
}

impl Default for WdmConfig {
    fn default() -> Self {
        WdmConfig::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_table1() {
        let c = WdmConfig::PAPER;
        assert_eq!(c.payload_wdm, 64);
        assert_eq!(c.payload_waveguides(), 10);
        assert_eq!(c.total_waveguides(), 12);
        assert_eq!(c.packet_channels(), 710);
    }

    #[test]
    fn sweep_waveguide_counts() {
        let counts: Vec<u32> = WdmConfig::SWEEP
            .iter()
            .map(|c| c.total_waveguides())
            .collect();
        assert_eq!(counts, vec![22, 12, 7]);
    }

    #[test]
    fn non_dividing_wdm_rounds_up() {
        assert_eq!(WdmConfig::new(100).payload_waveguides(), 7); // 640/100 -> 6.4
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_wdm_rejected() {
        let _ = WdmConfig::new(0);
    }

    #[test]
    fn packet_channels_independent_of_wdm() {
        for c in WdmConfig::SWEEP {
            assert_eq!(c.packet_channels(), 710);
        }
    }
}
