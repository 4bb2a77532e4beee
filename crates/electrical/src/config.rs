//! Electrical baseline router configuration (Table 2).

use phastlane_netsim::geometry::Mesh;

/// Flit entries per VC (Table 2: 1, with wait-for-tail credit). A fact of
/// the model, not a knob: every VC slot holds one flit.
pub const ENTRIES_PER_VC: usize = 1;

/// Crossbar output speedup (Table 2: 1). Likewise fixed: one flit leaves
/// an output port per cycle.
pub const OUTPUT_SPEEDUP: usize = 1;

/// Configuration of the baseline electrical virtual-channel network.
///
/// The paper's baseline is "an aggressive router optimized for both
/// latency and bandwidth": single-flit packets (no serialization
/// latency), pipeline speculation and route-lookahead compressing the per
/// hop latency to 2–3 cycles, input speedup 4, and ejection that bypasses
/// the crossbar.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectricalConfig {
    /// Mesh dimensions (8x8 in the paper).
    pub mesh: Mesh,
    /// Virtual channels per input port (10; the simulator takes 1 to 16,
    /// the width of its per-port VC masks).
    pub vcs_per_port: usize,
    /// Total router pipeline delay in cycles (3 baseline, 2 aggressive).
    pub router_delay: u64,
    /// Crossbar input speedup: flits that may leave one input port per
    /// cycle (4; at least 1).
    pub input_speedup: usize,
    /// iSLIP iterations for the VC and switch allocators.
    pub islip_iterations: usize,
    /// NIC injection-queue depth (50).
    pub nic_entries: usize,
    /// One-time extra pipeline latency the first multicast from each
    /// source pays while its VCTM tree is installed (0 = pre-warmed
    /// trees, which favours the baseline).
    pub vctm_setup_penalty: u64,
}

impl ElectricalConfig {
    /// The paper's baseline: 3-cycle router.
    pub fn electrical3() -> Self {
        Self::with_router_delay(3)
    }

    /// The "very aggressive" 2-cycle router of §5.
    pub fn electrical2() -> Self {
        Self::with_router_delay(2)
    }

    /// Builds a configuration with the given router delay and Table 2
    /// defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `router_delay` is zero.
    pub fn with_router_delay(router_delay: u64) -> Self {
        assert!(router_delay > 0, "router delay must be positive");
        ElectricalConfig {
            mesh: Mesh::PAPER,
            vcs_per_port: 10,
            router_delay,
            input_speedup: 4,
            islip_iterations: 2,
            nic_entries: phastlane_netsim::nic::NIC_ENTRIES,
            vctm_setup_penalty: 0,
        }
    }

    /// Configuration label matching the paper's figures (`Electrical3`,
    /// `Electrical2`).
    pub fn label(&self) -> String {
        format!("Electrical{}", self.router_delay)
    }
}

impl Default for ElectricalConfig {
    fn default() -> Self {
        Self::electrical3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = ElectricalConfig::default();
        assert_eq!(c.vcs_per_port, 10);
        assert_eq!(c.router_delay, 3);
        assert_eq!(c.input_speedup, 4);
        assert_eq!(c.nic_entries, 50);
    }

    #[test]
    fn labels() {
        assert_eq!(ElectricalConfig::electrical3().label(), "Electrical3");
        assert_eq!(ElectricalConfig::electrical2().label(), "Electrical2");
    }

    #[test]
    #[should_panic(expected = "router delay")]
    fn zero_delay_rejected() {
        let _ = ElectricalConfig::with_router_delay(0);
    }
}
