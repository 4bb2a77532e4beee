//! Phastlane network configuration (Table 1 plus the §5 variants).

use crate::policies::{ArbitrationPolicy, PathPriority};
use phastlane_netsim::geometry::Mesh;
use phastlane_photonics::wdm::WdmConfig;

/// Depth of the electrical buffers at each input port and the local node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferDepth {
    /// A finite number of entries statically partitioned per buffer
    /// (the paper's organization: "five sets of buffers").
    Finite(usize),
    /// A pool of entries shared dynamically by all five buffers, with one
    /// slot reserved per queue as an escape path (without the
    /// reservation, a hogged pool deadlocks the drop/retransmit loop) —
    /// one of the "more sophisticated buffer management schemes" the
    /// paper's §5 future work suggests for reducing buffering
    /// requirements. `SharedPool(50)` uses the same silicon as
    /// `Finite(10)` but multiplexes it across ports.
    SharedPool(usize),
    /// Unbounded buffering (the `Optical4IB` configuration).
    Infinite,
}

impl BufferDepth {
    /// Whether a buffer with `occupancy` entries (and `total` entries
    /// across the router's five buffers) can take another entry.
    pub fn has_room_with_total(self, occupancy: usize, total: usize) -> bool {
        match self {
            BufferDepth::Finite(cap) => occupancy < cap,
            BufferDepth::SharedPool(cap) => {
                // One slot per queue is reserved (escape path); the rest
                // is first-come shared. `shared_used` counts entries
                // beyond each queue's reserved slot, conservatively
                // assuming the other four queues hold their reservations.
                let reserved = 5usize;
                if occupancy == 0 {
                    total < cap.max(reserved) // the reserved slot
                } else {
                    let shared_used = total.saturating_sub(reserved);
                    occupancy - 1 < cap.saturating_sub(reserved)
                        && shared_used < cap.saturating_sub(reserved)
                        && total < cap
                }
            }
            BufferDepth::Infinite => true,
        }
    }

    /// Whether `occupancy` more entries would exceed a per-queue depth
    /// (shared pools are judged on the router total; see
    /// [`has_room_with_total`](Self::has_room_with_total)).
    pub fn has_room(self, occupancy: usize) -> bool {
        self.has_room_with_total(occupancy, occupancy)
    }
}

/// Source backoff policy after a Packet Dropped signal (§2.1.2: "backoff
/// and resend").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Minimum cycles to wait before the retransmission attempt.
    pub base: u64,
    /// Upper bound (exclusive) of the uniformly-random extra wait, which
    /// doubles with each consecutive drop of the same packet.
    pub jitter: u64,
    /// Cap on the exponent so the wait stays bounded.
    pub max_exponent: u32,
}

impl BackoffPolicy {
    /// Draws a backoff delay for the given retry attempt (0-based) using
    /// `roll`, a uniformly-random value the caller supplies.
    pub fn delay(&self, attempt: u32, roll: u64) -> u64 {
        let window = self.jitter << attempt.min(self.max_exponent);
        self.base + if window == 0 { 0 } else { roll % window }
    }
}

/// The backoff every source uses: one cycle plus a jitter drawn below a
/// 4-cycle window that doubles with each consecutive drop, up to 128.
pub const BACKOFF: BackoffPolicy = BackoffPolicy {
    base: 1,
    jitter: 4,
    max_exponent: 5,
};

/// Full configuration of a Phastlane network.
#[derive(Debug, Clone, PartialEq)]
pub struct PhastlaneConfig {
    /// Mesh dimensions (8x8 in the paper).
    pub mesh: Mesh,
    /// Maximum hops an unblocked packet traverses per cycle: 4, 5, or 8
    /// for pessimistic, average, and optimistic component scaling
    /// (Figure 6).
    pub max_hops: u32,
    /// Electrical buffer depth at each input port and the local node
    /// (10 baseline; 32/64/infinite variants in §5).
    pub buffers: BufferDepth,
    /// WDM packaging (64-way, Table 1); sets the optical power model.
    pub wdm: WdmConfig,
    /// Waveguide-crossing efficiency assumed for laser provisioning
    /// (98 %, §3.2).
    pub crossing_efficiency: f64,
    /// Maximum retransmission attempts per message before its remaining
    /// destinations are declared terminally `Undeliverable` (the livelock
    /// guard). Generous enough that congestion alone never trips it; under
    /// fault plans it bounds retries toward dead destinations.
    pub retry_limit: u32,
    /// Buffered-packet arbitration policy (rotating priority in the
    /// paper; alternatives for the §7 ablation study).
    pub arbitration: ArbitrationPolicy,
    /// Optical-path contention policy (fixed straight-beats-turn in the
    /// paper; round-robin per footnote 3).
    pub path_priority: PathPriority,
    /// RNG seed for backoff jitter (the only nondeterminism source).
    pub seed: u64,
}

impl PhastlaneConfig {
    /// The baseline `Optical4` configuration: 4 hops/cycle, 10 buffers.
    pub fn optical4() -> Self {
        Self::with_hops_and_buffers(4, BufferDepth::Finite(10))
    }

    /// `Optical5`: 5 hops/cycle (average scaling).
    pub fn optical5() -> Self {
        Self::with_hops_and_buffers(5, BufferDepth::Finite(10))
    }

    /// `Optical8`: 8 hops/cycle (optimistic scaling). The optimistic
    /// component-scaling scenario also assumes better optics: laser
    /// provisioning at 98.5 % crossing efficiency rather than 98 %
    /// (without it, Figure 7's loss budget makes an eight-hop reach
    /// impractical; see §3.2).
    pub fn optical8() -> Self {
        let mut cfg = Self::with_hops_and_buffers(8, BufferDepth::Finite(10));
        cfg.crossing_efficiency = 0.985;
        cfg
    }

    /// `Optical4B32`: 4 hops, 32 buffer entries.
    pub fn optical4_b32() -> Self {
        Self::with_hops_and_buffers(4, BufferDepth::Finite(32))
    }

    /// `Optical4B64`: 4 hops, 64 buffer entries.
    pub fn optical4_b64() -> Self {
        Self::with_hops_and_buffers(4, BufferDepth::Finite(64))
    }

    /// `Optical4IB`: 4 hops, infinite buffering.
    pub fn optical4_ib() -> Self {
        Self::with_hops_and_buffers(4, BufferDepth::Infinite)
    }

    /// Builds a configuration with the given hop limit and buffer depth
    /// and paper defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `max_hops` is zero.
    pub fn with_hops_and_buffers(max_hops: u32, buffers: BufferDepth) -> Self {
        assert!(max_hops > 0, "max_hops must be positive");
        PhastlaneConfig {
            mesh: Mesh::PAPER,
            max_hops,
            buffers,
            wdm: WdmConfig::PAPER,
            crossing_efficiency: 0.98,
            retry_limit: 1_000,
            arbitration: ArbitrationPolicy::default(),
            path_priority: PathPriority::default(),
            seed: 0xFA57_1A7E,
        }
    }

    /// Configuration label matching the paper's Figures 10 and 11
    /// (`Optical4`, `Optical4B32`, `Optical4IB`, ...).
    pub fn label(&self) -> String {
        match self.buffers {
            BufferDepth::Finite(10) => format!("Optical{}", self.max_hops),
            BufferDepth::Finite(n) => format!("Optical{}B{}", self.max_hops, n),
            BufferDepth::SharedPool(n) => format!("Optical{}SP{}", self.max_hops, n),
            BufferDepth::Infinite => format!("Optical{}IB", self.max_hops),
        }
    }

    /// `Optical4SP50`: 4 hops with a 50-entry shared pool per router —
    /// the same storage as the 10-entry-per-buffer baseline, dynamically
    /// shared (§5 future work).
    pub fn optical4_shared_pool() -> Self {
        Self::with_hops_and_buffers(4, BufferDepth::SharedPool(50))
    }
}

impl Default for PhastlaneConfig {
    fn default() -> Self {
        Self::optical4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(PhastlaneConfig::optical4().label(), "Optical4");
        assert_eq!(PhastlaneConfig::optical5().label(), "Optical5");
        assert_eq!(PhastlaneConfig::optical8().label(), "Optical8");
        assert_eq!(PhastlaneConfig::optical4_b32().label(), "Optical4B32");
        assert_eq!(PhastlaneConfig::optical4_b64().label(), "Optical4B64");
        assert_eq!(PhastlaneConfig::optical4_ib().label(), "Optical4IB");
    }

    #[test]
    fn defaults_match_table1() {
        let c = PhastlaneConfig::default();
        assert_eq!(c.mesh.nodes(), 64);
        assert_eq!(c.wdm.payload_wdm, 64);
        assert_eq!(c.buffers, BufferDepth::Finite(10));
        assert!((c.crossing_efficiency - 0.98).abs() < 1e-12);
    }

    #[test]
    fn buffer_depth_room() {
        assert!(BufferDepth::Finite(2).has_room(1));
        assert!(!BufferDepth::Finite(2).has_room(2));
        assert!(BufferDepth::Infinite.has_room(usize::MAX - 1));
        // Shared pools judge the router total, not the queue.
        assert!(BufferDepth::SharedPool(50).has_room_with_total(30, 49));
        assert!(!BufferDepth::SharedPool(50).has_room_with_total(10, 50));
        // The per-queue reserved slot is always available.
        assert!(BufferDepth::SharedPool(50).has_room_with_total(0, 49));
        // A single queue cannot hog the shared region past cap-5.
        assert!(!BufferDepth::SharedPool(50).has_room_with_total(46, 46));
    }

    #[test]
    fn shared_pool_label() {
        assert_eq!(
            PhastlaneConfig::optical4_shared_pool().label(),
            "Optical4SP50"
        );
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let b = BackoffPolicy {
            base: 1,
            jitter: 4,
            max_exponent: 3,
        };
        // roll chosen as window-1 to see the maximum delay per attempt.
        let max_delay = |attempt: u32| {
            let window = 4u64 << attempt.min(3);
            b.delay(attempt, window - 1)
        };
        assert!(max_delay(0) < max_delay(1));
        assert!(max_delay(1) < max_delay(2));
        // Exponent caps.
        assert_eq!(max_delay(3), max_delay(9));
    }

    #[test]
    fn backoff_zero_jitter() {
        let b = BackoffPolicy {
            base: 3,
            jitter: 0,
            max_exponent: 2,
        };
        assert_eq!(b.delay(5, 12345), 3);
    }

    #[test]
    #[should_panic(expected = "max_hops")]
    fn zero_hops_rejected() {
        let _ = PhastlaneConfig::with_hops_and_buffers(0, BufferDepth::Infinite);
    }
}
