//! Wavelength-channel assignment: how the 710 bits of a Phastlane packet
//! map onto physical waveguides and wavelengths (Figure 2 and Figure 3).
//!
//! The payload (640 bits: 64-byte cache line plus address, operation
//! type, source id, ECC and miscellaneous bits) rides ten data waveguides
//! D0–D9 at 64-way WDM. The 70 Router Control bits ride the C0 and C1
//! waveguides at 35-way WDM: C0 carries Groups 1–7 on λ1–λ35, C1 carries
//! Groups 8–14. At each output port the remaining C0 groups are
//! frequency-translated down five wavelengths onto the outgoing C1 while
//! the physical C1 waveguide shifts into the C0 position (§2.1).

use phastlane_photonics::wdm::{WdmConfig, CONTROL_WDM, PAYLOAD_BITS};
use std::fmt;

/// A physical waveguide of the router channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Waveguide {
    /// A payload data waveguide D0..D{n-1}.
    Data(u8),
    /// The C0 control waveguide (Groups 1-7 as input).
    C0,
    /// The C1 control waveguide (Groups 8-14 as input).
    C1,
}

impl fmt::Display for Waveguide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waveguide::Data(i) => write!(f, "D{i}"),
            Waveguide::C0 => f.write_str("C0"),
            Waveguide::C1 => f.write_str("C1"),
        }
    }
}

/// One optical channel: a wavelength slot on a waveguide. Wavelengths
/// are 1-based (λ1 is the first), matching the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// The waveguide.
    pub waveguide: Waveguide,
    /// 1-based wavelength index on that waveguide.
    pub wavelength: u16,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:λ{}", self.waveguide, self.wavelength)
    }
}

/// The channel map for a WDM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelMap {
    wdm: WdmConfig,
}

impl ChannelMap {
    /// Creates the map for a configuration (the paper's is 64-way).
    pub fn new(wdm: WdmConfig) -> Self {
        ChannelMap { wdm }
    }

    /// The channel carrying payload bit `bit` (0-based, < 640): bits fill
    /// D0 λ1..λW, then D1, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 640`.
    pub fn payload_channel(&self, bit: u32) -> Channel {
        assert!(bit < PAYLOAD_BITS, "payload bit {bit} out of range");
        let w = self.wdm.payload_wdm;
        Channel {
            waveguide: Waveguide::Data((bit / w) as u8),
            wavelength: (bit % w + 1) as u16,
        }
    }

    /// The channel carrying control bit `bit` (0-based, < 70) *at a
    /// router input*: Groups 1-7 (bits 0..34) on C0, Groups 8-14 on C1.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 70`.
    pub fn control_channel(&self, bit: u32) -> Channel {
        assert!(bit < 70, "control bit {bit} out of range");
        if bit < CONTROL_WDM {
            Channel {
                waveguide: Waveguide::C0,
                wavelength: (bit + 1) as u16,
            }
        } else {
            Channel {
                waveguide: Waveguide::C1,
                wavelength: (bit - CONTROL_WDM + 1) as u16,
            }
        }
    }

    /// The output-port channel of an input control channel after one
    /// router traversal (Figure 3): Group 1 (λ1–λ5 of C0) is consumed;
    /// C0's λ6–λ35 frequency-translate to λ1–λ30 of the *outgoing* C1;
    /// the physical C1 shifts into the C0 position unchanged.
    ///
    /// Returns `None` for the consumed Group 1 channels.
    pub fn translate(&self, input: Channel) -> Option<Channel> {
        match input.waveguide {
            Waveguide::C0 => {
                if input.wavelength <= 5 {
                    None // Group 1, consumed by this router
                } else {
                    Some(Channel {
                        waveguide: Waveguide::C1,
                        wavelength: input.wavelength - 5,
                    })
                }
            }
            Waveguide::C1 => Some(Channel {
                waveguide: Waveguide::C0,
                ..input
            }),
            Waveguide::Data(_) => Some(input),
        }
    }

    /// Total active channels for one packet transmission.
    pub fn packet_channels(&self) -> u32 {
        self.wdm.packet_channels()
    }
}

/// Which physical group *position* (1-based, 1-7 on C0, 8-14 on C1) the
/// source must use for the `router_index`-th router of the route
/// (1-based).
///
/// The Figure 3 hardware alternates waveguides: each traversal consumes
/// C0's Group 1, frequency-translates the rest of C0 onto the outgoing
/// C1, and physically shifts C1 into the C0 position — so consecutive
/// routers consume positions 1, 8, 2, 9, 3, 10, … The source predecodes
/// with this interleaving.
///
/// # Panics
///
/// Panics if `router_index` is 0 or greater than 14.
pub fn group_position_for_router(router_index: u32) -> u32 {
    assert!(
        (1..=14).contains(&router_index),
        "router index {router_index} outside the 14-group budget"
    );
    if router_index % 2 == 1 {
        router_index.div_ceil(2)
    } else {
        7 + router_index / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ChannelMap {
        ChannelMap::new(WdmConfig::PAPER)
    }

    #[test]
    fn payload_layout_matches_figure2() {
        let m = map();
        assert_eq!(
            m.payload_channel(0),
            Channel {
                waveguide: Waveguide::Data(0),
                wavelength: 1
            }
        );
        assert_eq!(
            m.payload_channel(63),
            Channel {
                waveguide: Waveguide::Data(0),
                wavelength: 64
            }
        );
        assert_eq!(
            m.payload_channel(64),
            Channel {
                waveguide: Waveguide::Data(1),
                wavelength: 1
            }
        );
        assert_eq!(
            m.payload_channel(639),
            Channel {
                waveguide: Waveguide::Data(9),
                wavelength: 64
            }
        );
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "test: membership checks only")]
    fn payload_mapping_is_injective() {
        let m = map();
        let mut seen = std::collections::HashSet::new();
        for bit in 0..640 {
            assert!(seen.insert(m.payload_channel(bit)), "bit {bit} collides");
        }
    }

    #[test]
    fn control_split_across_c0_c1() {
        let m = map();
        // Group 1 = bits 0..5 on C0 λ1-λ5.
        assert_eq!(
            m.control_channel(0),
            Channel {
                waveguide: Waveguide::C0,
                wavelength: 1
            }
        );
        assert_eq!(
            m.control_channel(34),
            Channel {
                waveguide: Waveguide::C0,
                wavelength: 35
            }
        );
        // Group 8 starts C1.
        assert_eq!(
            m.control_channel(35),
            Channel {
                waveguide: Waveguide::C1,
                wavelength: 1
            }
        );
        assert_eq!(
            m.control_channel(69),
            Channel {
                waveguide: Waveguide::C1,
                wavelength: 35
            }
        );
    }

    #[test]
    fn translation_consumes_group1_and_shifts() {
        let m = map();
        // Group 1 channels vanish.
        for wl in 1..=5 {
            assert_eq!(
                m.translate(Channel {
                    waveguide: Waveguide::C0,
                    wavelength: wl
                }),
                None
            );
        }
        // C0 λ6 -> outgoing C1 λ1 (frequency translation).
        assert_eq!(
            m.translate(Channel {
                waveguide: Waveguide::C0,
                wavelength: 6
            }),
            Some(Channel {
                waveguide: Waveguide::C1,
                wavelength: 1
            })
        );
        // C1 shifts physically into the C0 position, same wavelength.
        assert_eq!(
            m.translate(Channel {
                waveguide: Waveguide::C1,
                wavelength: 12
            }),
            Some(Channel {
                waveguide: Waveguide::C0,
                wavelength: 12
            })
        );
        // Data channels pass through.
        let d = Channel {
            waveguide: Waveguide::Data(4),
            wavelength: 9,
        };
        assert_eq!(m.translate(d), Some(d));
    }

    #[test]
    fn hardware_consumption_order_matches_position_map() {
        // Simulate every group position's first bit through 14 router
        // traversals. At each router, exactly one position must sit at
        // Group 1 (C0 λ1-λ5) — and it must be the position
        // `group_position_for_router` tells the source to use.
        let m = map();
        let mut live: Vec<(u32, Channel)> = (1..=14)
            .map(|pos| (pos, m.control_channel((pos - 1) * 5)))
            .collect();
        for router in 1..=14u32 {
            let at_group1: Vec<u32> = live
                .iter()
                .filter(|(_, ch)| ch.waveguide == Waveguide::C0 && ch.wavelength <= 5)
                .map(|&(pos, _)| pos)
                .collect();
            assert_eq!(
                at_group1.len(),
                1,
                "router {router}: exactly one group at Group 1"
            );
            assert_eq!(
                at_group1[0],
                group_position_for_router(router),
                "router {router} consumes the wrong position"
            );
            // Traverse the router: Group 1 is consumed, the rest move.
            live = live
                .into_iter()
                .filter_map(|(pos, ch)| m.translate(ch).map(|next| (pos, next)))
                .collect();
        }
        assert!(live.is_empty(), "all 14 groups consumed after 14 routers");
    }

    #[test]
    fn position_map_is_a_permutation() {
        let mut seen: Vec<u32> = (1..=14).map(group_position_for_router).collect();
        assert_eq!(seen[..4], [1, 8, 2, 9]);
        seen.sort_unstable();
        assert_eq!(seen, (1..=14).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "outside the 14-group budget")]
    fn position_map_bounds() {
        let _ = group_position_for_router(15);
    }

    #[test]
    fn display_formats() {
        let c = Channel {
            waveguide: Waveguide::Data(3),
            wavelength: 17,
        };
        assert_eq!(c.to_string(), "D3:λ17");
        assert_eq!(Waveguide::C0.to_string(), "C0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn payload_bit_bounds() {
        let _ = map().payload_channel(640);
    }
}
