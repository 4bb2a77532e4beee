//! Tables 1-2 and Figures 4-8: the §3 analytic models, no cycle
//! simulated. Their output is recorded under `results/*.txt` and
//! `tests/figures.rs` holds them to it.

use super::{header, row};
use crate::args::{ArgError, Parsed};
use phastlane_core::PhastlaneConfig;
use phastlane_electrical::config::{ENTRIES_PER_VC, OUTPUT_SPEEDUP};
use phastlane_electrical::ElectricalConfig;
use phastlane_netsim::nic::NIC_ENTRIES;
use phastlane_photonics::area::{
    area_sweet_spot, RouterArea, NODE_AREA_1CORE, NODE_AREA_2CORE, NODE_AREA_4CORE,
};
use phastlane_photonics::delay::{figure6_series, RouterDesign, RouterOp};
use phastlane_photonics::power::figure7_grid;
use phastlane_photonics::scaling::{figure4_series, Scaling};
use phastlane_photonics::units::TechNode;
use phastlane_photonics::wdm::{WdmConfig, CONTROL_BITS, CONTROL_WAVEGUIDES, CONTROL_WDM};
use std::fmt::Write as _;

/// Tables 1 and 2: the optical network configuration and the baseline
/// electrical router parameters, printed from the defaults the simulators
/// actually use.
pub(super) fn tables(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    let o = PhastlaneConfig::optical4();
    writeln!(out, "Table 1: optical network configuration")?;
    writeln!(out, "  Flits per packet            1 (80 bytes)")?;
    writeln!(out, "  Packet payload WDM          {}", o.wdm.payload_wdm)?;
    writeln!(
        out,
        "  Packet payload waveguides   {}",
        o.wdm.payload_waveguides()
    )?;
    writeln!(out, "  Routing function            Dimension-Order")?;
    writeln!(out, "  Packet control bits         {CONTROL_BITS}")?;
    writeln!(out, "  Packet control WDM          {CONTROL_WDM}")?;
    writeln!(out, "  Packet control waveguides   {CONTROL_WAVEGUIDES}")?;
    writeln!(out, "  Buffer entries in NIC       {NIC_ENTRIES}")?;
    writeln!(out, "  Max hops per cycle          4, 5, or 8")?;
    writeln!(out, "  Node transmit arbitration   Rotating Priority")?;
    writeln!(out, "  Network path arbitration    Fixed Priority")?;
    writeln!(out)?;

    let e = ElectricalConfig::electrical3();
    writeln!(out, "Table 2: baseline electrical router parameters")?;
    writeln!(out, "  Flits per packet            1 (80 bytes)")?;
    writeln!(out, "  Routing function            Dimension-Order")?;
    writeln!(out, "  Number of VCs per port      {}", e.vcs_per_port)?;
    writeln!(out, "  Number of entries per VC    {ENTRIES_PER_VC}")?;
    writeln!(out, "  Wait for tail credit        YES")?;
    writeln!(out, "  VC allocator                iSLIP")?;
    writeln!(out, "  SW allocator                iSLIP")?;
    writeln!(out, "  Total router delay          2 or 3 cycles")?;
    writeln!(out, "  Input speedup               {}", e.input_speedup)?;
    writeln!(out, "  Output speedup              {OUTPUT_SPEEDUP}")?;
    writeln!(out, "  Buffer entries in NIC       {NIC_ENTRIES}")?;
    Ok(out)
}

/// Figure 4: optimistic, average, and pessimistic scaling trends for the
/// optical transmit and receive chain delays, 45 nm down to 16 nm.
pub(super) fn fig4(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    out.push_str("Figure 4: transmit/receive delay scaling trends (ps)\n\n");
    let widths = [6, 12, 12, 12, 12, 12, 12];
    let cells = "node|tx-opt|tx-avg|tx-pess|rx-opt|rx-avg|rx-pess";
    header(&mut out, cells, &widths);
    for (node, trends) in figure4_series() {
        let mut cells = vec![node.to_string()];
        cells.extend(
            trends
                .iter()
                .map(|t| format!("{:.1}", t.1.transmit.value())),
        );
        cells.extend(trends.iter().map(|t| format!("{:.2}", t.1.receive.value())));
        row(&mut out, &cells, &widths);
    }
    writeln!(
        out,
        "\npaper endpoints at 16nm: transmit 8.0-19.4 ps, receive 1.8-3.7 ps"
    )?;
    Ok(out)
}

/// Figure 5: component delays of the critical paths (PP, PB, PA, PIA)
/// through the Phastlane router under different scaling assumptions and
/// WDM degrees.
pub(super) fn fig5(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    out.push_str("Figure 5: critical-path component delays (ps) at 16nm\n\n");
    let widths = [12, 6, 5, 9, 9, 9, 9, 8];
    let cells = "scaling|wdm|op|rx-ctl|drive|traverse|rx-pkt|total";
    header(&mut out, cells, &widths);
    for scaling in Scaling::ALL {
        for wdm in WdmConfig::SWEEP {
            let design = RouterDesign {
                wdm,
                scaling,
                node: TechNode::NM16,
            };
            for op in RouterOp::ALL {
                let bd = design.critical_path(op);
                row(
                    &mut out,
                    &[
                        scaling.to_string(),
                        wdm.payload_wdm.to_string(),
                        op.to_string(),
                        format!("{:.2}", bd.receive_control.value()),
                        format!("{:.2}", bd.drive_resonators.value()),
                        format!("{:.2}", bd.traverse.value()),
                        format!("{:.2}", bd.receive_packet.value()),
                        format!("{:.2}", bd.total().value()),
                    ],
                    &widths,
                );
            }
        }
    }
    out.push_str(
        "\npaper observations: wavelengths have little impact; resonator\n\
         driving dominates; PP > PB > PA.\n",
    );
    Ok(out)
}

/// Figure 6: maximum number of hops a packet can travel in a single
/// 4 GHz cycle, for each number of wavelengths and scaling assumption.
pub(super) fn fig6(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    out.push_str("Figure 6: max hops per 4GHz cycle at 16nm\n\n");
    let widths = [6, 14, 6];
    header(&mut out, "wdm|scaling|hops", &widths);
    for (wdm, scaling, hops) in figure6_series(TechNode::NM16) {
        row(
            &mut out,
            &[
                wdm.payload_wdm.to_string(),
                scaling.to_string(),
                hops.to_string(),
            ],
            &widths,
        );
    }
    out.push_str(
        "\npaper: 8 / 5 / 4 hops for optimistic / average / pessimistic,\n\
         independent of the number of wavelengths.\n",
    );
    Ok(out)
}

/// Figure 7: contour of the peak optical power as a function of crossing
/// efficiency, number of wavelengths, and maximum hops per cycle.
pub(super) fn fig7(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    out.push_str("Figure 7: peak optical power (W)\n\n");
    let efficiencies = [0.97, 0.98, 0.99, 0.995];
    let hops = [2, 3, 4, 5, 8];
    let widths = [6, 6, 6, 10];
    header(&mut out, "eff|wdm|hops|peak W", &widths);
    for (eff, wdm, h, power) in figure7_grid(&efficiencies, &hops) {
        row(
            &mut out,
            &[
                format!("{:.1}%", eff * 100.0),
                wdm.payload_wdm.to_string(),
                h.to_string(),
                format!("{:.1}", power.as_watts()),
            ],
            &widths,
        );
    }
    out.push_str(
        "\npaper operating points: 64λ/4hop/98% ≈ 32 W;\n\
         128λ/5hop/98% ≈ 32 W; 128λ/4hop/98% ≈ 15 W;\n\
         32λ needs ≥99% efficiency or a 2-3 hop limit.\n",
    );
    Ok(out)
}

/// Figure 8: impact of the number of wavelengths on the router area
/// components and the total area.
pub(super) fn fig8(_: &Parsed) -> Result<String, ArgError> {
    let mut out = String::new();
    out.push_str("Figure 8: router area components vs wavelengths (mm^2)\n\n");
    let widths = [6, 12, 10, 8, 8, 18];
    header(
        &mut out,
        "wdm|turn-region|ports|fixed|total|fits node",
        &widths,
    );
    for wdm in WdmConfig::SWEEP {
        let a = RouterArea::for_wdm(wdm);
        let fits = if a.fits(NODE_AREA_1CORE) {
            "1-core (3.5mm^2)"
        } else if a.fits(NODE_AREA_2CORE) {
            "2-core (4.5mm^2)"
        } else if a.fits(NODE_AREA_4CORE) {
            "4-core (6.5mm^2)"
        } else {
            "none"
        };
        let mut cells = vec![wdm.payload_wdm.to_string()];
        let parts = [a.turn_region, a.ports, a.fixed, a.total()];
        cells.extend(parts.map(|mm2| format!("{:.3}", mm2.value())));
        cells.push(fits.to_string());
        row(&mut out, &cells, &widths);
    }
    let best = area_sweet_spot(&WdmConfig::SWEEP).expect("non-empty sweep");
    writeln!(
        out,
        "\nsweet spot: {} wavelengths (paper: 64)",
        best.payload_wdm
    )?;
    Ok(out)
}
