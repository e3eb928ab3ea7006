//! Component price and power catalog.
//!
//! Every constant is a public list price or datasheet figure for the component class
//! the paper's Fig. 7 methodology uses ([15, 16, 44, 53] and the methodology of
//! [71, 72]). Absolute street prices vary; what Fig. 7 (and our reproduction) depends
//! on is the *ratio* between electrical packet-switch ports (ASIC + deep buffers +
//! SerDes, plus a transceiver on each side of every switch port) and optical circuit
//! switch ports (passive optics, no ASIC, no per-port transceiver).

use serde::{Deserialize, Serialize};

/// Price and power figures for the components of a GPU-backend network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentCatalog {
    /// Price of one 400 G pluggable transceiver (FS.COM 400GBASE-XDR4, ~\$550 \[15\]).
    pub transceiver_400g_usd: f64,
    /// Power draw of one 400 G transceiver in watts (~12 W typical).
    pub transceiver_400g_watts: f64,
    /// Price of one 64×400 G electrical packet switch (FS N9510-64D, Tomahawk-4,
    /// ~\$36 000 \[16\]).
    pub electrical_switch_usd: f64,
    /// Typical power draw of that switch in watts (~1 800 W fully populated).
    pub electrical_switch_watts: f64,
    /// Ports per electrical switch.
    pub electrical_switch_ports: u64,
    /// Price of one optical circuit switch port (Polatis Series 7000-class piezo OCS,
    /// ~\$500/port at list \[53\]).
    pub ocs_port_usd: f64,
    /// Power draw of one OCS port in watts (a 384–576-port piezo/MEMS chassis draws
    /// ~45–65 W total, i.e. ~0.1–0.15 W per port [8, 53]).
    pub ocs_port_watts: f64,
    /// Price of one ConnectX-7-class 400 G NIC (~\$1 600 \[44\]). NICs are present in
    /// every fabric alternative, so they are excluded from comparisons by default.
    pub nic_usd: f64,
    /// NIC power in watts.
    pub nic_watts: f64,
}

impl ComponentCatalog {
    /// The 400 G generation catalog used by Fig. 7 (DGX H200 + 400 G optics).
    pub(crate) fn gen_400g() -> Self {
        ComponentCatalog {
            transceiver_400g_usd: 550.0,
            transceiver_400g_watts: 12.0,
            electrical_switch_usd: 36_000.0,
            electrical_switch_watts: 1_800.0,
            electrical_switch_ports: 64,
            ocs_port_usd: 500.0,
            ocs_port_watts: 0.12,
            nic_usd: 1_600.0,
            nic_watts: 25.0,
        }
    }
}

impl Default for ComponentCatalog {
    fn default() -> Self {
        Self::gen_400g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An electrical switch's price and power per port.
    fn electrical_per_port(c: &ComponentCatalog) -> (f64, f64) {
        let ports = c.electrical_switch_ports as f64;
        (
            c.electrical_switch_usd / ports,
            c.electrical_switch_watts / ports,
        )
    }

    #[test]
    fn per_port_figures() {
        let (usd, watts) = electrical_per_port(&ComponentCatalog::gen_400g());
        assert!((usd - 562.5).abs() < 1e-9);
        assert!((watts - 28.125).abs() < 1e-9);
    }

    #[test]
    fn optical_ports_are_cheaper_and_far_lower_power() {
        let c = ComponentCatalog::gen_400g();
        let (usd, watts) = electrical_per_port(&c);
        // An electrical switch port also needs a transceiver on the switch side, so the
        // electrical per-port cost is switch port + transceiver.
        let electrical_port_total = usd + c.transceiver_400g_usd;
        assert!(c.ocs_port_usd < electrical_port_total);
        // The power gap is two orders of magnitude — this is what drives the 95%+
        // power saving of photonic rails.
        assert!(watts / c.ocs_port_watts > 100.0);
    }
}
