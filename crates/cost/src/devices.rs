//! Device-level power/area tables for the optical datapath.
//!
//! The fabric roll-ups in [`fabric`](crate::fabric) price transceivers at datasheet
//! module figures (~12 W for a 400 G pluggable). This module goes one level down,
//! with published DAC/ADC/laser power-area numbers (the SNIPPETS.md tables, drawn
//! from silicon-photonics survey data): what the electro-optical engine inside a
//! module — and inside an *active* optical switch port — actually burns. The
//! provisioning cost model ([`provisioning`](crate::provisioning)) uses these to
//! derive per-port power for fast electro-optic OCS classes, whose per-port drive
//! electronics resemble a transceiver lane, instead of guessing a flat figure.

use serde::{Deserialize, Serialize};

/// One data-converter design point (a DAC or an ADC): silicon area, resolution,
/// power and sample rate, as published.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ConverterDevice {
    /// Design-point label.
    pub name: &'static str,
    /// Silicon area in µm².
    pub area_um2: f64,
    /// Resolution in bits.
    pub precision_bits: u32,
    /// Power in milliwatts at the rated sample rate.
    pub power_mw: f64,
    /// Sample rate in GS/s.
    pub sample_rate_gsps: f64,
}

/// The DAC design points of the SNIPPETS.md table (area µm², precision bit,
/// power mW, sample rate GS/s).
pub(crate) fn dac_catalog() -> Vec<ConverterDevice> {
    vec![
        ConverterDevice {
            name: "dac-12b-14gsps",
            area_um2: 11_000.0,
            precision_bits: 12,
            power_mw: 169.0,
            sample_rate_gsps: 14.0,
        },
        ConverterDevice {
            name: "dac-8b-14gsps",
            area_um2: 11_000.0,
            precision_bits: 8,
            power_mw: 50.0,
            sample_rate_gsps: 14.0,
        },
        ConverterDevice {
            name: "dac-8b-5gsps",
            area_um2: 500_000.0,
            precision_bits: 8,
            power_mw: 20.0,
            sample_rate_gsps: 5.0,
        },
        ConverterDevice {
            name: "dac-8b-1msps",
            area_um2: 500_000.0,
            precision_bits: 8,
            power_mw: 20.0,
            sample_rate_gsps: 0.001,
        },
        ConverterDevice {
            name: "dac-8b-1msps-alt",
            area_um2: 500_000.0,
            precision_bits: 8,
            power_mw: 20.0,
            sample_rate_gsps: 0.001,
        },
    ]
}

/// The ADC design points of the SNIPPETS.md table (both SAR converters).
pub(crate) fn adc_catalog() -> Vec<ConverterDevice> {
    vec![
        ConverterDevice {
            name: "adc-sar-8b-10gsps",
            area_um2: 2_850.0,
            precision_bits: 8,
            power_mw: 14.8,
            sample_rate_gsps: 10.0,
        },
        ConverterDevice {
            name: "adc-sar-8b-5gsps",
            area_um2: 100_000.0,
            precision_bits: 8,
            power_mw: 7.5,
            sample_rate_gsps: 5.0,
        },
    ]
}

/// A laser design point: optical output power, die dimensions and wall-plug
/// efficiency (electrical-to-optical conversion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LaserModel {
    /// Optical output power in milliwatts.
    pub power_mw: f64,
    /// Die length in µm.
    pub length_um: f64,
    /// Die width in µm.
    pub width_um: f64,
    /// Wall-plug efficiency (optical watts out per electrical watt in).
    pub wall_plug_eff: f64,
}

impl LaserModel {
    /// The SNIPPETS.md default laser: 0.5 mW out of a 400 µm × 300 µm die at 25 %
    /// wall-plug efficiency.
    pub(crate) fn default_point() -> Self {
        LaserModel {
            power_mw: 0.5,
            length_um: 400.0,
            width_um: 300.0,
            wall_plug_eff: 0.25,
        }
    }

    /// Electrical input power in milliwatts: optical output divided by wall-plug
    /// efficiency.
    pub(crate) fn wall_plug_power_mw(&self) -> f64 {
        self.power_mw / self.wall_plug_eff
    }
}

/// The electro-optical engine of one 400 G transceiver lane-set: per-lane DAC (TX
/// drive), ADC (RX sampling) and laser, rolled up across the module's lanes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TransceiverDeviceModel {
    /// Electrical lanes in the module (4 × 100 G for a 400 G DR4/XDR4 part).
    pub lanes: u32,
    /// The DAC design point per lane.
    pub dac: ConverterDevice,
    /// The ADC design point per lane.
    pub adc: ConverterDevice,
    /// The laser per lane.
    pub laser: LaserModel,
}

impl TransceiverDeviceModel {
    /// The 400 G generation: 4 lanes, the 8-bit 14 GS/s DAC, the 10 GS/s SAR ADC and
    /// the default laser point.
    pub(crate) fn gen_400g() -> Self {
        TransceiverDeviceModel {
            lanes: 4,
            dac: dac_catalog()[1],
            adc: adc_catalog()[0],
            laser: LaserModel::default_point(),
        }
    }

    /// Electro-optical engine power in watts: per lane, DAC + ADC + laser wall-plug
    /// draw. A floor, not the module figure — the ~12 W datasheet number also
    /// carries CDR/DSP retiming, control and thermal overhead this table does not
    /// model.
    pub(crate) fn engine_power_watts(&self) -> f64 {
        self.lanes as f64
            * (self.dac.power_mw + self.adc.power_mw + self.laser.wall_plug_power_mw())
            / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_match_the_published_points() {
        let dacs = dac_catalog();
        assert_eq!(dacs.len(), 5);
        assert_eq!(dacs[0].precision_bits, 12);
        assert_eq!(dacs[0].power_mw, 169.0);
        let adcs = adc_catalog();
        assert_eq!(adcs.len(), 2);
        assert_eq!(adcs[0].area_um2, 2_850.0);
        let laser = LaserModel::default_point();
        assert_eq!(laser.length_um * laser.width_um, 120_000.0);
        assert_eq!(laser.wall_plug_power_mw(), 2.0);
    }

    #[test]
    fn engine_power_sits_well_below_the_module_datasheet_figure() {
        let engine = TransceiverDeviceModel::gen_400g();
        let watts = engine.engine_power_watts();
        // 4 × (50 + 14.8 + 2) mW = 267.2 mW — a floor far under the ~12 W module.
        assert!((watts - 0.2672).abs() < 1e-9);
        assert!(watts < 12.0);
    }
}
