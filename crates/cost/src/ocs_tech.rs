//! Table 3: the OCS technology scalability–latency trade-off.
//!
//! Each optical switching technology trades reconfiguration speed against port count.
//! With the 2-port NIC configuration and bidirectional transceivers the paper assumes,
//! a single OCS of radix `R` can serve `R / 2` scale-up domains, i.e.
//! `#GPUs = scale-up size × R / 2`.

use railsim_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One row of Table 3: an OCS technology and its characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcsTechnology {
    /// Technology name (and representative vendor).
    pub name: &'static str,
    /// Reconfiguration time.
    pub reconfig_time: SimDuration,
    /// Port count (radix).
    pub radix: u64,
}

impl OcsTechnology {
    /// Number of GPUs a single switch of this technology can serve when each scale-up
    /// domain has `gpus_per_scaleup` GPUs: `scale-up size × radix / 2`.
    pub fn max_gpus(&self, gpus_per_scaleup: u64) -> u64 {
        gpus_per_scaleup * self.radix / 2
    }
}

/// The seven technologies of Table 3, in the paper's order.
pub fn ocs_technologies() -> Vec<OcsTechnology> {
    vec![
        OcsTechnology {
            name: "PLZT (EpiPhotonics)",
            reconfig_time: SimDuration::from_nanos(10),
            radix: 16,
        },
        OcsTechnology {
            name: "SiP (Lightmatter)",
            reconfig_time: SimDuration::from_micros(7),
            radix: 32,
        },
        OcsTechnology {
            name: "RotorNet (InFocus)",
            reconfig_time: SimDuration::from_micros(10),
            radix: 128,
        },
        OcsTechnology {
            name: "3D MEMS (Calient)",
            reconfig_time: SimDuration::from_millis(15),
            radix: 320,
        },
        OcsTechnology {
            name: "Piezo (Polatis)",
            reconfig_time: SimDuration::from_millis(25),
            radix: 576,
        },
        OcsTechnology {
            name: "Liquid crystal (Coherent)",
            reconfig_time: SimDuration::from_millis(100),
            radix: 512,
        },
        OcsTechnology {
            name: "Robotic (Telescent)",
            reconfig_time: SimDuration::from_secs(120),
            radix: 1008,
        },
    ]
}

/// GPUs per scale-up domain for the two platforms of Table 3.
pub mod scaleup {
    /// GB200 NVL72: 72 GPUs per scale-up domain.
    pub const GB200: u64 = 72;
    /// DGX/HGX H200: 8 GPUs per scale-up domain.
    pub const H200: u64 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_gpu_counts_match_the_paper() {
        // (name, #GPUs GB200, #GPUs H200) exactly as printed in Table 3.
        let expected = [
            ("PLZT (EpiPhotonics)", 576, 64),
            ("SiP (Lightmatter)", 1152, 128),
            ("RotorNet (InFocus)", 4608, 512),
            ("3D MEMS (Calient)", 11520, 1280),
            ("Piezo (Polatis)", 20736, 2304),
            ("Liquid crystal (Coherent)", 18432, 2048),
            ("Robotic (Telescent)", 36288, 4032),
        ];
        let techs = ocs_technologies();
        assert_eq!(techs.len(), expected.len());
        for (tech, (name, gb200, h200)) in techs.iter().zip(expected) {
            assert_eq!(tech.name, name);
            assert_eq!(tech.max_gpus(scaleup::GB200), gb200, "{name} GB200");
            assert_eq!(tech.max_gpus(scaleup::H200), h200, "{name} H200");
        }
    }

    #[test]
    fn opus_can_scale_to_36k_gpus() {
        // §4.2: "Opus GPU-backend network can scale up to 36K GPUs" — the robotic
        // patch-panel row with GB200 scale-ups.
        let max = ocs_technologies()
            .iter()
            .map(|t| t.max_gpus(scaleup::GB200))
            .max()
            .unwrap();
        assert_eq!(max, 36_288);
    }

    #[test]
    fn millisecond_class_switches_fit_typical_windows() {
        let techs = ocs_technologies();
        let window = SimDuration::from_millis(1000);
        let mems = techs.iter().find(|t| t.name.contains("MEMS")).unwrap();
        let piezo = techs.iter().find(|t| t.name.contains("Piezo")).unwrap();
        let robotic = techs.iter().find(|t| t.name.contains("Robotic")).unwrap();
        // A technology hides its reconfiguration inside windows at least as long as
        // its switching time. Fig. 4 shows >75 % of windows exceed 1 ms; the paper
        // argues Piezo and 3D MEMS are ideal because tens of milliseconds still fit
        // the large windows while offering high radix.
        assert!(mems.reconfig_time <= window);
        assert!(piezo.reconfig_time <= window);
        assert!(robotic.reconfig_time > window);
    }

    #[test]
    fn radix_and_speed_trade_off() {
        // Across the table, the fastest technologies have the lowest radix.
        let techs = ocs_technologies();
        let fastest = techs.iter().min_by_key(|t| t.reconfig_time).unwrap();
        let biggest = techs.iter().max_by_key(|t| t.radix).unwrap();
        assert_eq!(fastest.name, "PLZT (EpiPhotonics)");
        assert_eq!(biggest.name, "Robotic (Telescent)");
        assert!(fastest.radix < biggest.radix);
        assert!(fastest.reconfig_time < biggest.reconfig_time);
    }
}
