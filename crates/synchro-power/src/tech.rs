//! Technology parameters (Table 1 of the paper).
//!
//! The paper targets a 130 nm process with a 0.7 V supply floor (from the
//! Blackfin DSP), an estimated 1.65 V maximum, a 0.332 V threshold voltage
//! from the Berkeley Predictive Technology Models, a 0.1 mW/MHz tile power
//! at 1 V, and semi-global wiring parameters taken from "The Future of
//! Wires" (387 fF/mm, 16 λ pitch).

use crate::error::PowerModelError;

/// The set of process / circuit parameters every model in this crate
/// consumes.  Construct with [`Technology::isca2004`] for the paper's
/// configuration, or build a custom instance for sensitivity studies.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Feature size in nanometres (the paper uses 130 nm).
    pub feature_nm: f64,
    /// Minimum supported supply voltage in volts (voltage floor, 0.7 V).
    pub min_voltage: f64,
    /// Maximum supported supply voltage in volts.  Table 1 estimates 1.65 V,
    /// but the published operating points (Table 3/4) reach 1.7 V for the
    /// Viterbi ACS column, so the operational ceiling is 1.7 V.
    pub max_voltage: f64,
    /// Device threshold voltage in volts (0.332 V from BPTM).
    pub threshold_voltage: f64,
    /// Junction temperature in degrees Celsius assumed for leakage (80 °C
    /// in the leakage analysis, 40 °C elsewhere; we keep the leakage figure).
    pub temperature_c: f64,
    /// Normalised tile power `U` in mW/MHz at the reference voltage.
    /// The paper derives 0.1 mW/MHz at a 1 V reference.
    pub tile_power_mw_per_mhz: f64,
    /// Reference voltage (volts) at which `tile_power_mw_per_mhz` holds.
    pub reference_voltage: f64,
    /// Tile area in mm² (1.82 mm² from the Table 2 synthesis).
    pub tile_area_mm2: f64,
    /// Semi-global wire capacitance in femto-farads per millimetre (387).
    pub wire_cap_ff_per_mm: f64,
    /// Bus width in bits (the chosen Synchroscalar configuration is 256).
    pub bus_width_bits: u32,
    /// Number of 32-bit splits the vertical bus is divided into (8).
    pub bus_splits: u32,
    /// Length of a column's vertical bus in millimetres.  Four tiles of
    /// 1.82 mm² are roughly 1.35 mm on a side, so a column bus spans about
    /// 5.4 mm.
    pub column_bus_length_mm: f64,
    /// Length of the horizontal inter-column bus in millimetres (the paper
    /// assumes a 10 mm die edge).
    pub chip_bus_length_mm: f64,
    /// Tiles per column (4 in the paper's organisation).
    pub tiles_per_column: u32,
    /// Leakage current per tile in milliamps (1.5 mA from the 830 pA /
    /// transistor × 1.8 M transistors estimate).
    pub leakage_ma_per_tile: f64,
    /// Transistors per tile (1.8 million).
    pub transistors_per_tile: f64,
    /// Frequency floor in MHz (the paper chooses 100 MHz as the design
    /// floor, although some mapped kernels run below it at the 0.7 V
    /// voltage floor).
    pub frequency_floor_mhz: f64,
    /// Maximum clock frequency in MHz the SPICEd 20-FO4 path reaches at the
    /// maximum voltage (600 MHz in Table 1).
    pub max_frequency_mhz: f64,
    /// Voltage quantisation step used when assigning column supplies (V).
    /// The paper supports "only a small set" of voltages; 0.1 V steps
    /// reproduce every published operating point.
    pub voltage_step: f64,
}

impl Technology {
    /// The 130 nm configuration of Table 1.
    pub fn isca2004() -> Self {
        Technology {
            feature_nm: 130.0,
            min_voltage: 0.7,
            max_voltage: 1.7,
            threshold_voltage: 0.332,
            temperature_c: 80.0,
            tile_power_mw_per_mhz: 0.1,
            reference_voltage: 1.0,
            tile_area_mm2: 1.82,
            wire_cap_ff_per_mm: 387.0,
            bus_width_bits: 256,
            bus_splits: 8,
            column_bus_length_mm: 5.4,
            chip_bus_length_mm: 10.0,
            tiles_per_column: 4,
            leakage_ma_per_tile: 1.5,
            transistors_per_tile: 1.8e6,
            frequency_floor_mhz: 100.0,
            max_frequency_mhz: 600.0,
            voltage_step: 0.1,
        }
    }

    /// Validate that every parameter is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::InvalidParameter`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), PowerModelError> {
        let checks: [(&'static str, f64); 12] = [
            ("feature_nm", self.feature_nm),
            ("min_voltage", self.min_voltage),
            ("max_voltage", self.max_voltage),
            ("threshold_voltage", self.threshold_voltage),
            ("tile_power_mw_per_mhz", self.tile_power_mw_per_mhz),
            ("reference_voltage", self.reference_voltage),
            ("tile_area_mm2", self.tile_area_mm2),
            ("wire_cap_ff_per_mm", self.wire_cap_ff_per_mm),
            ("column_bus_length_mm", self.column_bus_length_mm),
            ("chip_bus_length_mm", self.chip_bus_length_mm),
            ("leakage_ma_per_tile", self.leakage_ma_per_tile),
            ("voltage_step", self.voltage_step),
        ];
        for (name, value) in checks {
            if !value.is_finite() || value <= 0.0 {
                return Err(PowerModelError::InvalidParameter { name, value });
            }
        }
        if self.max_voltage <= self.min_voltage {
            return Err(PowerModelError::InvalidParameter {
                name: "max_voltage",
                value: self.max_voltage,
            });
        }
        if self.threshold_voltage >= self.min_voltage {
            return Err(PowerModelError::InvalidParameter {
                name: "threshold_voltage",
                value: self.threshold_voltage,
            });
        }
        Ok(())
    }

    /// Quantise a voltage up to the next supported supply step, clamped to
    /// the technology's `[min_voltage, max_voltage]` range.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::VoltageOutOfRange`] if the requested
    /// voltage exceeds the maximum even before quantisation.
    pub fn quantize_voltage(&self, voltage: f64) -> Result<f64, PowerModelError> {
        if voltage > self.max_voltage + 1e-9 {
            return Err(PowerModelError::VoltageOutOfRange {
                requested: voltage,
                min: self.min_voltage,
                max: self.max_voltage,
            });
        }
        let clamped = voltage.max(self.min_voltage);
        let steps = ((clamped - self.min_voltage) / self.voltage_step - 1e-9)
            .ceil()
            .max(0.0);
        let quantized = self.min_voltage + steps * self.voltage_step;
        Ok(quantized.min(self.max_voltage))
    }

    /// A builder-style override of the tile power parameter `U`, used by the
    /// Section 5.5 sensitivity analysis.
    #[must_use]
    pub fn with_tile_power(mut self, mw_per_mhz: f64) -> Self {
        self.tile_power_mw_per_mhz = mw_per_mhz;
        self
    }

    /// A builder-style override of the per-tile leakage current, used by the
    /// Figure 9/10 leakage sensitivity sweeps.
    #[must_use]
    pub fn with_leakage_ma_per_tile(mut self, ma: f64) -> Self {
        self.leakage_ma_per_tile = ma;
        self
    }

    /// A builder-style override of the bus width, used by the Figure 8 bus
    /// width exploration.
    #[must_use]
    pub fn with_bus_width(mut self, bits: u32) -> Self {
        self.bus_width_bits = bits;
        self.bus_splits = (bits / 32).max(1);
        self
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::isca2004()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca2004_matches_table1() {
        let t = Technology::isca2004();
        assert_eq!(t.feature_nm, 130.0);
        assert_eq!(t.min_voltage, 0.7);
        assert_eq!(t.max_voltage, 1.7);
        assert_eq!(t.threshold_voltage, 0.332);
        assert_eq!(t.tile_power_mw_per_mhz, 0.1);
        assert_eq!(t.tile_area_mm2, 1.82);
        assert_eq!(t.wire_cap_ff_per_mm, 387.0);
        assert_eq!(t.max_frequency_mhz, 600.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn default_is_isca2004() {
        assert_eq!(Technology::default(), Technology::isca2004());
    }

    #[test]
    fn validation_rejects_negative_tile_power() {
        let mut t = Technology::isca2004();
        t.tile_power_mw_per_mhz = -1.0;
        assert!(matches!(
            t.validate(),
            Err(PowerModelError::InvalidParameter {
                name: "tile_power_mw_per_mhz",
                ..
            })
        ));
    }

    #[test]
    fn validation_rejects_bus_lengths_that_are_not_finite_and_positive() {
        for name in ["column_bus_length_mm", "chip_bus_length_mm"] {
            for bad in [f64::NAN, f64::INFINITY, 0.0, -5.4] {
                let mut t = Technology::isca2004();
                if name == "column_bus_length_mm" {
                    t.column_bus_length_mm = bad;
                } else {
                    t.chip_bus_length_mm = bad;
                }
                match t.validate() {
                    Err(PowerModelError::InvalidParameter { name: n, value }) => {
                        assert_eq!((n, value.to_bits()), (name, bad.to_bits()));
                    }
                    other => panic!("{name} = {bad}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn validation_rejects_inverted_voltage_range() {
        let mut t = Technology::isca2004();
        t.max_voltage = 0.5;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_rejects_threshold_above_floor() {
        let mut t = Technology::isca2004();
        t.threshold_voltage = 0.9;
        assert!(t.validate().is_err());
    }

    #[test]
    fn quantize_rounds_up_to_steps() {
        let t = Technology::isca2004();
        assert!((t.quantize_voltage(0.71).unwrap() - 0.8).abs() < 1e-9);
        assert!((t.quantize_voltage(0.80).unwrap() - 0.8).abs() < 1e-9);
        assert!((t.quantize_voltage(1.21).unwrap() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn quantize_clamps_to_floor() {
        let t = Technology::isca2004();
        assert!((t.quantize_voltage(0.4).unwrap() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn quantize_rejects_over_max() {
        let t = Technology::isca2004();
        assert!(t.quantize_voltage(2.0).is_err());
    }

    #[test]
    fn builders_override_parameters() {
        let t = Technology::isca2004()
            .with_tile_power(0.2)
            .with_leakage_ma_per_tile(14.8)
            .with_bus_width(512);
        assert_eq!(t.tile_power_mw_per_mhz, 0.2);
        assert_eq!(t.leakage_ma_per_tile, 14.8);
        assert_eq!(t.bus_width_bits, 512);
        assert_eq!(t.bus_splits, 16);
    }
}
