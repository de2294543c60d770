//! The frequency ↔ supply-voltage relationship (Figure 5 of the paper).
//!
//! The paper SPICEs a 15- and a 20-FO4 critical path against the Berkeley
//! Predictive Technology Models for the 130 nm node and captures the
//! resulting curve as a look-up table used to pick a column's supply
//! voltage from its required operating frequency.
//!
//! We substitute two interchangeable models:
//!
//! * [`VfCurve`] — a monotone look-up table whose anchor points were
//!   calibrated so that `voltage_for_frequency` reproduces every published
//!   (frequency, voltage) operating point in Table 4 under the paper's
//!   0.1 V supply quantisation, and
//! * [`AlphaPowerLaw`] — the standard closed-form alpha-power-law delay
//!   model (`f ∝ (V − V_th)^α / V`) for analytical sweeps.

use crate::error::PowerModelError;
use crate::tech::Technology;

/// The critical-path length assumed for the pipeline, in fan-out-of-4
/// inverter delays.  The paper plots 15 and 20 FO4; the Synchroscalar tile
/// assumes the (pessimistic) 20 FO4 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CriticalPath {
    /// A 15-FO4 critical path (the faster curve in Figure 5).
    Fo4_15,
    /// A 20-FO4 critical path (the curve used for voltage assignment).
    Fo4_20,
}

impl CriticalPath {
    /// The frequency scale factor of this path relative to the 20-FO4
    /// reference: a 15-FO4 path is 20/15 ≈ 1.33× faster at equal voltage.
    pub fn speedup_vs_fo4_20(self) -> f64 {
        match self {
            CriticalPath::Fo4_15 => 20.0 / 15.0,
            CriticalPath::Fo4_20 => 1.0,
        }
    }
}

/// Anchor points (supply voltage in volts, maximum frequency in MHz) of the
/// 20-FO4 curve.  Calibrated against the published Table 4 operating
/// points.
const FO4_20_ANCHORS: &[(f64, f64)] = &[
    (0.60, 30.0),
    (0.65, 55.0),
    (0.70, 85.0),
    (0.80, 130.0),
    (0.90, 165.0),
    (1.00, 230.0),
    (1.10, 300.0),
    (1.20, 345.0),
    (1.30, 420.0),
    (1.40, 470.0),
    (1.50, 515.0),
    (1.60, 535.0),
    (1.70, 560.0),
    (1.80, 620.0),
    (1.90, 700.0),
    (2.00, 780.0),
    (2.10, 860.0),
];

/// Most rungs either voltage ladder of a [`VfCurve`] holds.  Enough for a
/// 1 mV step across a 4 V span; a finer walk stops here (see
/// [`VfCurve::voltage_for_frequency`]).
const MAX_RUNGS: usize = 4096;

/// Supply voltage at which the extrapolated walk stops climbing.
const EXTRAPOLATION_CEILING_V: f64 = 5.0;

/// One rung of the in-range ladder: the quantised supply (rounded to
/// 1 µV) answers every frequency up to `reach_mhz`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    /// `interpolate(v) + 1e-9`, the slack the lookup has always allowed.
    reach_mhz: f64,
    voltage: f64,
}

/// One rung of the extrapolated ladder, which climbs from the maximum
/// supply towards [`EXTRAPOLATION_CEILING_V`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExtrapolatedRung {
    /// `interpolate(v)`, with no slack.
    max_mhz: f64,
    /// `v < EXTRAPOLATION_CEILING_V`: the walk may climb past this rung.
    below_ceiling: bool,
    voltage: f64,
}

/// A monotone look-up table mapping supply voltage to the maximum operating
/// frequency of the column's critical path (and back).
///
/// The quantised supply ladder is walked once, when the curve is built,
/// so a frequency → voltage lookup is a short scan of precomputed rungs.
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    anchors: Vec<(f64, f64)>,
    min_voltage: f64,
    max_voltage: f64,
    voltage_step: f64,
    /// `interpolate(max_voltage)`: the fastest in-envelope frequency.
    max_frequency_mhz: f64,
    /// `min_voltage`, `+ step`, … while within `max_voltage + 1e-9`.
    ladder: Vec<Rung>,
    /// `max_voltage`, `+ step`, … up to the first rung at or above the
    /// extrapolation ceiling.
    extrapolated: Vec<ExtrapolatedRung>,
}

impl VfCurve {
    /// The 20-FO4 curve used for Synchroscalar voltage assignment, limited
    /// to the technology's supply range.
    pub fn fo4_20(tech: &Technology) -> Self {
        Self::with_critical_path(tech, CriticalPath::Fo4_20)
    }

    /// The 15-FO4 curve plotted alongside in Figure 5.
    pub fn fo4_15(tech: &Technology) -> Self {
        Self::with_critical_path(tech, CriticalPath::Fo4_15)
    }

    /// Build the curve for an arbitrary critical path.
    pub fn with_critical_path(tech: &Technology, path: CriticalPath) -> Self {
        let speedup = path.speedup_vs_fo4_20();
        let anchors = FO4_20_ANCHORS
            .iter()
            .map(|&(v, f)| (v, f * speedup))
            .collect();
        Self::build(anchors, tech)
    }

    /// Build a curve from explicit `(voltage, frequency)` anchor points.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::InvalidParameter`] if fewer than two
    /// anchors are given or the anchors are not strictly increasing in both
    /// coordinates.
    pub fn from_anchors(
        anchors: Vec<(f64, f64)>,
        tech: &Technology,
    ) -> Result<Self, PowerModelError> {
        if anchors.len() < 2 {
            return Err(PowerModelError::InvalidParameter {
                name: "anchors.len",
                value: anchors.len() as f64,
            });
        }
        for pair in anchors.windows(2) {
            if pair[1].0 <= pair[0].0 || pair[1].1 <= pair[0].1 {
                return Err(PowerModelError::InvalidParameter {
                    name: "anchors (must be strictly increasing)",
                    value: pair[1].0,
                });
            }
        }
        Ok(Self::build(anchors, tech))
    }

    /// Walk both quantised voltage ladders once.  Each walk performs the
    /// float operations of the step-by-step search it replaces, in the
    /// same order (`v += step` from the start voltage), so every lookup
    /// answers bit for bit as that search did.
    ///
    /// A walk ends early, after its current rung, when the next voltage
    /// does not exceed the current one (a zero, negative or NaN step, or a
    /// sum that no longer moves) or after [`MAX_RUNGS`] rungs.
    /// Construction therefore terminates for any [`Technology`].
    fn build(anchors: Vec<(f64, f64)>, tech: &Technology) -> Self {
        let mut curve = VfCurve {
            anchors,
            min_voltage: tech.min_voltage,
            max_voltage: tech.max_voltage,
            voltage_step: tech.voltage_step,
            max_frequency_mhz: 0.0,
            ladder: Vec::new(),
            extrapolated: Vec::new(),
        };
        curve.max_frequency_mhz = curve.interpolate(curve.max_voltage);
        let mut voltage = curve.min_voltage;
        loop {
            curve.ladder.push(Rung {
                reach_mhz: curve.interpolate(voltage) + 1e-9,
                voltage: round_to_microvolt(voltage),
            });
            let next = voltage + curve.voltage_step;
            let climbs = next > voltage;
            if next > curve.max_voltage + 1e-9 || !climbs || curve.ladder.len() == MAX_RUNGS {
                break;
            }
            voltage = next;
        }
        let mut voltage = curve.max_voltage;
        loop {
            let below_ceiling = voltage < EXTRAPOLATION_CEILING_V;
            curve.extrapolated.push(ExtrapolatedRung {
                max_mhz: curve.interpolate(voltage),
                below_ceiling,
                voltage: round_to_microvolt(voltage),
            });
            let next = voltage + curve.voltage_step;
            let climbs = next > voltage;
            if !below_ceiling || !climbs || curve.extrapolated.len() == MAX_RUNGS {
                break;
            }
            voltage = next;
        }
        curve
    }

    /// Maximum operating frequency (MHz) at the given supply voltage, by
    /// linear interpolation between anchors.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::VoltageOutOfRange`] if the voltage lies
    /// outside the technology's supported supply range or is NaN.
    pub fn max_frequency_at(&self, voltage: f64) -> Result<f64, PowerModelError> {
        if !(voltage >= self.min_voltage - 1e-9 && voltage <= self.max_voltage + 1e-9) {
            return Err(PowerModelError::VoltageOutOfRange {
                requested: voltage,
                min: self.min_voltage,
                max: self.max_voltage,
            });
        }
        Ok(self.interpolate(voltage))
    }

    /// Interpolate the curve at `voltage` without range-checking against the
    /// technology limits (used to plot the full Figure 5 sweep, which spans
    /// 0.62 V – 2.12 V).  A NaN voltage gives NaN.
    pub fn interpolate(&self, voltage: f64) -> f64 {
        let first = self.anchors[0];
        let last = *self.anchors.last().expect("curve has anchors");
        if voltage <= first.0 {
            return first.1 * (voltage / first.0).max(0.0);
        }
        if voltage >= last.0 {
            // Extrapolate with the final segment's slope.
            let prev = self.anchors[self.anchors.len() - 2];
            let slope = (last.1 - prev.1) / (last.0 - prev.0);
            return last.1 + slope * (voltage - last.0);
        }
        for pair in self.anchors.windows(2) {
            let (v0, f0) = pair[0];
            let (v1, f1) = pair[1];
            if voltage >= v0 && voltage <= v1 {
                let t = (voltage - v0) / (v1 - v0);
                return f0 + t * (f1 - f0);
            }
        }
        // Only a NaN voltage (or anchor) escapes every comparison above.
        f64::NAN
    }

    /// The minimum quantised supply voltage able to sustain `frequency_mhz`,
    /// respecting the 0.7 V voltage floor and the supply quantisation step.
    ///
    /// This is the operation the paper performs when assigning a column's
    /// supply from its computed frequency requirement (methodology step 8).
    /// The answer is the first rung of the ladder `min_voltage`,
    /// `min_voltage + step`, … whose interpolated frequency (plus 1e-9 MHz
    /// of slack) reaches `frequency_mhz`, rounded to 1 µV.  When no rung
    /// does, the answer is `max_voltage`, which sustains every frequency
    /// that passes the reachability check.  That is also the answer for a
    /// NaN frequency, for every frequency beyond the first rung when the
    /// step is zero, negative or NaN, and past the last rung of a ladder
    /// cut at its 4,096-rung bound (a step finer than about 1 mV).
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::FrequencyUnreachable`] if the frequency
    /// exceeds what the maximum supply voltage can sustain.
    pub fn voltage_for_frequency(&self, frequency_mhz: f64) -> Result<f64, PowerModelError> {
        if frequency_mhz > self.max_frequency_mhz {
            return Err(PowerModelError::FrequencyUnreachable {
                requested_mhz: frequency_mhz,
                max_mhz: self.max_frequency_mhz,
            });
        }
        // A linear scan, not a binary search: interpolation is monotone
        // only up to rounding at the anchor joins, and the answer must be
        // the *first* rung that reaches the frequency.
        Ok(self
            .ladder
            .iter()
            .find(|rung| rung.reach_mhz >= frequency_mhz)
            .map_or(self.max_voltage, |rung| rung.voltage))
    }

    /// Like [`VfCurve::voltage_for_frequency`] but allowed to extrapolate
    /// beyond the technology's maximum supply when the frequency is
    /// unreachable.  The parallelisation sweeps (Figure 7) evaluate
    /// under-provisioned mappings whose required frequency exceeds the
    /// supply envelope; the paper plots their (large) power rather than
    /// dropping the point, so we extrapolate the voltage and flag it via
    /// the boolean in the return value (`true` = within the envelope).
    ///
    /// An unreachable frequency gets the first rung of `max_voltage`,
    /// `max_voltage + step`, … that sustains it or reaches 5 V, rounded
    /// to 1 µV.  A ladder cut short (a zero, negative or NaN step, or the
    /// 4,096-rung bound) answers with its last rung.
    pub fn voltage_for_frequency_extrapolated(&self, frequency_mhz: f64) -> (f64, bool) {
        match self.voltage_for_frequency(frequency_mhz) {
            Ok(v) => (v, true),
            Err(_) => {
                let stop = self
                    .extrapolated
                    .iter()
                    .find(|rung| !(rung.max_mhz < frequency_mhz && rung.below_ceiling))
                    .or(self.extrapolated.last())
                    .expect("the extrapolated ladder has a rung");
                (stop.voltage, false)
            }
        }
    }

    /// Sample the curve at evenly spaced voltages, producing the series
    /// plotted in Figure 5.
    pub fn sweep(&self, from_v: f64, to_v: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a sweep needs at least two points");
        (0..points)
            .map(|i| {
                let v = from_v + (to_v - from_v) * i as f64 / (points - 1) as f64;
                (v, self.interpolate(v))
            })
            .collect()
    }

    /// The curve's anchor points.
    pub fn anchors(&self) -> &[(f64, f64)] {
        &self.anchors
    }
}

/// Round a supply voltage to 1 µV, as every ladder rung is reported.
fn round_to_microvolt(voltage: f64) -> f64 {
    (voltage * 1e6).round() / 1e6
}

/// The alpha-power-law MOSFET delay model: `f(V) = k · (V − V_th)^α / V`.
///
/// This is the textbook closed-form stand-in for the SPICE characterisation
/// the paper performed; we expose it for analytical sweeps and to sanity
/// check the calibrated [`VfCurve`] shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaPowerLaw {
    /// Velocity-saturation exponent α (≈1.3–2.0 for 130 nm).
    pub alpha: f64,
    /// Threshold voltage in volts.
    pub threshold_voltage: f64,
    /// Scale constant `k` in MHz chosen at calibration.
    pub scale_mhz: f64,
}

impl AlphaPowerLaw {
    /// Calibrate the law so it predicts `anchor_frequency_mhz` at
    /// `anchor_voltage`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerModelError::InvalidParameter`] if the anchor voltage
    /// does not exceed the threshold voltage.
    pub fn calibrated(
        tech: &Technology,
        alpha: f64,
        anchor_voltage: f64,
        anchor_frequency_mhz: f64,
    ) -> Result<Self, PowerModelError> {
        if anchor_voltage <= tech.threshold_voltage {
            return Err(PowerModelError::InvalidParameter {
                name: "anchor_voltage",
                value: anchor_voltage,
            });
        }
        let unscaled = (anchor_voltage - tech.threshold_voltage).powf(alpha) / anchor_voltage;
        Ok(AlphaPowerLaw {
            alpha,
            threshold_voltage: tech.threshold_voltage,
            scale_mhz: anchor_frequency_mhz / unscaled,
        })
    }

    /// Maximum frequency (MHz) the law predicts at `voltage`; zero at or
    /// below the threshold voltage.
    pub fn frequency_at(&self, voltage: f64) -> f64 {
        if voltage <= self.threshold_voltage {
            return 0.0;
        }
        self.scale_mhz * (voltage - self.threshold_voltage).powf(self.alpha) / voltage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> VfCurve {
        VfCurve::fo4_20(&Technology::isca2004())
    }

    /// Every (frequency, voltage) operating point published in Table 4 must
    /// be reproduced by the calibrated curve under 0.1 V quantisation.
    #[test]
    fn voltage_assignment_matches_table4() {
        let c = curve();
        let published = [
            (120.0, 0.8),
            (200.0, 1.0),
            (40.0, 0.7),
            (380.0, 1.3),
            (370.0, 1.3),
            (500.0, 1.5),
            (310.0, 1.2),
            (90.0, 0.8),
            (60.0, 0.7),
            (540.0, 1.7),
            (330.0, 1.2),
            (110.0, 0.8),
            (70.0, 0.7),
            (280.0, 1.1),
        ];
        for (f, v) in published {
            let got = c.voltage_for_frequency(f).unwrap();
            assert!(
                (got - v).abs() < 1e-6,
                "frequency {f} MHz: expected {v} V, got {got} V"
            );
        }
    }

    #[test]
    fn curve_is_monotone() {
        let c = curve();
        let sweep = c.sweep(0.62, 2.12, 151);
        for pair in sweep.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "curve must be non-decreasing");
        }
    }

    #[test]
    fn fo4_15_is_faster_than_fo4_20() {
        let tech = Technology::isca2004();
        let c20 = VfCurve::fo4_20(&tech);
        let c15 = VfCurve::fo4_15(&tech);
        for v in [0.7, 1.0, 1.3, 1.7] {
            assert!(c15.interpolate(v) > c20.interpolate(v));
        }
    }

    #[test]
    fn unreachable_frequency_is_an_error() {
        let c = curve();
        assert!(matches!(
            c.voltage_for_frequency(5000.0),
            Err(PowerModelError::FrequencyUnreachable { .. })
        ));
    }

    #[test]
    fn out_of_range_voltage_is_an_error() {
        let c = curve();
        assert!(c.max_frequency_at(2.5).is_err());
        assert!(c.max_frequency_at(0.3).is_err());
        assert!(c.max_frequency_at(f64::NAN).is_err());
        assert!(c.max_frequency_at(1.0).is_ok());
    }

    #[test]
    fn from_anchors_rejects_non_monotone() {
        let tech = Technology::isca2004();
        let bad = vec![(0.7, 100.0), (0.8, 90.0)];
        assert!(VfCurve::from_anchors(bad, &tech).is_err());
        let short = vec![(0.7, 100.0)];
        assert!(VfCurve::from_anchors(short, &tech).is_err());
        let good = vec![(0.7, 100.0), (1.0, 300.0)];
        assert!(VfCurve::from_anchors(good, &tech).is_ok());
    }

    #[test]
    fn alpha_power_law_calibration_hits_anchor() {
        let tech = Technology::isca2004();
        let law = AlphaPowerLaw::calibrated(&tech, 1.6, 1.65, 600.0).unwrap();
        assert!((law.frequency_at(1.65) - 600.0).abs() < 1e-6);
        assert_eq!(law.frequency_at(0.3), 0.0);
        assert!(law.frequency_at(1.0) < law.frequency_at(1.2));
    }

    #[test]
    fn alpha_power_law_rejects_subthreshold_anchor() {
        let tech = Technology::isca2004();
        assert!(AlphaPowerLaw::calibrated(&tech, 1.6, 0.2, 100.0).is_err());
    }

    #[test]
    fn voltage_floor_applies_to_slow_kernels() {
        // MPEG-4 motion estimation at 70 MHz still gets the 0.7 V floor.
        let c = curve();
        assert!((c.voltage_for_frequency(10.0).unwrap() - 0.7).abs() < 1e-9);
    }

    /// The step-by-step search the ladders replace, kept as the oracle:
    /// walk `min_voltage`, `+ step`, … and stop at the first voltage that
    /// sustains the frequency.
    fn step_walk(curve: &VfCurve, frequency_mhz: f64) -> Result<f64, PowerModelError> {
        let max_f = curve.interpolate(curve.max_voltage);
        if frequency_mhz > max_f {
            return Err(PowerModelError::FrequencyUnreachable {
                requested_mhz: frequency_mhz,
                max_mhz: max_f,
            });
        }
        let mut voltage = curve.min_voltage;
        loop {
            if curve.interpolate(voltage) + 1e-9 >= frequency_mhz {
                return Ok((voltage * 1e6).round() / 1e6);
            }
            voltage += curve.voltage_step;
            if voltage > curve.max_voltage + 1e-9 {
                return Ok(curve.max_voltage);
            }
        }
    }

    /// The extrapolating step walk: past the envelope, climb from
    /// `max_voltage` until the frequency is sustained or 5 V is reached.
    fn step_walk_extrapolated(curve: &VfCurve, frequency_mhz: f64) -> (f64, bool) {
        match step_walk(curve, frequency_mhz) {
            Ok(v) => (v, true),
            Err(_) => {
                let mut voltage = curve.max_voltage;
                while curve.interpolate(voltage) < frequency_mhz && voltage < 5.0 {
                    voltage += curve.voltage_step;
                }
                ((voltage * 1e6).round() / 1e6, false)
            }
        }
    }

    /// `Ok` voltage bits, or the bits of an unreachable error's fields.
    fn lookup_bits(result: Result<f64, PowerModelError>) -> Result<u64, (u64, u64)> {
        match result {
            Ok(v) => Ok(v.to_bits()),
            Err(PowerModelError::FrequencyUnreachable {
                requested_mhz,
                max_mhz,
            }) => Err((requested_mhz.to_bits(), max_mhz.to_bits())),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    fn tech_with(min_voltage: f64, max_voltage: f64, voltage_step: f64) -> Technology {
        Technology {
            min_voltage,
            max_voltage,
            voltage_step,
            ..Technology::isca2004()
        }
    }

    /// The ladders answer exactly as the step walk on every probe: a dense
    /// sweep up to past the 5 V extrapolation ceiling, every anchor and
    /// rung frequency nudged by 1e-9, 1e-12 and one ulp, and the special
    /// values.  Four supply ranges and steps, each on the 20-FO4, 15-FO4
    /// and a custom anchor set.
    #[test]
    fn ladders_match_the_step_walk_bit_for_bit() {
        let techs = [
            Technology::isca2004(),
            tech_with(0.6, 2.1, 0.05),
            tech_with(0.65, 1.65, 0.025),
            tech_with(0.5, 2.4, 0.3),
        ];
        for tech in &techs {
            let custom = vec![(0.55, 20.0), (0.9, 150.0), (1.3, 400.0), (1.9, 610.0)];
            let curves = [
                VfCurve::fo4_20(tech),
                VfCurve::fo4_15(tech),
                VfCurve::from_anchors(custom, tech).unwrap(),
            ];
            for curve in &curves {
                let top = curve.interpolate(5.5);
                let mut probes: Vec<f64> =
                    (0..=100_000).map(|i| top * i as f64 / 100_000.0).collect();
                probes.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, -1.0]);
                let rung_frequencies = curve
                    .ladder
                    .iter()
                    .map(|r| r.reach_mhz)
                    .chain(curve.extrapolated.iter().map(|r| r.max_mhz));
                for f in curve.anchors.iter().map(|a| a.1).chain(rung_frequencies) {
                    for delta in [0.0, 1e-9, -1e-9, 1e-12, -1e-12] {
                        probes.push(f + delta);
                    }
                    probes.push(f.next_up());
                    probes.push(f.next_down());
                }
                for &f in &probes {
                    assert_eq!(
                        lookup_bits(curve.voltage_for_frequency(f)),
                        lookup_bits(step_walk(curve, f)),
                        "voltage_for_frequency({f}) on {tech:?}"
                    );
                    let (v, within) = curve.voltage_for_frequency_extrapolated(f);
                    let (want, want_within) = step_walk_extrapolated(curve, f);
                    assert_eq!(
                        (v.to_bits(), within),
                        (want.to_bits(), want_within),
                        "voltage_for_frequency_extrapolated({f}) on {tech:?}"
                    );
                }
            }
        }
    }

    /// A zero, negative or NaN step used to make the walk loop forever.
    /// Such a curve builds, holds one rung per ladder, and answers: the minimum supply for what it sustains, the maximum
    /// supply for any other reachable frequency, and the maximum supply
    /// (flagged outside the envelope) for an unreachable one.  A NaN
    /// supply bound builds too.
    #[test]
    fn degenerate_steps_build_bounded_ladders() {
        for step in [0.0, -0.1, f64::NAN, f64::NEG_INFINITY] {
            let c = VfCurve::fo4_20(&tech_with(0.7, 1.7, step));
            assert_eq!(c.ladder.len(), 1, "step {step}");
            assert_eq!(c.extrapolated.len(), 1, "step {step}");
            assert_eq!(c.voltage_for_frequency(30.0), Ok(0.7), "step {step}");
            assert_eq!(c.voltage_for_frequency(300.0), Ok(1.7), "step {step}");
            assert_eq!(
                c.voltage_for_frequency_extrapolated(5_000.0),
                (1.7, false),
                "step {step}"
            );
        }
        // An infinite step leaves the envelope in one rung, as the step
        // walk does, and extrapolates to +inf.
        let leap = VfCurve::fo4_20(&tech_with(0.7, 1.7, f64::INFINITY));
        assert_eq!(leap.ladder.len(), 1);
        assert_eq!(leap.voltage_for_frequency(300.0), Ok(1.7));
        assert_eq!(
            leap.voltage_for_frequency_extrapolated(5_000.0),
            (f64::INFINITY, false)
        );
        assert_eq!(
            leap.voltage_for_frequency_extrapolated(5_000.0),
            step_walk_extrapolated(&leap, 5_000.0)
        );
        let nan_floor = VfCurve::fo4_20(&tech_with(f64::NAN, 1.7, 0.1));
        assert_eq!(nan_floor.voltage_for_frequency(100.0), Ok(1.7));
        assert!(VfCurve::fo4_20(&tech_with(0.7, f64::NAN, 0.1)).ladder.len() <= MAX_RUNGS);
        // A 1 nV step stops after MAX_RUNGS rungs; below them the answer
        // is still the step walk's.
        let fine = VfCurve::fo4_20(&tech_with(0.7, 1.7, 1e-9));
        assert_eq!(fine.ladder.len(), MAX_RUNGS);
        assert_eq!(fine.extrapolated.len(), MAX_RUNGS);
        let reach = fine.ladder[MAX_RUNGS / 2].reach_mhz;
        assert_eq!(
            lookup_bits(fine.voltage_for_frequency(reach)),
            lookup_bits(step_walk(&fine, reach))
        );
        assert_eq!(fine.voltage_for_frequency(300.0), Ok(1.7));
    }

    #[test]
    fn interpolating_nan_returns_nan() {
        assert!(curve().interpolate(f64::NAN).is_nan());
    }

    #[test]
    fn sweep_produces_requested_points() {
        let c = curve();
        let s = c.sweep(0.7, 1.7, 11);
        assert_eq!(s.len(), 11);
        assert!((s[0].0 - 0.7).abs() < 1e-9);
        assert!((s[10].0 - 1.7).abs() < 1e-9);
    }
}
