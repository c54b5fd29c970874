//! Component-cell characterization — the CellRater substitute.
//!
//! The paper generates timing data for the restricted component library "by
//! characterizing these cells using a commercial tool called CellRater from
//! Silicon Metrics" (§3.1). We cannot run CellRater, so this module *is* the
//! characterization: a fixed table of per-cell area, input capacitance and
//! linear delay parameters in a 0.18 µm-class unit system, plus wire RC
//! constants for post-layout Elmore delays.
//!
//! # Calibration
//!
//! Absolute numbers are representative, not measured; what the experiments
//! consume are the *ratios* the paper states, which hold exactly:
//!
//! * granular PLB total area = **1.20×** LUT-based PLB total area ("the area
//!   of the proposed granular PLB being 20% larger", §3.2),
//! * granular PLB combinational area = **1.266×** the LUT-based PLB's
//!   ("26.6% more combinational logic area", §3.2),
//! * a 3-LUT configured as a simple logic function is substantially slower
//!   than the equivalent gate (≈3× a ND3WI), per the DAC 2003 companion
//!   paper's observation that the VPGA LUT "is substantially inferior to an
//!   equivalent standard cell in terms of delay, power and area" (§2).
//!
//! Unit system: area µm², capacitance fF, delay ps, resistance ps/fF.

/// Clock period of every experiment: "the cycle time for all the designs is
/// .5 ns" (§3.2).
pub const CLOCK_PERIOD_PS: f64 = 500.0;

/// Flip-flop setup time folded into register-bound timing checks.
pub const DFF_SETUP_PS: f64 = 55.0;

/// Wire capacitance per µm of routed length.
pub const WIRE_CAP_PER_UM: f64 = 0.2;

/// Wire resistance per µm, expressed as ps of delay per fF of downstream
/// capacitance.
pub const WIRE_RES_PER_UM: f64 = 0.002;

/// Electrical and physical parameters of one component cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellParams {
    /// Layout area, µm².
    pub area: f64,
    /// Input pin capacitance, fF.
    pub input_cap: f64,
    /// Intrinsic (unloaded) delay, ps.
    pub intrinsic_delay: f64,
    /// Output drive resistance, ps/fF.
    pub drive_resistance: f64,
}

/// ND3WI gate (also hosts 2-input gates by pin strapping).
pub const ND3: CellParams = CellParams {
    area: 95.0,
    input_cap: 1.8,
    intrinsic_delay: 45.0,
    drive_resistance: 6.0,
};

/// ND3WI slot used as a 2-input gate (ND2WI view): same layout, one pin
/// strapped, marginally faster.
pub const ND2: CellParams = CellParams {
    area: 95.0,
    input_cap: 1.8,
    intrinsic_delay: 40.0,
    drive_resistance: 6.0,
};

/// Plain 2:1 MUX component of the granular PLB.
pub const MUX: CellParams = CellParams {
    area: 150.0,
    input_cap: 2.0,
    intrinsic_delay: 60.0,
    drive_resistance: 7.0,
};

/// The XOA element: a 2:1 MUX "sized differently from the other two MUXes to
/// minimize logic delay" (§2.2), with a programmable output inverter.
pub const XOA: CellParams = CellParams {
    area: 180.0,
    input_cap: 2.2,
    intrinsic_delay: 50.0,
    drive_resistance: 6.0,
};

/// 3-input LUT of the LUT-based PLB. Deliberately slow when used as a simple
/// function — the inefficiency the granular PLB removes.
pub const LUT3: CellParams = CellParams {
    area: 330.0,
    input_cap: 2.6,
    intrinsic_delay: 150.0,
    drive_resistance: 9.0,
};

/// Programmable buffer / inserted repeater.
pub const BUF: CellParams = CellParams {
    area: 25.0,
    input_cap: 1.4,
    intrinsic_delay: 35.0,
    drive_resistance: 3.5,
};

/// Inverter.
pub const INV: CellParams = CellParams {
    area: 18.0,
    input_cap: 1.1,
    intrinsic_delay: 22.0,
    drive_resistance: 3.0,
};

/// D flip-flop (delay parameters describe the clk→Q arc).
pub const DFF: CellParams = CellParams {
    area: 190.0,
    input_cap: 1.6,
    intrinsic_delay: 110.0,
    drive_resistance: 6.0,
};

/// Local-interconnect and configuration-via overhead folded into the
/// LUT-based PLB's combinational area, µm².
pub const LUT_PLB_OVERHEAD: f64 = 12.7;

/// Local-interconnect and configuration-via overhead of the granular PLB —
/// larger because "greater configurability only results in an increase in
/// potential via sites" (§1), µm².
pub const GRANULAR_PLB_OVERHEAD: f64 = 67.84;

/// Potential configuration-via sites per slot class, used by the via-cost
/// reporting (granularity raises this count; that is the trade the paper
/// argues is cheap for via-patterned fabrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViaSites {
    /// Sites in a MUX slot.
    pub mux: u32,
    /// Sites in an XOA slot.
    pub xoa: u32,
    /// Sites in a ND3WI slot.
    pub nd3: u32,
    /// Sites in a 3-LUT slot.
    pub lut3: u32,
    /// Sites per buffer/inverter slot.
    pub buf: u32,
    /// Sites in the DFF slot.
    pub dff: u32,
}

/// The via-site census used by both architectures.
pub const VIA_SITES: ViaSites = ViaSites {
    mux: 22,
    xoa: 26,
    nd3: 18,
    lut3: 38,
    buf: 4,
    dff: 6,
};

#[cfg(test)]
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn lut_is_substantially_slower_than_gates() {
        assert!(LUT3.intrinsic_delay >= 3.0 * ND3.intrinsic_delay);
        assert!(LUT3.intrinsic_delay > MUX.intrinsic_delay + ND2.intrinsic_delay);
    }

    #[test]
    fn xoa_is_faster_than_plain_mux() {
        // "sized differently ... to minimize logic delay" (§2.2).
        assert!(XOA.intrinsic_delay < MUX.intrinsic_delay);
        assert!(XOA.area > MUX.area);
    }

    #[test]
    fn two_level_mux_configs_beat_the_lut() {
        // NDMX and XOAMX must be faster than LUT3 for the paper's timing
        // story to hold.
        let ndmx = ND2.intrinsic_delay + ND2.drive_resistance * MUX.input_cap + MUX.intrinsic_delay;
        let xoamx =
            XOA.intrinsic_delay + XOA.drive_resistance * MUX.input_cap + MUX.intrinsic_delay;
        assert!(ndmx < LUT3.intrinsic_delay + 10.0, "NDMX {ndmx} ps");
        assert!(xoamx < LUT3.intrinsic_delay + 10.0, "XOAMX {xoamx} ps");
    }

    #[test]
    fn all_params_positive() {
        #[allow(clippy::assertions_on_constants)]
        for p in [ND3, ND2, MUX, XOA, LUT3, BUF, INV, DFF] {
            assert!(p.area > 0.0);
            assert!(p.input_cap > 0.0);
            assert!(p.intrinsic_delay > 0.0);
            assert!(p.drive_resistance > 0.0);
        }
        let clock = CLOCK_PERIOD_PS;
        assert!((clock - 500.0).abs() < f64::EPSILON);
    }
}
