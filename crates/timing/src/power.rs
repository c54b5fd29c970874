//! Dynamic-power estimation.
//!
//! The paper's inefficiency argument against the LUT is three-axis: "the
//! VPGA LUT is substantially inferior to an equivalent standard cell in
//! terms of delay, power and area" (§2). This module supplies the power
//! axis: probabilistic switching-activity propagation (signal probabilities
//! through the instance functions, transition densities through Boolean
//! differences) and the standard dynamic-power sum
//! `P = ½ · Σ_net α · C_net · V² · f` at [`VDD`] and [`CLOCK_HZ`]. Primary
//! inputs start at [`INPUT_PROBABILITY`] and [`INPUT_ACTIVITY`].
//!
//! Sequential feedback is handled by [`FEEDBACK_ITERATIONS`] rounds of
//! fixed-point iteration on the flip-flop output probabilities.

use vpga_core::params;
use vpga_netlist::{CellKind, Library, NetId, Netlist};
use vpga_place::Placement;
use vpga_route::RoutingResult;

/// Supply voltage, volts.
pub const VDD: f64 = 1.8;

/// Clock frequency, Hz: the [`params::CLOCK_PERIOD_PS`] cycle.
pub const CLOCK_HZ: f64 = 1.0 / (params::CLOCK_PERIOD_PS * 1e-12);

/// Signal probability assumed at every primary input.
pub const INPUT_PROBABILITY: f64 = 0.5;

/// Transition density assumed at every primary input (fraction of cycles
/// with a toggle).
pub const INPUT_ACTIVITY: f64 = 0.5;

/// Fixed-point iterations for sequential feedback.
pub const FEEDBACK_ITERATIONS: usize = 12;

/// Estimated switching activity and dynamic power.
#[derive(Clone, Debug)]
pub struct PowerReport {
    probability: Vec<f64>,
    activity: Vec<f64>,
    net_power: Vec<f64>,
    total_w: f64,
}

impl PowerReport {
    /// Signal probability of a net (fraction of time at logic 1).
    pub fn net_probability(&self, net: NetId) -> f64 {
        self.probability.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Transition density of a net (toggles per cycle).
    pub fn net_activity(&self, net: NetId) -> f64 {
        self.activity.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Dynamic power dissipated charging/discharging a net, watts.
    pub fn net_power(&self, net: NetId) -> f64 {
        self.net_power.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Total dynamic power, watts.
    pub fn total(&self) -> f64 {
        self.total_w
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dynamic power: {:.3} mW", self.total_w * 1e3)
    }
}

/// Estimates switching activity and dynamic power for a placed (and
/// optionally routed) netlist.
///
/// # Panics
///
/// Panics if the netlist has combinational cycles.
pub fn estimate(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
) -> PowerReport {
    let order =
        vpga_netlist::graph::combinational_topo_order(netlist, lib).expect("netlist is acyclic");
    let cap = netlist.net_capacity();
    let mut probability = vec![0.0f64; cap];
    let mut activity = vec![0.0f64; cap];
    // Launch points.
    let mut dffs = Vec::new();
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            CellKind::Input => {
                let net = cell.output().expect("PI net");
                probability[net.index()] = INPUT_PROBABILITY;
                activity[net.index()] = INPUT_ACTIVITY;
            }
            CellKind::Constant(v) => {
                let net = cell.output().expect("tie net");
                probability[net.index()] = f64::from(u8::from(v));
                activity[net.index()] = 0.0;
            }
            CellKind::Lib(lib_id) if lib.cell(lib_id).is_some_and(|c| c.is_sequential()) => {
                let q = cell.output().expect("Q net");
                probability[q.index()] = 0.5;
                activity[q.index()] = 0.5;
                dffs.push(id);
            }
            _ => {}
        }
    }
    // Fixed-point over the sequential feedback.
    for _ in 0..FEEDBACK_ITERATIONS {
        for &id in &order {
            let cell = netlist.cell(id).expect("live cell");
            let f = netlist
                .instance_function(id, lib)
                .expect("combinational cell");
            let pins = cell.inputs();
            let p_in: Vec<f64> = pins.iter().map(|n| probability[n.index()]).collect();
            let a_in: Vec<f64> = pins.iter().map(|n| activity[n.index()]).collect();
            // Signal probability: sum over true minterms of the product of
            // per-pin probabilities (independence assumption).
            let mut p_out = 0.0;
            for m in 0..8u8 {
                if (f.bits() >> m) & 1 == 0 {
                    continue;
                }
                let mut pm = 1.0;
                for (i, &pp) in p_in.iter().enumerate() {
                    pm *= if (m >> i) & 1 == 1 { pp } else { 1.0 - pp };
                }
                // Pins beyond the arity have probability weights of 1/0
                // handled by the loop bound below.
                for i in p_in.len()..3 {
                    if (m >> i) & 1 == 1 {
                        pm = 0.0;
                    }
                }
                p_out += pm;
            }
            // Transition density via Boolean differences:
            // α_out ≈ Σ_i α_i · P(f|x_i=1 ≠ f|x_i=0).
            let mut a_out = 0.0;
            for (i, &ai) in a_in.iter().enumerate() {
                let v = vpga_logic::Var::from_index(i).expect("pin < 3");
                let (g, h) = f.cofactors(v);
                let diff = g ^ h; // 2-var function over the other pins
                                  // Probability that the Boolean difference is 1.
                let mut others: Vec<f64> = Vec::with_capacity(2);
                for (j, &pp) in p_in.iter().enumerate() {
                    if j != i {
                        others.push(pp);
                    }
                }
                while others.len() < 2 {
                    others.push(0.0);
                }
                let mut p_diff = 0.0;
                for m in 0..4u8 {
                    if (diff.bits() >> m) & 1 == 0 {
                        continue;
                    }
                    let b0 = if m & 1 == 1 {
                        others[0]
                    } else {
                        1.0 - others[0]
                    };
                    let b1 = if m >> 1 & 1 == 1 {
                        others[1]
                    } else {
                        1.0 - others[1]
                    };
                    p_diff += b0 * b1;
                }
                a_out += ai * p_diff;
            }
            let out = cell.output().expect("comb output");
            probability[out.index()] = p_out.clamp(0.0, 1.0);
            activity[out.index()] = a_out.clamp(0.0, 2.0);
        }
        // Update flip-flop outputs from their D inputs (registered: at most
        // one toggle per cycle, bounded by 2·p·(1−p)).
        for &ff in &dffs {
            let cell = netlist.cell(ff).expect("live dff");
            let d = cell.inputs()[0];
            let q = cell.output().expect("Q net");
            let p = probability[d.index()].clamp(0.0, 1.0);
            probability[q.index()] = p;
            activity[q.index()] = (2.0 * p * (1.0 - p)).min(1.0);
        }
    }
    // Net capacitances (the driver loads STA sees) and power.
    let nets = crate::net_parasitics(netlist, lib, placement, routing);
    let mut net_power = vec![0.0f64; cap];
    let mut total = 0.0;
    for net in netlist.nets() {
        let c_total = nets[net.index()].load * 1e-15; // fF → F
        let p = 0.5 * activity[net.index()] * c_total * VDD * VDD * CLOCK_HZ;
        net_power[net.index()] = p;
        total += p;
    }
    PowerReport {
        probability,
        activity,
        net_power,
        total_w: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_core::PlbArchitecture;
    use vpga_place::PlaceConfig;

    #[test]
    fn probabilities_follow_gate_semantics() {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let mut n = Netlist::new("p");
        let a = n.add_input("a");
        let b = n.add_input("b");
        // AND of two independent 0.5 inputs → probability 0.25.
        let g = n.add_lib_cell("g", &lib, "ND2", &[a, b]).unwrap();
        let cell = n.cell_by_name("g").unwrap();
        n.set_config(
            cell,
            &lib,
            Some(
                vpga_logic::Tt3::var(vpga_logic::Var::A) & vpga_logic::Tt3::var(vpga_logic::Var::B),
            ),
        )
        .unwrap();
        n.add_output("y", g);
        let (p, _) = vpga_place::place(&n, &lib, &PlaceConfig::default()).unwrap();
        let report = estimate(&n, &lib, &p, None);
        assert!((report.net_probability(g) - 0.25).abs() < 1e-9);
        // XOR Boolean difference is 1 everywhere: activity = a_a + a_b.
    }

    #[test]
    fn constants_never_switch() {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let one = n.constant(true);
        let g = n.add_lib_cell("g", &lib, "ND2", &[a, one]).unwrap();
        n.add_output("y", g);
        let (p, _) = vpga_place::place(&n, &lib, &PlaceConfig::default()).unwrap();
        let report = estimate(&n, &lib, &p, None);
        assert_eq!(report.net_activity(one), 0.0);
        assert!(report.total() > 0.0);
    }

    #[test]
    fn lut_implementation_burns_more_power_than_gate() {
        // The same NAND3 function as a LUT3 vs a ND3: the LUT's larger
        // input capacitance costs power — the paper's §2 power claim.
        let run = |arch: &PlbArchitecture, cell: &str| -> f64 {
            let lib = arch.library().clone();
            let mut n = Netlist::new("w");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let g = n.add_lib_cell("g", &lib, cell, &[a, b, c]).unwrap();
            let id = n.cell_by_name("g").unwrap();
            n.set_config(id, &lib, Some(vpga_logic::Tt3::NAND3))
                .unwrap();
            n.add_output("y", g);
            let (p, _) = vpga_place::place(&n, &lib, &PlaceConfig::default()).unwrap();
            estimate(&n, &lib, &p, None).total()
        };
        let lut = run(&PlbArchitecture::lut_based(), "LUT3");
        let gate = run(&PlbArchitecture::granular(), "ND3");
        assert!(lut > gate, "LUT {lut} W vs gate {gate} W");
    }

    #[test]
    fn sequential_feedback_converges() {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let mut n = Netlist::new("t");
        let seed = n.add_input("seed");
        let q = n.add_lib_cell("ff", &lib, "DFF", &[seed]).unwrap();
        let inv = n.add_lib_cell("inv", &lib, "INV", &[q]).unwrap();
        let ff = n.cell_by_name("ff").unwrap();
        n.connect_pin(ff, 0, inv).unwrap();
        n.add_output("q", q);
        let (p, _) = vpga_place::place(&n, &lib, &PlaceConfig::default()).unwrap();
        let report = estimate(&n, &lib, &p, None);
        // A toggle flop: probability 0.5 is the fixed point.
        assert!((report.net_probability(q) - 0.5).abs() < 0.05);
        assert!(report.net_activity(q) > 0.2);
    }
}
