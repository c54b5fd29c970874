//! Two-valued netlist simulation.
//!
//! The simulator exists to *prove flow correctness*: technology mapping and
//! logic compaction must preserve design function, and the test suites of
//! `vpga-synth` and `vpga-compact` check that by co-simulating the before and
//! after netlists on random stimulus.

use vpga_logic::Tt3;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph;
use crate::ids::CellId;
use crate::library::Library;
use crate::netlist::Netlist;

/// A cycle-based two-valued simulator over a netlist.
///
/// # Example
///
/// ```
/// use vpga_netlist::{Netlist, sim::Simulator};
/// use vpga_netlist::library::generic;
///
/// let lib = generic::library();
/// let mut n = Netlist::new("xor");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let x = n.add_lib_cell("x", &lib, "XOR2", &[a, b])?;
/// n.add_output("y", x);
/// let mut sim = Simulator::new(&n, &lib)?;
/// assert_eq!(sim.step(&[true, false]), vec![true]);
/// assert_eq!(sim.step(&[true, true]), vec![false]);
/// # Ok::<(), vpga_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    lib: &'a Library,
    order: Vec<CellId>,
    dffs: Vec<CellId>,
    values: Vec<bool>,
    state: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator; all flip-flops start at 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic is cyclic.
    pub fn new(netlist: &'a Netlist, lib: &'a Library) -> Result<Simulator<'a>, NetlistError> {
        let order = graph::combinational_topo_order(netlist, lib)?;
        let dffs: Vec<CellId> = netlist
            .cells()
            .filter(|(_, c)| {
                matches!(c.kind(), CellKind::Lib(id)
                    if lib.cell(id).is_some_and(|l| l.is_sequential()))
            })
            .map(|(id, _)| id)
            .collect();
        let state = vec![false; dffs.len()];
        Ok(Simulator {
            netlist,
            lib,
            order,
            dffs,
            values: vec![false; netlist.net_capacity()],
            state,
        })
    }

    /// Number of flip-flops in the design.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Forces the flip-flop state vector (in DFF discovery order).
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.num_dffs()`.
    pub fn set_state(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.dffs.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Evaluates the combinational logic for the given primary-input vector
    /// (in [`Netlist::inputs`] order) without advancing flip-flop state;
    /// returns the primary-output values (in [`Netlist::outputs`] order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn eval(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.propagate(inputs);
        self.read_outputs()
    }

    /// Evaluates the cycle *and* advances flip-flop state (the D values
    /// captured become the next-state Q values). Returns primary outputs as
    /// sampled before the clock edge.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.propagate(inputs);
        let outputs = self.read_outputs();
        let next: Vec<bool> = self
            .dffs
            .iter()
            .map(|&ff| {
                let d = self.netlist.cell(ff).expect("live dff").inputs()[0];
                self.values[d.index()]
            })
            .collect();
        self.state.copy_from_slice(&next);
        outputs
    }

    fn propagate(&mut self, inputs: &[bool]) {
        let pis = self.netlist.inputs();
        assert_eq!(inputs.len(), pis.len(), "primary-input width mismatch");
        for (&pi, &v) in pis.iter().zip(inputs) {
            let net = self
                .netlist
                .cell(pi)
                .expect("live PI")
                .output()
                .expect("PI net");
            self.values[net.index()] = v;
        }
        for (id, cell) in self.netlist.cells() {
            if let CellKind::Constant(v) = cell.kind() {
                let net = cell.output().expect("tie net");
                self.values[net.index()] = v;
                let _ = id;
            }
        }
        for (i, &ff) in self.dffs.iter().enumerate() {
            let q = self
                .netlist
                .cell(ff)
                .expect("live dff")
                .output()
                .expect("Q net");
            self.values[q.index()] = self.state[i];
        }
        for &id in &self.order {
            let cell = self.netlist.cell(id).expect("live cell");
            let CellKind::Lib(lib_id) = cell.kind() else {
                continue;
            };
            let lc = self.lib.cell(lib_id).expect("lib cell");
            let f: Tt3 = cell.config().unwrap_or_else(|| lc.function());
            let mut args = [false; 3];
            for (pin, &net) in cell.inputs().iter().enumerate() {
                args[pin] = self.values[net.index()];
            }
            let out = f.eval(args[0], args[1], args[2]);
            let net = cell.output().expect("comb cell output");
            self.values[net.index()] = out;
        }
    }

    fn read_outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|&po| {
                let net = self.netlist.cell(po).expect("live PO").inputs()[0];
                self.values[net.index()]
            })
            .collect()
    }
}

/// Compares two netlists cycle-by-cycle on shared random stimulus.
///
/// Both netlists must have the same numbers of primary inputs and outputs
/// (matched positionally). Returns the first cycle at which the outputs
/// diverge, or `None` if they agree over all `vectors`.
///
/// # Errors
///
/// Propagates simulator construction errors.
///
/// # Panics
///
/// Panics if the interfaces differ in width.
pub fn first_divergence(
    a: &Netlist,
    lib_a: &Library,
    b: &Netlist,
    lib_b: &Library,
    vectors: &[Vec<bool>],
) -> Result<Option<usize>, NetlistError> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "PI width mismatch");
    assert_eq!(a.outputs().len(), b.outputs().len(), "PO width mismatch");
    let mut sim_a = Simulator::new(a, lib_a)?;
    let mut sim_b = Simulator::new(b, lib_b)?;
    for (cycle, v) in vectors.iter().enumerate() {
        if sim_a.step(v) != sim_b.step(v) {
            return Ok(Some(cycle));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::generic;

    #[test]
    fn combinational_eval() {
        let lib = generic::library();
        let mut n = Netlist::new("maj");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let m = n.add_lib_cell("m", &lib, "MAJ3", &[a, b, c]).unwrap();
        n.add_output("y", m);
        let mut sim = Simulator::new(&n, &lib).unwrap();
        for i in 0..8u8 {
            let v = [(i & 1) == 1, (i >> 1 & 1) == 1, (i >> 2 & 1) == 1];
            let expect = (v[0] as u8 + v[1] as u8 + v[2] as u8) >= 2;
            assert_eq!(sim.eval(&v), vec![expect]);
        }
    }

    #[test]
    fn toggle_flop_alternates() {
        let lib = generic::library();
        let mut n = Netlist::new("toggle");
        let en = n.add_input("en");
        let q = n.add_lib_cell("ff", &lib, "DFF", &[en]).unwrap();
        let d = n.add_lib_cell("inv", &lib, "INV", &[q]).unwrap();
        let ff = n.cell_by_name("ff").unwrap();
        n.connect_pin(ff, 0, d).unwrap();
        n.add_output("q", q);
        let mut sim = Simulator::new(&n, &lib).unwrap();
        assert_eq!(sim.num_dffs(), 1);
        // Output q: 0, 1, 0, 1 ... regardless of the (now disconnected) input.
        assert_eq!(sim.step(&[false]), vec![false]);
        assert_eq!(sim.step(&[false]), vec![true]);
        assert_eq!(sim.step(&[false]), vec![false]);
    }

    #[test]
    fn constants_drive_logic() {
        let lib = generic::library();
        let mut n = Netlist::new("tie");
        let a = n.add_input("a");
        let one = n.constant(true);
        let g = n.add_lib_cell("g", &lib, "AND2", &[a, one]).unwrap();
        n.add_output("y", g);
        let mut sim = Simulator::new(&n, &lib).unwrap();
        assert_eq!(sim.eval(&[true]), vec![true]);
        assert_eq!(sim.eval(&[false]), vec![false]);
    }

    #[test]
    fn set_state_overrides_flops() {
        let lib = generic::library();
        let mut n = Netlist::new("reg");
        let d = n.add_input("d");
        let q = n.add_lib_cell("ff", &lib, "DFF", &[d]).unwrap();
        n.add_output("q", q);
        let mut sim = Simulator::new(&n, &lib).unwrap();
        sim.set_state(&[true]);
        assert_eq!(sim.eval(&[false]), vec![true]);
    }

    #[test]
    fn equivalent_netlists_do_not_diverge() {
        let lib = generic::library();
        let build = |demorgan: bool| {
            let mut n = Netlist::new("eq");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let y = if demorgan {
                let na = n.add_lib_cell("na", &lib, "INV", &[a]).unwrap();
                let nb = n.add_lib_cell("nb", &lib, "INV", &[b]).unwrap();
                n.add_lib_cell("or", &lib, "NOR2", &[na, nb]).unwrap()
            } else {
                n.add_lib_cell("and", &lib, "AND2", &[a, b]).unwrap()
            };
            n.add_output("y", y);
            n
        };
        let n1 = build(false);
        let n2 = build(true);
        let vectors: Vec<Vec<bool>> = (0..4u8)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1])
            .collect();
        assert_eq!(
            first_divergence(&n1, &lib, &n2, &lib, &vectors).unwrap(),
            None
        );
    }

    #[test]
    fn different_netlists_diverge() {
        let lib = generic::library();
        let build = |cell: &str| {
            let mut n = Netlist::new("d");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let y = n.add_lib_cell("g", &lib, cell, &[a, b]).unwrap();
            n.add_output("y", y);
            n
        };
        let n1 = build("AND2");
        let n2 = build("OR2");
        let vectors: Vec<Vec<bool>> = (0..4u8)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1])
            .collect();
        assert!(first_divergence(&n1, &lib, &n2, &lib, &vectors)
            .unwrap()
            .is_some());
    }
}
