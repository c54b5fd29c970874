//! The mutable gate-level netlist container.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{Cell, CellKind};
use crate::error::NetlistError;
use crate::ids::{CellId, GroupId, NameId, NetId};
use crate::library::Library;

/// An append-only intern table mapping name text to fixed-width
/// [`NameId`]s. Cells and nets store `NameId`s; hot paths (the by-name
/// index, fresh-name probing, snapshot round-trips) hash and compare the
/// 4-byte ids instead of the strings, which are resolved back to text
/// only for reports and error messages.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct NameTable {
    texts: Vec<String>,
    by_text: HashMap<String, NameId>,
}

impl NameTable {
    /// The id for `text`, interning it on first use.
    pub(crate) fn intern(&mut self, text: &str) -> NameId {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = NameId::from_index(self.texts.len());
        self.texts.push(text.to_owned());
        self.by_text.insert(text.to_owned(), id);
        id
    }

    /// The id for `text`, if it has ever been interned.
    pub(crate) fn lookup(&self, text: &str) -> Option<NameId> {
        self.by_text.get(text).copied()
    }

    /// The text behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this table.
    pub(crate) fn resolve(&self, id: NameId) -> &str {
        &self.texts[id.index()]
    }
}

/// A net: one driver, any number of `(cell, pin)` sinks.
#[derive(Clone, Debug, PartialEq)]
struct Net {
    name: NameId,
    driver: Option<CellId>,
    sinks: Vec<(CellId, usize)>,
}

/// A gate-level netlist of single-output cells.
///
/// Cells and nets have stable ids across edits (removal leaves tombstones).
/// The netlist enforces single-driver nets structurally; richer invariants
/// (pin counts, combinational acyclicity) are checked by
/// [`Netlist::validate`].
///
/// # Example
///
/// ```
/// use vpga_netlist::Netlist;
/// use vpga_netlist::library::generic;
///
/// let lib = generic::library();
/// let mut n = Netlist::new("half_adder");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let s = n.add_lib_cell("xor", &lib, "XOR2", &[a, b])?;
/// let c = n.add_lib_cell("and", &lib, "AND2", &[a, b])?;
/// n.add_output("sum", s);
/// n.add_output("carry", c);
/// n.validate(&lib)?;
/// assert_eq!(n.num_cells(), 6); // 2 PI + 2 gates + 2 PO
/// # Ok::<(), vpga_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    names: NameTable,
    cells: Vec<Option<Cell>>,
    nets: Vec<Option<Net>>,
    by_name: HashMap<NameId, CellId>,
    inputs: Vec<CellId>,
    outputs: Vec<CellId>,
    next_group: u32,
    constants: [Option<NetId>; 2],
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            names: NameTable::default(),
            cells: Vec::new(),
            nets: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            next_group: 0,
            constants: [None, None],
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn alloc_net(&mut self, name: NameId) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Some(Net {
            name,
            driver: None,
            sinks: Vec::new(),
        }));
        id
    }

    fn alloc_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.by_name.insert(cell.name_id(), id);
        self.cells.push(Some(cell));
        id
    }

    /// True if a live cell currently uses `name`.
    fn name_in_use(&self, name: &str) -> bool {
        self.names
            .lookup(name)
            .is_some_and(|id| self.by_name.contains_key(&id))
    }

    /// Adds a primary input and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used by another cell.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        assert!(!self.name_in_use(&name), "duplicate cell name {name:?}");
        let name = self.names.intern(&name);
        let net = self.alloc_net(name);
        let cell = Cell::new(name, CellKind::Input, Vec::new(), Some(net));
        let id = self.alloc_cell(cell);
        self.net_mut(net).driver = Some(id);
        self.inputs.push(id);
        net
    }

    /// Adds a primary output reading `net`, returns the output cell id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used or `net` does not exist.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) -> CellId {
        let name = name.into();
        assert!(!self.name_in_use(&name), "duplicate cell name {name:?}");
        assert!(self.net_exists(net), "unknown net {net}");
        let name = self.names.intern(&name);
        let cell = Cell::new(name, CellKind::Output, vec![net], None);
        let id = self.alloc_cell(cell);
        self.net_mut(net).sinks.push((id, 0));
        self.outputs.push(id);
        id
    }

    /// The net carrying constant `value`, creating the tie cell on first use.
    pub fn constant(&mut self, value: bool) -> NetId {
        if let Some(net) = self.constants[value as usize] {
            return net;
        }
        let name = self.names.intern(&format!("_tie{}", value as u8));
        let net = self.alloc_net(name);
        let cell = Cell::new(name, CellKind::Constant(value), Vec::new(), Some(net));
        let id = self.alloc_cell(cell);
        self.net_mut(net).driver = Some(id);
        self.constants[value as usize] = Some(net);
        net
    }

    /// Instantiates library cell `lib_name` with the given input nets and
    /// returns the net its output drives.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateCellName`] if `name` is taken,
    /// * [`NetlistError::UnknownLibCell`] if `lib_name` is not in `lib`,
    /// * [`NetlistError::PinCountMismatch`] if `inputs.len()` differs from
    ///   the library cell's arity,
    /// * [`NetlistError::UnknownNet`] if an input net does not exist.
    pub fn add_lib_cell(
        &mut self,
        name: impl Into<String>,
        lib: &Library,
        lib_name: &str,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let lib_id = lib
            .cell_id(lib_name)
            .ok_or_else(|| NetlistError::UnknownLibCell(lib_name.to_owned()))?;
        let name = name.into();
        if self.name_in_use(&name) {
            return Err(NetlistError::DuplicateCellName(name));
        }
        let lc = lib.cell(lib_id).expect("id from this library");
        if inputs.len() != lc.arity() {
            return Err(NetlistError::PinCountMismatch {
                cell: name,
                got: inputs.len(),
                expected: lc.arity(),
            });
        }
        for &n in inputs {
            if !self.net_exists(n) {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        let name = self.names.intern(&name);
        let net = self.alloc_net(name);
        let cell = Cell::new(name, CellKind::Lib(lib_id), inputs.to_vec(), Some(net));
        let id = self.alloc_cell(cell);
        self.net_mut(net).driver = Some(id);
        for (pin, &n) in inputs.iter().enumerate() {
            self.net_mut(n).sinks.push((id, pin));
        }
        Ok(net)
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Looks up a live cell.
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.index()).and_then(|c| c.as_ref())
    }

    /// The name text of a live cell (for reports and error messages; hot
    /// paths should compare [`crate::NameId`]s instead).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live cell.
    pub fn cell_name(&self, id: CellId) -> &str {
        let cell = self.cell(id).expect("live cell");
        self.names.resolve(cell.name_id())
    }

    /// Resolves an interned name id back to its text.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not interned by this netlist.
    pub fn name_text(&self, id: crate::NameId) -> &str {
        self.names.resolve(id)
    }

    /// True if the net id refers to a live net.
    pub fn net_exists(&self, id: NetId) -> bool {
        matches!(self.nets.get(id.index()), Some(Some(_)))
    }

    /// The name of a live net.
    pub fn net_name(&self, id: NetId) -> Option<&str> {
        self.nets
            .get(id.index())
            .and_then(|n| n.as_ref())
            .map(|n| self.names.resolve(n.name))
    }

    /// The cell driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<CellId> {
        self.nets
            .get(net.index())
            .and_then(|n| n.as_ref())
            .and_then(|n| n.driver)
    }

    /// The `(cell, pin)` sinks of `net`.
    pub fn sinks(&self, net: NetId) -> &[(CellId, usize)] {
        self.nets
            .get(net.index())
            .and_then(|n| n.as_ref())
            .map(|n| n.sinks.as_slice())
            .unwrap_or(&[])
    }

    /// Looks up a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        let id = self.names.lookup(name)?;
        self.by_name.get(&id).copied()
    }

    /// Primary input cells, in insertion order.
    pub fn inputs(&self) -> &[CellId] {
        &self.inputs
    }

    /// Primary output cells, in insertion order.
    pub fn outputs(&self) -> &[CellId] {
        &self.outputs
    }

    /// Iterates over live `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (CellId::from_index(i), c)))
    }

    /// Iterates over live net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NetId::from_index(i)))
    }

    /// Number of live cells (including port and tie pseudo-cells).
    pub fn num_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Number of live nets.
    pub fn num_nets(&self) -> usize {
        self.nets.iter().filter(|n| n.is_some()).count()
    }

    /// Upper bound on cell indices (for dense side tables).
    pub fn cell_capacity(&self) -> usize {
        self.cells.len()
    }

    /// Upper bound on net indices (for dense side tables).
    pub fn net_capacity(&self) -> usize {
        self.nets.len()
    }

    // ------------------------------------------------------------------
    // Editing (used by compaction, buffering, packing)
    // ------------------------------------------------------------------

    fn net_mut(&mut self, id: NetId) -> &mut Net {
        self.nets
            .get_mut(id.index())
            .and_then(|n| n.as_mut())
            .expect("live net")
    }

    fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        self.cells
            .get_mut(id.index())
            .and_then(|c| c.as_mut())
            .expect("live cell")
    }

    /// Reconnects input pin `pin` of `cell` to `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell, the pin, or the net does not exist.
    pub fn connect_pin(
        &mut self,
        cell: CellId,
        pin: usize,
        net: NetId,
    ) -> Result<(), NetlistError> {
        if !self.net_exists(net) {
            return Err(NetlistError::UnknownNet(net));
        }
        let old = {
            let c = self.cell(cell).ok_or(NetlistError::UnknownCell(cell))?;
            *c.inputs().get(pin).ok_or(NetlistError::PinCountMismatch {
                cell: self.names.resolve(c.name_id()).to_owned(),
                got: pin,
                expected: c.inputs().len(),
            })?
        };
        self.net_mut(old)
            .sinks
            .retain(|&(c, p)| !(c == cell && p == pin));
        self.cell_mut(cell).inputs_mut()[pin] = net;
        self.net_mut(net).sinks.push((cell, pin));
        Ok(())
    }

    /// Reconnects a batch of input pins that all sit on net `from`: each
    /// `(cell, pin, net)` moves `pin` of `cell` onto `net`.
    ///
    /// The result — cells, nets, every net's sink order, and the first
    /// error — is that of calling [`Netlist::connect_pin`] on each entry
    /// in order, but `from`'s sink list is filtered once instead of once
    /// per pin, so code that seats every instance on a placeholder net and
    /// rewires once all nets exist stays linear. A batch that
    /// repeats a pin, or names one that is not on `from`, falls back to
    /// the per-pin loop.
    ///
    /// # Errors
    ///
    /// As [`Netlist::connect_pin`], for the first failing entry; the
    /// entries before it stay applied.
    pub fn rewire_pins(
        &mut self,
        from: NetId,
        rewires: &[(CellId, usize, NetId)],
    ) -> Result<(), NetlistError> {
        let Some(mask) = self.pins_on_net(from, rewires) else {
            for &(cell, pin, net) in rewires {
                self.connect_pin(cell, pin, net)?;
            }
            return Ok(());
        };
        // Each per-pin `retain` drops one pin from `from`'s original sinks
        // and leaves the rest in order, and each push appends in batch
        // order (pins rewired onto `from` itself included), so one filter
        // followed by the pushes leaves the same lists.
        self.net_mut(from)
            .sinks
            .retain(|&(c, p)| !(p < 64 && mask.get(c.index()).is_some_and(|m| m >> p & 1 == 1)));
        for &(cell, pin, net) in rewires {
            self.cell_mut(cell).inputs_mut()[pin] = net;
            self.net_mut(net).sinks.push((cell, pin));
        }
        Ok(())
    }

    /// The pins of `rewires` as one bit mask per cell index, if every
    /// entry names a live net and a distinct pin (below 64) that sits on
    /// `from`.
    fn pins_on_net(&self, from: NetId, rewires: &[(CellId, usize, NetId)]) -> Option<Vec<u64>> {
        let len = rewires.iter().map(|&(c, _, _)| c.index() + 1).max()?;
        let mut mask = vec![0u64; len];
        for &(cell, pin, net) in rewires {
            if pin >= 64 || !self.net_exists(net) {
                return None;
            }
            if self.cell(cell)?.inputs().get(pin) != Some(&from) {
                return None;
            }
            let m = &mut mask[cell.index()];
            if *m >> pin & 1 == 1 {
                return None;
            }
            *m |= 1 << pin;
        }
        Some(mask)
    }

    /// Moves every sink of `from` onto `to`, leaving `from` sinkless.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if either net does not exist.
    pub fn transfer_sinks(&mut self, from: NetId, to: NetId) -> Result<(), NetlistError> {
        if !self.net_exists(from) {
            return Err(NetlistError::UnknownNet(from));
        }
        if !self.net_exists(to) {
            return Err(NetlistError::UnknownNet(to));
        }
        let moved = std::mem::take(&mut self.net_mut(from).sinks);
        for &(cell, pin) in &moved {
            self.cell_mut(cell).inputs_mut()[pin] = to;
        }
        self.net_mut(to).sinks.extend(moved);
        Ok(())
    }

    /// Removes a library cell whose output has no sinks, together with its
    /// output net. Port and tie cells cannot be removed.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownCell`] if the cell does not exist or is a
    ///   port/tie cell,
    /// * [`NetlistError::OutputInUse`] if the output net still has sinks.
    pub fn remove_cell(&mut self, id: CellId) -> Result<(), NetlistError> {
        let cell = self.cell(id).ok_or(NetlistError::UnknownCell(id))?;
        if cell.kind().is_port_or_tie() {
            return Err(NetlistError::UnknownCell(id));
        }
        let out = cell.output();
        if let Some(out) = out {
            if !self.sinks(out).is_empty() {
                return Err(NetlistError::OutputInUse(id));
            }
        }
        let inputs: Vec<NetId> = cell.inputs().to_vec();
        let name = cell.name_id();
        for (pin, net) in inputs.into_iter().enumerate() {
            self.net_mut(net)
                .sinks
                .retain(|&(c, p)| !(c == id && p == pin));
        }
        if let Some(out) = out {
            self.nets[out.index()] = None;
        }
        self.by_name.remove(&name);
        self.cells[id.index()] = None;
        Ok(())
    }

    /// Removes library cells with sinkless outputs until none remain
    /// (dead-logic sweep). Returns the number of cells removed.
    pub fn sweep_dead(&mut self) -> usize {
        let mut removed = 0;
        loop {
            let dead: Vec<CellId> = self
                .cells()
                .filter(|(_, c)| !c.kind().is_port_or_tie())
                .filter(|(_, c)| c.output().is_none_or(|o| self.sinks(o).is_empty()))
                .map(|(id, _)| id)
                .collect();
            if dead.is_empty() {
                return removed;
            }
            for id in dead {
                self.remove_cell(id).expect("dead cell is removable");
                removed += 1;
            }
        }
    }

    /// Programs the via configuration of a library-cell instance to
    /// `config` (or restores the library default with `None`).
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownCell`] if the cell does not exist or is not
    ///   a library instance,
    /// * [`NetlistError::InvalidConfig`] if the function is outside the
    ///   library cell's allowed set.
    pub fn set_config(
        &mut self,
        cell: CellId,
        lib: &Library,
        config: Option<vpga_logic::Tt3>,
    ) -> Result<(), NetlistError> {
        let c = self.cell(cell).ok_or(NetlistError::UnknownCell(cell))?;
        let CellKind::Lib(lib_id) = c.kind() else {
            return Err(NetlistError::UnknownCell(cell));
        };
        let lc = lib.cell(lib_id).ok_or(NetlistError::UnknownCell(cell))?;
        if let Some(f) = config {
            if !lc.allowed().contains(f) {
                return Err(NetlistError::InvalidConfig {
                    cell: self.names.resolve(c.name_id()).to_owned(),
                    function: f,
                });
            }
        }
        self.cell_mut(cell).set_config(config);
        Ok(())
    }

    /// The effective combinational function of a library-cell instance: its
    /// programmed configuration if any, else the library default.
    pub fn instance_function(&self, cell: CellId, lib: &Library) -> Option<vpga_logic::Tt3> {
        let c = self.cell(cell)?;
        let lib_id = c.lib_id()?;
        let lc = lib.cell(lib_id)?;
        Some(c.config().unwrap_or_else(|| lc.function()))
    }

    /// Allocates a fresh compaction group id.
    pub fn new_group(&mut self) -> GroupId {
        let g = GroupId::from_index(self.next_group as usize);
        self.next_group += 1;
        g
    }

    /// Assigns `cell` to `group` (or clears it with `None`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if the cell does not exist.
    pub fn set_group(&mut self, cell: CellId, group: Option<GroupId>) -> Result<(), NetlistError> {
        if self.cell(cell).is_none() {
            return Err(NetlistError::UnknownCell(cell));
        }
        self.cell_mut(cell).set_group(group);
        Ok(())
    }

    /// A fresh cell name derived from `stem` that is unused in this
    /// netlist. A name counts as used only while a live cell holds it
    /// (the intern table itself is append-only).
    pub fn fresh_name(&self, stem: &str) -> String {
        if !self.name_in_use(stem) {
            return stem.to_owned();
        }
        let mut i = 0usize;
        loop {
            let candidate = format!("{stem}_{i}");
            if !self.name_in_use(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks structural invariants: every live net is driven, pin counts
    /// match library arities, sink back-references are consistent, and the
    /// combinational part is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, lib: &Library) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            let Some(net) = net else { continue };
            let id = NetId::from_index(i);
            let Some(driver) = net.driver else {
                return Err(NetlistError::UndrivenNet(id));
            };
            match self.cell(driver) {
                Some(c) if c.output() == Some(id) => {}
                _ => return Err(NetlistError::UndrivenNet(id)),
            }
            for &(cell, pin) in &net.sinks {
                match self.cell(cell) {
                    Some(c) if c.inputs().get(pin) == Some(&id) => {}
                    _ => return Err(NetlistError::UnknownCell(cell)),
                }
            }
        }
        for (id, cell) in self.cells() {
            if let CellKind::Lib(lib_id) = cell.kind() {
                let lc = lib.cell(lib_id).ok_or(NetlistError::UnknownCell(id))?;
                if cell.inputs().len() != lc.arity() {
                    return Err(NetlistError::PinCountMismatch {
                        cell: self.names.resolve(cell.name_id()).to_owned(),
                        got: cell.inputs().len(),
                        expected: lc.arity(),
                    });
                }
            }
            if let (Some(cfg), CellKind::Lib(lib_id)) = (cell.config(), cell.kind()) {
                let lc = lib.cell(lib_id).ok_or(NetlistError::UnknownCell(id))?;
                if !lc.allowed().contains(cfg) {
                    return Err(NetlistError::InvalidConfig {
                        cell: self.names.resolve(cell.name_id()).to_owned(),
                        function: cfg,
                    });
                }
            }
            for &n in cell.inputs() {
                if !self.net_exists(n) {
                    return Err(NetlistError::UnknownNet(n));
                }
            }
        }
        crate::graph::combinational_topo_order(self, lib).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Serializes the complete netlist state — intern table, tombstones,
    /// group counter, everything — so that [`Netlist::decode_snapshot`]
    /// reproduces a bit-identical netlist (ids, iteration order, and
    /// fresh-name behavior included).
    pub fn encode_snapshot(&self, w: &mut crate::wire::Writer) {
        w.str(&self.name);
        w.usize(self.names.texts.len());
        for text in &self.names.texts {
            w.str(text);
        }
        let encode_kind = |w: &mut crate::wire::Writer, kind: CellKind| match kind {
            CellKind::Input => w.u8(0),
            CellKind::Output => w.u8(1),
            CellKind::Constant(v) => w.u8(2 + v as u8),
            CellKind::Lib(id) => {
                w.u8(4);
                w.u32(id.index() as u32);
            }
        };
        w.usize(self.cells.len());
        for cell in &self.cells {
            w.opt(cell.as_ref(), |w, cell| {
                w.u32(cell.name_id().index() as u32);
                encode_kind(w, cell.kind());
                w.usize(cell.inputs().len());
                for n in cell.inputs() {
                    w.u32(n.index() as u32);
                }
                w.opt(cell.output(), |w, n| w.u32(n.index() as u32));
                w.opt(cell.group(), |w, g| w.u32(g.index() as u32));
                w.opt(cell.config(), |w, t| w.u8(t.bits()));
            });
        }
        w.usize(self.nets.len());
        for net in &self.nets {
            w.opt(net.as_ref(), |w, net| {
                w.u32(net.name.index() as u32);
                w.opt(net.driver, |w, c| w.u32(c.index() as u32));
                w.usize(net.sinks.len());
                for &(c, pin) in &net.sinks {
                    w.u32(c.index() as u32);
                    w.usize(pin);
                }
            });
        }
        for list in [&self.inputs, &self.outputs] {
            w.usize(list.len());
            for &c in list {
                w.u32(c.index() as u32);
            }
        }
        w.u32(self.next_group);
        for c in self.constants {
            w.opt(c, |w, n| w.u32(n.index() as u32));
        }
    }

    /// Rebuilds a netlist from [`Netlist::encode_snapshot`] bytes. The
    /// by-name index is reconstructed from the live cells. Returns `None`
    /// on truncated or malformed input.
    pub fn decode_snapshot(r: &mut crate::wire::Reader<'_>) -> Option<Netlist> {
        let name = r.str()?;
        let mut names = NameTable::default();
        let n_texts = r.usize()?;
        for _ in 0..n_texts {
            let text = r.str()?;
            names.intern(&text);
        }
        let decode_kind = |r: &mut crate::wire::Reader<'_>| -> Option<CellKind> {
            Some(match r.u8()? {
                0 => CellKind::Input,
                1 => CellKind::Output,
                2 => CellKind::Constant(false),
                3 => CellKind::Constant(true),
                4 => CellKind::Lib(crate::LibCellId::from_index(r.u32()? as usize)),
                _ => return None,
            })
        };
        let n_cells = r.usize()?;
        let mut cells: Vec<Option<Cell>> = Vec::with_capacity(n_cells.min(1 << 24));
        for _ in 0..n_cells {
            cells.push(r.opt(|r| {
                let name = NameId::from_index(r.u32()? as usize);
                if name.index() >= names.texts.len() {
                    return None;
                }
                let kind = decode_kind(r)?;
                let n_inputs = r.usize()?;
                let mut inputs = Vec::with_capacity(n_inputs.min(1 << 16));
                for _ in 0..n_inputs {
                    inputs.push(NetId::from_index(r.u32()? as usize));
                }
                let output = r.opt(|r| Some(NetId::from_index(r.u32()? as usize)))?;
                let group = r.opt(|r| Some(GroupId::from_index(r.u32()? as usize)))?;
                let config = r.opt(|r| Some(vpga_logic::Tt3::new(r.u8()?)))?;
                Some(Cell::from_parts(name, kind, inputs, output, group, config))
            })?);
        }
        let n_nets = r.usize()?;
        let mut nets: Vec<Option<Net>> = Vec::with_capacity(n_nets.min(1 << 24));
        for _ in 0..n_nets {
            nets.push(r.opt(|r| {
                let name = NameId::from_index(r.u32()? as usize);
                if name.index() >= names.texts.len() {
                    return None;
                }
                let driver = r.opt(|r| Some(CellId::from_index(r.u32()? as usize)))?;
                let n_sinks = r.usize()?;
                let mut sinks = Vec::with_capacity(n_sinks.min(1 << 16));
                for _ in 0..n_sinks {
                    let c = CellId::from_index(r.u32()? as usize);
                    let pin = r.usize()?;
                    sinks.push((c, pin));
                }
                Some(Net {
                    name,
                    driver,
                    sinks,
                })
            })?);
        }
        let mut lists: [Vec<CellId>; 2] = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = r.usize()?;
            for _ in 0..n {
                list.push(CellId::from_index(r.u32()? as usize));
            }
        }
        let [inputs, outputs] = lists;
        let next_group = r.u32()?;
        let mut constants = [None, None];
        for c in &mut constants {
            *c = r.opt(|r| Some(NetId::from_index(r.u32()? as usize)))?;
        }
        let by_name: HashMap<NameId, CellId> = cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (c.name_id(), CellId::from_index(i))))
            .collect();
        Some(Netlist {
            name,
            names,
            cells,
            nets,
            by_name,
            inputs,
            outputs,
            next_group,
            constants,
        })
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist {:?}: {} cells, {} nets, {} PI, {} PO",
            self.name,
            self.num_cells(),
            self.num_nets(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::generic;

    fn xor_pair() -> (Netlist, Library) {
        let lib = generic::library();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_lib_cell("x", &lib, "XOR2", &[a, b]).unwrap();
        n.add_output("y", x);
        (n, lib)
    }

    #[test]
    fn build_and_validate() {
        let (n, lib) = xor_pair();
        n.validate(&lib).unwrap();
        assert_eq!(n.num_cells(), 4);
        assert_eq!(n.num_nets(), 3);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        assert!(matches!(
            n.add_lib_cell("x", &lib, "INV", &[a]),
            Err(NetlistError::DuplicateCellName(_))
        ));
    }

    #[test]
    fn pin_count_mismatch_rejected() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        assert!(matches!(
            n.add_lib_cell("bad", &lib, "MUX2", &[a]),
            Err(NetlistError::PinCountMismatch { .. })
        ));
    }

    #[test]
    fn constants_are_shared() {
        let mut n = Netlist::new("c");
        let t1 = n.constant(true);
        let t2 = n.constant(true);
        let f1 = n.constant(false);
        assert_eq!(t1, t2);
        assert_ne!(t1, f1);
    }

    #[test]
    fn connect_pin_rewires_and_updates_sinks() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        let b = n.cell(n.inputs()[1]).unwrap().output().unwrap();
        let x = n.cell_by_name("x").unwrap();
        n.connect_pin(x, 1, a).unwrap();
        assert_eq!(n.cell(x).unwrap().inputs(), &[a, a]);
        assert!(n.sinks(b).is_empty());
        assert_eq!(n.sinks(a).len(), 2);
        n.validate(&lib).unwrap();
    }

    fn snapshot(n: &Netlist) -> Vec<u8> {
        let mut w = crate::wire::Writer::new();
        n.encode_snapshot(&mut w);
        w.into_bytes()
    }

    /// Applies `rewires` both ways and checks the batch left the exact
    /// state (ids, sink order, everything a snapshot holds) and result of
    /// the per-pin loop.
    fn assert_batch_matches_loop(
        n: &Netlist,
        from: NetId,
        rewires: &[(CellId, usize, NetId)],
    ) -> Result<(), NetlistError> {
        let mut looped = n.clone();
        let looped_result = rewires
            .iter()
            .try_for_each(|&(c, p, net)| looped.connect_pin(c, p, net));
        let mut batched = n.clone();
        let batched_result = batched.rewire_pins(from, rewires);
        assert_eq!(batched_result, looped_result);
        assert_eq!(snapshot(&batched), snapshot(&looped));
        batched_result
    }

    /// Three INVs and a NAND2 seated on the tie-0 placeholder, with a PO
    /// also reading it.
    fn seated() -> (Netlist, Library, NetId, Vec<CellId>, [NetId; 2]) {
        let lib = generic::library();
        let mut n = Netlist::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let tie = n.constant(false);
        let mut cells = Vec::new();
        for (name, kind, arity) in [("g0", "INV", 1), ("g1", "NAND2", 2), ("g2", "INV", 1)] {
            let out = n.add_lib_cell(name, &lib, kind, &vec![tie; arity]).unwrap();
            cells.push(n.driver(out).unwrap());
        }
        n.add_output("y", tie);
        (n, lib, tie, cells, [a, b])
    }

    #[test]
    fn rewire_pins_matches_the_per_pin_loop() {
        let (n, lib, tie, g, [a, b]) = seated();
        // A pin rewired onto the placeholder itself moves to the end of
        // its sink list; a pin left out keeps its place.
        let rewires = [(g[1], 1, a), (g[0], 0, tie), (g[2], 0, b)];
        assert_batch_matches_loop(&n, tie, &rewires).unwrap();
        let mut batched = n.clone();
        batched.rewire_pins(tie, &rewires).unwrap();
        let po = n.outputs()[0];
        assert_eq!(batched.sinks(tie), &[(g[1], 0), (po, 0), (g[0], 0)]);
        assert_eq!(batched.sinks(a), &[(g[1], 1)]);
        batched.validate(&lib).unwrap();
    }

    #[test]
    fn rewire_pins_falls_back_on_repeated_or_foreign_pins() {
        let (n, _, tie, g, [a, b]) = seated();
        // The same pin twice: the second rewire moves it off `a`.
        assert_batch_matches_loop(&n, tie, &[(g[0], 0, a), (g[2], 0, a), (g[0], 0, b)]).unwrap();
        // A pin that is not on `from` (already on `a` after the first entry
        // of a previous batch) goes through connect_pin too.
        let mut moved = n.clone();
        moved.connect_pin(g[0], 0, a).unwrap();
        assert_batch_matches_loop(&moved, tie, &[(g[2], 0, b), (g[0], 0, b)]).unwrap();
        assert_batch_matches_loop(&n, tie, &[]).unwrap();
    }

    #[test]
    fn rewire_pins_reports_the_first_error_after_earlier_entries() {
        let (n, _, tie, g, [a, _]) = seated();
        let bad_pin = assert_batch_matches_loop(&n, tie, &[(g[0], 0, a), (g[1], 2, a)]);
        assert!(matches!(
            bad_pin,
            Err(NetlistError::PinCountMismatch { got: 2, .. })
        ));
        let dead = NetId::from_index(99);
        let bad_net = assert_batch_matches_loop(&n, tie, &[(g[2], 0, a), (g[0], 0, dead)]);
        assert_eq!(bad_net, Err(NetlistError::UnknownNet(dead)));
    }

    #[test]
    fn transfer_sinks_moves_everything() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        let inv = n.add_lib_cell("inv", &lib, "INV", &[a]).unwrap();
        // Reroute all consumers of a through the inverter... then undo.
        n.transfer_sinks(a, inv).unwrap();
        // transfer moved the inverter's own pin too — reconnect it.
        let inv_cell = n.cell_by_name("inv").unwrap();
        n.connect_pin(inv_cell, 0, a).unwrap();
        n.validate(&lib).unwrap();
        let x = n.cell_by_name("x").unwrap();
        assert_eq!(n.cell(x).unwrap().inputs()[0], inv);
    }

    #[test]
    fn remove_cell_requires_sinkless_output() {
        let (mut n, _lib) = xor_pair();
        let x = n.cell_by_name("x").unwrap();
        assert!(matches!(
            n.remove_cell(x),
            Err(NetlistError::OutputInUse(_))
        ));
    }

    #[test]
    fn sweep_dead_removes_chains() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        let i1 = n.add_lib_cell("d1", &lib, "INV", &[a]).unwrap();
        let _i2 = n.add_lib_cell("d2", &lib, "INV", &[i1]).unwrap();
        assert_eq!(n.sweep_dead(), 2);
        assert!(n.cell_by_name("d1").is_none());
        n.validate(&lib).unwrap();
    }

    #[test]
    fn removed_cell_frees_its_name() {
        let (mut n, lib) = xor_pair();
        let a = n.cell(n.inputs()[0]).unwrap().output().unwrap();
        let _ = n.add_lib_cell("tmp", &lib, "INV", &[a]).unwrap();
        let tmp = n.cell_by_name("tmp").unwrap();
        n.remove_cell(tmp).unwrap();
        assert!(n.add_lib_cell("tmp", &lib, "BUF", &[a]).is_ok());
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let (n, _) = xor_pair();
        assert_eq!(n.fresh_name("z"), "z");
        assert_eq!(n.fresh_name("x"), "x_0");
    }

    #[test]
    fn groups_are_assignable() {
        let (mut n, _) = xor_pair();
        let g = n.new_group();
        let x = n.cell_by_name("x").unwrap();
        n.set_group(x, Some(g)).unwrap();
        assert_eq!(n.cell(x).unwrap().group(), Some(g));
        n.set_group(x, None).unwrap();
        assert_eq!(n.cell(x).unwrap().group(), None);
    }

    #[test]
    fn display_summarizes() {
        let (n, _) = xor_pair();
        let s = n.to_string();
        assert!(s.contains("4 cells"));
    }

    #[test]
    fn config_of_fixed_cell_is_rejected() {
        let (mut n, lib) = xor_pair();
        let x = n.cell_by_name("x").unwrap();
        // Generic XOR2 is fixed-function: only its own table is allowed.
        let own = lib.cell_by_name("XOR2").unwrap().function();
        n.set_config(x, &lib, Some(own)).unwrap();
        assert!(matches!(
            n.set_config(x, &lib, Some(vpga_logic::Tt3::MAJ3)),
            Err(NetlistError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn programmable_cell_accepts_and_reports_config() {
        use crate::library::{CellClass, LibCell};
        use vpga_logic::{FunctionSet256, Tt3};
        let mut lib = Library::new("prog");
        lib.add(LibCell::new_programmable(
            "LUT3",
            CellClass::Lut3,
            3,
            Tt3::FALSE,
            FunctionSet256::full(),
            100.0,
            1.0,
            100.0,
            10.0,
        ))
        .unwrap();
        let mut n = Netlist::new("p");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let y = n.add_lib_cell("l", &lib, "LUT3", &[a, b, c]).unwrap();
        n.add_output("y", y);
        let l = n.cell_by_name("l").unwrap();
        assert_eq!(n.instance_function(l, &lib), Some(Tt3::FALSE));
        n.set_config(l, &lib, Some(Tt3::MAJ3)).unwrap();
        assert_eq!(n.instance_function(l, &lib), Some(Tt3::MAJ3));
        n.validate(&lib).unwrap();
        let mut sim = crate::sim::Simulator::new(&n, &lib).unwrap();
        assert_eq!(sim.eval(&[true, true, false]), vec![true]);
        assert_eq!(sim.eval(&[true, false, false]), vec![false]);
    }
}
