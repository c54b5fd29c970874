//! Cell libraries: the "restricted library of standard cells" of §3.1.
//!
//! The paper's flow synthesizes onto a library consisting of exactly the
//! component cells of the target PLB, each at a single fixed size "chosen to
//! give a good power-delay tradeoff". A [`LibCell`] therefore carries one
//! area, one input capacitance, and one linear delay arc
//! (`delay = intrinsic + drive_resistance × load`), which is what the
//! CellRater-substitute characterization in `vpga-core` produces.
//!
//! The [`generic`] submodule provides a technology-independent library that
//! the benchmark design generators target before technology mapping.

use std::collections::HashMap;
use std::fmt;

use vpga_logic::{FunctionSet256, Tt3};

use crate::error::NetlistError;
use crate::ids::LibCellId;

/// The resource class of a library cell — what kind of PLB slot it occupies.
///
/// The packer's per-region resource accounting (§3.1: "if there are more
/// 3-LUTs in a region of the chip compared to the resources available in the
/// PLBs in that region...") is keyed by this class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellClass {
    /// A plain 2:1 multiplexer slot.
    Mux,
    /// The specially sized XOA multiplexer slot of the granular PLB.
    Xoa,
    /// A 3-input NAND-with-inversion gate slot (also hosts 2-input gates).
    Nd3,
    /// A 3-input LUT slot (LUT-based PLB only).
    Lut3,
    /// A buffer (programmable buffers / inserted repeaters).
    Buf,
    /// An inverter.
    Inv,
    /// A D flip-flop slot.
    Dff,
    /// A technology-independent gate (pre-mapping netlists only).
    Generic,
}

impl CellClass {
    /// All classes that occupy PLB resources (everything except `Generic`).
    pub const PLB_CLASSES: [CellClass; 7] = [
        CellClass::Mux,
        CellClass::Xoa,
        CellClass::Nd3,
        CellClass::Lut3,
        CellClass::Buf,
        CellClass::Inv,
        CellClass::Dff,
    ];

    /// True if cells of this class hold state.
    pub fn is_sequential(self) -> bool {
        self == CellClass::Dff
    }

    /// The class's position within [`CellClass::PLB_CLASSES`], or `None`
    /// for [`CellClass::Generic`]. Constant-time — this sits under every
    /// per-class occupancy query in the packer and swapper.
    pub const fn plb_index(self) -> Option<usize> {
        match self {
            CellClass::Mux => Some(0),
            CellClass::Xoa => Some(1),
            CellClass::Nd3 => Some(2),
            CellClass::Lut3 => Some(3),
            CellClass::Buf => Some(4),
            CellClass::Inv => Some(5),
            CellClass::Dff => Some(6),
            CellClass::Generic => None,
        }
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellClass::Mux => "MUX",
            CellClass::Xoa => "XOA",
            CellClass::Nd3 => "ND3",
            CellClass::Lut3 => "LUT3",
            CellClass::Buf => "BUF",
            CellClass::Inv => "INV",
            CellClass::Dff => "DFF",
            CellClass::Generic => "GENERIC",
        };
        f.write_str(s)
    }
}

/// Pin-binding freedoms the Boolean matcher may exercise for a cell.
///
/// The default grants both freedoms, which is what every general-purpose
/// component cell wants: a pin may be strapped to a constant rail, and the
/// same leaf variable may feed several pins. Architecture descriptions can
/// withdraw either freedom for cells with dedicated pins — e.g. a carry-chain
/// MUX whose CIN pin is hard-wired to the neighbouring PLB can neither be
/// tied off nor shared with another input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatchFlex {
    /// Pins may be strapped to constant rails.
    pub allow_const: bool,
    /// The same leaf variable may be bound to more than one pin.
    pub allow_dup: bool,
}

impl Default for MatchFlex {
    fn default() -> MatchFlex {
        MatchFlex {
            allow_const: true,
            allow_dup: true,
        }
    }
}

/// One characterized cell of a restricted library.
///
/// Combinational cells carry a default [`Tt3`] giving their function over
/// input pins 0..`arity` (pins beyond the arity are irrelevant variables).
/// *Via-programmable* cells — a ND3WI gate with its inversion choices, a
/// 3-LUT, a MUX whose pins select input polarity through the PLB's
/// dual-polarity buffers — additionally carry the [`FunctionSet256`] of
/// configurations their via pattern can select; instances then program a
/// concrete function with [`crate::Netlist::set_config`]. Sequential cells
/// (`class == Dff`) have `arity == 1` (the D pin) and their function field
/// is ignored.
#[derive(Clone, Debug, PartialEq)]
pub struct LibCell {
    name: String,
    class: CellClass,
    arity: usize,
    function: Tt3,
    allowed: FunctionSet256,
    area: f64,
    input_cap: f64,
    intrinsic_delay: f64,
    drive_resistance: f64,
    flex: MatchFlex,
}

impl LibCell {
    /// Creates a fixed-function library cell (its allowed set is the
    /// singleton `{function}`).
    ///
    /// # Panics
    ///
    /// Panics if `arity > 3`, or if any electrical parameter is negative or
    /// non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        class: CellClass,
        arity: usize,
        function: Tt3,
        area: f64,
        input_cap: f64,
        intrinsic_delay: f64,
        drive_resistance: f64,
    ) -> LibCell {
        let mut allowed = FunctionSet256::new();
        allowed.insert(function);
        LibCell::new_programmable(
            name,
            class,
            arity,
            function,
            allowed,
            area,
            input_cap,
            intrinsic_delay,
            drive_resistance,
        )
    }

    /// Creates a via-programmable library cell whose instances may be
    /// configured to any function in `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `arity > 3`, if `allowed` does not contain `function`, or
    /// if any electrical parameter is negative or non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new_programmable(
        name: impl Into<String>,
        class: CellClass,
        arity: usize,
        function: Tt3,
        allowed: FunctionSet256,
        area: f64,
        input_cap: f64,
        intrinsic_delay: f64,
        drive_resistance: f64,
    ) -> LibCell {
        assert!(arity <= 3, "component cells have at most 3 logic inputs");
        assert!(
            allowed.contains(function),
            "default function must be in the allowed set"
        );
        for (label, v) in [
            ("area", area),
            ("input_cap", input_cap),
            ("intrinsic_delay", intrinsic_delay),
            ("drive_resistance", drive_resistance),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{label} must be finite and >= 0");
        }
        LibCell {
            name: name.into(),
            class,
            arity,
            function,
            allowed,
            area,
            input_cap,
            intrinsic_delay,
            drive_resistance,
            flex: MatchFlex::default(),
        }
    }

    /// Returns the cell with the given matcher flexibility rules.
    #[must_use]
    pub fn with_flex(mut self, flex: MatchFlex) -> LibCell {
        self.flex = flex;
        self
    }

    /// The pin-binding freedoms the Boolean matcher may exercise.
    pub fn flex(&self) -> MatchFlex {
        self.flex
    }

    /// The set of functions this cell's via pattern can select.
    pub fn allowed(&self) -> &FunctionSet256 {
        &self.allowed
    }

    /// The cell's name, unique within its library.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resource class.
    pub fn class(&self) -> CellClass {
        self.class
    }

    /// Number of logic input pins.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The combinational function over input pins `0..arity`.
    pub fn function(&self) -> Tt3 {
        self.function
    }

    /// True if this is a sequential (state-holding) cell.
    pub fn is_sequential(&self) -> bool {
        self.class.is_sequential()
    }

    /// Layout area in µm².
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Capacitance of each input pin, in fF.
    pub fn input_cap(&self) -> f64 {
        self.input_cap
    }

    /// Intrinsic (unloaded) delay in ps.
    pub fn intrinsic_delay(&self) -> f64 {
        self.intrinsic_delay
    }

    /// Output drive resistance in ps/fF — the slope of the linear delay
    /// model.
    pub fn drive_resistance(&self) -> f64 {
        self.drive_resistance
    }

    /// Pin-to-output delay under `load` fF of output load, in ps.
    pub fn delay(&self, load: f64) -> f64 {
        self.intrinsic_delay + self.drive_resistance * load.max(0.0)
    }
}

/// A restricted standard-cell library.
///
/// # Example
///
/// ```
/// use vpga_netlist::library::generic;
/// let lib = generic::library();
/// let nand = lib.cell_by_name("NAND2").unwrap();
/// assert_eq!(nand.arity(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Library {
    name: String,
    cells: Vec<LibCell>,
    by_name: HashMap<String, LibCellId>,
}

impl PartialEq for Library {
    fn eq(&self, other: &Library) -> bool {
        // `by_name` is derived from `cells`, so name + cell list is the
        // whole identity.
        self.name == other.name && self.cells == other.cells
    }
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Library {
        Library {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a cell and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateCellName`] if a cell with the same
    /// name already exists.
    pub fn add(&mut self, cell: LibCell) -> Result<LibCellId, NetlistError> {
        if self.by_name.contains_key(cell.name()) {
            return Err(NetlistError::DuplicateCellName(cell.name().to_owned()));
        }
        let id = LibCellId::from_index(self.cells.len());
        self.by_name.insert(cell.name().to_owned(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Looks up a cell by id.
    pub fn cell(&self, id: LibCellId) -> Option<&LibCell> {
        self.cells.get(id.index())
    }

    /// Looks up a cell id by name.
    pub fn cell_id(&self, name: &str) -> Option<LibCellId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<&LibCell> {
        self.cell_id(name).and_then(|id| self.cell(id))
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LibCellId, &LibCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (LibCellId::from_index(i), c))
    }

    /// All combinational cells of the library.
    pub fn combinational(&self) -> impl Iterator<Item = (LibCellId, &LibCell)> {
        self.iter().filter(|(_, c)| !c.is_sequential())
    }
}

/// The technology-independent library targeted by the benchmark design
/// generators before technology mapping.
///
/// Electrical parameters are placeholders (generic cells never reach layout;
/// the mapper replaces them with characterized component cells), but areas
/// are set to NAND2-equivalent weights so pre-mapping gate counts are
/// meaningful.
pub mod generic {
    use super::*;
    use vpga_logic::Var;

    /// NAND2-equivalent area unit used for generic gate counting, in µm².
    pub const NAND2_AREA: f64 = 10.0;

    /// Builds the generic library.
    pub fn library() -> Library {
        let a = Tt3::var(Var::A);
        let b = Tt3::var(Var::B);
        let c = Tt3::var(Var::C);
        let mut lib = Library::new("generic");
        let mut add = |name: &str, arity: usize, f: Tt3, nand2_weight: f64| {
            lib.add(LibCell::new(
                name,
                CellClass::Generic,
                arity,
                f,
                NAND2_AREA * nand2_weight,
                1.0,
                50.0,
                10.0,
            ))
            .expect("generic names are unique")
        };
        add("BUF", 1, a, 0.5);
        add("INV", 1, !a, 0.5);
        add("AND2", 2, a & b, 1.5);
        add("OR2", 2, a | b, 1.5);
        add("NAND2", 2, !(a & b), 1.0);
        add("NOR2", 2, !(a | b), 1.0);
        add("XOR2", 2, a ^ b, 2.5);
        add("XNOR2", 2, !(a ^ b), 2.5);
        add("AND3", 3, a & b & c, 2.0);
        add("OR3", 3, a | b | c, 2.0);
        add("NAND3", 3, !(a & b & c), 1.5);
        add("NOR3", 3, !(a | b | c), 1.5);
        add("XOR3", 3, Tt3::XOR3, 4.5);
        add("MAJ3", 3, Tt3::MAJ3, 2.5);
        add("MUX2", 3, Tt3::MUX, 2.0);
        add("AOI21", 3, !((a & b) | c), 1.5);
        add("OAI21", 3, !((a | b) & c), 1.5);
        // Sequential: D pin only; function field unused.
        lib.add(LibCell::new(
            "DFF",
            CellClass::Dff,
            1,
            Tt3::var(Var::A),
            NAND2_AREA * 4.0,
            1.2,
            120.0,
            12.0,
        ))
        .expect("generic names are unique");
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_logic::Var;

    #[test]
    fn generic_library_cells_resolve() {
        let lib = generic::library();
        for name in [
            "BUF", "INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "AND3", "OR3", "NAND3",
            "NOR3", "XOR3", "MAJ3", "MUX2", "AOI21", "OAI21", "DFF",
        ] {
            let cell = lib.cell_by_name(name);
            assert!(cell.is_some(), "missing {name}");
        }
        assert_eq!(lib.len(), 18);
        assert!(!lib.is_empty());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut lib = Library::new("t");
        let cell = LibCell::new("X", CellClass::Buf, 1, Tt3::var(Var::A), 1.0, 1.0, 1.0, 1.0);
        lib.add(cell.clone()).unwrap();
        assert!(matches!(
            lib.add(cell),
            Err(NetlistError::DuplicateCellName(_))
        ));
    }

    #[test]
    fn delay_model_is_linear() {
        let c = LibCell::new("g", CellClass::Nd3, 3, Tt3::NAND3, 8.0, 1.0, 30.0, 5.0);
        assert_eq!(c.delay(0.0), 30.0);
        assert_eq!(c.delay(2.0), 40.0);
        // Negative loads are clamped.
        assert_eq!(c.delay(-1.0), 30.0);
    }

    #[test]
    fn functions_match_semantics() {
        let lib = generic::library();
        let aoi = lib.cell_by_name("AOI21").unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(aoi.function().eval(a, b, c), !((a && b) || c));
                }
            }
        }
    }

    #[test]
    fn dff_is_sequential() {
        let lib = generic::library();
        assert!(lib.cell_by_name("DFF").unwrap().is_sequential());
        assert!(!lib.cell_by_name("MUX2").unwrap().is_sequential());
        let comb = lib.combinational().count();
        assert_eq!(comb, lib.len() - 1);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn arity_above_three_panics() {
        let _ = LibCell::new("bad", CellClass::Generic, 4, Tt3::FALSE, 1.0, 1.0, 1.0, 1.0);
    }
}
