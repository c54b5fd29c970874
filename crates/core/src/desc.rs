//! Declarative PLB architecture descriptions and the `.varch` text format.
//!
//! The paper's whole point is comparing logic-block granularities, so the
//! fabric definition itself is data: an [`ArchDescription`] captures slot
//! classes and counts, the via-configuration function set and electrical
//! characterization of every component cell, the §2.3 logic configurations,
//! PLB-level areas, and the matcher flexibility rules — everything
//! [`crate::PlbArchitecture`] needs. Descriptions load from a line-oriented
//! `.varch` text format under the same strict grammar discipline as the
//! `.vxdl` interchange codec: every parse error carries a line and column,
//! `encode ∘ parse ∘ encode` is a byte fixpoint, and corrupt input can never
//! panic the parser.
//!
//! # Format
//!
//! ```text
//! varch 1 <name>
//! cell <name> <CLASS> <arity> <default> <allowed> <area> <cap> <delay> <res> [noconst] [nodup]
//! slot <CLASS> <count> <cell>
//! config <name> single <cell>                <functions> <area> <delay>
//! config <name> pair   <inner> <outer>       <functions> <area> <delay>
//! config <name> triple <mux> <gate> <outer>  <functions> <area> <delay>
//! area <comb> <seq>
//! vias <count>
//! end
//! ```
//!
//! Sections appear in that order; blank lines and `#` comment lines are
//! skipped everywhere. `<default>` is a 2-hex-digit truth table,
//! `<allowed>` and `<functions>` are 64-hex-digit bitmaps over the 256
//! three-input functions (bit *i* = the function with truth-table bits
//! *i*), and real numbers use Rust's shortest-round-trip notation. The
//! trailing `noconst` / `nodup` tokens withdraw the corresponding
//! [`MatchFlex`] freedom from the cell.

use std::fmt;

use vpga_logic::{FunctionSet256, Tt3};
use vpga_netlist::{CellClass, MatchFlex};

/// A positioned `.varch` parse error (1-based line and column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ArchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ArchParseError {}

/// One slot declaration: `count` slots of `class`, each hosting the
/// via-programmable component cell named `cell`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDecl {
    /// The resource class of the slots.
    pub class: CellClass,
    /// How many slots of this class one PLB offers.
    pub count: u16,
    /// Name of the declared cell occupying these slots.
    pub cell: String,
}

/// One characterized component cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDecl {
    /// Cell name, unique within the description.
    pub name: String,
    /// The resource class of the cell.
    pub class: CellClass,
    /// Number of logic input pins (1..=3).
    pub arity: usize,
    /// Default via configuration.
    pub default: Tt3,
    /// All via configurations the cell's pattern can select.
    pub allowed: FunctionSet256,
    /// Layout area, µm².
    pub area: f64,
    /// Input pin capacitance, fF.
    pub input_cap: f64,
    /// Intrinsic (unloaded) delay, ps.
    pub intrinsic_delay: f64,
    /// Output drive resistance, ps/fF.
    pub drive_resistance: f64,
    /// Matcher flexibility rules for the cell.
    pub flex: MatchFlex,
}

/// The structure of a logic configuration, over declared cell names.
#[derive(Clone, Debug, PartialEq)]
pub enum ShapeDecl {
    /// One component cell.
    Single {
        /// The cell.
        cell: String,
    },
    /// `inner` feeds one pin of `outer`.
    Pair {
        /// The inner cell.
        inner: String,
        /// The output cell.
        outer: String,
    },
    /// An inner MUX-capable cell and a gate both feed `outer`.
    Triple {
        /// The inner MUX-capable cell.
        mux: String,
        /// The gate cell.
        gate: String,
        /// The output cell.
        outer: String,
    },
}

impl ShapeDecl {
    /// The cell names of the shape, in declaration order.
    pub fn cells(&self) -> Vec<&str> {
        match self {
            ShapeDecl::Single { cell } => vec![cell],
            ShapeDecl::Pair { inner, outer } => vec![inner, outer],
            ShapeDecl::Triple { mux, gate, outer } => vec![mux, gate, outer],
        }
    }
}

/// One §2.3 logic configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigDecl {
    /// Configuration name (MX, ND3, NDMX, …).
    pub name: String,
    /// Internal structure over declared cells.
    pub shape: ShapeDecl,
    /// The exact set of 3-input functions the configuration implements.
    pub functions: FunctionSet256,
    /// Component area, µm².
    pub area: f64,
    /// Unloaded critical-path delay estimate, ps.
    pub delay_ps: f64,
}

/// A complete, validated PLB architecture description.
///
/// Obtain one with [`ArchDescription::parse`] or
/// [`crate::PlbArchitecture::describe`]; turn it into a working
/// architecture with [`crate::PlbArchitecture::from_description`].
#[derive(Clone, Debug, PartialEq)]
pub struct ArchDescription {
    /// Architecture name (also names the derived library `plb_<name>`).
    pub name: String,
    /// Component cells, in library order.
    pub cells: Vec<CellDecl>,
    /// Slot declarations, at most one per class.
    pub slots: Vec<SlotDecl>,
    /// Logic configurations, in matching-preference order.
    pub configs: Vec<ConfigDecl>,
    /// Combinational PLB area including local-interconnect overhead, µm².
    pub comb_area: f64,
    /// Sequential PLB area, µm².
    pub seq_area: f64,
    /// Potential configuration-via sites per PLB.
    pub via_sites: u32,
}

// ----------------------------------------------------------------------
// Lexing: whitespace-separated word tokens with positions.
// ----------------------------------------------------------------------

fn err(line: usize, col: usize, msg: impl Into<String>) -> ArchParseError {
    ArchParseError {
        line,
        col,
        msg: msg.into(),
    }
}

/// One word token with its 1-based starting column.
struct Tok<'a> {
    col: usize,
    word: &'a str,
}

fn lex_line(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start = None;
    for (col, (i, ch)) in (1usize..).zip(line.char_indices()) {
        if ch.is_whitespace() {
            if let Some((s, c)) = start.take() {
                toks.push(Tok {
                    col: c,
                    word: &line[s..i],
                });
            }
        } else if start.is_none() {
            start = Some((i, col));
        }
    }
    if let Some((s, c)) = start {
        toks.push(Tok {
            col: c,
            word: &line[s..],
        });
    }
    toks
}

/// Cursor over one line's tokens.
struct Rec<'a> {
    line_no: usize,
    line_len: usize,
    toks: Vec<Tok<'a>>,
    at: usize,
}

impl<'a> Rec<'a> {
    fn new(line_no: usize, line: &'a str) -> Rec<'a> {
        Rec {
            line_no,
            line_len: line.chars().count(),
            toks: lex_line(line),
            at: 0,
        }
    }

    /// Column just past the consumed tokens — where a missing token would
    /// have started.
    fn here(&self) -> usize {
        if self.at == 0 {
            1
        } else {
            self.line_len + 1
        }
    }

    fn word(&mut self, what: &str) -> Result<(usize, &'a str), ArchParseError> {
        match self.toks.get(self.at) {
            Some(t) => {
                self.at += 1;
                Ok((t.col, t.word))
            }
            None => Err(err(self.line_no, self.here(), format!("expected {what}"))),
        }
    }

    /// Peeks the next token without consuming it.
    fn peek(&self) -> Option<&str> {
        self.toks.get(self.at).map(|t| t.word)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ArchParseError> {
        let (col, w) = self.word(&format!("keyword {kw:?}"))?;
        if w == kw {
            Ok(())
        } else {
            Err(err(
                self.line_no,
                col,
                format!("expected keyword {kw:?}, found {w:?}"),
            ))
        }
    }

    fn name(&mut self, what: &str) -> Result<String, ArchParseError> {
        let (col, w) = self.word(what)?;
        if !w.is_empty()
            && w.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            Ok(w.to_owned())
        } else {
            Err(err(
                self.line_no,
                col,
                format!("bad {what} {w:?} (want [A-Za-z0-9_-]+)"),
            ))
        }
    }

    fn class(&mut self) -> Result<CellClass, ArchParseError> {
        let (col, w) = self.word("slot class")?;
        parse_class(w).ok_or_else(|| err(self.line_no, col, format!("unknown slot class {w:?}")))
    }

    fn u16(&mut self, what: &str) -> Result<u16, ArchParseError> {
        let (col, w) = self.word(what)?;
        w.parse()
            .map_err(|_| err(self.line_no, col, format!("bad {what} {w:?}")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ArchParseError> {
        let (col, w) = self.word(what)?;
        w.parse()
            .map_err(|_| err(self.line_no, col, format!("bad {what} {w:?}")))
    }

    fn usize(&mut self, what: &str) -> Result<usize, ArchParseError> {
        let (col, w) = self.word(what)?;
        w.parse()
            .map_err(|_| err(self.line_no, col, format!("bad {what} {w:?}")))
    }

    /// A finite, non-negative real.
    fn f64(&mut self, what: &str) -> Result<f64, ArchParseError> {
        let (col, w) = self.word(what)?;
        let v: f64 = w
            .parse()
            .map_err(|_| err(self.line_no, col, format!("bad {what} {w:?}")))?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(err(
                self.line_no,
                col,
                format!("{what} must be finite and >= 0, got {w}"),
            ))
        }
    }

    /// A 2-hex-digit truth table.
    fn tt3(&mut self, what: &str) -> Result<Tt3, ArchParseError> {
        let (col, w) = self.word(what)?;
        if w.len() == 2 && w.chars().all(|c| c.is_ascii_hexdigit()) {
            let bits = u8::from_str_radix(w, 16).expect("checked hex");
            Ok(Tt3::new(bits))
        } else {
            Err(err(
                self.line_no,
                col,
                format!("bad {what} {w:?} (want 2 hex digits)"),
            ))
        }
    }

    /// A 64-hex-digit function-set bitmap.
    fn set256(&mut self, what: &str) -> Result<FunctionSet256, ArchParseError> {
        let (col, w) = self.word(what)?;
        if w.len() != 64 || !w.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(err(
                self.line_no,
                col,
                format!("bad {what} (want 64 hex digits)"),
            ));
        }
        let mut set = FunctionSet256::new();
        for (j, pair) in w.as_bytes().chunks(2).enumerate() {
            let byte = u8::from_str_radix(std::str::from_utf8(pair).expect("ascii hex"), 16)
                .expect("checked hex");
            for k in 0..8u8 {
                if byte & (1 << k) != 0 {
                    set.insert(Tt3::new((j as u8) * 8 + k));
                }
            }
        }
        Ok(set)
    }

    fn finish(&mut self) -> Result<(), ArchParseError> {
        match self.toks.get(self.at) {
            None => Ok(()),
            Some(t) => Err(err(
                self.line_no,
                t.col,
                format!("unexpected trailing token {:?}", t.word),
            )),
        }
    }
}

fn parse_class(word: &str) -> Option<CellClass> {
    CellClass::PLB_CLASSES
        .iter()
        .copied()
        .find(|c| c.to_string() == word)
}

/// Iterator over the significant (non-blank, non-comment) lines.
struct Doc<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Doc<'a> {
    fn new(text: &'a str) -> Doc<'a> {
        Doc {
            lines: text.lines().enumerate(),
        }
    }

    fn next_rec(&mut self) -> Option<Rec<'a>> {
        for (i, line) in self.lines.by_ref() {
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Some(Rec::new(i + 1, line));
            }
        }
        None
    }
}

// ----------------------------------------------------------------------
// Parse
// ----------------------------------------------------------------------

impl ArchDescription {
    /// Parses a `.varch` document.
    ///
    /// The returned description is fully validated: cell parameters are
    /// finite and in range, every slot and configuration references a
    /// declared cell of the right kind, and names are unique — so
    /// [`crate::PlbArchitecture::from_description`] cannot fail on it.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ArchParseError`] on any malformed or
    /// inconsistent input. Never panics.
    pub fn parse(text: &str) -> Result<ArchDescription, ArchParseError> {
        let mut doc = Doc::new(text);
        // Header.
        let mut rec = doc
            .next_rec()
            .ok_or_else(|| err(1, 1, "empty document (expected `varch 1 <name>`)"))?;
        rec.keyword("varch")?;
        let (vcol, vword) = rec.word("format version")?;
        if vword != "1" {
            return Err(err(
                rec.line_no,
                vcol,
                format!("unsupported varch version {vword:?}"),
            ));
        }
        let name = rec.name("architecture name")?;
        rec.finish()?;

        let mut cells: Vec<CellDecl> = Vec::new();
        let mut slots: Vec<SlotDecl> = Vec::new();
        let mut configs: Vec<ConfigDecl> = Vec::new();
        let mut comb_area = None;
        let mut seq_area = None;
        let mut via_sites = None;

        // Body sections, in order: cell*, slot*, config*, area, vias, end.
        #[derive(PartialEq, PartialOrd)]
        enum Section {
            Cells,
            Slots,
            Configs,
            Area,
            Vias,
            End,
        }
        let mut section = Section::Cells;
        loop {
            let mut rec = doc
                .next_rec()
                .ok_or_else(|| err(usize::MAX, 1, "unexpected end of document (missing `end`)"))
                .map_err(|e| {
                    // Report at one past the last line rather than usize::MAX.
                    let last = text.lines().count();
                    err(last + 1, 1, e.msg)
                })?;
            let (col, kw) = rec.word("section keyword")?;
            let next = match kw {
                "cell" => Section::Cells,
                "slot" => Section::Slots,
                "config" => Section::Configs,
                "area" => Section::Area,
                "vias" => Section::Vias,
                "end" => Section::End,
                other => return Err(err(rec.line_no, col, format!("unknown keyword {other:?}"))),
            };
            if next < section {
                return Err(err(
                    rec.line_no,
                    col,
                    format!("{kw:?} section out of order (cell, slot, config, area, vias, end)"),
                ));
            }
            if (next == Section::Area && comb_area.is_some())
                || (next == Section::Vias && via_sites.is_some())
            {
                return Err(err(rec.line_no, col, format!("duplicate {kw:?} line")));
            }
            section = next;
            match kw {
                "cell" => {
                    let cell = parse_cell(&mut rec)?;
                    if cells.iter().any(|c| c.name == cell.name) {
                        return Err(err(
                            rec.line_no,
                            col,
                            format!("duplicate cell {:?}", cell.name),
                        ));
                    }
                    cells.push(cell);
                }
                "slot" => {
                    let slot = parse_slot(&mut rec, &cells)?;
                    if slots.iter().any(|s| s.class == slot.class) {
                        return Err(err(
                            rec.line_no,
                            col,
                            format!("duplicate slot class {}", slot.class),
                        ));
                    }
                    slots.push(slot);
                }
                "config" => {
                    let config = parse_config(&mut rec, &cells)?;
                    if configs.iter().any(|c| c.name == config.name) {
                        return Err(err(
                            rec.line_no,
                            col,
                            format!("duplicate config {:?}", config.name),
                        ));
                    }
                    configs.push(config);
                }
                "area" => {
                    let comb = rec.f64("combinational area")?;
                    let seq = rec.f64("sequential area")?;
                    rec.finish()?;
                    // A zero-area PLB would collapse flow b's whole array
                    // onto one point and publish a die area of 0.
                    if comb + seq <= 0.0 {
                        return Err(err(
                            rec.line_no,
                            col,
                            format!("PLB area must be positive, got {comb} + {seq}"),
                        ));
                    }
                    comb_area = Some(comb);
                    seq_area = Some(seq);
                }
                "vias" => {
                    via_sites = Some(rec.u32("via-site count")?);
                    rec.finish()?;
                }
                "end" => {
                    rec.finish()?;
                    // Require completeness at the `end` line.
                    if cells.is_empty() {
                        return Err(err(rec.line_no, col, "no cells declared"));
                    }
                    if slots.is_empty() {
                        return Err(err(rec.line_no, col, "no slots declared"));
                    }
                    if configs.is_empty() {
                        return Err(err(rec.line_no, col, "no configs declared"));
                    }
                    let (Some(comb_area), Some(seq_area), Some(via_sites)) =
                        (comb_area, seq_area, via_sites)
                    else {
                        return Err(err(rec.line_no, col, "missing `area` or `vias` line"));
                    };
                    // Nothing but blanks and comments after `end`.
                    if let Some(extra) = doc.next_rec() {
                        return Err(err(extra.line_no, 1, "unexpected content after `end`"));
                    }
                    return Ok(ArchDescription {
                        name,
                        cells,
                        slots,
                        configs,
                        comb_area,
                        seq_area,
                        via_sites,
                    });
                }
                _ => unreachable!("matched above"),
            }
        }
    }

    /// Renders the canonical `.varch` text. `encode ∘ parse ∘ encode` is a
    /// byte fixpoint.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "varch 1 {}", self.name);
        for c in &self.cells {
            let _ = write!(
                s,
                "cell {} {} {} {:02x} {} {} {} {} {}",
                c.name,
                c.class,
                c.arity,
                c.default.bits(),
                set_hex(&c.allowed),
                c.area,
                c.input_cap,
                c.intrinsic_delay,
                c.drive_resistance,
            );
            if !c.flex.allow_const {
                let _ = write!(s, " noconst");
            }
            if !c.flex.allow_dup {
                let _ = write!(s, " nodup");
            }
            s.push('\n');
        }
        for slot in &self.slots {
            let _ = writeln!(s, "slot {} {} {}", slot.class, slot.count, slot.cell);
        }
        for c in &self.configs {
            let kind = match &c.shape {
                ShapeDecl::Single { .. } => "single",
                ShapeDecl::Pair { .. } => "pair",
                ShapeDecl::Triple { .. } => "triple",
            };
            let _ = write!(s, "config {} {kind}", c.name);
            for cell in c.shape.cells() {
                let _ = write!(s, " {cell}");
            }
            let _ = writeln!(s, " {} {} {}", set_hex(&c.functions), c.area, c.delay_ps);
        }
        let _ = writeln!(s, "area {} {}", self.comb_area, self.seq_area);
        let _ = writeln!(s, "vias {}", self.via_sites);
        s.push_str("end\n");
        s
    }

    /// A 64-bit FNV-1a digest of the canonical encoding — the fabric's
    /// content identity. Two descriptions fingerprint equal iff their
    /// canonical encodings are byte-identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.encode().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn set_hex(set: &FunctionSet256) -> String {
    let mut bytes = [0u8; 32];
    for t in set.iter() {
        let i = t.bits();
        bytes[usize::from(i) / 8] |= 1 << (i % 8);
    }
    let mut s = String::with_capacity(64);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn parse_cell(rec: &mut Rec<'_>) -> Result<CellDecl, ArchParseError> {
    let name = rec.name("cell name")?;
    let class = rec.class()?;
    let (acol, arity) = {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        (col, rec.usize("arity")?)
    };
    if !(1..=3).contains(&arity) {
        return Err(err(
            rec.line_no,
            acol,
            format!("arity must be 1..=3, got {arity}"),
        ));
    }
    let (dcol, default) = {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        (col, rec.tt3("default configuration")?)
    };
    let allowed = rec.set256("allowed-function set")?;
    if !allowed.contains(default) {
        return Err(err(
            rec.line_no,
            dcol,
            "default configuration is not in the allowed set",
        ));
    }
    let area = rec.f64("area")?;
    let input_cap = rec.f64("input capacitance")?;
    let intrinsic_delay = rec.f64("intrinsic delay")?;
    let drive_resistance = rec.f64("drive resistance")?;
    let mut flex = MatchFlex::default();
    if rec.peek() == Some("noconst") {
        let _ = rec.word("flex")?;
        flex.allow_const = false;
    }
    if rec.peek() == Some("nodup") {
        let _ = rec.word("flex")?;
        flex.allow_dup = false;
    }
    rec.finish()?;
    Ok(CellDecl {
        name,
        class,
        arity,
        default,
        allowed,
        area,
        input_cap,
        intrinsic_delay,
        drive_resistance,
        flex,
    })
}

fn parse_slot(rec: &mut Rec<'_>, cells: &[CellDecl]) -> Result<SlotDecl, ArchParseError> {
    let class = rec.class()?;
    let (ccol, count) = {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        (col, rec.u16("slot count")?)
    };
    if count == 0 {
        return Err(err(rec.line_no, ccol, "slot count must be >= 1"));
    }
    let (ncol, cell) = {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        (col, rec.name("slot cell")?)
    };
    rec.finish()?;
    let Some(decl) = cells.iter().find(|c| c.name == cell) else {
        return Err(err(rec.line_no, ncol, format!("undeclared cell {cell:?}")));
    };
    if decl.class != class {
        return Err(err(
            rec.line_no,
            ncol,
            format!(
                "slot cell {cell:?} has class {}, slot wants {class}",
                decl.class
            ),
        ));
    }
    Ok(SlotDecl { class, count, cell })
}

fn parse_config(rec: &mut Rec<'_>, cells: &[CellDecl]) -> Result<ConfigDecl, ArchParseError> {
    let name = rec.name("config name")?;
    let (kcol, kind) = rec.word("config shape (single|pair|triple)")?;
    let n_cells = match kind {
        "single" => 1,
        "pair" => 2,
        "triple" => 3,
        other => {
            return Err(err(
                rec.line_no,
                kcol,
                format!("unknown config shape {other:?} (want single|pair|triple)"),
            ))
        }
    };
    let mut shape_cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        let cell = rec.name("config cell")?;
        let Some(decl) = cells.iter().find(|c| c.name == cell) else {
            return Err(err(rec.line_no, col, format!("undeclared cell {cell:?}")));
        };
        if decl.class.is_sequential() {
            return Err(err(
                rec.line_no,
                col,
                format!("config cell {cell:?} is sequential"),
            ));
        }
        shape_cells.push(cell);
    }
    let (fcol, functions) = {
        let col = rec.toks.get(rec.at).map_or(rec.here(), |t| t.col);
        (col, rec.set256("function set")?)
    };
    if functions.is_empty() {
        return Err(err(rec.line_no, fcol, "config function set is empty"));
    }
    let area = rec.f64("config area")?;
    let delay_ps = rec.f64("config delay")?;
    rec.finish()?;
    let mut it = shape_cells.into_iter();
    let shape = match n_cells {
        1 => ShapeDecl::Single {
            cell: it.next().expect("one cell"),
        },
        2 => ShapeDecl::Pair {
            inner: it.next().expect("two cells"),
            outer: it.next().expect("two cells"),
        },
        _ => ShapeDecl::Triple {
            mux: it.next().expect("three cells"),
            gate: it.next().expect("three cells"),
            outer: it.next().expect("three cells"),
        },
    };
    Ok(ConfigDecl {
        name,
        shape,
        functions,
        area,
        delay_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_text() -> String {
        let mut allowed = FunctionSet256::new();
        allowed.insert(Tt3::new(0xca));
        format!(
            "varch 1 t\n\
             cell M MUX 3 ca {hex} 10 1 5 2\n\
             cell D DFF 1 aa {dff} 20 1 9 3\n\
             slot MUX 2 M\n\
             slot DFF 1 D\n\
             config MX single M {hex} 10 5\n\
             area 25 20\n\
             vias 7\n\
             end\n",
            hex = set_hex(&allowed),
            dff = set_hex(&{
                let mut s = FunctionSet256::new();
                s.insert(Tt3::new(0xaa));
                s
            }),
        )
    }

    #[test]
    fn parse_and_encode_fixpoint() {
        let text = tiny_text();
        let d = ArchDescription::parse(&text).unwrap();
        assert_eq!(d.name, "t");
        assert_eq!(d.cells.len(), 2);
        assert_eq!(d.slots.len(), 2);
        assert_eq!(d.configs.len(), 1);
        assert_eq!(d.via_sites, 7);
        let once = d.encode();
        let twice = ArchDescription::parse(&once).unwrap().encode();
        assert_eq!(once, twice, "encode∘parse∘encode must be a byte fixpoint");
        assert_eq!(
            d.fingerprint(),
            ArchDescription::parse(&once).unwrap().fingerprint()
        );
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = format!("# heading\n\n{}\n# trailing comment\n", tiny_text());
        assert!(ArchDescription::parse(&text).is_ok());
    }

    #[test]
    fn errors_are_positioned() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("varch 2 t\n", 1),
            ("varch 1 t\nslot MUX 1 M\n", 2),
            ("varch 1 t\ncell M MUX 9 ca 00 1 1 1 1\n", 2),
        ];
        for (text, line) in cases {
            let e = ArchDescription::parse(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?}: {e}");
            assert!(e.col >= 1);
        }
    }

    #[test]
    fn zero_area_plb_is_rejected_at_its_line() {
        let e = ArchDescription::parse(&tiny_text().replace("area 25 20", "area 0 0")).unwrap_err();
        assert_eq!((e.line, e.col), (7, 1), "{e}");
        assert!(e.to_string().contains("area must be positive"), "{e}");
        // One zero component is fine: the PLB's total area is positive.
        assert!(ArchDescription::parse(&tiny_text().replace("area 25 20", "area 0 20")).is_ok());
    }

    #[test]
    fn flex_tokens_round_trip() {
        let text = tiny_text().replace("10 1 5 2\n", "10 1 5 2 noconst nodup\n");
        let d = ArchDescription::parse(&text).unwrap();
        let m = d.cells.iter().find(|c| c.name == "M").unwrap();
        assert!(!m.flex.allow_const);
        assert!(!m.flex.allow_dup);
        let once = d.encode();
        assert!(once.contains(" noconst nodup\n"));
        assert_eq!(ArchDescription::parse(&once).unwrap(), d);
    }

    #[test]
    fn out_of_order_sections_are_rejected() {
        let text = tiny_text().replace(
            "slot MUX 2 M\n",
            "", // move it after the configs instead
        );
        let text = text.replace("area 25 20\n", "slot MUX 2 M\narea 25 20\n");
        let e = ArchDescription::parse(&text).unwrap_err();
        assert!(e.msg.contains("out of order"), "{e}");
    }
}
