//! SDF 3.0 timing export: writer and parser for the subset the flow
//! emits.
//!
//! The emitted file is a standard `DELAYFILE`: a header (design, vendor,
//! program, version, divider, timescale), one top-scope `CELL` holding an
//! `INTERCONNECT` entry per (driver pin → sink pin) connection with the
//! net's lumped wire delay, and one `CELL` per library cell instance with
//! an `IOPATH` entry per input pin carrying the cell's load-dependent
//! delay. Delay values are written via Rust's shortest-round-trip `f64`
//! formatting and parsed back with `str::parse`, so a re-parsed value is
//! bit-identical to the [`vpga_timing::ArcDelays`] source — the
//! round-trip suites compare them with `to_bits`, not a tolerance.
//!
//! Pin naming follows the structural-Verilog writer: combinational
//! inputs are `i0/i1/i2` and the output `y`; the flip-flop uses `d` and
//! `q` (the model's clock→q launch delay is annotated on the `d`→`q`
//! arc, as the clock network is implicit). Top-level ports appear as
//! bare port names.

use std::fmt::Write as _;

use vpga_netlist::library::Library;
use vpga_netlist::CellKind;
use vpga_netlist::{CellId, Netlist};
use vpga_timing::ArcDelays;

use crate::InterchangeError;

/// One annotated delay arc: `from` → `to` pin paths and the delay value.
#[derive(Clone, Debug, PartialEq)]
pub struct SdfArc {
    /// Source pin path (`inst/pin` or a bare top-level port).
    pub from: String,
    /// Destination pin path.
    pub to: String,
    /// The delay, in the header's timescale units.
    pub delay: f64,
}

/// One `(CELL ...)` record.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SdfCell {
    /// The `CELLTYPE` string.
    pub celltype: String,
    /// The `INSTANCE` path; empty for the top scope.
    pub instance: String,
    /// `INTERCONNECT` entries (wire delays).
    pub interconnects: Vec<SdfArc>,
    /// `IOPATH` entries (cell delays).
    pub iopaths: Vec<SdfArc>,
}

/// A parsed (or to-be-written) SDF delay file.
#[derive(Clone, Debug, PartialEq)]
pub struct SdfFile {
    /// The `DESIGN` header string.
    pub design: String,
    /// The `VENDOR` header string.
    pub vendor: String,
    /// The `PROGRAM` header string.
    pub program: String,
    /// The `VERSION` header string (the flow stores `arch/variant`
    /// fabric metadata here).
    pub version: String,
    /// The `TIMESCALE` atom, e.g. `1ps`.
    pub timescale: String,
    /// The cell records, top scope first when present.
    pub cells: Vec<SdfCell>,
}

impl SdfFile {
    /// Builds the SDF annotation of `netlist` from the exact per-arc
    /// delays the STA used ([`vpga_timing::arc_delays`]).
    /// `version` carries free-form fabric metadata (the flow passes
    /// `arch/variant`).
    pub fn from_timing(
        netlist: &Netlist,
        lib: &Library,
        arcs: &ArcDelays,
        version: &str,
    ) -> SdfFile {
        let is_seq = |id: CellId| -> bool {
            netlist
                .cell(id)
                .and_then(|c| c.lib_id())
                .and_then(|l| lib.cell(l))
                .is_some_and(|c| c.is_sequential())
        };
        let driver_path = |id: CellId| -> String {
            let cell = netlist.cell(id).expect("live driver");
            match cell.kind() {
                CellKind::Lib(_) => {
                    let pin = if is_seq(id) { "q" } else { "y" };
                    format!("{}/{pin}", netlist.cell_name(id))
                }
                _ => netlist.cell_name(id).to_owned(),
            }
        };
        let sink_path = |id: CellId, pin: usize| -> String {
            let cell = netlist.cell(id).expect("live sink");
            match cell.kind() {
                CellKind::Lib(_) => {
                    if is_seq(id) {
                        format!("{}/d", netlist.cell_name(id))
                    } else {
                        format!("{}/i{pin}", netlist.cell_name(id))
                    }
                }
                _ => netlist.cell_name(id).to_owned(),
            }
        };
        let mut top = SdfCell {
            celltype: netlist.name().to_owned(),
            instance: String::new(),
            ..SdfCell::default()
        };
        for net in netlist.nets() {
            let (Some(driver), Some(delay)) = (netlist.driver(net), arcs.net(net.index())) else {
                continue;
            };
            let from = driver_path(driver);
            for &(sink, pin) in netlist.sinks(net) {
                top.interconnects.push(SdfArc {
                    from: from.clone(),
                    to: sink_path(sink, pin),
                    delay,
                });
            }
        }
        let mut cells = vec![top];
        for (id, cell) in netlist.cells() {
            let (CellKind::Lib(lid), Some(delay)) = (cell.kind(), arcs.cell(id.index())) else {
                continue;
            };
            let celltype = lib.cell(lid).map_or("?", |c| c.name()).to_owned();
            let mut rec = SdfCell {
                celltype,
                instance: netlist.cell_name(id).to_owned(),
                ..SdfCell::default()
            };
            if is_seq(id) {
                rec.iopaths.push(SdfArc {
                    from: "d".to_owned(),
                    to: "q".to_owned(),
                    delay,
                });
            } else {
                for pin in 0..cell.inputs().len() {
                    rec.iopaths.push(SdfArc {
                        from: format!("i{pin}"),
                        to: "y".to_owned(),
                        delay,
                    });
                }
            }
            cells.push(rec);
        }
        SdfFile {
            design: netlist.name().to_owned(),
            vendor: "vpga".to_owned(),
            program: "vpga".to_owned(),
            version: version.to_owned(),
            timescale: "1ps".to_owned(),
            cells,
        }
    }

    /// Renders the file in the writer's canonical layout (the layout
    /// [`parse`] fixpoints on).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let q = quote;
        let _ = writeln!(out, "(DELAYFILE");
        let _ = writeln!(out, "  (SDFVERSION \"3.0\")");
        let _ = writeln!(out, "  (DESIGN {})", q(&self.design));
        let _ = writeln!(out, "  (VENDOR {})", q(&self.vendor));
        let _ = writeln!(out, "  (PROGRAM {})", q(&self.program));
        let _ = writeln!(out, "  (VERSION {})", q(&self.version));
        let _ = writeln!(out, "  (DIVIDER /)");
        let _ = writeln!(out, "  (TIMESCALE {})", self.timescale);
        for cell in &self.cells {
            let _ = writeln!(out, "  (CELL");
            let _ = writeln!(out, "    (CELLTYPE {})", q(&cell.celltype));
            if cell.instance.is_empty() {
                let _ = writeln!(out, "    (INSTANCE)");
            } else {
                let _ = writeln!(out, "    (INSTANCE {})", cell.instance);
            }
            let _ = writeln!(out, "    (DELAY");
            let _ = writeln!(out, "      (ABSOLUTE");
            for arc in &cell.interconnects {
                let _ = writeln!(
                    out,
                    "        (INTERCONNECT {} {} ({}))",
                    arc.from, arc.to, arc.delay
                );
            }
            for arc in &cell.iopaths {
                let _ = writeln!(
                    out,
                    "        (IOPATH {} {} ({}))",
                    arc.from, arc.to, arc.delay
                );
            }
            let _ = writeln!(out, "      )");
            let _ = writeln!(out, "    )");
            let _ = writeln!(out, "  )");
        }
        let _ = writeln!(out, ")");
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    LParen,
    RParen,
    Atom(String),
    Str(String),
}

struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

fn err(line: usize, col: usize, msg: impl Into<String>) -> InterchangeError {
    InterchangeError::Parse {
        line,
        col,
        msg: msg.into(),
    }
}

fn lex(text: &str) -> Result<Vec<Token>, InterchangeError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (tline, tcol) = (line, col);
        let bump = |c: char, line: &mut usize, col: &mut usize| {
            if c == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        };
        match c {
            c if c.is_whitespace() => {
                chars.next();
                bump(c, &mut line, &mut col);
            }
            '(' => {
                chars.next();
                col += 1;
                toks.push(Token {
                    tok: Tok::LParen,
                    line: tline,
                    col: tcol,
                });
            }
            ')' => {
                chars.next();
                col += 1;
                toks.push(Token {
                    tok: Tok::RParen,
                    line: tline,
                    col: tcol,
                });
            }
            '"' => {
                chars.next();
                col += 1;
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err(err(tline, tcol, "unterminated string")),
                        Some('"') => {
                            col += 1;
                            break;
                        }
                        Some('\\') => {
                            col += 1;
                            match chars.next() {
                                Some('"') => {
                                    s.push('"');
                                    col += 1;
                                }
                                Some('\\') => {
                                    s.push('\\');
                                    col += 1;
                                }
                                other => {
                                    return Err(err(
                                        line,
                                        col,
                                        format!("bad string escape {other:?}"),
                                    ))
                                }
                            }
                        }
                        Some(c) => {
                            bump(c, &mut line, &mut col);
                            s.push(c);
                        }
                    }
                }
                toks.push(Token {
                    tok: Tok::Str(s),
                    line: tline,
                    col: tcol,
                });
            }
            _ => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == '"' {
                        break;
                    }
                    chars.next();
                    col += 1;
                    s.push(c);
                }
                toks.push(Token {
                    tok: Tok::Atom(s),
                    line: tline,
                    col: tcol,
                });
            }
        }
    }
    Ok(toks)
}

struct Cursor {
    toks: Vec<Token>,
    at: usize,
    end_line: usize,
}

impl Cursor {
    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.at)
            .map_or((self.end_line, 1), |t| (t.line, t.col))
    }

    fn next(&mut self, what: &str) -> Result<Tok, InterchangeError> {
        let (line, col) = self.here();
        match self.toks.get(self.at) {
            Some(t) => {
                self.at += 1;
                Ok(t.tok.clone())
            }
            None => Err(err(
                line,
                col,
                format!("expected {what}, found end of file"),
            )),
        }
    }

    fn lparen(&mut self) -> Result<(), InterchangeError> {
        let (line, col) = self.here();
        match self.next("'('")? {
            Tok::LParen => Ok(()),
            t => Err(err(line, col, format!("expected '(', found {t:?}"))),
        }
    }

    fn rparen(&mut self) -> Result<(), InterchangeError> {
        let (line, col) = self.here();
        match self.next("')'")? {
            Tok::RParen => Ok(()),
            t => Err(err(line, col, format!("expected ')', found {t:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), InterchangeError> {
        let (line, col) = self.here();
        match self.next(kw)? {
            Tok::Atom(ref a) if a == kw => Ok(()),
            t => Err(err(line, col, format!("expected {kw}, found {t:?}"))),
        }
    }

    fn atom(&mut self, what: &str) -> Result<String, InterchangeError> {
        let (line, col) = self.here();
        match self.next(what)? {
            Tok::Atom(a) => Ok(a),
            t => Err(err(line, col, format!("expected {what}, found {t:?}"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, InterchangeError> {
        let (line, col) = self.here();
        match self.next(what)? {
            Tok::Str(s) => Ok(s),
            t => Err(err(
                line,
                col,
                format!("expected quoted {what}, found {t:?}"),
            )),
        }
    }

    /// `(KW "value")`
    fn header_str(&mut self, kw: &str) -> Result<String, InterchangeError> {
        self.lparen()?;
        self.keyword(kw)?;
        let v = self.string(kw)?;
        self.rparen()?;
        Ok(v)
    }

    fn f64(&mut self, what: &str) -> Result<f64, InterchangeError> {
        let (line, col) = self.here();
        let a = self.atom(what)?;
        a.parse::<f64>()
            .map_err(|_| err(line, col, format!("bad {what} value {a:?}")))
    }
}

/// Parses the writer's SDF subset back into an [`SdfFile`].
///
/// # Errors
///
/// A positioned [`InterchangeError::Parse`] on any malformed input —
/// truncated, corrupted, or outside the emitted subset. Never panics.
pub fn parse(text: &str) -> Result<SdfFile, InterchangeError> {
    let toks = lex(text)?;
    let end_line = text.lines().count().max(1);
    let mut c = Cursor {
        toks,
        at: 0,
        end_line,
    };
    c.lparen()?;
    c.keyword("DELAYFILE")?;
    c.lparen()?;
    c.keyword("SDFVERSION")?;
    let (line, col) = c.here();
    let v = c.string("SDFVERSION")?;
    if v != "3.0" {
        return Err(err(line, col, format!("unsupported SDF version {v:?}")));
    }
    c.rparen()?;
    let design = c.header_str("DESIGN")?;
    let vendor = c.header_str("VENDOR")?;
    let program = c.header_str("PROGRAM")?;
    let version = c.header_str("VERSION")?;
    c.lparen()?;
    c.keyword("DIVIDER")?;
    let (line, col) = c.here();
    let div = c.atom("DIVIDER")?;
    if div != "/" {
        return Err(err(line, col, format!("unsupported divider {div:?}")));
    }
    c.rparen()?;
    c.lparen()?;
    c.keyword("TIMESCALE")?;
    let timescale = c.atom("TIMESCALE")?;
    c.rparen()?;
    let mut cells = Vec::new();
    loop {
        // Either another `(CELL ...)` or the closing paren of DELAYFILE.
        let (line, col) = c.here();
        match c.next("'(' or ')'")? {
            Tok::RParen => break,
            Tok::LParen => {}
            t => return Err(err(line, col, format!("expected '(' or ')', found {t:?}"))),
        }
        c.keyword("CELL")?;
        c.lparen()?;
        c.keyword("CELLTYPE")?;
        let celltype = c.string("CELLTYPE")?;
        c.rparen()?;
        c.lparen()?;
        c.keyword("INSTANCE")?;
        let (line, col) = c.here();
        let instance = match c.next("instance path or ')'")? {
            Tok::RParen => String::new(),
            Tok::Atom(a) => {
                c.rparen()?;
                a
            }
            t => {
                return Err(err(
                    line,
                    col,
                    format!("expected instance path or ')', found {t:?}"),
                ))
            }
        };
        c.lparen()?;
        c.keyword("DELAY")?;
        c.lparen()?;
        c.keyword("ABSOLUTE")?;
        let mut cell = SdfCell {
            celltype,
            instance,
            ..SdfCell::default()
        };
        loop {
            let (line, col) = c.here();
            match c.next("'(' or ')'")? {
                Tok::RParen => break,
                Tok::LParen => {}
                t => return Err(err(line, col, format!("expected '(' or ')', found {t:?}"))),
            }
            let (line, col) = c.here();
            let kind = c.atom("IOPATH or INTERCONNECT")?;
            let from = c.atom("source pin")?;
            let to = c.atom("destination pin")?;
            c.lparen()?;
            let delay = c.f64("delay")?;
            c.rparen()?;
            c.rparen()?;
            let arc = SdfArc { from, to, delay };
            match kind.as_str() {
                "IOPATH" => cell.iopaths.push(arc),
                "INTERCONNECT" => cell.interconnects.push(arc),
                other => {
                    return Err(err(
                        line,
                        col,
                        format!("expected IOPATH or INTERCONNECT, found {other:?}"),
                    ))
                }
            }
        }
        c.rparen()?; // DELAY
        c.rparen()?; // CELL
        cells.push(cell);
    }
    if let Some(t) = c.toks.get(c.at) {
        return Err(err(t.line, t.col, "trailing input after DELAYFILE"));
    }
    Ok(SdfFile {
        design,
        vendor,
        program,
        version,
        timescale,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SdfFile {
        SdfFile {
            design: "t".to_owned(),
            vendor: "vpga".to_owned(),
            program: "vpga".to_owned(),
            version: "granular/a".to_owned(),
            timescale: "1ps".to_owned(),
            cells: vec![
                SdfCell {
                    celltype: "t".to_owned(),
                    instance: String::new(),
                    interconnects: vec![SdfArc {
                        from: "a".to_owned(),
                        to: "g/i0".to_owned(),
                        delay: 0.125,
                    }],
                    iopaths: Vec::new(),
                },
                SdfCell {
                    celltype: "NAND2".to_owned(),
                    instance: "g".to_owned(),
                    interconnects: Vec::new(),
                    iopaths: vec![SdfArc {
                        from: "i0".to_owned(),
                        to: "y".to_owned(),
                        delay: 17.25,
                    }],
                },
            ],
        }
    }

    #[test]
    fn write_parse_is_identity_and_fixpoint() {
        let f = sample();
        let text = f.to_text();
        let back = parse(&text).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn errors_are_positioned() {
        let text = sample().to_text();
        let truncated = &text[..text.len() / 2];
        match parse(truncated) {
            Err(InterchangeError::Parse { line, .. }) => assert!(line >= 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse("").is_err());
        assert!(parse("(DELAYFILE").is_err());
        assert!(parse(&format!("{text})")).is_err());
    }
}
