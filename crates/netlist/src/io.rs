//! Structural-Verilog interchange for component-cell netlists.
//!
//! [`write_verilog`] emits a gate-level module in a conservative Verilog
//! subset: one instance per library cell, via configurations carried as a
//! `CFG` parameter, constants as `1'b0`/`1'b1` assigns, and bus-style names
//! (`a[3]`) as escaped identifiers. [`read_verilog`] parses exactly that
//! subset back, so `write → read` is a lossless round trip (checked by
//! tests and usable as an external hand-off format).
//!
//! Pin naming: combinational inputs are `.i0/.i1/.i2` and the output `.y`;
//! the flip-flop uses `.d`/`.q`.

use std::collections::HashMap;
use std::fmt::Write as _;

use vpga_logic::Tt3;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::ids::{CellId, NetId};
use crate::library::Library;
use crate::netlist::Netlist;

/// Serializes the netlist as structural Verilog.
///
/// # Errors
///
/// Returns [`NetlistError`] if the netlist references cells missing from
/// `lib` (validate first).
///
/// # Example
///
/// ```
/// use vpga_netlist::{io, Netlist};
/// use vpga_netlist::library::generic;
///
/// let lib = generic::library();
/// let mut n = Netlist::new("top");
/// let a = n.add_input("a");
/// let g = n.add_lib_cell("g", &lib, "INV", &[a])?;
/// n.add_output("y", g);
/// let text = io::write_verilog(&n, &lib)?;
/// assert!(text.contains("module top"));
/// let back = io::read_verilog(&text, &lib)?;
/// assert_eq!(back.inputs().len(), n.inputs().len());
/// assert_eq!(back.outputs().len(), n.outputs().len());
/// # Ok::<(), vpga_netlist::NetlistError>(())
/// ```
pub fn write_verilog(netlist: &Netlist, lib: &Library) -> Result<String, NetlistError> {
    netlist.validate(lib)?;
    let mut out = String::new();
    let esc = |name: &str| -> String {
        if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            name.to_owned()
        } else {
            format!("\\{name} ")
        }
    };
    // Net naming: ports keep their cell names; internal nets are n<i>.
    let mut net_name: HashMap<NetId, String> = HashMap::new();
    for &pi in netlist.inputs() {
        let cell = netlist.cell(pi).expect("live PI");
        net_name.insert(cell.output().expect("PI net"), esc(netlist.cell_name(pi)));
    }
    let mut ports: Vec<String> = netlist
        .inputs()
        .iter()
        .map(|&pi| esc(netlist.cell_name(pi)))
        .collect();
    ports.extend(
        netlist
            .outputs()
            .iter()
            .map(|&po| esc(netlist.cell_name(po))),
    );
    let _ = writeln!(out, "// vpga structural netlist");
    let _ = writeln!(
        out,
        "module {} ({});",
        esc(netlist.name()),
        ports.join(", ")
    );
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "  input {};", esc(netlist.cell_name(pi)));
    }
    for &po in netlist.outputs() {
        let _ = writeln!(out, "  output {};", esc(netlist.cell_name(po)));
    }
    // Wires for everything else.
    let mut wire_ix = 0usize;
    for net in netlist.nets() {
        if net_name.contains_key(&net) {
            continue;
        }
        let name = format!("n{wire_ix}");
        wire_ix += 1;
        let _ = writeln!(out, "  wire {name};");
        net_name.insert(net, name);
    }
    // Constants.
    for (_, cell) in netlist.cells() {
        if let CellKind::Constant(v) = cell.kind() {
            let net = cell.output().expect("tie net");
            let _ = writeln!(out, "  assign {} = 1'b{};", net_name[&net], u8::from(v));
        }
    }
    // Instances.
    for (id, cell) in netlist.cells() {
        let Some(lib_id) = cell.lib_id() else {
            continue;
        };
        let lc = lib.cell(lib_id).ok_or(NetlistError::UnknownCell(id))?;
        let cfg = cell.config();
        let params = match cfg {
            Some(t) => format!(" #(.CFG(8'h{:02X}))", t.bits()),
            None => String::new(),
        };
        let mut pins: Vec<String> = Vec::new();
        if lc.is_sequential() {
            pins.push(format!(".d({})", net_name[&cell.inputs()[0]]));
            pins.push(format!(".q({})", net_name[&cell.output().expect("Q")]));
        } else {
            for (i, n) in cell.inputs().iter().enumerate() {
                pins.push(format!(".i{i}({})", net_name[n]));
            }
            pins.push(format!(".y({})", net_name[&cell.output().expect("out")]));
        }
        let _ = writeln!(
            out,
            "  {}{} {} ({});",
            lc.name(),
            params,
            esc(netlist.cell_name(id)),
            pins.join(", ")
        );
    }
    // Output connections.
    for &po in netlist.outputs() {
        let cell = netlist.cell(po).expect("live PO");
        let _ = writeln!(
            out,
            "  assign {} = {};",
            esc(netlist.cell_name(po)),
            net_name[&cell.inputs()[0]]
        );
    }
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

/// Parses the subset emitted by [`write_verilog`] back into a netlist.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownLibCell`] for unknown cell types,
/// [`NetlistError::Parse`] (with 1-based line/column) for malformed text,
/// and other [`NetlistError`]s for structurally invalid netlists. The
/// parser never panics, whatever the input: truncated, duplicated, or
/// corrupted text comes back as an `Err`.
pub fn read_verilog(text: &str, lib: &Library) -> Result<Netlist, NetlistError> {
    let perr =
        |line: usize, col: usize, message: String| NetlistError::Parse { line, col, message };
    let mut netlist: Option<Netlist> = None;
    let mut nets: HashMap<String, NetId> = HashMap::new();
    let mut pending_outputs: Vec<(String, usize, usize)> = Vec::new();
    // Instances whose pins may reference nets defined later.
    struct Inst {
        lib_name: String,
        name: String,
        cfg: Option<Tt3>,
        pins: Vec<(String, String)>,
        line: usize,
        col: usize,
    }
    let mut instances: Vec<Inst> = Vec::new();
    let mut assigns: Vec<(String, String, usize, usize)> = Vec::new();
    let mut saw_endmodule = false;
    for (lix, raw) in text.lines().enumerate() {
        let lno = lix + 1;
        let line = raw.trim();
        // Column of the first significant character, 1-based.
        let col = raw.len() - raw.trim_start().len() + 1;
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if line == "endmodule" {
            if netlist.is_none() {
                return Err(perr(lno, col, "endmodule before module header".into()));
            }
            saw_endmodule = true;
            continue;
        }
        if saw_endmodule {
            return Err(perr(lno, col, "statement after endmodule".into()));
        }
        if let Some(rest) = line.strip_prefix("module ") {
            if netlist.is_some() {
                return Err(perr(lno, col, "second module header".into()));
            }
            let name = rest.split_whitespace().next().unwrap_or("top");
            let name = name.trim_start_matches('\\').trim_end_matches('(');
            netlist = Some(Netlist::new(name.trim()));
            continue;
        }
        let n = netlist
            .as_mut()
            .ok_or_else(|| perr(lno, col, "statement before module header".into()))?;
        if let Some(rest) = line.strip_prefix("input ") {
            let name = parse_ident(rest);
            if name.is_empty() {
                return Err(perr(lno, col, "input declaration without a name".into()));
            }
            if n.cell_by_name(&name).is_some() {
                return Err(perr(lno, col, format!("duplicate port name {name:?}")));
            }
            let net = n.add_input(name.clone());
            nets.insert(name, net);
        } else if let Some(rest) = line.strip_prefix("output ") {
            let name = parse_ident(rest);
            if name.is_empty() {
                return Err(perr(lno, col, "output declaration without a name".into()));
            }
            pending_outputs.push((name, lno, col));
        } else if let Some(rest) = line.strip_prefix("wire ") {
            let name = parse_ident(rest);
            // Net created lazily when driven; remember the name.
            let _ = name;
        } else if let Some(rest) = line.strip_prefix("assign ") {
            let (lhs, rhs) = rest
                .split_once('=')
                .ok_or_else(|| perr(lno, col, format!("assign without '=': {line}")))?;
            let lhs = parse_ident(lhs);
            if lhs.is_empty() {
                return Err(perr(lno, col, "assign without a target".into()));
            }
            let rhs = rhs.trim().trim_end_matches(';').trim();
            if let Some(bit) = rhs.strip_prefix("1'b") {
                let value = bit.starts_with('1');
                let net = n.constant(value);
                nets.insert(lhs, net);
            } else {
                let src = parse_ident(rhs);
                if src.is_empty() {
                    return Err(perr(lno, col, "assign without a source".into()));
                }
                assigns.push((lhs, src, lno, col));
            }
        } else {
            // Instance line: CELL [#(.CFG(8'hXX))] name (.pin(net), ...);
            let inst = parse_instance(line)
                .ok_or_else(|| perr(lno, col, format!("malformed instance: {line}")))?;
            instances.push(Inst {
                lib_name: inst.0,
                name: inst.1,
                cfg: inst.2,
                pins: inst.3,
                line: lno,
                col,
            });
        }
    }
    let mut n = netlist.ok_or_else(|| perr(1, 1, "no module header found".into()))?;
    if !saw_endmodule {
        let last = text.lines().count().max(1);
        return Err(perr(last, 1, "missing endmodule".into()));
    }
    // Create instances with placeholder inputs, record their output nets,
    // then rewire (instances may reference each other in any order).
    let placeholder = n.constant(false);
    // (cell, pending (pin, net) rewires, source line, source column)
    type Fixup = (CellId, Vec<(usize, String)>, usize, usize);
    let mut fixups: Vec<Fixup> = Vec::new();
    for inst in &instances {
        let lc = lib
            .cell_by_name(&inst.lib_name)
            .ok_or_else(|| NetlistError::UnknownLibCell(inst.lib_name.clone()))?;
        if inst.name.is_empty() {
            return Err(perr(inst.line, inst.col, "instance without a name".into()));
        }
        let pins = vec![placeholder; lc.arity()];
        let out_net = n.add_lib_cell(inst.name.clone(), lib, &inst.lib_name, &pins)?;
        let cell = n
            .driver(out_net)
            .ok_or_else(|| perr(inst.line, inst.col, "instance output has no driver".into()))?;
        if let Some(cfg) = inst.cfg {
            n.set_config(cell, lib, Some(cfg))?;
        }
        let mut inputs: Vec<(usize, String)> = Vec::new();
        for (pin, net) in &inst.pins {
            if pin == "y" || pin == "q" {
                nets.insert(net.clone(), out_net);
            } else if pin == "d" {
                inputs.push((0, net.clone()));
            } else if let Some(ix) = pin.strip_prefix('i').and_then(|s| s.parse().ok()) {
                inputs.push((ix, net.clone()));
            } else {
                return Err(perr(
                    inst.line,
                    inst.col,
                    format!("unknown pin {pin} on {}", inst.lib_name),
                ));
            }
        }
        fixups.push((cell, inputs, inst.line, inst.col));
    }
    // Every instance input now sits on the placeholder: resolve the nets
    // in statement order and rewire them in one batch, which filters the
    // placeholder's sink list once rather than once per pin.
    let mut rewires: Vec<(CellId, usize, NetId)> = Vec::new();
    for (cell, inputs, lno, col) in fixups {
        for (pin, net_name) in inputs {
            let Some(&net) = nets.get(&net_name) else {
                // An earlier pin's rewire error comes first.
                n.rewire_pins(placeholder, &rewires)?;
                return Err(perr(lno, col, format!("undriven net {net_name:?}")));
            };
            rewires.push((cell, pin, net));
        }
    }
    n.rewire_pins(placeholder, &rewires)?;
    let mut sources: HashMap<String, String> = HashMap::new(); // port → source net
    for (port, src, lno, col) in assigns {
        if sources.contains_key(&port) {
            return Err(perr(lno, col, format!("duplicate assign to {port:?}")));
        }
        sources.insert(port, src);
    }
    for (port, lno, col) in pending_outputs {
        let src = sources
            .get(&port)
            .ok_or_else(|| perr(lno, col, format!("output {port:?} never assigned")))?;
        let net = *nets
            .get(src)
            .ok_or_else(|| perr(lno, col, format!("undriven net {src:?}")))?;
        if n.cell_by_name(&port).is_some() {
            return Err(perr(lno, col, format!("duplicate port name {port:?}")));
        }
        n.add_output(port, net);
    }
    n.validate(lib)?;
    Ok(n)
}

/// Extracts the first (possibly escaped) identifier from a fragment.
fn parse_ident(s: &str) -> String {
    let s = s.trim().trim_end_matches(';').trim();
    if let Some(rest) = s.strip_prefix('\\') {
        // Escaped identifier: up to the next whitespace.
        rest.split_whitespace().next().unwrap_or("").to_owned()
    } else {
        s.split(|c: char| c.is_whitespace() || c == ',' || c == ';')
            .next()
            .unwrap_or("")
            .to_owned()
    }
}

type ParsedInstance = (String, String, Option<Tt3>, Vec<(String, String)>);

fn parse_instance(line: &str) -> Option<ParsedInstance> {
    let line = line.trim().trim_end_matches(';');
    let (head, pins_part) = line.split_once('(')?;
    // head: CELL [#(.CFG(8'hXX))] name   — but '(' split may have cut into
    // the parameter list; handle by locating the *last* '(' block.
    let (head, pins_part) = if head.contains('#') && !head.contains("))") {
        // The split hit the parameter '('; re-split after the parameter.
        let param_end = line.find("))")? + 2;
        let (h, rest) = line.split_at(param_end);
        let rest = rest.trim();
        let (name, pins) = rest.split_once('(')?;
        (format!("{h} {name}"), pins.to_owned())
    } else {
        (head.to_owned(), pins_part.to_owned())
    };
    let mut cfg = None;
    let mut head_clean = head.clone();
    if let Some(ix) = head.find("#(.CFG(8'h") {
        // `get` rather than slicing: a truncated parameter must fail the
        // parse, not abort the process.
        let hex = head.get(ix + 10..ix + 12)?;
        cfg = Some(Tt3::new(u8::from_str_radix(hex, 16).ok()?));
        head_clean = format!(
            "{} {}",
            &head[..ix],
            head.get(ix..)
                .and_then(|t| t.split_once("))"))
                .map(|(_, r)| r)?
        );
    }
    let mut words = head_clean.split_whitespace();
    let lib_name = words.next()?.to_owned();
    let raw_name = words.collect::<Vec<_>>().join(" ");
    let name = parse_ident(&raw_name);
    let pins_str = pins_part.trim_end_matches(')');
    let mut pins = Vec::new();
    for part in pins_str.split("),") {
        let part = part.trim().trim_start_matches('.');
        let (pin, net) = part.split_once('(')?;
        pins.push((
            pin.trim().to_owned(),
            parse_ident(net.trim_end_matches(')')),
        ));
    }
    Some((lib_name, name, cfg, pins))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::generic;

    fn sample() -> (Netlist, Library) {
        let lib = generic::library();
        let mut n = Netlist::new("top");
        let a = n.add_input("a[0]");
        let b = n.add_input("b");
        let one = n.constant(true);
        let g = n.add_lib_cell("g1", &lib, "XOR2", &[a, b]).unwrap();
        let h = n.add_lib_cell("g2", &lib, "AND2", &[g, one]).unwrap();
        let q = n.add_lib_cell("ff", &lib, "DFF", &[h]).unwrap();
        n.add_output("y", q);
        n.add_output("mid", g);
        (n, lib)
    }

    #[test]
    fn write_emits_module_structure() {
        let (n, lib) = sample();
        let text = write_verilog(&n, &lib).unwrap();
        assert!(text.contains("module top"));
        assert!(text.contains("input \\a[0] "));
        assert!(text.contains("XOR2"));
        assert!(text.contains("DFF"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn roundtrip_preserves_function() {
        let (n, lib) = sample();
        let text = write_verilog(&n, &lib).unwrap();
        let back = read_verilog(&text, &lib).unwrap();
        assert_eq!(back.inputs().len(), n.inputs().len());
        assert_eq!(back.outputs().len(), n.outputs().len());
        let vectors: Vec<Vec<bool>> = (0..4u8)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1])
            .collect();
        let div = crate::sim::first_divergence(&n, &lib, &back, &lib, &vectors).unwrap();
        assert_eq!(div, None);
    }

    #[test]
    fn roundtrip_preserves_via_configs() {
        use vpga_logic::FunctionSet256;
        use vpga_logic::Var;
        let mut lib = Library::new("prog");
        lib.add(crate::library::LibCell::new_programmable(
            "LUT3",
            crate::library::CellClass::Lut3,
            3,
            vpga_logic::Tt3::FALSE,
            FunctionSet256::full(),
            100.0,
            1.0,
            100.0,
            10.0,
        ))
        .unwrap();
        let mut n = Netlist::new("cfg");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let y = n.add_lib_cell("l", &lib, "LUT3", &[a, b, c]).unwrap();
        let cell = n.driver(y).unwrap();
        n.set_config(cell, &lib, Some(vpga_logic::Tt3::MAJ3))
            .unwrap();
        n.add_output("y", y);
        let _ = Var::A;
        let text = write_verilog(&n, &lib).unwrap();
        assert!(text.contains("8'hE8"), "{text}");
        let back = read_verilog(&text, &lib).unwrap();
        let lcell = back.cell_by_name("l").unwrap();
        assert_eq!(
            back.instance_function(lcell, &lib),
            Some(vpga_logic::Tt3::MAJ3)
        );
    }

    #[test]
    fn roundtrip_a_mapped_design() {
        use vpga_logic::Tt3;
        let _ = Tt3::FALSE;
        // A netlist with feedback through a DFF (toggle).
        let lib = generic::library();
        let mut n = Netlist::new("toggle");
        let seed = n.add_input("seed");
        let q = n.add_lib_cell("ff", &lib, "DFF", &[seed]).unwrap();
        let d = n.add_lib_cell("inv", &lib, "INV", &[q]).unwrap();
        let ff = n.cell_by_name("ff").unwrap();
        n.connect_pin(ff, 0, d).unwrap();
        n.add_output("q", q);
        let text = write_verilog(&n, &lib).unwrap();
        let back = read_verilog(&text, &lib).unwrap();
        let vectors = vec![vec![false]; 6];
        let div = crate::sim::first_divergence(&n, &lib, &back, &lib, &vectors).unwrap();
        assert_eq!(div, None);
    }

    /// Reads `body` wrapped in a module with inputs `a`, `b`.
    fn read(ports: &str, body: &str) -> Result<Netlist, NetlistError> {
        let text = format!("module t (a, b, {ports});\n  input a;\n  input b;\n{body}endmodule\n");
        read_verilog(&text, &generic::library())
    }

    /// The `(cell name, pin)` sinks of the net `driver` drives, in order.
    fn sinks_of(n: &Netlist, driver: &str) -> Vec<(String, usize)> {
        let cell = n.cell_by_name(driver).expect("driver exists");
        let net = n.cell(cell).and_then(|c| c.output()).expect("driver net");
        n.sinks(net)
            .iter()
            .map(|&(c, p)| (n.cell_name(c).to_owned(), p))
            .collect()
    }

    fn pins(list: &[(&str, usize)]) -> Vec<(String, usize)> {
        list.iter().map(|&(c, p)| (c.to_owned(), p)).collect()
    }

    #[test]
    fn a_pin_listed_twice_takes_its_last_net() {
        let n = read(
            "y",
            "  output y;\n  NAND2 g0 (.i0(a), .i1(b), .i0(b), .y(n0));\n  assign y = n0;\n",
        )
        .unwrap();
        assert_eq!(sinks_of(&n, "a"), pins(&[]));
        assert_eq!(sinks_of(&n, "b"), pins(&[("g0", 1), ("g0", 0)]));
        assert_eq!(sinks_of(&n, "_tie0"), pins(&[]));
        assert_eq!(sinks_of(&n, "g0"), pins(&[("y", 0)]));
    }

    #[test]
    fn an_unlisted_pin_stays_on_the_tie_net() {
        let n = read(
            "y",
            "  output y;\n  NAND2 g0 (.i1(a), .y(n0));\n  INV g1 (.i0(n0), .y(n1));\n  \
             AND2 g2 (.i0(a), .i1(n1), .y(n2));\n  assign y = n2;\n",
        )
        .unwrap();
        assert_eq!(sinks_of(&n, "_tie0"), pins(&[("g0", 0)]));
        assert_eq!(sinks_of(&n, "a"), pins(&[("g0", 1), ("g2", 0)]));
        assert_eq!(sinks_of(&n, "g0"), pins(&[("g1", 0)]));
        assert_eq!(sinks_of(&n, "g1"), pins(&[("g2", 1)]));
        assert_eq!(sinks_of(&n, "g2"), pins(&[("y", 0)]));
    }

    #[test]
    fn a_constant_assign_feeds_instances_through_the_tie_net() {
        // `w` is the tie net the instances are seated on: pins rewired
        // onto it move to the end of its sinks, in statement order.
        let n = read(
            "y, z",
            "  output y;\n  output z;\n  assign w = 1'b0;\n  AND2 g0 (.i0(w), .i1(a), .y(n0));\n  \
             XOR2 g1 (.i0(a), .i1(w), .y(n1));\n  assign y = n0;\n  assign z = w;\n",
        )
        .unwrap();
        assert_eq!(
            sinks_of(&n, "_tie0"),
            pins(&[("g0", 0), ("g1", 1), ("z", 0)])
        );
        assert_eq!(sinks_of(&n, "a"), pins(&[("g0", 1), ("g1", 0)]));
        assert_eq!(sinks_of(&n, "g1"), pins(&[]));
    }

    #[test]
    fn forward_references_resolve_in_statement_order() {
        let n = read(
            "y, q",
            "  output y;\n  output q;\n  INV g0 (.i0(n1), .y(n0));\n  AND2 g1 (.i0(b), .i1(q0), .y(n1));\n  \
             DFF ff (.d(n0), .q(q0));\n  assign y = n0;\n  assign q = q0;\n",
        )
        .unwrap();
        assert_eq!(sinks_of(&n, "g1"), pins(&[("g0", 0)]));
        assert_eq!(sinks_of(&n, "g0"), pins(&[("ff", 0), ("y", 0)]));
        assert_eq!(sinks_of(&n, "ff"), pins(&[("g1", 1), ("q", 0)]));
        assert_eq!(sinks_of(&n, "b"), pins(&[("g1", 0)]));
        assert_eq!(sinks_of(&n, "_tie0"), pins(&[]));
    }

    #[test]
    fn one_net_drives_outputs_in_declaration_order() {
        let n = read(
            "y0, y1, y2",
            "  output y0;\n  output y1;\n  output y2;\n  INV g0 (.i0(a), .y(n0));\n  \
             BUF g1 (.i0(n0), .y(n1));\n  assign y2 = n0;\n  assign y0 = n0;\n  assign y1 = a;\n",
        )
        .unwrap();
        assert_eq!(sinks_of(&n, "g0"), pins(&[("g1", 0), ("y0", 0), ("y2", 0)]));
        assert_eq!(sinks_of(&n, "a"), pins(&[("g0", 0), ("y1", 0)]));
        assert_eq!(
            n.outputs()
                .iter()
                .map(|&o| n.cell_name(o))
                .collect::<Vec<_>>(),
            ["y0", "y1", "y2"]
        );
    }

    #[test]
    fn malformed_text_reports_the_first_error_in_statement_order() {
        let parse = |line, col, message: &str| NetlistError::Parse {
            line,
            col,
            message: message.to_owned(),
        };
        // An undriven net before a bad pin index: the net is reported.
        let undriven = "  output y;\n  INV g0 (.i0(a), .y(n0));\n  INV g1 (.i0(nx), .y(n1));\n  \
                        INV g2 (.i7(a), .y(n2));\n  assign y = n1;\n";
        assert_eq!(
            read("y", undriven).unwrap_err(),
            parse(6, 3, "undriven net \"nx\"")
        );
        // A bad pin index before an undriven net: the pin is reported.
        let bad_pin = "  output y;\n  INV g0 (.i0(a), .y(n0));\n  INV g2 (.i7(a), .y(n2));\n  \
                       INV g1 (.i0(nx), .y(n1));\n  assign y = n1;\n";
        assert_eq!(
            read("y", bad_pin).unwrap_err(),
            NetlistError::PinCountMismatch {
                cell: "g2".into(),
                got: 7,
                expected: 1,
            }
        );
        let twice =
            "  output y;\n  INV g0 (.i0(a), .y(n0));\n  assign y = n0;\n    assign y = a;\n";
        assert_eq!(
            read("y", twice).unwrap_err(),
            parse(7, 5, "duplicate assign to \"y\"")
        );
        let unassigned = "  output y;\n  output z;\n  INV g0 (.i0(a), .y(n0));\n  assign y = n0;\n";
        assert_eq!(
            read("y, z", unassigned).unwrap_err(),
            parse(5, 3, "output \"z\" never assigned")
        );
    }

    #[test]
    fn unknown_cells_are_reported() {
        let lib = generic::library();
        let text = "module t (y);\n  output y;\n  BOGUS g (.i0(a), .y(n0));\n  assign y = n0;\nendmodule\n";
        assert!(matches!(
            read_verilog(text, &lib),
            Err(NetlistError::UnknownLibCell(_))
        ));
    }
}
