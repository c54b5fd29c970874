//! Round-trip property suite for the interchange codecs.
//!
//! Locks down the two contracts the formats exist for:
//!
//! * `.vxdl`: `encode → parse → encode` is a fixpoint on the emitted
//!   text, and the parsed-back netlist + placement fingerprint equals
//!   the original's (bit-identical snapshots).
//! * SDF: the emitted annotation re-parses with every delay exactly
//!   equal (`f64` bit patterns) to the [`vpga::timing::arc_delays`] it
//!   was built from.
//!
//! Plus the corruption half: truncated, line-shuffled, or token-spliced
//! artifacts must produce positioned parse errors, never panics — the
//! same contract `tests/parser_robustness.rs` enforces for the Verilog
//! reader. The golden tests pin the exact bytes the flow emits for the
//! tiny ALU so any codec or delay-model drift is a visible diff
//! (regenerate with `VPGA_BLESS_GOLDENS=1 cargo test golden`).

use proptest::prelude::*;
use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{run_design, EmitConfig, FlowConfig};
use vpga::interchange::{sdf, snapshot_fingerprint, vxdl, InterchangeError};
use vpga::netlist::library::generic;
use vpga::netlist::{NetId, Netlist};
use vpga::place::Placement;
use vpga::timing::arc_delays;

/// Strategy: a random netlist over the generic library, including
/// flip-flops so the SDF writer's sequential (`d -> q`) arcs are
/// exercised alongside the combinational `i<k> -> y` ones.
fn arbitrary_netlist() -> impl Strategy<Value = Netlist> {
    let gate_names = prop::sample::select(vec![
        "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2", "MAJ3", "XOR3", "AOI21", "INV",
        "DFF",
    ]);
    (
        2usize..5,
        prop::collection::vec((gate_names, any::<u64>()), 3..30),
    )
        .prop_map(|(n_inputs, gates)| {
            let lib = generic::library();
            let mut n = Netlist::new("random");
            let mut nets: Vec<NetId> = (0..n_inputs)
                .map(|i| n.add_input(format!("i{i}")))
                .collect();
            for (ix, (gate, seed)) in gates.into_iter().enumerate() {
                let arity = lib.cell_by_name(gate).unwrap().arity();
                let pins: Vec<NetId> = (0..arity)
                    .map(|k| nets[(seed as usize + k * 7919) % nets.len()])
                    .collect();
                let out = n
                    .add_lib_cell(format!("g{ix}"), &lib, gate, &pins)
                    .expect("valid gate");
                nets.push(out);
            }
            n.add_output("y", *nets.last().unwrap());
            n.add_output("z", nets[nets.len() / 2]);
            n
        })
}

/// Strategy: a netlist plus an initial placement at a varying utilization
/// (different utilizations give different die sizes and coordinates).
fn netlist_and_placement() -> impl Strategy<Value = (Netlist, Placement)> {
    (arbitrary_netlist(), 3u32..9).prop_map(|(n, util)| {
        let lib = generic::library();
        let p = Placement::initial(&n, &lib, f64::from(util) / 10.0);
        (n, p)
    })
}

/// Deterministic pseudo-routes for a subset of the nets (the codec
/// carries routes as plain data, so any segment lists will do).
fn pseudo_routes(n: &Netlist, seed: u64) -> Vec<(u32, Vec<vxdl::Seg>)> {
    n.nets()
        .filter(|id| (id.index() as u64).wrapping_add(seed).is_multiple_of(3))
        .map(|id| {
            let k = id.index();
            (
                id.index() as u32,
                vec![((k, k), (k, k + 1)), ((k, k + 1), (k + 1, k + 1))],
            )
        })
        .collect()
}

/// Largest char boundary of `s` at or below `i` (truncation must not
/// split a UTF-8 sequence just to build the test input).
fn char_floor(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A parse failure must be positioned inside the text it points at.
fn assert_positioned(err: &InterchangeError, text: &str) {
    if let InterchangeError::Parse { line, col, .. } = err {
        assert!(*line >= 1 && *col >= 1, "positions are 1-based: {err}");
        let offset = err.byte_offset(text).expect("parse errors are positioned");
        assert!(
            offset <= text.len(),
            "offset {offset} past end of {} bytes",
            text.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `.vxdl` encode → parse → encode is a fixpoint, the parse-back
    /// fingerprint equals the original's, and routes survive verbatim.
    #[test]
    fn vxdl_encode_parse_encode_is_a_fixpoint(
        pair in netlist_and_placement(),
        seed in 0u64..1000,
    ) {
        let (netlist, placement) = pair;
        let routes = pseudo_routes(&netlist, seed);
        let text = vxdl::encode(&netlist, &placement, &routes);
        let doc = vxdl::parse(&text).expect("emitted text parses");
        prop_assert_eq!(
            vxdl::encode(&doc.netlist, &doc.placement, &doc.routes),
            text.clone(),
            "encode-parse-encode must be the identity"
        );
        prop_assert_eq!(doc.routes, routes);
        prop_assert_eq!(
            snapshot_fingerprint(&doc.netlist, &doc.placement),
            snapshot_fingerprint(&netlist, &placement),
            "parse-back snapshot fingerprint differs"
        );
    }

    /// The SDF annotation re-parses to exactly the structure built from
    /// the STA's arc delays: every IOPATH / INTERCONNECT delay equal down
    /// to the `f64` bit pattern, and re-emission is a fixpoint.
    #[test]
    fn sdf_round_trip_is_delay_exact(pair in netlist_and_placement()) {
        let (netlist, placement) = pair;
        let lib = generic::library();
        let arcs = arc_delays(&netlist, &lib, &placement, None);
        let file = sdf::SdfFile::from_timing(&netlist, &lib, &arcs, "test/fixture");
        let text = file.to_text();
        let parsed = sdf::parse(&text).expect("emitted SDF parses");
        prop_assert_eq!(&parsed, &file, "parsed SDF differs from source");
        prop_assert_eq!(parsed.to_text(), text, "SDF re-emission is not a fixpoint");
        for cell in &file.cells {
            for arc in cell.iopaths.iter().chain(&cell.interconnects) {
                prop_assert!(arc.delay.is_finite(), "non-finite delay in {}", cell.instance);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a `.vxdl` file anywhere yields a positioned error (or,
    /// at a record boundary, possibly a clean parse) — never a panic.
    #[test]
    fn vxdl_truncation_never_panics(
        pair in netlist_and_placement(),
        frac in 0u32..100,
    ) {
        let (netlist, placement) = pair;
        let text = vxdl::encode(&netlist, &placement, &pseudo_routes(&netlist, 1));
        let cut = char_floor(&text, text.len() * frac as usize / 100);
        if let Err(e) = vxdl::parse(&text[..cut]) {
            assert_positioned(&e, &text[..cut]);
        }
    }

    /// Deleting, duplicating, or swapping whole lines is caught (slot
    /// counts, record keywords, or the decode validation trip) — never a
    /// panic, and any error is positioned.
    #[test]
    fn vxdl_line_mutations_never_panic(
        pair in netlist_and_placement(),
        pick in any::<u64>(),
        mode in 0u8..3,
    ) {
        let (netlist, placement) = pair;
        let text = vxdl::encode(&netlist, &placement, &[]);
        let mut lines: Vec<&str> = text.lines().collect();
        let i = (pick as usize) % lines.len();
        match mode {
            0 => { lines.remove(i); }
            1 => lines.insert(i, lines[i]),
            _ => {
                let j = (i + 1) % lines.len();
                lines.swap(i, j);
            }
        }
        let mutated = lines.join("\n");
        if let Err(e) = vxdl::parse(&mutated) {
            assert_positioned(&e, &mutated);
        }
    }

    /// Splicing junk tokens into a random line never panics.
    #[test]
    fn vxdl_token_splice_never_panics(
        pair in netlist_and_placement(),
        pick in any::<u64>(),
        junk in prop::sample::select(vec![
            "-1", "99999999999999999999", "\"", "n", "pip", "NaN", "\\u{xyz}", "lib-",
        ]),
    ) {
        let (netlist, placement) = pair;
        let text = vxdl::encode(&netlist, &placement, &pseudo_routes(&netlist, 2));
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let i = (pick as usize) % lines.len();
        let mut toks: Vec<&str> = lines[i].split(' ').collect();
        let at = (pick as usize / 7) % (toks.len() + 1);
        toks.insert(at, junk);
        lines[i] = toks.join(" ");
        let mutated = lines.join("\n");
        if let Err(e) = vxdl::parse(&mutated) {
            assert_positioned(&e, &mutated);
        }
    }

    /// Truncated or bit-flipped SDF files fail with positioned errors,
    /// never panics.
    #[test]
    fn sdf_corruption_never_panics(
        pair in netlist_and_placement(),
        frac in 0u32..100,
        flip in any::<u64>(),
    ) {
        let (netlist, placement) = pair;
        let lib = generic::library();
        let arcs = arc_delays(&netlist, &lib, &placement, None);
        let text = sdf::SdfFile::from_timing(&netlist, &lib, &arcs, "x").to_text();
        let cut = char_floor(&text, text.len() * frac as usize / 100);
        if let Err(e) = sdf::parse(&text[..cut]) {
            assert_positioned(&e, &text[..cut]);
        }
        // Replace one character with a paren to unbalance the tree.
        let mut bytes: Vec<u8> = text.bytes().collect();
        let at = (flip as usize) % bytes.len();
        if bytes[at].is_ascii() {
            bytes[at] = if flip.is_multiple_of(2) { b'(' } else { b')' };
            let mutated = String::from_utf8(bytes).unwrap();
            if let Err(e) = sdf::parse(&mutated) {
                assert_positioned(&e, &mutated);
            }
        }
    }
}

/// Runs the full flow on the tiny ALU with emission on, returning the
/// emitted artifacts keyed by file name.
fn emit_tiny_alu(dir: &std::path::Path) -> Vec<(String, String)> {
    let design = NamedDesign::Alu.generate(&DesignParams::tiny());
    let arch = PlbArchitecture::granular();
    let config = FlowConfig {
        emit: EmitConfig {
            sdf_dir: Some(dir.to_path_buf()),
            xdl_dir: Some(dir.to_path_buf()),
        },
        ..FlowConfig::default()
    };
    run_design(&design, &arch, &config).expect("tiny alu flows cleanly");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("emit dir exists")
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(e.path()).expect("artifact readable");
            (name, text)
        })
        .collect();
    files.sort();
    files
}

/// The flow's emitted artifacts for the tiny ALU are byte-for-byte
/// identical to the checked-in goldens. `VPGA_BLESS_GOLDENS=1`
/// regenerates them.
#[test]
fn golden_artifacts_are_byte_identical() {
    let tmp = std::env::temp_dir().join(format!("vpga-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let files = emit_tiny_alu(&tmp);
    let expected = [
        "alu-granular-a.sdf",
        "alu-granular-a.vxdl",
        "alu-granular-b.sdf",
        "alu-granular-b.vxdl",
    ];
    assert_eq!(
        files.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        expected,
        "one SDF and one .vxdl per back-end variant"
    );
    let goldens = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    if std::env::var_os("VPGA_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(&goldens).unwrap();
        for (name, text) in &files {
            std::fs::write(goldens.join(name), text).unwrap();
        }
        let _ = std::fs::remove_dir_all(&tmp);
        return;
    }
    for (name, text) in &files {
        let golden = std::fs::read_to_string(goldens.join(name)).unwrap_or_else(|e| {
            panic!("missing golden {name} ({e}); bless with VPGA_BLESS_GOLDENS=1")
        });
        assert_eq!(
            text, &golden,
            "{name} drifted from tests/goldens/{name}; if the change is intentional, \
             regenerate with VPGA_BLESS_GOLDENS=1 cargo test golden"
        );
    }
    // The goldens themselves satisfy the round-trip fixpoints.
    for (name, text) in &files {
        if name.ends_with(".vxdl") {
            let doc = vxdl::parse(text).expect("golden .vxdl parses");
            assert_eq!(
                &vxdl::encode(&doc.netlist, &doc.placement, &doc.routes),
                text
            );
        } else {
            let file = sdf::parse(text).expect("golden SDF parses");
            assert_eq!(&file.to_text(), text);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
