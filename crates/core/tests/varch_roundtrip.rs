//! Property-based grammar discipline for the `.varch` codec: random valid
//! descriptions survive `encode ∘ parse` exactly (field-for-field equality
//! and the byte fixpoint), and arbitrarily corrupted text can never panic
//! the parser — it either fails with a positioned error or yields a
//! description whose re-encoding is itself a parse fixpoint.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga_core::{ArchDescription, CellDecl, ConfigDecl, ShapeDecl, SlotDecl};
use vpga_logic::{FunctionSet256, Tt3};
use vpga_netlist::{CellClass, MatchFlex};

/// A random non-empty function set that contains `must_have`.
fn random_set(rng: &mut SmallRng, must_have: Tt3) -> FunctionSet256 {
    let mut set: FunctionSet256 = Tt3::all().filter(|_| rng.gen_bool(0.2)).collect();
    set.insert(must_have);
    set
}

/// A random finite non-negative real, mixing integers and awkward
/// fractions (shortest-round-trip notation must recover both).
fn random_real(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0u8..4) {
        0 => rng.gen_range(0u32..1000) as f64,
        1 => rng.gen::<f64>() * 1000.0,
        2 => rng.gen::<f64>() * 10.0 / 3.0,
        _ => 0.0,
    }
}

fn random_name(rng: &mut SmallRng, prefix: &str, i: usize) -> String {
    let tails = ["", "_x", "-2", "Z9"];
    format!("{prefix}{i}{}", tails[rng.gen_range(0usize..tails.len())])
}

/// Builds a random valid [`ArchDescription`]: unique cell names, defaults
/// inside their allowed sets, slots over declared cells of matching class,
/// configs over declared combinational cells.
fn random_description(seed: u64) -> ArchDescription {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let classes = CellClass::PLB_CLASSES;
    let n_cells = rng.gen_range(1usize..6);
    let mut cells: Vec<CellDecl> = Vec::new();
    for i in 0..n_cells {
        // A valid description needs at least one slot and one config, so
        // the first cell is always combinational.
        let class = loop {
            let c = classes[rng.gen_range(0usize..classes.len())];
            if i > 0 || !c.is_sequential() {
                break c;
            }
        };
        let default = Tt3::new(rng.gen::<u8>());
        cells.push(CellDecl {
            name: random_name(rng, "C", i),
            class,
            arity: rng.gen_range(1usize..=3),
            default,
            allowed: random_set(rng, default),
            area: random_real(rng),
            input_cap: random_real(rng),
            intrinsic_delay: random_real(rng),
            drive_resistance: random_real(rng),
            flex: MatchFlex {
                allow_const: rng.gen_bool(0.7),
                allow_dup: rng.gen_bool(0.7),
            },
        });
    }
    // At most one slot declaration per class, each hosting a declared cell
    // of that class.
    let mut slots: Vec<SlotDecl> = Vec::new();
    for &class in &classes {
        let hosts: Vec<&CellDecl> = cells.iter().filter(|c| c.class == class).collect();
        if hosts.is_empty() || (class != cells[0].class && rng.gen_bool(0.3)) {
            continue;
        }
        slots.push(SlotDecl {
            class,
            count: rng.gen_range(1u16..4),
            cell: hosts[rng.gen_range(0usize..hosts.len())].name.clone(),
        });
    }
    let comb: Vec<&CellDecl> = cells.iter().filter(|c| !c.class.is_sequential()).collect();
    let mut configs: Vec<ConfigDecl> = Vec::new();
    for i in 0..rng.gen_range(1usize..4) {
        let pick = |rng: &mut SmallRng| comb[rng.gen_range(0usize..comb.len())].name.clone();
        let shape = match rng.gen_range(0u8..3) {
            0 => ShapeDecl::Single { cell: pick(rng) },
            1 => ShapeDecl::Pair {
                inner: pick(rng),
                outer: pick(rng),
            },
            _ => ShapeDecl::Triple {
                mux: pick(rng),
                gate: pick(rng),
                outer: pick(rng),
            },
        };
        let any_fn = Tt3::new(rng.gen::<u8>());
        configs.push(ConfigDecl {
            name: random_name(rng, "K", i),
            shape,
            functions: random_set(rng, any_fn),
            area: random_real(rng),
            delay_ps: random_real(rng),
        });
    }
    // The reader rejects a PLB whose total area is not positive.
    let (comb_area, seq_area) = loop {
        let (comb, seq) = (random_real(rng), random_real(rng));
        if comb + seq > 0.0 {
            break (comb, seq);
        }
    };
    ArchDescription {
        name: random_name(rng, "arch", 0),
        cells,
        slots,
        configs,
        comb_area,
        seq_area,
        via_sites: rng.gen::<u32>(),
    }
}

proptest! {
    /// `parse(encode(d))` recovers `d` exactly — every field including the
    /// f64 characterization and both fingerprints — and re-encoding is a
    /// byte fixpoint.
    #[test]
    fn encode_parse_is_identity(seed in any::<u64>()) {
        let desc = random_description(seed);
        let text = desc.encode();
        let back = ArchDescription::parse(&text).expect("canonical text parses");
        prop_assert_eq!(&back, &desc);
        prop_assert_eq!(back.encode(), text);
        prop_assert_eq!(back.fingerprint(), desc.fingerprint());
    }

    /// A description whose PLB area is zero fails closed, positioned at
    /// its `area` line.
    #[test]
    fn zero_area_fails_closed(seed in any::<u64>()) {
        let text = random_description(seed).encode();
        let area_line = text
            .lines()
            .position(|l| l.starts_with("area "))
            .expect("canonical text has an area line");
        let zeroed: Vec<&str> = text
            .lines()
            .enumerate()
            .map(|(i, l)| if i == area_line { "area 0 0" } else { l })
            .collect();
        let e = ArchDescription::parse(&format!("{}\n", zeroed.join("\n")))
            .expect_err("zero-area PLB accepted");
        prop_assert_eq!(e.line, area_line + 1, "{}", e);
        prop_assert!(e.col >= 1, "unpositioned error: {}", e);
    }

    /// Corrupted text never panics the parser. Truncations, line drops,
    /// duplications, and byte splices either fail with a positioned error
    /// or parse into a description whose canonical form round-trips.
    #[test]
    fn corruption_is_fail_closed(seed in any::<u64>(), kind in 0u8..5) {
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let text = random_description(seed).encode();
        let corrupt = match kind {
            // Truncate at an arbitrary byte boundary.
            0 => {
                let mut at = rng.gen_range(0usize..=text.len());
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                text[..at].to_owned()
            }
            // Drop one line.
            1 => {
                let lines: Vec<&str> = text.lines().collect();
                let drop = rng.gen_range(0usize..lines.len());
                let kept: Vec<&str> = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, &l)| l)
                    .collect();
                format!("{}\n", kept.join("\n"))
            }
            // Duplicate one line in place.
            2 => {
                let lines: Vec<&str> = text.lines().collect();
                let dup = rng.gen_range(0usize..lines.len());
                let mut out: Vec<&str> = Vec::new();
                for (i, &l) in lines.iter().enumerate() {
                    out.push(l);
                    if i == dup {
                        out.push(l);
                    }
                }
                format!("{}\n", out.join("\n"))
            }
            // Splice a random token over one word.
            3 => {
                let junk = ["zz", "-1", "1e999", "NaN", "0x", "#", "end", "🦀"];
                let words: Vec<&str> = text.split_whitespace().collect();
                let at = rng.gen_range(0usize..words.len());
                let mut out: Vec<&str> = words.clone();
                out[at] = junk[rng.gen_range(0usize..junk.len())];
                format!("{}\n", out.join(" "))
            }
            // Flip one byte to a random printable character.
            _ => {
                let mut bytes = text.into_bytes();
                let at = rng.gen_range(0usize..bytes.len());
                bytes[at] = rng.gen_range(b' '..=b'~');
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
        match ArchDescription::parse(&corrupt) {
            Err(e) => {
                prop_assert!(e.line >= 1, "unpositioned error: {}", e);
                prop_assert!(e.col >= 1, "unpositioned error: {}", e);
            }
            Ok(desc) => {
                // Corruption that still parses must hit the fixpoint.
                let canon = desc.encode();
                let back = ArchDescription::parse(&canon).expect("canonical reparse");
                prop_assert_eq!(&back, &desc);
                prop_assert_eq!(back.encode(), canon);
            }
        }
    }
}
