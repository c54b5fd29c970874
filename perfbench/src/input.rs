//! Seeded inputs: the benchmark's own random generator and the structural
//! Verilog path every batch design takes before it reaches the flow.

use vpga::netlist::{io, Library, Netlist, NetlistError};

/// SplitMix64, owned by the benchmark so its draws never depend on the
/// program's own generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Writes `design` as structural Verilog and returns the text the flow
/// will read. Seed 0 keeps the writer's instance order; any other seed
/// shuffles the instance statements, so the flow receives an equivalent
/// netlist whose cells are numbered differently.
pub fn write_seeded(design: &Netlist, lib: &Library, seed: u64) -> Result<String, NetlistError> {
    let text = io::write_verilog(design, lib)?;
    if seed == 0 {
        return Ok(text);
    }
    let mut lines: Vec<&str> = text.lines().collect();
    let slots: Vec<usize> = (0..lines.len())
        .filter(|&i| is_instance(lines[i]))
        .collect();
    let mut order: Vec<&str> = slots.iter().map(|&i| lines[i]).collect();
    Rng::new(seed).shuffle(&mut order);
    for (&slot, line) in slots.iter().zip(order) {
        lines[slot] = line;
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Ok(out)
}

/// True for a cell-instance statement of `io::write_verilog`'s output:
/// an indented line that declares no port, wire or assignment.
fn is_instance(line: &str) -> bool {
    line.starts_with("  ")
        && !["  input ", "  output ", "  wire ", "  assign "]
            .iter()
            .any(|kw| line.starts_with(kw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga::core::PlbArchitecture;
    use vpga::designs::{DesignParams, NamedDesign};
    use vpga::flow::{run_design, FlowConfig};
    use vpga::netlist::library::generic;

    fn cell_names(n: &Netlist) -> Vec<String> {
        n.cells()
            .map(|(id, _)| n.cell_name(id).to_owned())
            .collect()
    }

    #[test]
    fn seed_zero_through_verilog_reproduces_every_fingerprint() {
        let lib = generic::library();
        let config = FlowConfig::default();
        for design in NamedDesign::ALL {
            let generated = design.generate(&DesignParams::tiny());
            let text = write_seeded(&generated, &lib, 0).expect("writes");
            let read = io::read_verilog(&text, &lib).expect("reads back");
            for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
                let direct = run_design(&generated, &arch, &config).expect("direct run");
                let via = run_design(&read, &arch, &config).expect("verilog run");
                assert_eq!(
                    direct.fingerprint(),
                    via.fingerprint(),
                    "{design}/{}",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn nonzero_seed_reorders_cells_and_keeps_counts() {
        let lib = generic::library();
        for design in NamedDesign::ALL {
            let generated = design.generate(&DesignParams::tiny());
            let plain =
                io::read_verilog(&write_seeded(&generated, &lib, 0).unwrap(), &lib).unwrap();
            for seed in [1, 7] {
                let text = write_seeded(&generated, &lib, seed).unwrap();
                let shuffled = io::read_verilog(&text, &lib).unwrap();
                assert_eq!(shuffled.num_cells(), plain.num_cells(), "{design}");
                assert_eq!(shuffled.num_nets(), plain.num_nets(), "{design}");
                assert_eq!(shuffled.inputs().len(), plain.inputs().len(), "{design}");
                assert_eq!(shuffled.outputs().len(), plain.outputs().len(), "{design}");
                let (mut a, mut b) = (cell_names(&plain), cell_names(&shuffled));
                assert_ne!(a, b, "{design} seed {seed} kept the cell order");
                a.sort();
                b.sort();
                assert_eq!(a, b, "{design} seed {seed} changed the cell set");
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_text() {
        let lib = generic::library();
        let generated = NamedDesign::Fpu.generate(&DesignParams::tiny());
        let a = write_seeded(&generated, &lib, 42).unwrap();
        let b = write_seeded(&generated, &lib, 42).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, write_seeded(&generated, &lib, 43).unwrap());
    }
}
