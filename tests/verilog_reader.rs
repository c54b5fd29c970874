//! The structural-Verilog reader at paper scale. `read_verilog` of the
//! writer's text must rebuild the same netlist it always has: the same
//! cell and net ids, and every net's sinks in the same order (placement,
//! packing and routing walk sink lists, so their order reaches every
//! result bit). The fingerprints below were recorded with the reader that
//! rewired one pin at a time through `Netlist::connect_pin`; the batched
//! `Netlist::rewire_pins` must reproduce them.

use vpga::designs::{DesignParams, NamedDesign};
use vpga::netlist::library::generic;
use vpga::netlist::{io, Netlist};

/// FNV-1a over the id space and, for every live net in id order, its id,
/// driver, and `(cell, pin)` sink list.
fn sink_fingerprint(n: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: usize| {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(n.cell_capacity());
    eat(n.net_capacity());
    for net in n.nets() {
        eat(net.index());
        eat(n.driver(net).map_or(usize::MAX, |d| d.index()));
        let sinks = n.sinks(net);
        eat(sinks.len());
        for &(cell, pin) in sinks {
            eat(cell.index());
            eat(pin);
        }
    }
    h
}

fn round_trip_fingerprint(design: NamedDesign) -> (usize, u64) {
    let lib = generic::library();
    let netlist = design.generate(&DesignParams::paper());
    let text = io::write_verilog(&netlist, &lib).expect("generated designs validate");
    let back = io::read_verilog(&text, &lib).expect("the writer's text reads back");
    (back.num_cells(), sink_fingerprint(&back))
}

#[test]
fn paper_switch_reads_back_with_recorded_sink_lists() {
    assert_eq!(
        round_trip_fingerprint(NamedDesign::NetworkSwitch),
        (23313, 0x7e99_dcca_1869_9c05)
    );
}

#[test]
fn paper_fpu_reads_back_with_recorded_sink_lists() {
    assert_eq!(
        round_trip_fingerprint(NamedDesign::Fpu),
        (11117, 0xe5f0_aed4_fce2_5a20)
    );
}
