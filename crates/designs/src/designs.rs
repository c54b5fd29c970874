//! The four benchmark designs of §3.2.

use vpga_netlist::{NetId, Netlist};

use crate::blocks::{
    add_sub, and_reduce, barrel_shift_right, counter, lfsr, mux_bus, mux_tree, or_reduce,
    priority_one_hot, ripple_adder,
};
use crate::designer::Designer;

/// Size parameters for the generators.
///
/// The paper gives two absolute gate counts (FPU ≈ 24 k and Network switch
/// ≈ 80 k NAND2-equivalents); [`DesignParams::paper`] approximates those,
/// while [`DesignParams::tiny`]/[`DesignParams::small`]/[`DesignParams::medium`]
/// keep tests and quick experiments fast. [`DesignParams::by_name`] is the
/// one lookup from a preset's name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignParams {
    /// ALU operand width in bits.
    pub alu_width: usize,
    /// FPU mantissa width in bits.
    pub fpu_mantissa: usize,
    /// FPU exponent width in bits.
    pub fpu_exponent: usize,
    /// Number of independent FPU datapath lanes.
    pub fpu_lanes: usize,
    /// Crossbar port count of the network switch.
    pub switch_ports: usize,
    /// Data width per switch port in bits.
    pub switch_width: usize,
    /// Replication factor for the Firewire controller's timers and
    /// serializers.
    pub firewire_scale: usize,
}

impl DesignParams {
    /// Minimal sizes for unit tests (hundreds of gates).
    pub fn tiny() -> DesignParams {
        DesignParams {
            alu_width: 4,
            fpu_mantissa: 6,
            fpu_exponent: 4,
            fpu_lanes: 1,
            switch_ports: 2,
            switch_width: 4,
            firewire_scale: 1,
        }
    }

    /// Moderate sizes for integration tests and quick experiments
    /// (thousands of gates).
    pub fn small() -> DesignParams {
        DesignParams {
            alu_width: 16,
            fpu_mantissa: 12,
            fpu_exponent: 5,
            fpu_lanes: 1,
            switch_ports: 4,
            switch_width: 8,
            firewire_scale: 2,
        }
    }

    /// Sizes between [`DesignParams::small`] and [`DesignParams::paper`]:
    /// the largest matrix that still runs in seconds.
    pub fn medium() -> DesignParams {
        DesignParams {
            alu_width: 24,
            fpu_mantissa: 16,
            fpu_exponent: 6,
            fpu_lanes: 3,
            switch_ports: 8,
            switch_width: 16,
            firewire_scale: 3,
        }
    }

    /// Paper-scale sizes: FPU ≈ 24 k and Network switch ≈ 80 k
    /// NAND2-equivalent gates.
    pub fn paper() -> DesignParams {
        DesignParams {
            alu_width: 32,
            fpu_mantissa: 24,
            fpu_exponent: 8,
            fpu_lanes: 13,
            switch_ports: 16,
            switch_width: 64,
            firewire_scale: 4,
        }
    }

    /// The names [`DesignParams::by_name`] accepts, smallest first.
    pub const PRESETS: [&'static str; 4] = ["tiny", "small", "medium", "paper"];

    /// The size preset called `name` (one of [`DesignParams::PRESETS`]).
    pub fn by_name(name: &str) -> Option<DesignParams> {
        match name {
            "tiny" => Some(DesignParams::tiny()),
            "small" => Some(DesignParams::small()),
            "medium" => Some(DesignParams::medium()),
            "paper" => Some(DesignParams::paper()),
            _ => None,
        }
    }
}

impl Default for DesignParams {
    fn default() -> DesignParams {
        DesignParams::small()
    }
}

/// The benchmark designs by name, in the paper's table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NamedDesign {
    /// Datapath-dominated arithmetic/logic unit.
    Alu,
    /// Control-dominated link-layer controller.
    Firewire,
    /// Datapath-dominated floating-point unit.
    Fpu,
    /// Datapath-dominated crossbar switch.
    NetworkSwitch,
}

impl NamedDesign {
    /// All four designs in Table 1/Table 2 row order.
    pub const ALL: [NamedDesign; 4] = [
        NamedDesign::Alu,
        NamedDesign::Firewire,
        NamedDesign::Fpu,
        NamedDesign::NetworkSwitch,
    ];

    /// The display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            NamedDesign::Alu => "ALU",
            NamedDesign::Firewire => "Firewire",
            NamedDesign::Fpu => "FPU",
            NamedDesign::NetworkSwitch => "Network switch",
        }
    }

    /// True for the three datapath-dominated designs.
    pub fn is_datapath(self) -> bool {
        self != NamedDesign::Firewire
    }

    /// The generated netlist's name (`Netlist::name()` of
    /// [`NamedDesign::generate`]) — the key checkpoints, artifact caches,
    /// and job context strings identify the design by, known without
    /// generating it.
    pub fn key(self) -> &'static str {
        match self {
            NamedDesign::Alu => "alu",
            NamedDesign::Firewire => "firewire",
            NamedDesign::Fpu => "fpu",
            NamedDesign::NetworkSwitch => "network_switch",
        }
    }

    /// Generates the design at the given size.
    pub fn generate(self, params: &DesignParams) -> Netlist {
        match self {
            NamedDesign::Alu => alu(params),
            NamedDesign::Firewire => firewire(params),
            NamedDesign::Fpu => fpu(params),
            NamedDesign::NetworkSwitch => network_switch(params),
        }
    }
}

impl std::fmt::Display for NamedDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A registered ALU: add/subtract, AND, OR, XOR, with zero and carry flags.
///
/// Inputs: `a`, `b` (operands), `op[2]` (00 add, 01 sub, 10 and/or, 11 xor),
/// `cin`. All outputs are registered, making the adder carry chain the
/// design's critical path.
pub fn alu(params: &DesignParams) -> Netlist {
    let w = params.alu_width;
    let mut d = Designer::new("alu");
    let a = d.input_bus("a", w);
    let b = d.input_bus("b", w);
    let op = d.input_bus("op", 2);
    let cin = d.input("cin");
    // Arithmetic unit: subtract when op[0].
    let sub = d.and2(op[0], op[0]);
    let (sum, cout) = add_sub(&mut d, &a, &b, sub);
    let _ = cin;
    // Logic unit.
    let and_bus: Vec<NetId> = a.iter().zip(&b).map(|(&x, &y)| d.and2(x, y)).collect();
    let or_bus: Vec<NetId> = a.iter().zip(&b).map(|(&x, &y)| d.or2(x, y)).collect();
    let xor_bus: Vec<NetId> = a.iter().zip(&b).map(|(&x, &y)| d.xor2(x, y)).collect();
    // op[1] selects logic vs arithmetic; op[0] picks within each.
    let logic = mux_bus(&mut d, op[0], &and_bus, &or_bus);
    let logic = mux_bus(&mut d, op[0], &logic, &xor_bus);
    let result = mux_bus(&mut d, op[1], &sum, &logic);
    // Flags.
    let any = or_reduce(&mut d, &result);
    let zero = d.not(any);
    // Registered outputs.
    let result_q = d.register(&result);
    let zero_q = d.dff(zero);
    let cout_q = d.dff(cout);
    d.output_bus("result", &result_q);
    d.output("zero", zero_q);
    d.output("carry", cout_q);
    d.finish()
}

/// A pipelined floating-point adder datapath (`fpu_lanes` independent
/// lanes): exponent compare, operand swap, mantissa alignment shifter,
/// mantissa add/subtract, and a normalization stage with a priority encoder
/// and left shifter. Mux- and XOR-rich — the workload the granular PLB is
/// designed for.
pub fn fpu(params: &DesignParams) -> Netlist {
    let m = params.fpu_mantissa;
    let e = params.fpu_exponent;
    let mut d = Designer::new("fpu");
    for lane in 0..params.fpu_lanes {
        let p = |s: &str| format!("l{lane}_{s}");
        let s1 = d.input(p("sign1"));
        let s2 = d.input(p("sign2"));
        let e1 = d.input_bus(&p("exp1"), e);
        let e2 = d.input_bus(&p("exp2"), e);
        let m1 = d.input_bus(&p("man1"), m);
        let m2 = d.input_bus(&p("man2"), m);
        // Stage 1: exponent difference and operand swap.
        let one = d.constant(true);
        let (diff, no_borrow) = add_sub(&mut d, &e1, &e2, one);
        let swap = d.not(no_borrow); // e2 > e1
        let exp_big = mux_bus(&mut d, swap, &e1, &e2);
        let man_big = mux_bus(&mut d, swap, &m1, &m2);
        let man_small = mux_bus(&mut d, swap, &m2, &m1);
        // |diff| when swapped: two's-complement negate ≈ invert+1.
        let diff_inv: Vec<NetId> = diff.iter().map(|&x| d.not(x)).collect();
        let zero = d.constant(false);
        let one_bus: Vec<NetId> = std::iter::once(one)
            .chain(std::iter::repeat(zero))
            .take(e)
            .collect();
        let (neg_diff, _) = ripple_adder(&mut d, &diff_inv, &one_bus, zero);
        let abs_diff = mux_bus(&mut d, swap, &diff, &neg_diff);
        // Pipeline registers.
        let exp_big = d.register(&exp_big);
        let man_big = d.register(&man_big);
        let man_small = d.register(&man_small);
        let abs_diff = d.register(&abs_diff);
        let sign_diff = d.xor2(s1, s2);
        let sign_diff = d.dff(sign_diff);
        let s1_q = d.dff(s1);
        // Stage 2: align and add/subtract mantissas.
        let shift_bits = abs_diff
            .len()
            .min(usize::BITS as usize - (m - 1).leading_zeros() as usize + 1);
        let aligned = barrel_shift_right(&mut d, &man_small, &abs_diff[..shift_bits]);
        let (mantissa, carry) = add_sub(&mut d, &man_big, &aligned, sign_diff);
        let mantissa = d.register(&mantissa);
        let carry = d.dff(carry);
        let exp_big = d.register(&exp_big);
        // Stage 3: normalize — find the leading one and shift left.
        let reversed: Vec<NetId> = mantissa.iter().rev().copied().collect();
        let lead = priority_one_hot(&mut d, &reversed);
        // Encode the one-hot position (= left-shift amount) in binary.
        let enc_bits = usize::BITS as usize - (m - 1).leading_zeros() as usize;
        let mut shift_amount = Vec::with_capacity(enc_bits);
        for bit in 0..enc_bits {
            let terms: Vec<NetId> = lead
                .iter()
                .enumerate()
                .filter(|(i, _)| (i >> bit) & 1 == 1)
                .map(|(_, &n)| n)
                .collect();
            let s = if terms.is_empty() {
                d.constant(false)
            } else {
                or_reduce(&mut d, &terms)
            };
            shift_amount.push(s);
        }
        // Left shift = reverse, right shift, reverse.
        let shifted_rev = barrel_shift_right(&mut d, &lead, &shift_amount);
        let normalized: Vec<NetId> = shifted_rev
            .iter()
            .rev()
            .zip(&mantissa)
            .map(|(&mask, &v)| d.or2(mask, v))
            .collect();
        // Exponent adjust: exp - shift_amount + carry.
        let pad: Vec<NetId> = shift_amount
            .iter()
            .copied()
            .chain(std::iter::repeat(d.constant(false)))
            .take(e)
            .collect();
        let (exp_adj, _) = add_sub(&mut d, &exp_big, &pad, one);
        let exp_final = mux_bus(&mut d, carry, &exp_adj, &exp_big);
        // Registered lane outputs.
        let man_out = d.register(&normalized);
        let exp_out = d.register(&exp_final);
        let sign_out = d.dff(s1_q);
        d.output_bus(&p("man_out"), &man_out);
        d.output_bus(&p("exp_out"), &exp_out);
        d.output(p("sign_out"), sign_out);
    }
    d.finish()
}

/// An N×N crossbar network switch: per-input header registers, per-output
/// destination decode, fixed-priority arbitration with a grant register, and
/// a data mux tree per output — the largest, most mux-dominated design.
pub fn network_switch(params: &DesignParams) -> Netlist {
    let ports = params.switch_ports;
    let width = params.switch_width;
    let dest_bits = (usize::BITS as usize - (ports - 1).leading_zeros() as usize).max(1);
    let mut d = Designer::new("network_switch");
    // Input side: combinational from the link pins (upstream registers
    // them), keeping the switch crossbar-dominated like the paper's.
    let mut data_q = Vec::with_capacity(ports);
    let mut valid_q = Vec::with_capacity(ports);
    let mut dest_q = Vec::with_capacity(ports);
    for p in 0..ports {
        let data = d.input_bus(&format!("in{p}_data"), width);
        let valid = d.input(format!("in{p}_valid"));
        let dest = d.input_bus(&format!("in{p}_dest"), dest_bits);
        data_q.push(data);
        valid_q.push(valid);
        dest_q.push(dest);
    }
    // Output side.
    for out in 0..ports {
        // Destination match per input.
        let mut requests = Vec::with_capacity(ports);
        let want: Vec<bool> = (0..dest_bits).map(|b| (out >> b) & 1 == 1).collect();
        for p in 0..ports {
            let mut bits = Vec::with_capacity(dest_bits);
            for (b, &w) in want.iter().enumerate() {
                let bit = if w {
                    d.buf(dest_q[p][b])
                } else {
                    d.not(dest_q[p][b])
                };
                bits.push(bit);
            }
            let matches = and_reduce(&mut d, &bits);
            requests.push(d.and2(matches, valid_q[p]));
        }
        // Fixed-priority arbitration, registered grant.
        let grant = priority_one_hot(&mut d, &requests);
        let grant_q = d.register(&grant);
        // Binary-encode the grant for the mux tree select.
        let mut sel = Vec::with_capacity(dest_bits);
        for bit in 0..dest_bits {
            let terms: Vec<NetId> = grant_q
                .iter()
                .enumerate()
                .filter(|(i, _)| (i >> bit) & 1 == 1)
                .map(|(_, &n)| n)
                .collect();
            let s = if terms.is_empty() {
                d.constant(false)
            } else {
                or_reduce(&mut d, &terms)
            };
            sel.push(s);
        }
        // Data crossbar mux and registered output.
        let selected = mux_tree(&mut d, &sel, &data_q);
        let any_grant = or_reduce(&mut d, &grant_q);
        let gated: Vec<NetId> = selected.iter().map(|&n| d.and2(n, any_grant)).collect();
        let out_q = d.register(&gated);
        let out_valid = d.dff(any_grant);
        d.output_bus(&format!("out{out}_data"), &out_q);
        d.output(format!("out{out}_valid"), out_valid);
    }
    d.finish()
}

/// A small Firewire-style link-layer controller: a one-hot link FSM, CRC
/// LFSRs, timeout counters, and serializer shift registers. Dominated by
/// sequential logic — in the paper this is the design where the granular
/// PLB *loses* area because its extra combinational logic sits unused.
pub fn firewire(params: &DesignParams) -> Netlist {
    let scale = params.firewire_scale.max(1);
    let mut d = Designer::new("firewire");
    let rx_start = d.input("rx_start");
    let rx_end = d.input("rx_end");
    let tx_req = d.input("tx_req");
    let gap = d.input("subaction_gap");
    let arb_won = d.input("arb_won");
    let serial_in = d.input("serial_in");
    // Link FSM, one-hot: IDLE, ARB, TX, RX, ACK, GAP.
    const STATES: usize = 6;
    let mut q: Vec<NetId> = Vec::with_capacity(STATES);
    for _ in 0..STATES {
        let placeholder = d.constant(false);
        q.push(d.dff(placeholder));
    }
    let (idle, arb, tx, rx, ack, gap_st) = (q[0], q[1], q[2], q[3], q[4], q[5]);
    // Force IDLE when no state is set (reset bootstrap).
    let any_state = or_reduce(&mut d, &q);
    let no_state = d.not(any_state);
    // Transitions.
    let idle_to_arb = d.and2(idle, tx_req);
    let idle_to_rx = d.and2(idle, rx_start);
    let not_txreq = d.not(tx_req);
    let not_rxstart = d.not(rx_start);
    let idle_hold0 = d.and2(idle, not_txreq);
    let idle_hold = d.and2(idle_hold0, not_rxstart);
    let arb_to_tx = d.and2(arb, arb_won);
    let not_won = d.not(arb_won);
    let arb_hold = d.and2(arb, not_won);
    let tx_done = d.and2(tx, rx_end); // end-of-packet strobe shared
    let not_txdone = d.not(rx_end);
    let tx_hold = d.and2(tx, not_txdone);
    let rx_done = d.and2(rx, rx_end);
    let rx_hold = d.and2(rx, not_txdone);
    let ack_to_gap = d.and2(ack, gap);
    let not_gap = d.not(gap);
    let ack_hold = d.and2(ack, not_gap);
    let gap_to_idle = d.and2(gap_st, gap);
    let gap_hold = d.and2(gap_st, not_gap);
    let next_idle0 = d.or2(idle_hold, gap_to_idle);
    let next_idle = d.or2(next_idle0, no_state);
    let next_arb = d.or2(idle_to_arb, arb_hold);
    let next_tx = d.or2(arb_to_tx, tx_hold);
    let next_rx = d.or2(idle_to_rx, rx_hold);
    let next_ack0 = d.or2(tx_done, rx_done);
    let next_ack = d.or2(next_ack0, ack_hold);
    let next_gap = d.or2(ack_to_gap, gap_hold);
    for (i, &next) in [next_idle, next_arb, next_tx, next_rx, next_ack, next_gap]
        .iter()
        .enumerate()
    {
        let ff = d.netlist().driver(q[i]).expect("fsm flop");
        d.connect_pin(ff, 0, next);
    }
    // CRC generators, gated by the active states.
    let crc_en = d.or2(tx, rx);
    let crc_in = d.and2(serial_in, crc_en);
    let crc32 = lfsr(
        &mut d,
        32,
        &[1, 2, 4, 5, 7, 8, 10, 11, 12, 16, 22, 23, 26],
        crc_in,
    );
    let crc16 = lfsr(&mut d, 16, &[2, 15], crc_in);
    let crc_ok = {
        let all32 = or_reduce(&mut d, &crc32);
        let all16 = or_reduce(&mut d, &crc16);
        let n32 = d.not(all32);
        let n16 = d.not(all16);
        d.and2(n32, n16)
    };
    // Timeout counters and serializer shift registers, replicated by scale.
    let mut timeout_bits = Vec::new();
    for k in 0..scale {
        let cnt = counter(&mut d, 10 + (k % 3), arb);
        timeout_bits.push(*cnt.last().expect("counter has bits"));
        // Receive deserializer: shift chain with registered parallel taps.
        let mut stage = serial_in;
        let mut taps = Vec::with_capacity(24);
        for _ in 0..24 {
            stage = d.dff(stage);
            taps.push(stage);
        }
        let parallel = d.register(&taps);
        d.output_bus(&format!("rx_word{k}"), &parallel);
        // Transmit serializer: recirculating shift register gated by TX.
        let mut tx_stage = d.and2(parallel[0], tx);
        let mut tx_taps = Vec::with_capacity(24);
        for _ in 0..24 {
            tx_stage = d.dff(tx_stage);
            tx_taps.push(tx_stage);
        }
        d.output(format!("tx_serial{k}"), *tx_taps.last().expect("taps"));
        // Retransmit timer.
        let retry = counter(&mut d, 8, tx);
        let retry_top = *retry.last().expect("counter has bits");
        let expired = d.and2(retry_top, tx);
        d.output(format!("retry_expired{k}"), expired);
    }
    let timeout = or_reduce(&mut d, &timeout_bits);
    // Status outputs.
    d.output("state_idle", idle);
    d.output("state_tx", tx);
    d.output("state_rx", rx);
    d.output("crc_ok", crc_ok);
    d.output("timeout", timeout);
    d.output_bus("crc16", &crc16);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_netlist::sim::Simulator;
    use vpga_netlist::stats::NetlistStats;

    #[test]
    fn all_designs_generate_and_validate() {
        let params = DesignParams::tiny();
        for design in NamedDesign::ALL {
            let n = design.generate(&params);
            assert!(n.num_cells() > 20, "{design} too small");
            // validate() already ran in finish(); re-check independently.
            n.validate(&generic::library()).unwrap();
        }
    }

    #[test]
    fn datapath_designs_are_combinational_dominated() {
        let params = DesignParams::tiny();
        let lib = generic::library();
        for design in [
            NamedDesign::Alu,
            NamedDesign::Fpu,
            NamedDesign::NetworkSwitch,
        ] {
            let stats = NetlistStats::compute(&design.generate(&params), &lib);
            assert!(
                stats.seq_fraction < 0.45,
                "{design} seq fraction {}",
                stats.seq_fraction
            );
        }
    }

    #[test]
    fn firewire_is_sequential_dominated() {
        let lib = generic::library();
        let stats = NetlistStats::compute(&firewire(&DesignParams::tiny()), &lib);
        assert!(
            stats.seq_fraction > 0.5,
            "firewire seq fraction {}",
            stats.seq_fraction
        );
    }

    #[test]
    fn alu_computes_add_and_xor() {
        let params = DesignParams::tiny(); // 4-bit
        let n = alu(&params);
        let lib = generic::library();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        // Inputs: a[4], b[4], op[2], cin.
        let encode = |a: u8, b: u8, op: u8| -> Vec<bool> {
            let mut v = Vec::new();
            for i in 0..4 {
                v.push((a >> i) & 1 == 1);
            }
            for i in 0..4 {
                v.push((b >> i) & 1 == 1);
            }
            v.push(op & 1 == 1);
            v.push(op >> 1 & 1 == 1);
            v.push(false); // cin
            v
        };
        // Outputs are registered: apply, then step once more to observe.
        sim.step(&encode(5, 6, 0b00)); // add
        let out = sim.step(&encode(5, 6, 0b00));
        let result = out[..4]
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i));
        assert_eq!(result, 11);
        sim.step(&encode(0b1100, 0b1010, 0b11)); // xor
        let out = sim.step(&encode(0b1100, 0b1010, 0b11));
        let result = out[..4]
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i));
        assert_eq!(result, 0b0110);
    }

    #[test]
    fn alu_subtracts() {
        let params = DesignParams::tiny();
        let n = alu(&params);
        let lib = generic::library();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        let encode = |a: u8, b: u8, op: u8| -> Vec<bool> {
            let mut v = Vec::new();
            for i in 0..4 {
                v.push((a >> i) & 1 == 1);
            }
            for i in 0..4 {
                v.push((b >> i) & 1 == 1);
            }
            v.push(op & 1 == 1);
            v.push(op >> 1 & 1 == 1);
            v.push(false);
            v
        };
        sim.step(&encode(9, 3, 0b01)); // sub
        let out = sim.step(&encode(9, 3, 0b01));
        let result = out[..4]
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i));
        assert_eq!(result, 6);
        // Zero flag.
        sim.step(&encode(7, 7, 0b01));
        let out = sim.step(&encode(7, 7, 0b01));
        assert!(out[4], "zero flag for 7-7");
    }

    #[test]
    fn switch_routes_a_packet() {
        let params = DesignParams::tiny(); // 2 ports, 4-bit data
        let n = network_switch(&params);
        let lib = generic::library();
        let mut sim = Simulator::new(&n, &lib).unwrap();
        // Inputs per port: data[4], valid, dest[1]; port0 then port1.
        // Send 0b1010 from port 0 to output 1.
        let mut inputs = Vec::new();
        for i in 0..4 {
            inputs.push((0b1010 >> i) & 1 == 1);
        }
        inputs.push(true); // valid0
        inputs.push(true); // dest0 = 1
        inputs.extend([false, false, false, false, false, false]); // port1 idle
                                                                   // Three cycles of latency: input reg, grant reg, output reg.
        for _ in 0..3 {
            sim.step(&inputs);
        }
        let out = sim.step(&inputs);
        // Outputs: out0_data[4], out0_valid, out1_data[4], out1_valid.
        let out1_data = out[5..9]
            .iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i));
        assert!(out[9], "out1 valid");
        assert_eq!(out1_data, 0b1010);
        assert!(!out[4], "out0 should be idle");
    }

    #[test]
    fn firewire_fsm_reaches_tx() {
        let n = firewire(&DesignParams::tiny());
        let lib = generic::library();
        let out_index = |name: &str| {
            n.outputs()
                .iter()
                .position(|&po| n.cell_name(po) == name)
                .unwrap_or_else(|| panic!("no output {name}"))
        };
        let idle_ix = out_index("state_idle");
        let tx_ix = out_index("state_tx");
        let mut sim = Simulator::new(&n, &lib).unwrap();
        // Inputs: rx_start, rx_end, tx_req, subaction_gap, arb_won, serial_in.
        let idle_in = [false, false, false, false, false, false];
        let req = [false, false, true, false, false, false];
        let win = [false, false, true, false, true, false];
        // Bootstrap into IDLE.
        sim.step(&idle_in);
        sim.step(&idle_in);
        let out = sim.step(&req); // observe IDLE while requesting
        assert!(out[idle_ix], "starts idle");
        let _ = sim.step(&win); // now in ARB, winning
        let out = sim.step(&win);
        assert!(out[tx_ix], "reaches TX after winning arbitration");
    }

    #[test]
    fn by_name_resolves_every_preset_in_size_order() {
        let p = DesignParams::PRESETS.map(|n| DesignParams::by_name(n).unwrap());
        assert_eq!(p[0], DesignParams::tiny());
        assert_eq!(p[3], DesignParams::paper());
        for w in p.windows(2) {
            assert!(w[0].switch_ports <= w[1].switch_ports, "{w:?}");
            assert!(w[0].fpu_mantissa <= w[1].fpu_mantissa, "{w:?}");
        }
        assert!(DesignParams::by_name("bogus").is_none());
    }

    #[test]
    fn paper_scale_gate_counts_are_in_range() {
        // Expensive-ish; generation only (no mapping).
        let params = DesignParams::paper();
        let lib = generic::library();
        let fpu_stats = NetlistStats::compute(&fpu(&params), &lib);
        let fpu_gates = fpu_stats.nand2_equivalent(generic::NAND2_AREA);
        assert!(
            (12_000.0..48_000.0).contains(&fpu_gates),
            "FPU ≈ 24k gates, got {fpu_gates}"
        );
        let sw_stats = NetlistStats::compute(&network_switch(&params), &lib);
        let sw_gates = sw_stats.nand2_equivalent(generic::NAND2_AREA);
        assert!(
            (40_000.0..160_000.0).contains(&sw_gates),
            "switch ≈ 80k gates, got {sw_gates}"
        );
    }
}
