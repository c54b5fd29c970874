//! Post-placement buffer insertion (physical synthesis).
//!
//! "The resulting netlist includes logic changes and buffer insertion to
//! meet timing constraints and area specifications" (§3.1). This pass
//! repairs the two classic electrical problems after placement:
//!
//! * **high fanout** — sinks are clustered spatially and each cluster is
//!   driven through its own repeater,
//! * **long wires** — a net whose half-perimeter exceeds the length bound
//!   gets a repeater at the centroid of its far sinks.

use vpga_netlist::{CellId, Library, NetId, Netlist, NetlistError};

use crate::grid::Placement;

/// Summary of a buffer-insertion pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferReport {
    /// Buffers inserted for fanout reasons.
    pub fanout_buffers: usize,
    /// Buffers inserted for wirelength reasons.
    pub length_buffers: usize,
}

impl BufferReport {
    /// Total buffers inserted.
    pub fn total(&self) -> usize {
        self.fanout_buffers + self.length_buffers
    }
}

/// Inserts repeaters on nets whose fanout exceeds `max_fanout` or whose
/// half-perimeter exceeds `max_length` (µm). New buffers are placed at the
/// centroid of the sinks they serve and recorded in `placement`.
///
/// The driver keeps its nearest sinks up to `max_fanout`; remaining sinks
/// are chunked into buffered clusters. One pass is applied (chains for
/// extremely long nets come from repeated calls by the flow).
///
/// # Errors
///
/// Returns a [`NetlistError`] if the netlist edits fail (malformed input).
pub fn insert_buffers(
    netlist: &mut Netlist,
    lib: &Library,
    placement: &mut Placement,
    max_fanout: usize,
    max_length: f64,
) -> Result<BufferReport, NetlistError> {
    assert!(max_fanout >= 2, "max_fanout must be at least 2");
    assert!(max_length > 0.0, "max_length must be positive");
    let mut report = BufferReport::default();
    let nets: Vec<NetId> = netlist.nets().collect();
    for net in nets {
        let Some(driver) = netlist.driver(net) else {
            continue;
        };
        let driver_cell = netlist.cell(driver).expect("live driver");
        if driver_cell.kind().is_port_or_tie()
            && !matches!(driver_cell.kind(), vpga_netlist::CellKind::Input)
        {
            continue; // constants carry no wire
        }
        let fanout = netlist.sinks(net).len();
        let hpwl = placement.net_hpwl(netlist, net);
        let too_wide = fanout > max_fanout;
        let too_long = hpwl > max_length && fanout >= 2;
        if !too_wide && !too_long {
            continue;
        }
        let Some((dx, dy)) = placement.position(driver) else {
            continue;
        };
        // Sort sinks by distance from the driver; keep the nearest ones.
        let mut sinks: Vec<(CellId, usize, f64)> = netlist
            .sinks(net)
            .iter()
            .map(|&(cell, pin)| {
                let d = placement
                    .position(cell)
                    .map(|(x, y)| (x - dx).abs() + (y - dy).abs())
                    .unwrap_or(0.0);
                (cell, pin, d)
            })
            .collect();
        sinks.sort_by(|a, b| a.2.total_cmp(&b.2));
        let keep = if too_wide {
            max_fanout / 2
        } else {
            sinks.len() / 2
        };
        let far = sinks.split_off(keep.max(1).min(sinks.len()));
        if far.is_empty() {
            continue;
        }
        // Buffer clusters over the far sinks.
        for chunk in far.chunks(max_fanout.max(2)) {
            let name = netlist.fresh_name("pbuf");
            let buf_net = netlist.add_lib_cell(name, lib, "BUF", &[net])?;
            let buf_cell = netlist.driver(buf_net).expect("buffer drives its net");
            // Reconnect the chunk's pins onto the buffer.
            for &(cell, pin, _) in chunk {
                netlist.connect_pin(cell, pin, buf_net)?;
            }
            // Place the buffer at the chunk centroid.
            let (mut cx, mut cy, mut n) = (0.0, 0.0, 0usize);
            for &(cell, _, _) in chunk {
                if let Some((x, y)) = placement.position(cell) {
                    cx += x;
                    cy += y;
                    n += 1;
                }
            }
            if n > 0 {
                placement.set_position(buf_cell, cx / n as f64, cy / n as f64);
            } else {
                placement.set_position(buf_cell, dx, dy);
            }
            if too_wide {
                report.fanout_buffers += 1;
            } else {
                report.length_buffers += 1;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{place, PlaceConfig};
    use vpga_netlist::library::generic;

    #[test]
    fn high_fanout_nets_get_buffered() {
        let lib = generic::library();
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let src = n.add_lib_cell("src", &lib, "INV", &[a]).unwrap();
        for i in 0..20 {
            let s = n
                .add_lib_cell(format!("s{i}"), &lib, "INV", &[src])
                .unwrap();
            n.add_output(format!("y{i}"), s);
        }
        let (mut p, _) = place(&n, &lib, &PlaceConfig::default()).unwrap();
        let report = insert_buffers(&mut n, &lib, &mut p, 8, 1e9).unwrap();
        assert!(report.fanout_buffers >= 2, "{report:?}");
        n.validate(&lib).unwrap();
        // The source net now has bounded fanout.
        let src_fanout = n.sinks(src).len();
        assert!(src_fanout <= 8 + 1, "src fanout still {src_fanout}");
    }

    #[test]
    fn long_nets_get_a_repeater() {
        let lib = generic::library();
        let mut n = Netlist::new("long");
        let a = n.add_input("a");
        let src = n.add_lib_cell("src", &lib, "INV", &[a]).unwrap();
        let s1 = n.add_lib_cell("s1", &lib, "INV", &[src]).unwrap();
        let s2 = n.add_lib_cell("s2", &lib, "INV", &[src]).unwrap();
        n.add_output("y1", s1);
        n.add_output("y2", s2);
        let (mut p, _) = place(&n, &lib, &PlaceConfig::default()).unwrap();
        // Stretch the net artificially.
        let s2c = n.cell_by_name("s2").unwrap();
        let die = p.die();
        p.set_position(s2c, die.x1 * 100.0, die.y1 * 100.0);
        let report = insert_buffers(&mut n, &lib, &mut p, 16, 10.0).unwrap();
        assert!(report.length_buffers >= 1, "{report:?}");
        n.validate(&lib).unwrap();
    }

    #[test]
    fn buffering_preserves_function() {
        let lib = generic::library();
        let mut n = Netlist::new("eq");
        let a = n.add_input("a");
        let src = n.add_lib_cell("src", &lib, "INV", &[a]).unwrap();
        for i in 0..12 {
            let s = n
                .add_lib_cell(format!("s{i}"), &lib, "BUF", &[src])
                .unwrap();
            n.add_output(format!("y{i}"), s);
        }
        let golden = n.clone();
        let (mut p, _) = place(&n, &lib, &PlaceConfig::default()).unwrap();
        insert_buffers(&mut n, &lib, &mut p, 4, 1e9).unwrap();
        let vectors = vec![vec![true], vec![false], vec![true]];
        let div = vpga_netlist::sim::first_divergence(&golden, &lib, &n, &lib, &vectors).unwrap();
        assert_eq!(div, None);
    }

    #[test]
    fn quiet_nets_are_untouched() {
        let lib = generic::library();
        let mut n = Netlist::new("quiet");
        let a = n.add_input("a");
        let g = n.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        n.add_output("y", g);
        let before = n.num_cells();
        let (mut p, _) = place(&n, &lib, &PlaceConfig::default()).unwrap();
        let report = insert_buffers(&mut n, &lib, &mut p, 8, 1e9).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(n.num_cells(), before);
    }
}
