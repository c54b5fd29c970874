//! Inter-stage invariant auditors.
//!
//! Each auditor is a cheap validator run between pipeline stages: it
//! re-checks the contract a stage's output must satisfy before the next
//! stage consumes it, and names the *first* violating object on failure.
//! The flow runs them by default in debug builds and behind
//! [`crate::FlowConfig::audit`] in release; a failed audit surfaces as
//! [`crate::FlowError::Audit`] for that job's cell in the matrix report.
//!
//! Contracts checked:
//!
//! * after synthesis / compaction — the netlist is well-formed
//!   (single-driver nets, pin counts, no combinational cycles),
//! * after placement / physical synthesis — every library cell is placed
//!   inside the die and inside its region constraint (if any),
//! * after packing — every library cell has a PLB, no PLB class is over
//!   capacity, compaction groups are not split across PLBs,
//! * after routing — every net's retained tile path is a connected tree
//!   covering its source and sink tiles, and the edge-occupancy statistics
//!   (`max_edge_load`, `overflow_edges`) re-derive exactly,
//! * before STA — the combinational netlist is acyclic.

use std::collections::{HashMap, HashSet, VecDeque};

use vpga_core::PlbArchitecture;
use vpga_netlist::{CellClass, CellKind, Library, NetId, Netlist, NetlistError};
use vpga_pack::PlbArray;
use vpga_place::Placement;
use vpga_route::RoutingResult;

/// Positions are compared against the die with this slack, so boundary
/// pads (pinned exactly on the die edge) never trip the audit.
const GEOMETRY_EPS: f64 = 1e-6;

/// A broken inter-stage contract, naming the first violating object.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AuditError {
    /// The netlist failed structural validation.
    Netlist(NetlistError),
    /// A library cell has no position after placement.
    UnplacedCell {
        /// The cell's name.
        cell: String,
    },
    /// A placed cell sits outside the die.
    OutsideDie {
        /// The cell's name.
        cell: String,
        /// Its position.
        x: f64,
        /// Its position.
        y: f64,
    },
    /// A cell escaped its region constraint.
    RegionViolation {
        /// The cell's name.
        cell: String,
    },
    /// A library cell was left without a PLB assignment.
    UnassignedCell {
        /// The cell's name.
        cell: String,
    },
    /// A PLB holds more cells of a class than the architecture provides.
    PlbOverCapacity {
        /// The PLB's array index.
        plb: usize,
        /// The overflowing resource class.
        class: CellClass,
        /// Slots used.
        used: usize,
        /// Slots the architecture provides.
        capacity: usize,
    },
    /// A compaction group is split across PLBs.
    GroupSplit {
        /// A member cell of the split group.
        cell: String,
    },
    /// A routed net's tile path does not connect its source to a sink.
    Disconnected {
        /// The net.
        net: NetId,
        /// The sink tile the retained path never reaches.
        sink: (usize, usize),
    },
    /// A routed net's path uses a non-adjacent tile hop.
    BrokenSegment {
        /// The net.
        net: NetId,
    },
    /// Re-derived edge statistics disagree with the router's report.
    EdgeAccounting {
        /// What disagreed (`"max_edge_load"` or `"overflow_edges"`).
        what: &'static str,
        /// The router's reported value.
        reported: usize,
        /// The value re-derived from the retained routes.
        derived: usize,
    },
    /// The incremental timer's state disagrees with a from-scratch STA.
    StaMismatch {
        /// What disagreed (`"worst_slack"`, `"arrival"`, `"slack"`,
        /// `"endpoint"`, `"criticality"`, ...).
        what: &'static str,
        /// The object the first disagreement was found on (a net id, an
        /// endpoint name, or `"-"` for scalars).
        object: String,
        /// The incremental timer's value.
        incremental: f64,
        /// The oracle's value.
        oracle: f64,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Netlist(e) => write!(f, "netlist audit failed: {e}"),
            AuditError::UnplacedCell { cell } => {
                write!(f, "cell {cell:?} has no position after placement")
            }
            AuditError::OutsideDie { cell, x, y } => {
                write!(
                    f,
                    "cell {cell:?} placed outside the die at ({x:.2}, {y:.2})"
                )
            }
            AuditError::RegionViolation { cell } => {
                write!(f, "cell {cell:?} escaped its region constraint")
            }
            AuditError::UnassignedCell { cell } => {
                write!(f, "cell {cell:?} has no PLB assignment after packing")
            }
            AuditError::PlbOverCapacity {
                plb,
                class,
                used,
                capacity,
            } => write!(
                f,
                "PLB {plb} holds {used} {class} cells but the architecture provides {capacity}"
            ),
            AuditError::GroupSplit { cell } => {
                write!(f, "compaction group of cell {cell:?} is split across PLBs")
            }
            AuditError::Disconnected { net, sink } => {
                write!(
                    f,
                    "net {net}'s retained route never reaches sink tile {sink:?}"
                )
            }
            AuditError::BrokenSegment { net } => {
                write!(f, "net {net}'s route contains a non-adjacent tile hop")
            }
            AuditError::EdgeAccounting {
                what,
                reported,
                derived,
            } => write!(
                f,
                "router reported {what} = {reported} but the retained routes re-derive {derived}"
            ),
            AuditError::StaMismatch {
                what,
                object,
                incremental,
                oracle,
            } => write!(
                f,
                "incremental STA disagrees with full analysis on {what} of {object}: \
                 {incremental} vs {oracle}"
            ),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

/// Post-synthesis / post-compaction contract: the netlist is structurally
/// valid against the architecture's library.
///
/// # Errors
///
/// [`AuditError::Netlist`] wrapping the first structural violation.
pub fn audit_netlist(netlist: &Netlist, lib: &Library) -> Result<(), AuditError> {
    netlist.validate(lib).map_err(AuditError::Netlist)
}

/// Post-placement contract: every library cell has a position inside the
/// die and inside its region constraint.
///
/// # Errors
///
/// Names the first unplaced, out-of-die, or region-violating cell.
pub fn audit_placement(netlist: &Netlist, placement: &Placement) -> Result<(), AuditError> {
    let die = placement.die();
    for (id, cell) in netlist.cells() {
        if !matches!(cell.kind(), CellKind::Lib(_)) {
            continue;
        }
        let Some((x, y)) = placement.position(id) else {
            return Err(AuditError::UnplacedCell {
                cell: netlist.cell_name(id).to_owned(),
            });
        };
        if x < die.x0 - GEOMETRY_EPS
            || x > die.x1 + GEOMETRY_EPS
            || y < die.y0 - GEOMETRY_EPS
            || y > die.y1 + GEOMETRY_EPS
        {
            return Err(AuditError::OutsideDie {
                cell: netlist.cell_name(id).to_owned(),
                x,
                y,
            });
        }
        if let Some(region) = placement.region(id) {
            if x < region.x0 - GEOMETRY_EPS
                || x > region.x1 + GEOMETRY_EPS
                || y < region.y0 - GEOMETRY_EPS
                || y > region.y1 + GEOMETRY_EPS
            {
                return Err(AuditError::RegionViolation {
                    cell: netlist.cell_name(id).to_owned(),
                });
            }
        }
    }
    Ok(())
}

/// Post-packing contract: every library cell is assigned to a PLB, no PLB
/// exceeds its per-class capacity, and compaction groups stay whole.
///
/// # Errors
///
/// Names the first unassigned cell, over-capacity PLB, or split group.
pub fn audit_pack(
    netlist: &Netlist,
    arch: &PlbArchitecture,
    array: &PlbArray,
) -> Result<(), AuditError> {
    let mut group_home: HashMap<vpga_netlist::GroupId, usize> = HashMap::new();
    for (id, cell) in netlist.cells() {
        if !matches!(cell.kind(), CellKind::Lib(_)) {
            continue;
        }
        let Some(plb) = array.plb_of(id) else {
            return Err(AuditError::UnassignedCell {
                cell: netlist.cell_name(id).to_owned(),
            });
        };
        if let Some(group) = cell.group() {
            let home = *group_home.entry(group).or_insert(plb);
            if home != plb {
                return Err(AuditError::GroupSplit {
                    cell: netlist.cell_name(id).to_owned(),
                });
            }
        }
    }
    let capacity = arch.capacity();
    for (index, plb) in array.iter() {
        for (class, available) in capacity.iter() {
            let used = plb.used(class);
            if used > available {
                return Err(AuditError::PlbOverCapacity {
                    plb: index,
                    class,
                    used: used as usize,
                    capacity: available as usize,
                });
            }
        }
    }
    Ok(())
}

/// Post-routing contract: every retained net route is a connected set of
/// adjacent-tile hops covering the net's source and sink tiles, and the
/// occupancy statistics the router reported re-derive exactly from those
/// routes. Requires [`vpga_route::RouteConfig::keep_routes`]; with routes
/// discarded the audit degrades to a no-op.
///
/// # Errors
///
/// Names the first disconnected net, broken segment, or accounting
/// mismatch.
pub fn audit_route(
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingResult,
    channel_capacity: u32,
) -> Result<(), AuditError> {
    let die = placement.die();
    let tile = routing.tile_size();
    let (cols, rows) = routing.grid_dims();
    let tile_of = |x: f64, y: f64| -> (usize, usize) {
        let c = (((x - die.x0) / tile).floor().max(0.0) as usize).min(cols - 1);
        let r = (((y - die.y0) / tile).floor().max(0.0) as usize).min(rows - 1);
        (c, r)
    };
    type Tile = (usize, usize);
    let mut edge_load: HashMap<(Tile, Tile), u32> = HashMap::new();
    let mut any_routes = false;
    for net in netlist.nets() {
        let Some(driver) = netlist.driver(net) else {
            continue;
        };
        if matches!(
            netlist.cell(driver).map(|c| c.kind()),
            Some(CellKind::Constant(_))
        ) {
            continue;
        }
        let Some((dx, dy)) = placement.position(driver) else {
            continue;
        };
        let source = tile_of(dx, dy);
        let mut sinks: Vec<(usize, usize)> = Vec::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for &(cell, _) in netlist.sinks(net) {
            if let Some((x, y)) = placement.position(cell) {
                let t = tile_of(x, y);
                if t != source && seen.insert(t) {
                    sinks.push(t);
                }
            }
        }
        if sinks.is_empty() {
            continue;
        }
        let Some(segments) = routing.net_route(net) else {
            continue; // routes not retained — nothing to audit
        };
        any_routes = true;
        // Each hop must join adjacent tiles; count occupancy as the router
        // does (one per undirected edge per net).
        let mut adjacency: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for &(a, b) in segments {
            if a.0.abs_diff(b.0) + a.1.abs_diff(b.1) != 1 {
                return Err(AuditError::BrokenSegment { net });
            }
            let key = if a <= b { (a, b) } else { (b, a) };
            *edge_load.entry(key).or_insert(0) += 1;
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }
        // BFS from the source over the retained tree.
        let mut reached: HashSet<(usize, usize)> = HashSet::new();
        let mut queue = VecDeque::from([source]);
        reached.insert(source);
        while let Some(t) = queue.pop_front() {
            for &next in adjacency.get(&t).map(Vec::as_slice).unwrap_or(&[]) {
                if reached.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        for &sink in &sinks {
            if !reached.contains(&sink) {
                return Err(AuditError::Disconnected { net, sink });
            }
        }
    }
    if any_routes {
        let derived_max = edge_load.values().copied().max().unwrap_or(0);
        if derived_max != routing.max_edge_load() {
            return Err(AuditError::EdgeAccounting {
                what: "max_edge_load",
                reported: routing.max_edge_load() as usize,
                derived: derived_max as usize,
            });
        }
        let derived_overflow = edge_load
            .values()
            .filter(|&&load| load > channel_capacity)
            .count();
        if derived_overflow != routing.overflow_edges() {
            return Err(AuditError::EdgeAccounting {
                what: "overflow_edges",
                reported: routing.overflow_edges(),
                derived: derived_overflow,
            });
        }
    }
    Ok(())
}

/// Pre-STA contract: the combinational netlist is acyclic, so levelized
/// arrival propagation is defined.
///
/// # Errors
///
/// [`AuditError::Netlist`] wrapping the cycle report.
pub fn audit_sta_ready(netlist: &Netlist, lib: &Library) -> Result<(), AuditError> {
    vpga_netlist::graph::combinational_topo_order(netlist, lib)
        .map(|_| ())
        .map_err(AuditError::Netlist)
}

/// Incremental-STA contract: the event-driven timer's current state is
/// bit-identical to a from-scratch [`vpga_timing::try_analyze`] on the
/// same netlist and geometry — per-net arrivals and slacks, endpoint
/// order and values, the worst slack, and the derived criticalities.
///
/// # Errors
///
/// [`AuditError::StaMismatch`] naming the first disagreeing quantity.
pub fn audit_sta_equivalence(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
    config: &vpga_timing::TimingConfig,
    report: &vpga_timing::TimingReport,
) -> Result<(), AuditError> {
    let oracle = vpga_timing::try_analyze(netlist, lib, placement, routing, config).map_err(
        |e| match e {
            vpga_timing::TimingError::Cyclic(err) => AuditError::Netlist(err),
            // TimingError is non-exhaustive; future variants still mean the
            // oracle could not run, which the netlist auditor reports best.
            _ => AuditError::Netlist(NetlistError::CombinationalCycle(
                vpga_netlist::CellId::from_index(0),
            )),
        },
    )?;
    let bits_differ = |a: f64, b: f64| a.to_bits() != b.to_bits();
    let scalar = |what: &'static str, inc: f64, ora: f64| -> Result<(), AuditError> {
        if bits_differ(inc, ora) {
            return Err(AuditError::StaMismatch {
                what,
                object: "-".to_owned(),
                incremental: inc,
                oracle: ora,
            });
        }
        Ok(())
    };
    scalar("worst_slack", report.worst_slack(), oracle.worst_slack())?;
    scalar(
        "critical_delay",
        report.critical_delay(),
        oracle.critical_delay(),
    )?;
    for net in netlist.nets() {
        if bits_differ(report.net_arrival(net), oracle.net_arrival(net)) {
            return Err(AuditError::StaMismatch {
                what: "arrival",
                object: net.to_string(),
                incremental: report.net_arrival(net),
                oracle: oracle.net_arrival(net),
            });
        }
        if bits_differ(report.net_slack(net), oracle.net_slack(net)) {
            return Err(AuditError::StaMismatch {
                what: "slack",
                object: net.to_string(),
                incremental: report.net_slack(net),
                oracle: oracle.net_slack(net),
            });
        }
    }
    for (i, (a, b)) in report
        .endpoints()
        .iter()
        .zip(oracle.endpoints())
        .enumerate()
    {
        if a.name != b.name || a.net != b.net || bits_differ(a.arrival, b.arrival) {
            return Err(AuditError::StaMismatch {
                what: "endpoint",
                object: format!("#{i} {}", a.name),
                incremental: a.arrival,
                oracle: b.arrival,
            });
        }
        if bits_differ(a.slack, b.slack) {
            return Err(AuditError::StaMismatch {
                what: "endpoint",
                object: format!("#{i} {}", a.name),
                incremental: a.slack,
                oracle: b.slack,
            });
        }
    }
    if report.endpoints().len() != oracle.endpoints().len() {
        return Err(AuditError::StaMismatch {
            what: "endpoint",
            object: "count".to_owned(),
            incremental: report.endpoints().len() as f64,
            oracle: oracle.endpoints().len() as f64,
        });
    }
    let (inc_crit, ora_crit) = (report.net_criticalities(), oracle.net_criticalities());
    for (i, (a, b)) in inc_crit.iter().zip(&ora_crit).enumerate() {
        if bits_differ(*a, *b) {
            return Err(AuditError::StaMismatch {
                what: "criticality",
                object: format!("net index {i}"),
                incremental: *a,
                oracle: *b,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    fn placed_chain() -> (Netlist, Library, Placement) {
        let lib = generic::library();
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..6 {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        (nl, lib, p)
    }

    #[test]
    fn clean_artifacts_pass_every_audit() {
        let (nl, lib, p) = placed_chain();
        audit_netlist(&nl, &lib).unwrap();
        audit_placement(&nl, &p).unwrap();
        audit_sta_ready(&nl, &lib).unwrap();
        let routing = vpga_route::route(
            &nl,
            &p,
            &vpga_route::RouteConfig {
                keep_routes: true,
                ..vpga_route::RouteConfig::default()
            },
        );
        audit_route(&nl, &p, &routing, 16).unwrap();
    }

    #[test]
    fn corrupted_placement_is_named() {
        let (nl, _lib, mut p) = placed_chain();
        let victim = nl.cell_by_name("i3").unwrap();
        let die = p.die();
        p.set_position(victim, die.x1 + 100.0, die.y1 + 100.0);
        let err = audit_placement(&nl, &p).unwrap_err();
        assert!(
            matches!(err, AuditError::OutsideDie { ref cell, .. } if cell == "i3"),
            "{err:?}"
        );
    }

    #[test]
    fn sta_equivalence_passes_fresh_and_names_stale_state() {
        let (nl, lib, mut p) = placed_chain();
        let config = vpga_timing::TimingConfig::default();
        let mut sta = vpga_timing::IncrementalSta::new(&nl, &lib, &config).unwrap();
        sta.full_analyze(&nl, &p, None);
        audit_sta_equivalence(&nl, &lib, &p, None, &config, &sta.report(&nl)).unwrap();
        // Move a cell without telling the timer: the audit must notice.
        let victim = nl.cell_by_name("i3").unwrap();
        let (x, y) = p.position(victim).unwrap();
        p.set_position(victim, x + 40.0, y + 40.0);
        let stale = audit_sta_equivalence(&nl, &lib, &p, None, &config, &sta.report(&nl));
        assert!(
            matches!(stale, Err(AuditError::StaMismatch { .. })),
            "{stale:?}"
        );
        // Telling it repairs the state.
        sta.update_moved_cells(&nl, &p, None, &[victim]);
        audit_sta_equivalence(&nl, &lib, &p, None, &config, &sta.report(&nl)).unwrap();
    }

    #[test]
    fn packed_array_passes_capacity_and_group_audit() {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let design = vpga_designs::NamedDesign::Alu.generate(&vpga_designs::DesignParams::tiny());
        let nl = vpga_synth::map_netlist_fast(&design, &generic::library(), &arch).unwrap();
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let array = vpga_pack::pack(&nl, &arch, &p, &vpga_pack::PackConfig::default()).unwrap();
        audit_pack(&nl, &arch, &array).unwrap();
    }
}
