//! Static timing analysis with post-layout wire delays.
//!
//! "We measure the final performance of the design by running static timing
//! analysis in Dolphin with data from post-layout extraction" (§3.1). This
//! crate is that step:
//!
//! * cell arcs use the characterized linear model
//!   `d = intrinsic + R_drive × C_load`,
//! * wires use an Elmore model over the *routed* length when a
//!   [`vpga_route::RoutingResult`] is supplied, else over the placement
//!   half-perimeter estimate,
//! * timing starts at primary inputs and flip-flop Q pins (clk→Q arc) and
//!   ends at primary outputs and flip-flop D pins (setup-constrained by
//!   [`vpga_core::params::DFF_SETUP_PS`]), against the paper's 0.5 ns cycle
//!   ([`vpga_core::params::CLOCK_PERIOD_PS`]).
//!
//! The report exposes the paper's Table 2 metric — the average slack over
//! the 10 most critical paths ([`TimingReport::avg_top_slack`]) — plus the
//! per-net criticalities the timing-driven placer and packer consume, and
//! the net weights derived from them ([`TimingReport::net_weights`]).
//! [`arc_delays`] exports the per-arc delays the analysis folds, for the
//! SDF writer.
//!
//! [`analyze`] is the crate's one entry point; a netlist it cannot
//! levelize comes back as a [`TimingError`].
//!
//! Every consumer runs one full pass: the flow times a netlist a handful
//! of times (placement weights, packing and swap weights, post-route
//! STA), and a pass over the paper-scale network switch takes a few
//! milliseconds against seconds of placement and routing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod power;

use vpga_core::params;
use vpga_netlist::{CellId, CellKind, Library, NetId, Netlist};
use vpga_place::Placement;
use vpga_route::RoutingResult;

/// One timing endpoint (primary output or flip-flop D pin).
#[derive(Clone, Debug, PartialEq)]
pub struct Endpoint {
    /// Endpoint cell name.
    pub name: String,
    /// The net sampled at the endpoint (PO input or DFF D).
    pub net: NetId,
    /// Data arrival time at the endpoint, ps.
    pub arrival: f64,
    /// Slack against the clock constraint, ps.
    pub slack: f64,
}

/// The result of a timing run.
#[derive(Clone, Debug)]
pub struct TimingReport {
    arrival: Vec<f64>,
    slack: Vec<f64>,
    endpoints: Vec<Endpoint>,
    worst_arrival: f64,
}

impl TimingReport {
    /// Arrival time on a net, ps.
    pub fn net_arrival(&self, net: NetId) -> f64 {
        self.arrival.get(net.index()).copied().unwrap_or(0.0)
    }

    /// All endpoints, most critical (smallest slack) first.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// The single worst endpoint slack, ps.
    pub fn worst_slack(&self) -> f64 {
        self.endpoints
            .first()
            .map(|e| e.slack)
            .unwrap_or(params::CLOCK_PERIOD_PS)
    }

    /// Latest data arrival anywhere, ps (the critical-path delay).
    pub fn critical_delay(&self) -> f64 {
        self.worst_arrival
    }

    /// The paper's Table 2 metric: the mean slack over the `n` most
    /// critical endpoints (10 in the paper).
    pub fn avg_top_slack(&self, n: usize) -> f64 {
        let take = n.min(self.endpoints.len()).max(1);
        if self.endpoints.is_empty() {
            return params::CLOCK_PERIOD_PS;
        }
        self.endpoints
            .iter()
            .take(take)
            .map(|e| e.slack)
            .sum::<f64>()
            / take as f64
    }

    /// Per-net criticality in `[0, 1]` (1 = on the critical path), for the
    /// timing-driven placement weights.
    pub fn net_criticalities(&self) -> Vec<f64> {
        let d = self.worst_arrival.max(1e-9);
        self.slack
            .iter()
            .map(|&s| {
                let c = 1.0 - s.max(0.0) / (d + params::CLOCK_PERIOD_PS - d).max(d);
                c.clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Per-net timing-driven weights `1 + 8c²` over
    /// [`TimingReport::net_criticalities`], for the criticality-weighted
    /// wirelength of the placement refinement and the PLB swap.
    pub fn net_weights(&self) -> Vec<f64> {
        self.net_criticalities()
            .iter()
            .map(|&c| 1.0 + 8.0 * c * c)
            .collect()
    }

    /// Per-cell criticality (the maximum criticality over the nets a cell
    /// touches), for the packer's relocation cost.
    pub fn cell_criticalities(&self, netlist: &Netlist) -> Vec<f64> {
        let nets = self.net_criticalities();
        let mut out = vec![0.0f64; netlist.cell_capacity()];
        for net in netlist.nets() {
            let c = nets[net.index()];
            if let Some(d) = netlist.driver(net) {
                out[d.index()] = out[d.index()].max(c);
            }
            for &(sink, _) in netlist.sinks(net) {
                out[sink.index()] = out[sink.index()].max(c);
            }
        }
        out
    }

    /// Traces the critical path into endpoint `index` (into
    /// [`TimingReport::endpoints`] order): walks backwards from the
    /// endpoint's net, at every combinational cell following the input with
    /// the latest arrival, until a launch point (PI, constant, or flip-flop
    /// Q). Returns the instance names from launch to endpoint.
    pub fn critical_path(&self, netlist: &Netlist, lib: &Library, index: usize) -> Vec<String> {
        let Some(endpoint) = self.endpoints.get(index) else {
            return Vec::new();
        };
        let mut path: Vec<String> = Vec::new();
        let mut net = endpoint.net;
        while let Some(driver) = netlist.driver(net) {
            let cell = netlist.cell(driver).expect("live driver");
            path.push(netlist.cell_name(driver).to_owned());
            let sequential = match cell.kind() {
                CellKind::Lib(id) => lib.cell(id).is_some_and(|c| c.is_sequential()),
                _ => true, // PI / constant: stop
            };
            if sequential {
                break;
            }
            let Some(&worst) = cell
                .inputs()
                .iter()
                .max_by(|a, b| self.net_arrival(**a).total_cmp(&self.net_arrival(**b)))
            else {
                break;
            };
            net = worst;
        }
        path.reverse();
        path
    }
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "timing: critical delay {:.1} ps, worst slack {:.1} ps, top-10 avg {:.1} ps \
             ({} endpoints, {:.0} ps cycle)",
            self.critical_delay(),
            self.worst_slack(),
            self.avg_top_slack(10),
            self.endpoints.len(),
            params::CLOCK_PERIOD_PS
        )?;
        for e in self.endpoints.iter().take(5) {
            writeln!(
                f,
                "  {:30} arrival {:9.1} ps, slack {:9.1} ps",
                e.name, e.arrival, e.slack
            )?;
        }
        Ok(())
    }
}

/// STA failures surfaced by [`analyze`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingError {
    /// The combinational part of the netlist is cyclic; levelized arrival
    /// propagation is undefined.
    Cyclic(vpga_netlist::NetlistError),
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::Cyclic(e) => write!(f, "cannot levelize netlist: {e}"),
        }
    }
}

impl std::error::Error for TimingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TimingError::Cyclic(e) => Some(e),
        }
    }
}

/// Runs static timing analysis against the [`params::CLOCK_PERIOD_PS`]
/// cycle, with [`params::DFF_SETUP_PS`] setup at every flip-flop.
///
/// `routing` supplies exact routed wirelengths; without it, wire parasitics
/// are estimated from the placement's half-perimeter bounding boxes
/// (pre-route timing).
///
/// # Errors
///
/// [`TimingError::Cyclic`] if the combinational part of the netlist has a
/// cycle.
pub fn analyze(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
) -> Result<TimingReport, TimingError> {
    let order =
        vpga_netlist::graph::combinational_topo_order(netlist, lib).map_err(TimingError::Cyclic)?;
    let mut arrival = vec![0.0f64; netlist.net_capacity()];
    let nets = net_parasitics(netlist, lib, placement, routing);

    // Launch points: primary inputs at t = 0, flip-flop Qs at clk→Q.
    let mut dffs: Vec<CellId> = Vec::new();
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            CellKind::Input | CellKind::Constant(_) => {
                if let Some(net) = cell.output() {
                    arrival[net.index()] = if matches!(cell.kind(), CellKind::Input) {
                        nets[net.index()].wire_delay
                    } else {
                        0.0
                    };
                }
            }
            CellKind::Lib(lib_id) => {
                let lc = lib.cell(lib_id).expect("lib cell");
                if lc.is_sequential() {
                    let q = cell.output().expect("DFF drives Q");
                    let p = nets[q.index()];
                    arrival[q.index()] = lc.delay(p.load) + p.wire_delay;
                    dffs.push(id);
                }
            }
            CellKind::Output => {}
        }
    }
    // Forward propagation through combinational cells.
    for id in &order {
        let cell = netlist.cell(*id).expect("live cell");
        let lc = lib
            .cell(cell.lib_id().expect("combinational lib cell"))
            .expect("lib cell");
        let input_arrival = cell
            .inputs()
            .iter()
            .map(|n| arrival[n.index()])
            .fold(0.0, f64::max);
        let out = cell.output().expect("combinational output");
        let p = nets[out.index()];
        arrival[out.index()] = input_arrival + lc.delay(p.load) + p.wire_delay;
    }
    // Endpoints and required times.
    let mut required = vec![f64::INFINITY; netlist.net_capacity()];
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for &po in netlist.outputs() {
        let cell = netlist.cell(po).expect("live PO");
        let net = cell.inputs()[0];
        let req = params::CLOCK_PERIOD_PS;
        required[net.index()] = required[net.index()].min(req);
        endpoints.push(Endpoint {
            name: netlist.cell_name(po).to_owned(),
            net,
            arrival: arrival[net.index()],
            slack: req - arrival[net.index()],
        });
    }
    for &ff in &dffs {
        let cell = netlist.cell(ff).expect("live DFF");
        let d = cell.inputs()[0];
        let req = params::CLOCK_PERIOD_PS - params::DFF_SETUP_PS;
        required[d.index()] = required[d.index()].min(req);
        endpoints.push(Endpoint {
            name: netlist.cell_name(ff).to_owned(),
            net: d,
            arrival: arrival[d.index()],
            slack: req - arrival[d.index()],
        });
    }
    // Backward required-time propagation.
    for id in order.iter().rev() {
        let cell = netlist.cell(*id).expect("live cell");
        let lc = lib
            .cell(cell.lib_id().expect("combinational lib cell"))
            .expect("lib cell");
        let out = cell.output().expect("combinational output");
        let p = nets[out.index()];
        let stage = lc.delay(p.load) + p.wire_delay;
        let up = required[out.index()] - stage;
        for n in cell.inputs() {
            if up < required[n.index()] {
                required[n.index()] = up;
            }
        }
    }
    let slack: Vec<f64> = arrival
        .iter()
        .zip(&required)
        .map(|(&a, &r)| {
            if r.is_finite() {
                r - a
            } else {
                params::CLOCK_PERIOD_PS
            }
        })
        .collect();
    endpoints.sort_by(|a, b| a.slack.total_cmp(&b.slack));
    let worst_arrival = endpoints.iter().map(|e| e.arrival).fold(0.0f64, f64::max);
    Ok(TimingReport {
        arrival,
        slack,
        endpoints,
        worst_arrival,
    })
}

/// The lumped parasitics of one net.
#[derive(Clone, Copy, Default)]
struct NetParasitics {
    /// Elmore delay after the driver's output, ps: the lumped wire
    /// resistance into half the wire capacitance plus every sink pin.
    wire_delay: f64,
    /// Capacitive load on the driver (wire plus sink pins), fF.
    load: f64,
}

/// The one net-parasitic model, per net slot (dead slots stay zero):
/// wire length is the routed length when `routing` is supplied, else the
/// placement's half-perimeter estimate. STA, [`arc_delays`] and
/// [`power::estimate`] all read it, so the SDF annotation and the power
/// sum see exactly the numbers the analysis folded.
fn net_parasitics(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
) -> Vec<NetParasitics> {
    let mut out = vec![NetParasitics::default(); netlist.net_capacity()];
    for net in netlist.nets() {
        let len = match routing {
            Some(r) => r.net_length(net),
            None => placement.net_hpwl(netlist, net),
        };
        let sink_cap: f64 = netlist
            .sinks(net)
            .iter()
            .filter_map(|&(cell, _)| {
                netlist
                    .cell(cell)
                    .and_then(|c| c.lib_id())
                    .and_then(|id| lib.cell(id))
                    .map(|c| c.input_cap())
            })
            .sum();
        let wire_cap = len * params::WIRE_CAP_PER_UM;
        out[net.index()] = NetParasitics {
            wire_delay: len * params::WIRE_RES_PER_UM * (wire_cap / 2.0 + sink_cap),
            load: wire_cap + sink_cap,
        };
    }
    out
}

/// The per-arc delays [`analyze`] folds into arrival times, for an
/// interchange writer (SDF) to annotate: the cell (IOPATH) and net
/// (INTERCONNECT) delays, by cell and net slot. Both come from the same
/// net model and cell arcs as the analysis on the same inputs, so an
/// exported value is bit-identical to what the STA used — re-parsing an
/// export and comparing against this function is an exact check, not an
/// approximate one.
///
/// A cell slot is set for every library cell that drives a net (its
/// `delay(load)` at that net's load); ports and constants stay unset. A
/// net slot is set for every net some live cell drives.
pub fn arc_delays(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
) -> ArcDelays {
    let nets = net_parasitics(netlist, lib, placement, routing);
    let mut arcs = ArcDelays::with_capacity(netlist.cell_capacity(), netlist.net_capacity());
    for (id, cell) in netlist.cells() {
        let Some(out) = cell.output() else { continue };
        let p = nets[out.index()];
        arcs.set_net(out.index(), p.wire_delay);
        if let Some(lc) = cell.lib_id().and_then(|l| lib.cell(l)) {
            arcs.set_cell(id.index(), lc.delay(p.load));
        }
    }
    arcs
}

/// Per-arc delay export of [`arc_delays`], indexed by cell and net slot.
/// Stored SoA: dense `f64` value arrays plus validity bitmaps, instead of
/// `Vec<Option<f64>>` — half the footprint (a tagged `Option<f64>` is 16
/// bytes) and the values pack contiguously for the interchange writers
/// that stream every slot.
#[derive(Clone, Debug, Default)]
pub struct ArcDelays {
    cell_val: Vec<f64>,
    cell_set: Vec<u64>,
    net_val: Vec<f64>,
    net_set: Vec<u64>,
}

impl ArcDelays {
    fn with_capacity(cells: usize, nets: usize) -> ArcDelays {
        ArcDelays {
            cell_val: vec![0.0; cells],
            cell_set: vec![0; cells.div_ceil(64)],
            net_val: vec![0.0; nets],
            net_set: vec![0; nets.div_ceil(64)],
        }
    }

    fn set_cell(&mut self, i: usize, v: f64) {
        self.cell_val[i] = v;
        self.cell_set[i / 64] |= 1 << (i % 64);
    }

    fn set_net(&mut self, i: usize, v: f64) {
        self.net_val[i] = v;
        self.net_set[i / 64] |= 1 << (i % 64);
    }

    /// IOPATH delay of cell slot `i`: the cell's `delay(load)` at its
    /// output net's current load. `None` for dead slots, ports, and
    /// constants (no modeled delay arc).
    pub fn cell(&self, i: usize) -> Option<f64> {
        (self.cell_set.get(i / 64).copied().unwrap_or(0) >> (i % 64) & 1 == 1)
            .then(|| self.cell_val[i])
    }

    /// INTERCONNECT delay of net slot `i`: the lumped wire delay every
    /// sink of the net sees after its driver. `None` for dead and
    /// undriven slots.
    pub fn net(&self, i: usize) -> Option<f64> {
        (self.net_set.get(i / 64).copied().unwrap_or(0) >> (i % 64) & 1 == 1)
            .then(|| self.net_val[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_core::PlbArchitecture;
    use vpga_place::PlaceConfig;

    /// A two-stage pipeline on the granular library: PI → ND3 → DFF → MUX →
    /// PO.
    fn pipeline() -> (Netlist, PlbArchitecture) {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let mut n = Netlist::new("pipe");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_lib_cell("g", &lib, "ND3", &[a, b, c]).unwrap();
        let q = n.add_lib_cell("ff", &lib, "DFF", &[g]).unwrap();
        let m = n.add_lib_cell("m", &lib, "MUX", &[q, a, b]).unwrap();
        n.add_output("y", m);
        (n, arch)
    }

    #[test]
    fn arrivals_accumulate_along_paths() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        let g_net = n
            .cell(n.cell_by_name("g").unwrap())
            .unwrap()
            .output()
            .unwrap();
        let m_net = n
            .cell(n.cell_by_name("m").unwrap())
            .unwrap()
            .output()
            .unwrap();
        assert!(report.net_arrival(g_net) >= 45.0, "ND3 intrinsic at least");
        // The MUX output launches from the DFF Q, not from g.
        assert!(report.net_arrival(m_net) > 0.0);
        assert_eq!(report.endpoints().len(), 2); // PO + DFF D
    }

    #[test]
    fn slacks_are_against_the_500ps_clock() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        for e in report.endpoints() {
            assert!(e.slack <= 500.0);
            assert!(e.slack > 0.0, "tiny pipeline should meet 500 ps: {e:?}");
        }
        assert!(report.avg_top_slack(10) > 0.0);
        assert!(report.worst_slack() <= report.avg_top_slack(10) + 1e-9);
    }

    #[test]
    fn routed_wirelengths_slow_paths_down() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let pre = analyze(&n, arch.library(), &p, None).unwrap();
        let r = vpga_route::route(&n, &p, &vpga_route::RouteConfig::default()).unwrap();
        let post = analyze(&n, arch.library(), &p, Some(&r)).unwrap();
        // Routed detours can only lengthen (or match) the HPWL estimate per
        // net, so the post-route critical delay is at least comparable.
        assert!(post.critical_delay() + 50.0 >= pre.critical_delay());
    }

    #[test]
    fn arc_delays_are_the_delays_the_analysis_folds() {
        let (n, arch) = pipeline();
        let lib = arch.library();
        let (p, _) = vpga_place::place(&n, lib, &PlaceConfig::default()).unwrap();
        let r = vpga_route::route(&n, &p, &vpga_route::RouteConfig::default()).unwrap();
        let out_of = |name: &str| -> (CellId, NetId) {
            let id = n.cell_by_name(name).unwrap();
            (id, n.cell(id).unwrap().output().unwrap())
        };
        for routing in [None, Some(&r)] {
            let report = analyze(&n, lib, &p, routing).unwrap();
            let arcs = arc_delays(&n, lib, &p, routing);
            // A primary input launches at its net's wire delay and has no
            // cell arc.
            let (a, a_net) = out_of("a");
            assert!(arcs.cell(a.index()).is_none());
            assert_eq!(
                report.net_arrival(a_net).to_bits(),
                arcs.net(a_net.index()).unwrap().to_bits()
            );
            // The flip-flop launches at clk→Q plus its Q wire.
            let (ff, q) = out_of("ff");
            let launch = arcs.cell(ff.index()).unwrap() + arcs.net(q.index()).unwrap();
            assert_eq!(report.net_arrival(q).to_bits(), launch.to_bits());
            // A combinational cell adds its arc and its output wire to
            // its latest input, bit for bit.
            let (g, g_net) = out_of("g");
            let latest = n
                .cell(g)
                .unwrap()
                .inputs()
                .iter()
                .map(|&i| report.net_arrival(i))
                .fold(0.0, f64::max);
            let folded = latest + arcs.cell(g.index()).unwrap() + arcs.net(g_net.index()).unwrap();
            assert_eq!(report.net_arrival(g_net).to_bits(), folded.to_bits());
        }
    }

    #[test]
    fn criticalities_are_normalized() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        for c in report.net_criticalities() {
            assert!((0.0..=1.0).contains(&c));
        }
        let cells = report.cell_criticalities(&n);
        assert!(cells.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn lut_pipeline_is_slower_than_granular() {
        // The same 3-input function through a LUT3 vs a ND3: the paper's
        // performance story in miniature.
        let build = |arch: &PlbArchitecture, cell: &str| -> (Netlist, f64) {
            let lib = arch.library().clone();
            let mut n = Netlist::new("cmp");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let g = n.add_lib_cell("g", &lib, cell, &[a, b, c]).unwrap();
            let q = n.add_lib_cell("ff", &lib, "DFF", &[g]).unwrap();
            n.add_output("y", q);
            let (p, _) = vpga_place::place(&n, &lib, &PlaceConfig::default()).unwrap();
            let report = analyze(&n, &lib, &p, None).unwrap();
            let w = report.worst_slack();
            (n, w)
        };
        let lut_arch = PlbArchitecture::lut_based();
        let gran_arch = PlbArchitecture::granular();
        let (_, lut_slack) = build(&lut_arch, "LUT3");
        let (_, nd3_slack) = build(&gran_arch, "ND3");
        assert!(
            nd3_slack > lut_slack,
            "ND3 slack {nd3_slack} should beat LUT3 slack {lut_slack}"
        );
    }

    #[test]
    fn critical_path_traces_through_the_pipeline() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        // Worst endpoint's path must end at a launch point and be non-empty.
        let path = report.critical_path(&n, arch.library(), 0);
        assert!(!path.is_empty());
        // The path into the PO "y" runs DFF → MUX; the path into the DFF D
        // runs a/b/c → ND3. Either way the first element is a launch point.
        let launch = &path[0];
        assert!(
            launch == "ff" || launch == "a" || launch == "b" || launch == "c",
            "unexpected launch {launch} in {path:?}"
        );
        assert!(report.critical_path(&n, arch.library(), 99).is_empty());
    }

    #[test]
    fn display_lists_worst_endpoints() {
        let (n, arch) = pipeline();
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        let s = report.to_string();
        assert!(s.contains("critical delay"), "{s}");
        assert!(s.contains("slack"), "{s}");
    }

    #[test]
    fn empty_design_has_full_slack() {
        let arch = PlbArchitecture::granular();
        let mut n = Netlist::new("empty");
        let a = n.add_input("a");
        n.add_output("y", a);
        let (p, _) = vpga_place::place(&n, arch.library(), &PlaceConfig::default()).unwrap();
        let report = analyze(&n, arch.library(), &p, None).unwrap();
        assert!(report.worst_slack() > 400.0);
    }
}
